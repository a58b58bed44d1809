"""End-to-end daemon tests over real sockets.

Covers the PR's acceptance criteria: N identical concurrent POSTs run
exactly one solve (asserted through the observability counters), a
warm-session repeat query re-encodes nothing, a waiting client's
disconnect cooperatively interrupts the solve into the
exit-code-3-equivalent UNKNOWN payload, ``/metrics`` is a schema-valid
metrics record, and downloaded traces aggregate with ``repro stats``.
"""

import json
import socket
import threading
import time

import pytest

from repro.obs.schema import validate_record, validate_trace
from repro.obs.stats import aggregate
from repro.sat.limits import Limits
from repro.service import ServiceClientError
from repro.service.jobs import TenantPolicy
from tests.service.conftest import fig4_config_text



def _counters(client):
    return client.metrics()["counters"]


def test_health_index_and_metrics_schema(service):
    client = service.client
    health = client.health()
    assert health["ok"] is True and health["workers"] == 2
    metrics = client.metrics()
    assert validate_record(metrics) == []
    assert metrics["type"] == "metrics"
    index = client.request("GET", "/")
    assert "POST /verify" in index["endpoints"]


def test_warm_repeat_query_performs_zero_reencodes(service, fig3_text):
    client = service.client
    outcome = client.verify(config=fig3_text, spec={"k": 1}, wait=True)
    assert outcome["result"]["exit_code"] == 0
    first = _counters(client)
    outcome2 = client.verify(config=fig3_text, spec={"k": 1}, wait=True)
    assert outcome2["result"]["exit_code"] == 0
    second = _counters(client)
    # The repeat query re-encoded nothing: no new cache miss, no new
    # context build — it ran entirely against the warm session.
    assert second["cache.misses"] == first["cache.misses"]
    assert second.get("cache.hits", 0) > first.get("cache.hits", 0)
    sessions = client.sessions()
    assert sessions["stats"]["created"] == 1
    assert sessions["stats"]["reused"] >= 1


def test_concurrent_identical_posts_share_one_solve(running, fig3_text):
    import asyncio

    from repro.service.jobs import JobOutcome
    from repro.service.protocol import JobKind

    box = running(jobs=1)
    client = box.client
    # Prime the session so submissions race only on the solve, and
    # gate the single worker slot so every POST lands while the first
    # job is still pending — the deterministic coalescing window.
    client.open_session(fig3_text)

    async def inject_blocker():
        gate = asyncio.Event()

        async def runner():
            await gate.wait()
            return JobOutcome(payload={"exit_code": 0})

        box.service.jobs.submit(JobKind.VERIFY, runner,
                                spec_text="blocker")
        return gate

    gate = box.submit(inject_blocker()).result(timeout=5)
    deadline = time.time() + 10
    while time.time() < deadline:
        blockers = [j for j in client.jobs()["jobs"]
                    if j["spec"] == "blocker"]
        if blockers and blockers[0]["state"] == "running":
            break
        time.sleep(0.05)
    before = _counters(client)
    results = []
    errors = []

    def post():
        try:
            results.append(client.verify(config=fig3_text,
                                         spec={"k": 2}, wait=True))
        except Exception as exc:  # pragma: no cover - surfaced below
            errors.append(exc)

    threads = [threading.Thread(target=post) for _ in range(5)]
    for thread in threads:
        thread.start()
    deadline = time.time() + 10
    while time.time() < deadline:
        mine = [j for j in client.jobs()["jobs"]
                if j["spec"] == "2-resilient observability"]
        if mine and mine[0]["coalesced"] == 4:
            break
        time.sleep(0.05)
    box.loop.call_soon_threadsafe(gate.set)
    for thread in threads:
        thread.join(timeout=60)
    assert not errors
    after = _counters(client)
    job_ids = {r["job"] for r in results}
    assert len(job_ids) == 1, "identical requests must share one job"
    assert (after.get("service.solves", 0)
            - before.get("service.solves", 0)) == 1
    assert (after.get("service.coalesce.hits", 0)
            - before.get("service.coalesce.hits", 0)) == 4
    verdicts = {r["result"]["exit_code"] for r in results}
    assert verdicts == {0} or verdicts == {1}


def test_different_budgets_do_not_coalesce(service, fig3_text):
    client = service.client
    done = client.verify(config=fig3_text, spec={"k": 1}, wait=True)
    limited = client.verify(config=fig3_text, spec={"k": 1},
                            limits={"max_conflicts": 100000},
                            wait=True)
    assert done["job"] != limited["job"]


def test_disconnect_cancels_into_unknown_payload(running, fig3_text):
    import asyncio

    from repro.service.jobs import JobOutcome
    from repro.service.protocol import JobKind

    box = running(jobs=1)
    client = box.client
    session_id = client.open_session(fig3_text)["session"]

    # Occupy the daemon's single worker slot with a job we gate from
    # the test, so the watched request stays pending deterministically.
    async def inject_blocker():
        gate = asyncio.Event()

        async def runner():
            await gate.wait()
            return JobOutcome(payload={"exit_code": 0})

        job, _ = box.service.jobs.submit(JobKind.VERIFY, runner,
                                         spec_text="blocker")
        return gate, job

    gate, blocker = box.submit(inject_blocker()).result(timeout=5)

    # Hand-rolled request so the socket can be dropped mid-wait.
    body = json.dumps({"session": session_id, "spec": {"k": 2},
                       "wait": True}).encode()
    raw = socket.create_connection(("127.0.0.1", box.service.port),
                                   timeout=10)
    raw.sendall(b"POST /verify HTTP/1.1\r\n"
                b"Host: t\r\nContent-Type: application/json\r\n"
                + f"Content-Length: {len(body)}\r\n\r\n".encode()
                + body)
    time.sleep(0.5)
    raw.close()  # client gives up; nobody else is watching

    deadline = time.time() + 30
    cancelled = None
    while time.time() < deadline:
        jobs = client.jobs()["jobs"]
        mine = [j for j in jobs
                if j["spec"] == "2-resilient observability"]
        if mine and mine[0]["state"] in ("cancelled", "done", "failed"):
            cancelled = mine[0]
            break
        time.sleep(0.1)
    assert cancelled is not None, "job never reached a terminal state"
    assert cancelled["state"] == "cancelled"
    assert cancelled["result"]["exit_code"] == 3
    assert cancelled["result"]["limit_reason"] == "interrupt"
    assert cancelled["result"]["cancelled"] is True
    assert cancelled["result"]["cancel_reason"] == "client-disconnect"

    box.loop.call_soon_threadsafe(gate.set)
    deadline = time.time() + 10
    while time.time() < deadline and not blocker.done.is_set():
        time.sleep(0.05)
    # The session is untouched and still answers the next query.
    again = client.verify(session=session_id, spec={"k": 1}, wait=True)
    assert again["result"]["exit_code"] in (0, 1)


def test_trace_download_validates_and_aggregates(service, fig3_text,
                                                 tmp_path):
    client = service.client
    outcome = client.verify(config=fig3_text, spec={"k": 1}, wait=True)
    text = client.trace(outcome["job"])
    records = [json.loads(line) for line in text.splitlines()]
    assert validate_trace(records) == []
    assert records[0]["type"] == "meta"
    assert records[0]["attrs"]["kind"] == "verify"
    assert records[-1]["type"] == "metrics"
    path = tmp_path / "job.jsonl"
    path.write_text(text, encoding="utf-8")
    stats = aggregate([str(path)])
    assert not stats.problems
    assert stats.queries >= 1


def test_enumerate_and_max_resiliency_payloads(service, fig3_text):
    client = service.client
    vectors = client.enumerate_vectors(config=fig3_text,
                                       spec={"k": 2}, limit=5,
                                       wait=True)
    assert vectors["result"]["status"] == "complete"
    assert vectors["result"]["count"] <= 5
    bounds = client.max_resiliency(config=fig3_text, wait=True)
    assert bounds["result"]["exit_code"] == 0
    assert bounds["result"]["total"]["exact"] is True


def test_session_invalidation_over_http(service, fig3_text):
    client = service.client
    session_id = client.open_session(fig3_text)["session"]
    client.verify(session=session_id, spec={"k": 1}, wait=True)
    assert client.invalidate(session_id)["invalidated"] == session_id
    with pytest.raises(ServiceClientError) as err:
        client.verify(session=session_id, spec={"k": 1}, wait=True)
    assert err.value.status == 404
    assert err.value.code == "no-such-session"


def test_client_errors_carry_stable_codes(service, fig3_text):
    client = service.client
    with pytest.raises(ServiceClientError) as err:
        client.request("GET", "/nope")
    assert err.value.code == "no-such-endpoint"
    with pytest.raises(ServiceClientError) as err:
        client.verify(config=fig3_text, spec={"k": -2}, wait=True)
    assert err.value.status == 400 and err.value.code == "bad-spec"
    with pytest.raises(ServiceClientError) as err:
        client.request("POST", "/verify", {"spec": {"k": 1}})
    assert err.value.code == "bad-request"
    with pytest.raises(ServiceClientError) as err:
        client.job("j999999")
    assert err.value.code == "no-such-job"


@pytest.mark.parametrize("field", ["max_time", "max_conflicts",
                                   "max_memory_mb"])
def test_nan_limits_cannot_lift_the_tenant_ceiling(running, fig3_text,
                                                   field):
    box = running(default_policy=TenantPolicy(
        limits=Limits(max_time=5.0, max_conflicts=10_000,
                      max_memory_mb=512.0)))
    with pytest.raises(ServiceClientError) as err:
        # The client's json.dumps writes a bare NaN token, which the
        # daemon's json.loads accepts.
        box.client.verify(config=fig3_text, spec={"k": 1},
                          limits={field: float("nan")}, wait=True)
    assert err.value.status == 400 and err.value.code == "bad-limits"
    assert box.client.sessions()["stats"]["created"] == 0


def test_lru_session_eviction_over_http(running, fig3_text):
    box = running(max_sessions=1)
    client = box.client
    client.verify(config=fig3_text, spec={"k": 1}, wait=True)
    # A second configuration (an extra link → different fingerprint)
    # evicts the only slot.
    client.verify(config=fig3_text.replace("\n10 11\n",
                                           "\n10 11\n10 14\n"),
                  spec={"k": 1}, wait=True)
    stats = client.sessions()["stats"]
    assert stats == {"open": 1, "created": 2, "reused": 0,
                     "evicted": 1, "invalidated": 0}
    # The evicted config transparently gets a fresh session.
    outcome = client.verify(config=fig3_text, spec={"k": 1}, wait=True)
    assert outcome["result"]["exit_code"] == 0
    assert client.sessions()["stats"]["created"] == 3


def test_sessions_listing_includes_solver_totals(service, fig3_text):
    client = service.client
    client.verify(config=fig3_text, spec={"k": 1}, wait=True)
    client.verify(config=fig3_text, spec={"k": 2}, wait=True)
    listing = client.sessions()["sessions"]
    assert len(listing) == 1
    solver = listing[0]["solver"]
    assert solver["queries"] == 2
    assert solver["propagations"] > 0
    assert {"tier_core", "tier_mid", "tier_local"} <= set(solver)


def test_warm_job_rejects_backend_override(service, fig3_text):
    """The server picks the path: no job may name a backend, by
    session or by inline config."""
    client = service.client
    session_id = client.open_session(fig3_text)["session"]
    for payload in ({"session": session_id, "backend": "fresh"},
                    {"config": fig3_text, "backend": "fresh"}):
        with pytest.raises(ServiceClientError) as err:
            client.request("POST", "/max-resiliency",
                           dict(payload, wait=True))
        assert err.value.status == 400
        assert err.value.code == "bad-request"
        assert "'backend'" in str(err.value)


@pytest.mark.parametrize("endpoint, body", [
    ("/verify", {"spec": {"k": -1}}),
    ("/enumerate", {"spec": {"k": 1}, "limit": 0}),
    ("/max-resiliency", {"property": "nope"}),
], ids=["verify", "enumerate", "max-resiliency"])
def test_rejected_request_keeps_warm_session(running, fig3_text, endpoint,
                                             body):
    """A malformed request with inline config is refused before its
    config opens a session, so it cannot evict a warm one."""
    box = running(max_sessions=1)
    client = box.client
    session_id = client.open_session(fig3_text)["session"]
    with pytest.raises(ServiceClientError) as err:
        client.request("POST", endpoint,
                       dict(body, config=fig4_config_text(), wait=True))
    assert err.value.status == 400
    stats = client.sessions()["stats"]
    assert (stats["created"], stats["evicted"]) == (1, 0)
    outcome = client.verify(session=session_id, spec={"k": 1}, wait=True)
    assert outcome["result"]["exit_code"] == 0


def test_watch_request_decoded_before_lookup_or_parse(service):
    client = service.client
    with pytest.raises(ServiceClientError) as err:
        client.open_watch(session="no-such-session", floors=[])
    assert (err.value.status, err.value.code) == (400, "bad-watch")
    with pytest.raises(ServiceClientError) as err:
        client.open_watch(config="not a configuration",
                          limits={"max_time": -1})
    assert (err.value.status, err.value.code) == (400, "bad-limits")


@pytest.mark.parametrize("config", ["not a configuration", "lint-fails",
                                    "fig3"])
def test_open_session_rejects_unknown_backend_up_front(service, fig3_text,
                                                       config):
    """Naming any backend is a 400 naming the field — before any parse,
    lint or engine work (which would answer 400 bad-config, or 422
    lint-failed for a config that also fails lint)."""
    texts = {"not a configuration": "not a configuration",
             "lint-fails": fig3_text.replace("8: 8", "99: 8"),
             "fig3": fig3_text}
    client = service.client
    with pytest.raises(ServiceClientError) as err:
        client.request("POST", "/sessions", {"config": texts[config],
                                             "backend": "quantum"})
    assert err.value.status == 400 and err.value.code == "bad-request"
    assert "'backend'" in str(err.value)
    assert client.sessions()["stats"]["created"] == 0
