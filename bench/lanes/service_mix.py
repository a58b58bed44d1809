"""service_mix: open-loop traffic against the in-process daemon.

Requests arrive at a fixed 6 req/s with seeded exponential gaps, sent
over HTTP by two client threads; latency runs from each request's due
time, so a stall delays every request queued behind it.  90% of
requests are hot: a uniform draw over 25 cells (every property at
k 0-4, bad data at r 1-2) of one pre-warmed 118-bus session.  10% are
churn: round-robin over twelve distinct 57-bus configurations, more
than the daemon's eight session slots, so every churn request opens a
cold session and evicts one.  The warm path (query encode, solve,
extract and HTTP/job overhead) sets the median; session build and
eviction set the tail.
"""

from __future__ import annotations

import asyncio
import collections
import math
import threading
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.scada.config_io import dump_config
from repro.service import ReproService, ServiceClient, ServiceClientError

from bench import harness, inputs, ledger
from bench.lanes import Context, layer_metrics, output

NAME = "service_mix"
CLIENTS = 2
REQUEST_TIMEOUT_S = 60.0


def universe(profile: inputs.Profile) -> List[Tuple[str, Any]]:
    cells = [("main", spec) for spec in inputs.hot_cells()]
    cells += [(f"churn-{i}", inputs.churn_spec(i))
              for i in range(inputs.CHURN_CONFIGS)]
    return cells


def plan(seed: int, profile: inputs.Profile) -> List[Dict[str, Any]]:
    keys = _keys(profile)
    seconds = float(harness.benchmark_spec()["run_seconds"])
    return [{"op": r.index, "due_s": round(r.due, 6),
             "churn": r.churn, "cell": _cell(keys, r)}
            for r in inputs.service_schedule(seed, seconds)]


def _keys(profile: inputs.Profile) -> Tuple[List[str], List[str]]:
    main = inputs.resolve("main", profile)
    hot = [inputs.config_key(main, spec) for spec in inputs.hot_cells()]
    churn = [inputs.config_key(inputs.resolve(f"churn-{i}", profile),
                               inputs.churn_spec(i))
             for i in range(inputs.CHURN_CONFIGS)]
    return hot, churn


def _cell(keys: Tuple[List[str], List[str]], request: inputs.Request
          ) -> str:
    return keys[1][request.cell] if request.churn else keys[0][request.cell]


class _Daemon:
    """The service on a background event-loop thread."""

    def __init__(self) -> None:
        self.service = ReproService(port=0)
        self.loop = asyncio.new_event_loop()
        started = threading.Event()

        def run() -> None:
            asyncio.set_event_loop(self.loop)
            self.loop.run_until_complete(self.service.start())
            started.set()
            self.loop.run_forever()

        self.thread = threading.Thread(target=run, name="service-loop",
                                       daemon=True)
        self.thread.start()
        if not started.wait(30):
            raise harness.BenchError("service failed to start")

    def client(self) -> ServiceClient:
        return ServiceClient(port=self.service.port,
                             timeout=REQUEST_TIMEOUT_S)

    def stop(self) -> None:
        future = asyncio.run_coroutine_threadsafe(self.service.shutdown(),
                                                  self.loop)
        future.result(timeout=60)
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(timeout=30)
        self.loop.close()


@dataclass
class _Setup:
    daemon: _Daemon
    session: str
    churn_texts: List[str]
    keys: Tuple[List[str], List[str]]


def _build(profile: inputs.Profile) -> _Setup:
    main = inputs.main_case(profile)
    churn = [inputs.churn_case(profile, i)
             for i in range(inputs.CHURN_CONFIGS)]
    keys = ([inputs.config_key(main, spec) for spec in inputs.hot_cells()],
            [inputs.config_key(config, inputs.churn_spec(i))
             for i, config in enumerate(churn)])
    daemon = _Daemon()
    client = daemon.client()
    session = client.open_session(dump_config(main))["session"]
    for spec in inputs.hot_cells():
        client.verify(session=session, spec=inputs.spec_payload(spec))
    return _Setup(daemon, session, [dump_config(c) for c in churn], keys)


@dataclass
class _Sent:
    request: inputs.Request
    due: float
    sent: float
    done: float
    response: Optional[Dict[str, Any]]
    error: Optional[str]


def _window(setup: _Setup, schedule: List[inputs.Request],
            recorder: Optional[ledger.Recorder]) -> Tuple[List[_Sent],
                                                          float]:
    """Issue *schedule* open-loop; returns the requests and the wall."""
    pending = collections.deque(schedule)
    lock = threading.Lock()
    sent: List[_Sent] = []
    start = time.perf_counter() + 0.05

    def client_thread() -> None:
        client = setup.daemon.client()
        while True:
            with lock:
                if not pending:
                    return
                request = pending.popleft()
            due = start + request.due
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            spec = (inputs.churn_spec(request.cell) if request.churn
                    else inputs.hot_cells()[request.cell])
            payload: Dict[str, Any] = {
                "spec": inputs.spec_payload(spec), "wait": True,
                "bench_request": request.index}
            if request.churn:
                payload["config"] = setup.churn_texts[request.cell]
            else:
                payload["session"] = setup.session
            began = time.perf_counter()
            response: Optional[Dict[str, Any]] = None
            error: Optional[str] = None
            try:
                response = client.request("POST", "/verify", payload)
            except (ServiceClientError, OSError) as exc:
                error = f"{type(exc).__name__}: {exc}"
            done = time.perf_counter()
            with lock:
                sent.append(_Sent(request, due, began, done, response,
                                  error))
            if recorder is not None:
                recorder.add("op", due, done, root=True,
                             request=request.index, churn=request.churn)

    threads = [threading.Thread(target=client_thread, name=f"client-{i}")
               for i in range(CLIENTS)]
    for thread in threads:
        thread.start()
    deadline = start + schedule[-1].due + 2 * REQUEST_TIMEOUT_S
    for thread in threads:
        thread.join(timeout=max(0.0, deadline - time.perf_counter()))
        if thread.is_alive():
            raise harness.BenchError("a client thread did not finish")
    wall = max(item.done for item in sent) - start
    return sorted(sent, key=lambda item: item.request.index), wall


def _outputs(setup: _Setup, sent: List[_Sent],
             phase: str) -> List[Dict[str, Any]]:
    outputs = []
    for item in sent:
        where = f"{phase} request {item.request.index}"
        cell = _cell(setup.keys, item.request)
        result = (item.response or {}).get("result") or {}
        if item.error is not None or item.response is None \
                or item.response.get("state") != "done":
            status = f"error: {item.error or item.response}"
            outputs.append(output(cell, status[:200], None, where))
            continue
        threat = result.get("threat")
        witness = (threat["ieds"] + threat["rtus"]) if threat else None
        outputs.append(output(cell, result.get("status", "?"), witness,
                              where))
    return outputs


def measure(ctx: Context) -> Dict[str, Any]:
    schedule = inputs.service_schedule(ctx.seed, ctx.seconds)
    if not ctx.trace:
        setup, samples = harness.median_setup(
            lambda: _build(ctx.profile), lambda s: s.daemon.stop())
        try:
            sent, wall = _window(setup, schedule, None)
        finally:
            setup.daemon.stop()
        latencies = [item.done - item.due for item in sent]
        return {"outputs": _outputs(setup, sent, "untraced"),
                "notes": [_tail(latencies)], "metrics": {
            "setup_s": harness.median(samples),
            "latency_p50_ms": harness.median(latencies) * 1000.0,
            "throughput_ops_s": len(sent) / wall,
            "peak_rss_mb": harness.peak_rss_mb(),
        }}
    return _traced(ctx, schedule)


def _tail(latencies: List[float]) -> str:
    """The highest whole percentile with at least ten samples beyond."""
    n = len(latencies)
    percent = math.floor(100 * (1 - 10 / n)) if n > 20 else 50
    value = harness.quantile(latencies, percent / 100) * 1000.0
    return f"tail: latency p{percent} {value:.1f} ms over {n} requests"


def _traced(ctx: Context, schedule: List[inputs.Request]
            ) -> Dict[str, Any]:
    """Untraced window, then the same schedule on a fresh daemon, traced."""
    setup = _build(ctx.profile)
    try:
        plain, _ = _window(setup, schedule, None)
    finally:
        setup.daemon.stop()
    recorder = ledger.Recorder()
    restore = ledger.install(recorder)
    try:
        setup = _build(ctx.profile)
        try:
            before = setup.daemon.client().metrics()
            recorder.enabled = True
            sent, _ = _window(setup, schedule, recorder)
            recorder.enabled = False
            after = setup.daemon.client().metrics()
        finally:
            setup.daemon.stop()
    finally:
        restore()
    n = len(sent)
    late = [item.sent - item.due for item in sent]
    queue_wait = _histogram_sum(before, after, "service.queue_wait_ms")
    job = _histogram_sum(before, after, "service.solve_ms")
    latency = sum(item.done - item.due for item in sent)
    values = ledger.ledger(recorder.spans, n, extra={
        "service.generator_late": sum(late),
        "service.queue_wait": queue_wait / 1000.0,
    })
    untraced = sum(item.done - item.due for item in plain) / len(plain)
    values["trace.overhead_ratio"] = (latency / n) / untraced
    counters = dict(recorder.counters)
    counters.update(_counter_deltas(before, after))
    ledger.write_trace(ctx.trace_file, recorder.spans, recorder.t0,
                       {"workload": NAME, "seed": ctx.seed}, counters,
                       values)
    metrics = layer_metrics(
        values, counters, n,
        **{"service.generator_late_p95_ms":
           harness.quantile(late, 0.95) * 1000.0,
           "service.roundtrip_overhead_ms":
           (latency * 1000.0 - job - queue_wait) / n})
    return {"outputs": _outputs(setup, plain, "untraced")
            + _outputs(setup, sent, "traced"),
            "ledger": values, "metrics": metrics}


def _histogram_sum(before: Dict[str, Any], after: Dict[str, Any],
                   name: str) -> float:
    """Growth of a ``/metrics`` histogram's sum between two scrapes."""
    def total(snapshot: Dict[str, Any]) -> float:
        hist = snapshot.get("histograms", {}).get(name)
        return float(hist["sum"]) if hist else 0.0

    return total(after) - total(before)


def _counter_deltas(before: Dict[str, Any],
                    after: Dict[str, Any]) -> Dict[str, float]:
    old = before.get("counters", {})
    return {f"program.{name}": value - old.get(name, 0)
            for name, value in after.get("counters", {}).items()
            if value != old.get(name, 0)}
