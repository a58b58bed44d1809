"""The HTTP transport: a stdlib-asyncio daemon fronting the engine.

One :class:`ReproService` owns the four service layers — the
:class:`~repro.service.sessions.SessionManager` (warm engine state),
the :class:`~repro.service.jobs.JobManager` (admission, coalescing,
cancellation), the :class:`~repro.service.executor.ExecutorBridge`
(worker pool), and the metrics registry ``/metrics`` exports — and
speaks a deliberately small HTTP/1.1 dialect over asyncio streams:
one request per connection (``Connection: close``), JSON bodies,
JSONL for traces.  No web framework; the whole transport is this file.

Endpoints::

    GET    /                     endpoint index
    GET    /healthz              liveness + version
    GET    /metrics              schema-valid metrics record (JSON)
    GET    /sessions             warm sessions + pool counters
    POST   /sessions             open/warm a session  {config}
    DELETE /sessions/{id}        invalidate (drop warm contexts)
    POST   /verify               submit a verify job
    POST   /enumerate            submit an enumeration job
    POST   /max-resiliency       submit the three searches
    GET    /jobs                 all tracked jobs
    GET    /jobs/{id}            one job (result included when done)
    GET    /jobs/{id}/wait       block until the job finishes
    POST   /jobs/{id}/cancel     cooperative cancel  {reason?}
    GET    /jobs/{id}/trace      the job's JSONL trace
    GET    /watch                live watches + pool counters
    POST   /watch                attach a watcher  {config|session,
                                 floors?, limits?}
    GET    /watch/{id}           one watch (verdicts, state, alarms)
    POST   /watch/{id}/events    apply a batch of stream events
    POST   /events               the same, with {"watch": id} inline
    GET    /watch/{id}/alarms    alarms after ?since= (long-poll with
                                 ?wait=true&timeout=s)
    GET    /watch/{id}/trace     the watch's JSONL trace so far
    DELETE /watch/{id}           detach (drops its warm engines)

Solve submissions take ``{"config": text}`` or ``{"session": id}``,
plus ``spec``/``limits`` objects (see :mod:`.protocol`), ``tenant``
(or an ``X-Tenant`` header), and ``"wait": true`` to hold the
connection until the verdict.  A waiting client that disconnects
triggers cooperative cancellation *iff* nobody else is attached to the
job — coalesced twins and poll-mode submitters keep it alive.  The
server picks the verification path: a request naming ``backend``,
``engine_cache`` or ``cold`` is refused with 400 ``bad-request``.
Every field of a request is decoded before any session is opened or
looked up, so a malformed request never costs a warm session.

Every request is timed into a per-route latency histogram
(``service.http.<METHOD> <route>`` in milliseconds), and every job
runs under its own tracer whose records ``GET /jobs/{id}/trace``
serves — a trace ``repro stats`` aggregates like any CLI trace.
"""

from __future__ import annotations

import asyncio
import functools
import json
import urllib.parse
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Tuple,
)

from ..core.specs import Property, ResiliencySpec
from ..obs.metrics import MetricsRegistry
from ..stream import StreamError, StreamEvent
from .executor import ExecutorBridge
from .jobs import (
    Job,
    JobManager,
    TenantPolicy,
    enumerate_fn,
    max_resiliency_fn,
    run_traced,
    verify_fn,
)
from .protocol import (
    JobKind,
    ServiceError,
    limits_from_payload,
    limits_key,
    reject_removed_fields,
    spec_from_payload,
)
from .sessions import Session, SessionManager
from .watchers import LiveWatch, WatcherManager

__all__ = ["ReproService"]

SERVICE_VERSION = "1"
#: Upper bound on a request body (configs are ~100 KB at 118 buses;
#: anything near this limit is a client bug, not a bigger grid).
MAX_BODY = 32 * 1024 * 1024
_JSON = "application/json"
_NDJSON = "application/x-ndjson"


@dataclass
class _Request:
    method: str
    path: str
    headers: Dict[str, str]
    payload: Dict[str, Any]
    query: Dict[str, str] = field(default_factory=dict)


@dataclass
class _Response:
    status: int
    body: bytes
    content_type: str = _JSON

    @classmethod
    def json(cls, status: int, payload: Mapping[str, Any]) -> "_Response":
        text = json.dumps(payload, default=str)
        return cls(status, (text + "\n").encode("utf-8"))


_REASONS = {200: "OK", 202: "Accepted", 400: "Bad Request",
            404: "Not Found", 405: "Method Not Allowed",
            409: "Conflict", 413: "Payload Too Large",
            422: "Unprocessable Entity", 429: "Too Many Requests",
            500: "Internal Server Error"}


class ReproService:
    """The verification daemon: sessions + jobs behind asyncio HTTP."""

    def __init__(self, host: str = "127.0.0.1", port: int = 8321,
                 jobs: Optional[int] = None,
                 max_sessions: int = 8,
                 queue_limit: int = 64,
                 default_policy: Optional[TenantPolicy] = None,
                 tenants: Optional[Mapping[str, TenantPolicy]] = None,
                 trace_dir: Optional[str] = None,
                 max_watchers: int = 8) -> None:
        self.host = host
        self.port = port
        self.registry = MetricsRegistry()
        self.bridge = ExecutorBridge(jobs=jobs)
        self.sessions = SessionManager(maxsize=max_sessions)
        self.jobs = JobManager(
            self.bridge, self.registry, queue_limit=queue_limit,
            default_policy=default_policy, tenants=tenants)
        self.watchers = WatcherManager(self.bridge, self.registry,
                                       maxsize=max_watchers)
        self.trace_dir = trace_dir
        if trace_dir is not None:
            self.jobs.on_finish = self._write_trace
        self._server: Optional[asyncio.AbstractServer] = None

    # -- lifecycle ------------------------------------------------------

    async def start(self) -> None:
        """Bind and start accepting; resolves the actual port."""
        self._server = await asyncio.start_server(
            self._handle, host=self.host, port=self.port)
        sockets = self._server.sockets or []
        if sockets:
            self.port = sockets[0].getsockname()[1]

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        assert self._server is not None
        async with self._server:
            await self._server.serve_forever()

    async def shutdown(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        await self.jobs.drain()
        self.watchers.clear()
        self.sessions.clear()
        self.bridge.shutdown(wait=False)

    def _write_trace(self, job: Job) -> None:
        # Operator opt-in: mirror every finished job's trace to disk so
        # `repro stats <dir>/*.jsonl` works without touching the API.
        if not job.trace_records:
            return
        path = f"{self.trace_dir}/{job.job_id}.jsonl"
        with open(path, "w", encoding="utf-8") as handle:
            for record in job.trace_records:
                handle.write(json.dumps(record, default=str) + "\n")

    # -- connection handling --------------------------------------------

    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        try:
            request = await self._read_request(reader)
        except ServiceError as exc:
            await self._write(writer, _Response.json(exc.status,
                                                     exc.payload()))
            return
        except (asyncio.IncompleteReadError, ConnectionError,
                ValueError):
            writer.close()
            return
        loop = asyncio.get_running_loop()
        started = loop.time()
        route = f"{request.method} {self._route_label(request.path)}"
        try:
            response = await self._dispatch(request, reader)
        except ServiceError as exc:
            self.registry.count(f"service.http.errors.{exc.status}")
            response = _Response.json(exc.status, exc.payload())
        except Exception as exc:  # noqa: BLE001 — boundary of the daemon
            self.registry.count("service.http.errors.500")
            response = _Response.json(500, {"error": {
                "code": type(exc).__name__, "message": str(exc)}})
        elapsed_ms = (loop.time() - started) * 1000.0
        self.registry.count("service.http.requests")
        self.registry.observe(f"service.http.{route}.ms", elapsed_ms)
        if response is not None:
            await self._write(writer, response)
        else:
            # Wait-mode client vanished mid-solve; nothing to write.
            writer.close()

    async def _read_request(self,
                            reader: asyncio.StreamReader) -> _Request:
        line = await reader.readline()
        if not line:
            raise ValueError("empty request")
        try:
            method, target, _version = line.decode("latin-1").split()
        except ValueError:
            raise ServiceError(400, "bad-request",
                               "malformed request line") from None
        headers: Dict[str, str] = {}
        while True:
            raw = await reader.readline()
            if raw in (b"\r\n", b"\n", b""):
                break
            name, _, value = raw.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0") or "0")
        if length > MAX_BODY:
            raise ServiceError(413, "too-large",
                               f"body exceeds {MAX_BODY} bytes")
        body = await reader.readexactly(length) if length else b""
        payload: Dict[str, Any] = {}
        if body:
            try:
                decoded = json.loads(body)
            except json.JSONDecodeError as exc:
                raise ServiceError(400, "bad-json",
                                   f"body is not JSON: {exc}") from None
            if not isinstance(decoded, dict):
                raise ServiceError(400, "bad-json",
                                   "body must be a JSON object")
            payload = decoded
        path, _, raw_query = target.partition("?")
        query = {name: value for name, value
                 in urllib.parse.parse_qsl(raw_query)}
        return _Request(method.upper(), path, headers, payload, query)

    @staticmethod
    def _route_label(path: str) -> str:
        parts = [p for p in path.split("/") if p]
        if parts and parts[0] in ("jobs", "sessions", "watch") \
                and len(parts) > 1:
            parts[1] = "{id}"
        return "/" + "/".join(parts)

    async def _write(self, writer: asyncio.StreamWriter,
                     response: _Response) -> None:
        reason = _REASONS.get(response.status, "Unknown")
        head = (f"HTTP/1.1 {response.status} {reason}\r\n"
                f"Content-Type: {response.content_type}\r\n"
                f"Content-Length: {len(response.body)}\r\n"
                f"Connection: close\r\n\r\n")
        try:
            writer.write(head.encode("latin-1") + response.body)
            await writer.drain()
        except (ConnectionError, RuntimeError):
            pass
        finally:
            writer.close()

    # -- routing --------------------------------------------------------

    async def _dispatch(self, request: _Request,
                        reader: asyncio.StreamReader
                        ) -> Optional[_Response]:
        method, path, payload = (request.method, request.path,
                                 request.payload)
        parts = [p for p in path.split("/") if p]
        reject_removed_fields(payload)
        tenant = request.headers.get(
            "x-tenant", str(payload.get("tenant", "anonymous")))
        if not parts:
            return self._index(method)
        head = parts[0]
        if head == "healthz" and method == "GET":
            return _Response.json(200, {
                "ok": True, "version": SERVICE_VERSION,
                "workers": self.bridge.workers})
        if head == "metrics" and method == "GET":
            return self._metrics()
        if head == "sessions":
            return await self._sessions_route(method, parts, payload)
        if head in ("verify", "enumerate", "max-resiliency"):
            if method != "POST":
                raise ServiceError(405, "method-not-allowed",
                                   f"{head} requires POST")
            return await self._submit(head, payload, tenant, reader)
        if head == "jobs":
            return await self._jobs_route(method, parts, payload, reader)
        if head == "watch":
            return await self._watch_route(method, parts, request,
                                           reader, tenant)
        if head == "events":
            if method != "POST":
                raise ServiceError(405, "method-not-allowed",
                                   "/events requires POST")
            watch_id = payload.get("watch")
            if not isinstance(watch_id, str):
                raise ServiceError(400, "bad-request",
                                   "provide 'watch' (the watch id)")
            return await self._ingest_events(
                self.watchers.get(watch_id), payload)
        raise ServiceError(404, "no-such-endpoint",
                           f"unknown path {path!r} (see GET /)")

    def _index(self, method: str) -> _Response:
        if method != "GET":
            raise ServiceError(405, "method-not-allowed",
                               "the index is GET-only")
        return _Response.json(200, {
            "service": "repro-verification-service",
            "version": SERVICE_VERSION,
            "endpoints": [
                "GET /healthz", "GET /metrics", "GET /sessions",
                "POST /sessions", "DELETE /sessions/{id}",
                "POST /verify", "POST /enumerate",
                "POST /max-resiliency", "GET /jobs", "GET /jobs/{id}",
                "GET /jobs/{id}/wait", "POST /jobs/{id}/cancel",
                "GET /jobs/{id}/trace", "GET /watch", "POST /watch",
                "GET /watch/{id}", "POST /watch/{id}/events",
                "POST /events", "GET /watch/{id}/alarms",
                "GET /watch/{id}/trace", "DELETE /watch/{id}",
            ],
        })

    def _metrics(self) -> _Response:
        # Point-in-time pool state rides along as gauges; counters and
        # histograms accumulate across the daemon's lifetime.  The
        # record is shaped exactly like a trace's final `metrics` line,
        # so obs schema validation applies as-is.
        for name, value in self.sessions.stats().items():
            self.registry.gauge(f"service.sessions.{name}", value)
        for name, value in self.jobs.stats().items():
            self.registry.gauge(f"service.jobs.{name}", value)
        for name, value in self.watchers.stats().items():
            self.registry.gauge(f"service.watchers.{name}", value)
        self.registry.gauge("service.workers", self.bridge.workers)
        return _Response.json(200, {"type": "metrics",
                                    **self.registry.snapshot()})

    # -- sessions -------------------------------------------------------

    async def _sessions_route(self, method: str, parts: list,
                              payload: Dict[str, Any]
                              ) -> _Response:
        if len(parts) == 1:
            if method == "GET":
                return _Response.json(200, {
                    "sessions": self.sessions.describe(),
                    "stats": self.sessions.stats(),
                })
            if method == "POST":
                session, created = await self._open_session(payload)
                return _Response.json(200, {
                    "session": session.session_id,
                    "created": created,
                    "info": session.describe(),
                })
        if len(parts) == 2 and method == "DELETE":
            dropped = self.sessions.invalidate(parts[1])
            if not dropped:
                raise ServiceError(404, "no-such-session",
                                   f"unknown session {parts[1]!r}")
            self.registry.count("service.sessions.invalidations")
            return _Response.json(200, {"invalidated": parts[1]})
        raise ServiceError(405, "method-not-allowed",
                           "sessions supports GET/POST /sessions and "
                           "DELETE /sessions/{id}")

    async def _open_session(self, payload: Dict[str, Any]
                            ) -> Tuple[Session, bool]:
        config_text = payload.get("config")
        if not isinstance(config_text, str) or not config_text.strip():
            raise ServiceError(400, "bad-request",
                               "provide 'config' (configuration text)")
        lint = bool(payload.get("lint", True))

        # Parse + lint + engine construction can take seconds on a big
        # grid — off the event loop, onto the pool.
        def build() -> Tuple[Session, bool]:
            config = self.sessions.parse(config_text)
            return self.sessions.open(config, lint=lint)

        return await self.bridge.run(build)

    async def _resolve_session(self, payload: Dict[str, Any]) -> Session:
        session_id = payload.get("session")
        if session_id is not None:
            if not isinstance(session_id, str):
                raise ServiceError(400, "bad-request",
                                   "'session' must be a string id")
            return self.sessions.get(session_id)
        session, _created = await self._open_session(payload)
        return session

    # -- job submission -------------------------------------------------

    async def _submit(self, endpoint: str, payload: Dict[str, Any],
                      tenant: str, reader: asyncio.StreamReader
                      ) -> Optional[_Response]:
        policy = self.jobs.policy_for(tenant)
        limits = policy.effective_limits(
            limits_from_payload(payload.get("limits")))
        # Decode the whole request before a session is resolved: opening
        # one may evict a warm session, which a request rejected with a
        # 400 must never cost.
        kind: JobKind
        body: Callable[[Session], Callable[[], Dict[str, Any]]]
        if endpoint == "verify":
            kind = JobKind.VERIFY
            spec = spec_from_payload(payload.get("spec") or {})
            minimize = bool(payload.get("minimize", True))
            key: Tuple[Any, ...] = ("verify", spec, limits_key(limits),
                                    minimize)
            spec_text = spec.describe()
            body = functools.partial(verify_fn, spec=spec, limits=limits,
                                     minimize=minimize)
        elif endpoint == "enumerate":
            kind = JobKind.ENUMERATE
            spec = spec_from_payload(payload.get("spec") or {})
            limit = payload.get("limit")
            if limit is not None and (not isinstance(limit, int)
                                      or isinstance(limit, bool)
                                      or limit < 1):
                raise ServiceError(400, "bad-request",
                                   "'limit' must be a positive integer")
            minimal = bool(payload.get("minimal", True))
            key = ("enumerate", spec, limits_key(limits), limit, minimal)
            spec_text = f"enumerate {spec.describe()}"
            body = functools.partial(enumerate_fn, spec=spec,
                                     limits=limits, limit=limit,
                                     minimal=minimal)
        else:
            kind = JobKind.MAX_RESILIENCY
            prop_value = payload.get("property",
                                     Property.OBSERVABILITY.value)
            try:
                prop = Property(prop_value)
            except ValueError:
                raise ServiceError(
                    400, "bad-request",
                    f"unknown property {prop_value!r}") from None
            screen = bool(payload.get("screen", True))
            key = ("max", prop, limits_key(limits), screen)
            spec_text = f"max-resiliency {prop.value}"
            body = functools.partial(max_resiliency_fn, prop=prop,
                                     limits=limits, screen=screen)
        wait = bool(payload.get("wait", False))
        session = await self._resolve_session(payload)
        fn = body(session)
        meta = {"service": SERVICE_VERSION, "kind": kind.value,
                "session": session.session_id, "tenant": tenant,
                "spec": spec_text}
        job, coalesced = self.jobs.submit(
            kind,
            lambda: self.bridge.run(run_traced, meta, fn),
            key=(session.session_id, *key),
            session_id=session.session_id, tenant=tenant,
            spec_text=spec_text, interrupt=session.engine.interrupt,
            clear_interrupt=session.engine.clear_interrupt,
            cancel_on_disconnect=wait)
        if not wait:
            return _Response.json(202, {
                "job": job.job_id, "state": job.state.value,
                "session": session.session_id, "coalesced": coalesced,
            })
        return await self._wait_response(job, reader)

    # -- job lookup / wait / cancel / trace -----------------------------

    async def _jobs_route(self, method: str, parts: list,
                          payload: Dict[str, Any],
                          reader: asyncio.StreamReader
                          ) -> Optional[_Response]:
        if len(parts) == 1:
            if method != "GET":
                raise ServiceError(405, "method-not-allowed",
                                   "/jobs is GET-only")
            return _Response.json(200, {
                "jobs": [job.describe() for job in self.jobs.jobs()],
                "stats": self.jobs.stats(),
            })
        job = self.jobs.get(parts[1])
        action = parts[2] if len(parts) > 2 else None
        if action is None and method == "GET":
            return _Response.json(200, job.describe())
        if action == "wait" and method == "GET":
            return await self._wait_response(job, reader)
        if action == "cancel" and method == "POST":
            reason = str(payload.get("reason", "client-cancel"))
            job = self.jobs.cancel(job.job_id, reason=reason)
            status = 200 if job.state.finished else 202
            return _Response.json(status, job.describe())
        if action == "trace" and method == "GET":
            if not job.state.finished:
                raise ServiceError(409, "job-not-finished",
                                   f"job {job.job_id} is "
                                   f"{job.state.value}; traces are "
                                   f"served after completion")
            lines = "".join(json.dumps(record, default=str) + "\n"
                            for record in job.trace_records)
            return _Response(200, lines.encode("utf-8"),
                             content_type=_NDJSON)
        raise ServiceError(404, "no-such-endpoint",
                           "jobs supports GET /jobs, GET /jobs/{id}, "
                           "GET /jobs/{id}/wait, POST /jobs/{id}/cancel"
                           ", GET /jobs/{id}/trace")

    # -- watches: attach / ingest / alarms ------------------------------

    async def _watch_route(self, method: str, parts: list,
                           request: _Request,
                           reader: asyncio.StreamReader,
                           tenant: str) -> Optional[_Response]:
        payload = request.payload
        if len(parts) == 1:
            if method == "GET":
                return _Response.json(200, {
                    "watchers": self.watchers.describe(),
                    "stats": self.watchers.stats(),
                })
            if method == "POST":
                return await self._open_watch(payload, tenant)
            raise ServiceError(405, "method-not-allowed",
                               "/watch supports GET and POST")
        watch = self.watchers.get(parts[1])
        action = parts[2] if len(parts) > 2 else None
        if action is None:
            if method == "GET":
                return _Response.json(200, watch.describe())
            if method == "DELETE":
                closed = self.watchers.close(watch.watch_id)
                self.registry.count("service.watchers.detached")
                return _Response.json(200, {
                    "closed": closed.watch_id,
                    "info": closed.describe(),
                })
            raise ServiceError(405, "method-not-allowed",
                               "/watch/{id} supports GET and DELETE")
        if action == "events" and method == "POST":
            return await self._ingest_events(watch, payload)
        if action == "alarms" and method == "GET":
            return await self._alarms_response(watch, request, reader)
        if action == "trace" and method == "GET":
            lines = "".join(json.dumps(record, default=str) + "\n"
                            for record in watch.trace_records())
            return _Response(200, lines.encode("utf-8"),
                             content_type=_NDJSON)
        raise ServiceError(404, "no-such-endpoint",
                           "watch supports GET/POST /watch, "
                           "GET/DELETE /watch/{id}, "
                           "POST /watch/{id}/events, "
                           "GET /watch/{id}/alarms, "
                           "GET /watch/{id}/trace")

    async def _open_watch(self, payload: Dict[str, Any],
                          tenant: str) -> _Response:
        # Floors and limits are decoded before any session lookup or
        # config parse, so a malformed request costs nothing.
        floors = self._watch_floors(payload)
        policy = self.jobs.policy_for(tenant)
        limits = policy.effective_limits(
            limits_from_payload(payload.get("limits")))
        session_id = payload.get("session")
        if session_id is not None:
            if not isinstance(session_id, str):
                raise ServiceError(400, "bad-request",
                                   "'session' must be a string id")
            session = self.sessions.get(session_id)
            config = session.config
            attached = session.session_id
        else:
            config_text = payload.get("config")
            if not isinstance(config_text, str) \
                    or not config_text.strip():
                raise ServiceError(
                    400, "bad-request",
                    "provide 'config' (configuration text) or "
                    "'session' (a warm session id)")
            config = await self.bridge.run(self.sessions.parse,
                                           config_text)
            attached = None
        if floors is None:
            floors = [config.spec if config.spec is not None
                      else spec_from_payload({})]
        watch = await self.watchers.create(
            config, floors, limits=limits, tenant=tenant,
            session_id=attached)
        self.registry.count("service.watchers.attached")
        return _Response.json(200, {
            "watch": watch.watch_id,
            "info": watch.describe(),
            "alarms": [alarm.to_json()
                       for alarm in watch.watcher.alarms],
        })

    @staticmethod
    def _watch_floors(payload: Dict[str, Any]
                      ) -> Optional[List[ResiliencySpec]]:
        """The request's floors; ``None`` defers to the config's spec."""
        floors_payload = payload.get("floors")
        if floors_payload is None:
            return None
        if not isinstance(floors_payload, list) or not floors_payload:
            raise ServiceError(400, "bad-watch",
                               "'floors' must be a non-empty list of "
                               "spec objects")
        return [spec_from_payload(floor) for floor in floors_payload]

    async def _ingest_events(self, watch: LiveWatch,
                             payload: Dict[str, Any]) -> _Response:
        raw = payload.get("events")
        if not isinstance(raw, list) or not raw:
            raise ServiceError(400, "bad-events",
                               "'events' must be a non-empty list of "
                               "event objects")
        try:
            events = [StreamEvent.from_json(record) for record in raw]
        except (StreamError, ValueError, KeyError, TypeError,
                AttributeError) as exc:
            raise ServiceError(400, "bad-events",
                               f"unparseable event: {exc}") from None
        updates = await self.watchers.ingest(watch, events)
        alarms = [alarm for update in updates
                  for alarm in update.alarms]
        return _Response.json(200, {
            "watch": watch.watch_id,
            "applied": len(updates),
            "updates": [update.to_json() for update in updates],
            "alarms": [alarm.to_json() for alarm in alarms],
            "below_floor": [spec.describe()
                            for spec in watch.watcher.below_floor],
        })

    async def _alarms_response(self, watch: LiveWatch,
                               request: _Request,
                               reader: asyncio.StreamReader
                               ) -> Optional[_Response]:
        """Alarms after ``since``; optionally long-poll for the next.

        Parameters ride the query string (``?since=3&wait=true``) or
        the JSON body — the body wins on conflicts.  A waiting client
        that disconnects is detected on the read side, exactly like a
        wait-mode job submission.
        """
        params: Dict[str, Any] = dict(request.query)
        params.update(request.payload)
        try:
            since = int(params.get("since", 0))
            timeout = float(params.get("timeout", 30.0))
        except (TypeError, ValueError):
            raise ServiceError(400, "bad-request",
                               "'since' must be an integer and "
                               "'timeout' a number") from None
        wait = str(params.get("wait", "")).lower() \
            in ("1", "true", "yes")
        timeout = min(max(timeout, 0.0), 600.0)
        loop = asyncio.get_running_loop()
        deadline = loop.time() + timeout
        alarms = watch.alarms_since(since)
        while wait and not alarms and not watch.closed:
            remaining = deadline - loop.time()
            if remaining <= 0:
                break
            changed = asyncio.ensure_future(watch.changed.wait())
            eof = asyncio.ensure_future(reader.read(1))
            try:
                await asyncio.wait({changed, eof}, timeout=remaining,
                                   return_when=asyncio.FIRST_COMPLETED)
                if eof.done() and not eof.result():
                    return None  # client hung up; nothing to write
            finally:
                changed.cancel()
                eof.cancel()
            alarms = watch.alarms_since(since)
        return _Response.json(200, {
            "watch": watch.watch_id,
            "since": since,
            "alarms": [alarm.to_json() for alarm in alarms],
            "total": len(watch.watcher.alarms),
            "closed": watch.closed,
            "below_floor": [spec.describe()
                            for spec in watch.watcher.below_floor],
        })

    async def _wait_response(self, job: Job,
                             reader: asyncio.StreamReader
                             ) -> Optional[_Response]:
        """Hold the connection until *job* finishes (or the client goes).

        Disconnect detection rides the read side of the socket: with
        one request per connection a conforming client sends nothing
        more, so the next read completing with EOF means it hung up.
        """
        job.watchers += 1
        try:
            finished = await self._await_or_eof(job, reader)
        finally:
            job.watchers -= 1
        if not finished:
            self.jobs.watcher_gone(job)
            return None
        return _Response.json(200, job.describe())

    @staticmethod
    async def _await_or_eof(job: Job,
                            reader: asyncio.StreamReader) -> bool:
        done = asyncio.ensure_future(job.done.wait())
        eof = asyncio.ensure_future(reader.read(1))
        try:
            while True:
                await asyncio.wait({done, eof},
                                   return_when=asyncio.FIRST_COMPLETED)
                if done.done():
                    return True
                if eof.done():
                    if not eof.result():
                        return False
                    # Stray bytes (a misbehaving client); keep waiting
                    # on the job and keep watching for EOF.
                    eof = asyncio.ensure_future(reader.read(1))
        finally:
            done.cancel()
            eof.cancel()
