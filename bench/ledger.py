"""The layer ledger: timing wrappers, self times and the trace file.

:func:`install` wraps the program's public entry points — config
parsing, the lint gate, path enumeration, the reference evaluator,
engine construction, base and per-query encoding, the SAT check,
threat extraction, the session pool, the stream delta compiler, the
structural pass, grid generation and the result store — in timing
spans recorded by a :class:`Recorder`.  Nothing under ``src/`` changes.

A span's *self time* is its duration minus the time its child spans
cover.  Each workload wraps every operation it issues in a *root* span
(or, for the service, records the request's client-side interval as
one); the ledger is the sum of self times per layer, per operation,
and ``ledger.unattributed_ms`` is the root time no layer span covers.
Spans record their id, parent, thread and request in the trace
file's ``attrs``, in the ``repro.obs`` JSONL schema.

Each wrapper reads the clock twice and takes a lock; the traced run's
``trace.overhead_ratio`` reports what that costs.
"""

from __future__ import annotations

import contextvars
import functools
import importlib.abc
import importlib.machinery
import itertools
import json
import os
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path
from types import ModuleType
from typing import Any, Callable, Dict, Iterable, List, Optional

#: The request (operation index) the current code serves.
REQUEST: "contextvars.ContextVar[Optional[int]]" = \
    contextvars.ContextVar("bench_request", default=None)

#: Ledger rows: every time layer a span (or a service measurement)
#: feeds, as per-op milliseconds.  ``ledger.unattributed_ms`` is the
#: rest of the traced wall time.
LAYERS = (
    "cli.startup", "cli.teardown", "scada.parse", "lint.gate",
    "scada.paths", "core.reference", "engine.build", "core.base_encode",
    "core.query_encode", "sat.solve", "core.extract", "stream.delta",
    "stream.materialize", "service.generator_late", "service.queue_wait",
    "service.session_open", "service.job_body", "graphs.structural",
    "corpus.grid_build", "corpus.store_read", "corpus.store_write",
)

#: A span covering the bench's own wrapper installation inside a
#: traced operation (a traced CLI child installs after it starts).  It
#: is instrumentation, not the program: it leaves the traced wall.
INSTALL = "trace.install"


class Recorder:
    """Collects spans from any number of threads."""

    def __init__(self) -> None:
        #: Spans are recorded only while enabled: set-up work done
        #: with the wrappers installed stays out of the ledger.
        self.enabled = False
        self.t0 = time.perf_counter()
        self.spans: List[Dict[str, Any]] = []
        self.counters: Dict[str, float] = defaultdict(float)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._ids = itertools.count(1)

    def new_id(self) -> int:
        with self._lock:
            return next(self._ids)

    def count(self, name: str, n: float = 1) -> None:
        with self._lock:
            self.counters[name] += n

    def _stack(self) -> List[List[Any]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def enter(self, name: str) -> List[Any]:
        stack = self._stack()
        parent = stack[-1][3] if stack else None
        frame = [name, time.perf_counter(), 0.0, self.new_id(), parent]
        stack.append(frame)
        return frame

    def exit(self, frame: List[Any]) -> None:
        end = time.perf_counter()
        stack = self._stack()
        stack.pop()
        name, start, children, span_id, parent = frame
        duration = end - start
        if stack:
            stack[-1][2] += duration
        self.add(name, start, end, span_id=span_id, parent=parent,
                 self_s=duration - children)

    def add(self, name: str, start: float, end: float, *,
            span_id: Optional[int] = None, parent: Optional[int] = None,
            self_s: Optional[float] = None, root: bool = False,
            request: Optional[int] = None, **attrs: Any) -> int:
        """Record one finished span; returns its id."""
        span_id = span_id if span_id is not None else self.new_id()
        record = {
            "name": name, "start": start, "dur": end - start,
            "self": (end - start) if self_s is None else self_s,
            "id": span_id, "parent": parent, "root": root,
            "thread": threading.current_thread().name,
            "request": request if request is not None else REQUEST.get(),
            "attrs": attrs,
        }
        with self._lock:
            self.spans.append(record)
        return span_id

    def op(self, request: int, **attrs: Any) -> "_Op":
        """``with recorder.op(i):`` — a root span around one operation."""
        return _Op(self, request, attrs)


class _Op:
    def __init__(self, recorder: Recorder, request: int,
                 attrs: Dict[str, Any]) -> None:
        self.recorder = recorder
        self.request = request
        self.attrs = attrs
        self.id = recorder.new_id()

    def __enter__(self) -> "_Op":
        self._token = REQUEST.set(self.request)
        stack = self.recorder._stack()
        self._frame = ["op", time.perf_counter(), 0.0, self.id, None]
        stack.append(self._frame)
        return self

    def __exit__(self, *exc: Any) -> None:
        end = time.perf_counter()
        self.recorder._stack().pop()
        start = self._frame[1]
        self.recorder.add("op", start, end, span_id=self.id, root=True,
                          self_s=end - start - self._frame[2],
                          request=self.request, **self.attrs)
        REQUEST.reset(self._token)


# -- wrappers -----------------------------------------------------------


class _Patches:
    """Installed wrappers, restorable in reverse order."""

    def __init__(self) -> None:
        self._undo: List[Callable[[], None]] = []

    def replace(self, owner: Any, attr: str, value: Any) -> None:
        original = owner.__dict__[attr]
        setattr(owner, attr, value)
        self._undo.append(lambda: setattr(owner, attr, original))

    def on_restore(self, undo: Callable[[], None]) -> None:
        self._undo.append(undo)

    def restore(self) -> None:
        while self._undo:
            self._undo.pop()()


def _spanned(rec: Recorder, layer: str, fn: Callable[..., Any],
             after: Optional[Callable[[tuple, Any, Any], None]] = None,
             before: Optional[Callable[[tuple], Any]] = None
             ) -> Callable[..., Any]:
    """*fn* inside a *layer* span; *before*/*after* feed counters."""

    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        if not rec.enabled:
            return fn(*args, **kwargs)
        seen = before(args) if before is not None else None
        frame = rec.enter(layer)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.exit(frame)
        if after is not None:
            after(args, result, seen)
        return result

    return wrapper


#: The timing spans: (module, ``Class.method`` or function name, layer).
#: A function is wrapped in the module named, so one imported by name
#: into several modules is listed once per importer.
SPANS = (
    ("repro.scada.config_io", "parse_config", "scada.parse"),
    ("repro.service.sessions", "parse_config", "scada.parse"),
    ("repro.lint", "lint_case", "lint.gate"),
    ("repro.scada.network", "ScadaNetwork.forwarding_paths",
     "scada.paths"),
    ("repro.core.reference", "ReferenceEvaluator.__init__",
     "core.reference"),
    ("repro.engine.engine", "VerificationEngine.__init__", "engine.build"),
    ("repro.core.incremental", "IncrementalContext.__init__",
     "core.base_encode"),
    ("repro.core.incremental", "IncrementalContext.verify",
     "core.query_encode"),
    ("repro.core.analyzer", "ScadaAnalyzer.verify", "core.query_encode"),
    ("repro.smt.solver", "Solver.check", "sat.solve"),
    ("repro.core.analyzer", "extract_threat", "core.extract"),
    ("repro.core.incremental", "extract_threat", "core.extract"),
    ("repro.service.sessions", "SessionManager.open",
     "service.session_open"),
    ("repro.service.http", "run_traced", "service.job_body"),
    ("repro.stream.delta", "DeltaCompiler.apply", "stream.delta"),
    ("repro.stream.delta", "DeltaCompiler.materialize",
     "stream.materialize"),
    ("repro.graphs.security_index", "StructuralAnalysis.__init__",
     "graphs.structural"),
    ("repro.graphs.security_index", "StructuralAnalysis.attack_bounds",
     "graphs.structural"),
    ("repro.corpus.runner", "grow_grid", "corpus.grid_build"),
    ("repro.scada.generator", "generate_scada", "corpus.grid_build"),
    ("repro.core.problem", "ObservabilityProblem.from_table",
     "corpus.grid_build"),
    ("repro.corpus.store", "ResultStore.__init__", "corpus.store_read"),
    ("repro.corpus.store", "ResultStore.get", "corpus.store_read"),
    ("repro.corpus.store", "ResultStore.put", "corpus.store_write"),
    ("repro.corpus.store", "ResultStore.flush", "corpus.store_write"),
)


def install(rec: Recorder) -> Callable[[], None]:
    """Wrap the program's layer entry points; returns the uninstaller.

    Modules already imported are patched at once; the rest are patched
    as soon as the program imports them (the CLI imports the lint
    package lazily, inside the verify it is timing), so installing
    imports nothing and moves no import time out of the measurement.
    """
    patches = _Patches()
    hooks = _counter_hooks(rec)
    appliers: Dict[str, List[Callable[[ModuleType], None]]] = \
        defaultdict(list)
    for module_name, path, layer in SPANS:
        appliers[module_name].append(functools.partial(
            _wrap_span, patches, rec, path, layer, hooks.get(path, {})))
    appliers["repro.engine.cache"].append(
        lambda module: _count_cache(patches, rec, module.EncodingCache))
    appliers["repro.service.sessions"].append(
        lambda module: _count_session_gets(patches, rec,
                                           module.SessionManager))
    appliers["repro.service.http"].append(
        lambda module: _tag_dispatch(patches, module.ReproService))
    appliers["repro.service.executor"].append(
        lambda module: _carry_context(patches, module.ExecutorBridge))
    finder = _PatchOnImport()
    for name, fns in appliers.items():
        module = sys.modules.get(name)
        if module is None:
            finder.pending[name] = fns
            continue
        for fn in fns:
            fn(module)
    if finder.pending:
        sys.meta_path.insert(0, finder)
        patches.on_restore(lambda: sys.meta_path.remove(finder))
    return patches.restore


class _PatchOnImport(importlib.abc.MetaPathFinder):
    """Applies pending wrappers right after a module first executes."""

    def __init__(self) -> None:
        self.pending: Dict[str, List[Callable[[ModuleType], None]]] = {}

    def find_spec(self, name: str, path: Any, target: Any = None) -> Any:
        fns = self.pending.pop(name, None)
        if fns is None:
            return None
        spec = importlib.machinery.PathFinder.find_spec(name, path)
        if spec is None or spec.loader is None:
            return None
        run_body = spec.loader.exec_module

        def exec_module(module: ModuleType) -> None:
            run_body(module)
            for fn in fns:
                fn(module)

        spec.loader.exec_module = exec_module  # type: ignore[method-assign]
        return spec


def _wrap_span(patches: _Patches, rec: Recorder, path: str, layer: str,
               hooks: Dict[str, Any], module: ModuleType) -> None:
    *owner_path, attr = path.split(".")
    owner: Any = module
    for part in owner_path:
        owner = getattr(owner, part)
    original = owner.__dict__[attr]
    if isinstance(original, classmethod):
        wrapped: Any = classmethod(
            _spanned(rec, layer, original.__func__, **hooks))
    else:
        wrapped = _spanned(rec, layer, original, **hooks)
    patches.replace(owner, attr, wrapped)


def _counter_hooks(rec: Recorder) -> Dict[str, Dict[str, Any]]:
    """Counters fed around some spans: work done, hits and misses."""

    def path_miss(args: tuple) -> bool:
        network, device_id = args[0], args[1]
        return device_id not in getattr(network, "_path_cache", {})

    def path_count(args: tuple, result: Any, missed: Any) -> None:
        rec.count("scada.paths.calls")
        rec.count("scada.paths.misses", 1 if missed else 0)

    def solve_stats(args: tuple, result: Any, seen: Any) -> None:
        stats = getattr(args[0], "last_check_stats", {}) or {}
        rec.count("sat.solves")
        rec.count("sat.conflicts", stats.get("conflicts", 0.0))
        rec.count("sat.propagations", stats.get("propagations", 0.0))

    def evicted(args: tuple) -> int:
        return int(args[0].evicted)

    def session_stats(args: tuple, result: Any, before: Any) -> None:
        _session, created = result
        rec.count("service.session.lookups")
        rec.count("service.session.hits", 0 if created else 1)
        rec.count("service.session.evictions", args[0].evicted - before)

    return {
        "ScadaNetwork.forwarding_paths": {"before": path_miss,
                                          "after": path_count},
        "IncrementalContext.__init__": {
            "after": lambda args, result, seen:
                rec.count("core.contexts_built")},
        "Solver.check": {"after": solve_stats},
        "SessionManager.open": {"before": evicted,
                                "after": session_stats},
    }


def _count_cache(patches: _Patches, rec: Recorder, cache_cls: Any) -> None:
    """Count encoding-cache hits and lookups (no span: a dict lookup)."""
    lookup = cache_cls.__dict__["get_or_create"]

    @functools.wraps(lookup)
    def get_or_create(cache: Any, key: Any,
                      factory: Callable[[], Any]) -> Any:
        hits = cache.hits
        result = lookup(cache, key, factory)
        if rec.enabled:
            rec.count("engine.cache.hits", 1 if cache.hits > hits else 0)
            rec.count("engine.cache.lookups")
        return result

    patches.replace(cache_cls, "get_or_create", get_or_create)


def _count_session_gets(patches: _Patches, rec: Recorder,
                        manager_cls: Any) -> None:
    """Count requests that name a pooled session: each is a pool hit,
    unless the session was evicted (the lookup raises)."""
    get = manager_cls.__dict__["get"]

    @functools.wraps(get)
    def counted(manager: Any, session_id: str) -> Any:
        if rec.enabled:
            rec.count("service.session.lookups")
        session = get(manager, session_id)
        if rec.enabled:
            rec.count("service.session.hits")
        return session

    patches.replace(manager_cls, "get", counted)


def _tag_dispatch(patches: _Patches, service_cls: Any) -> None:
    """Tag server-side spans with the client's request index.

    The bench puts its request index in each request body
    (``bench_request``, which the daemon ignores); this sets
    :data:`REQUEST` for the task serving the connection.
    """
    dispatch = service_cls.__dict__["_dispatch"]

    @functools.wraps(dispatch)
    async def tagged(self: Any, request: Any, reader: Any) -> Any:
        token = REQUEST.set(request.payload.get("bench_request"))
        try:
            return await dispatch(self, request, reader)
        finally:
            REQUEST.reset(token)

    patches.replace(service_cls, "_dispatch", tagged)


def _carry_context(patches: _Patches, bridge_cls: Any) -> None:
    """Run worker-thread calls in a copy of the caller's context, so
    spans on the worker thread see the request index too."""
    run = bridge_cls.__dict__["run"]

    @functools.wraps(run)
    async def context_run(self: Any, fn: Callable[..., Any], *args: Any,
                          **kwargs: Any) -> Any:
        context = contextvars.copy_context()
        return await run(self, context.run, fn, *args, **kwargs)

    patches.replace(bridge_cls, "run", context_run)


# -- the ledger ---------------------------------------------------------


def ledger(spans: Iterable[Dict[str, Any]], ops: int,
           extra: Optional[Dict[str, float]] = None) -> Dict[str, Any]:
    """Per-op layer self times (ms) plus the unattributed remainder.

    *extra* adds rows measured outside spans (service queue wait and
    generator lateness, in seconds over the traced phase).  The check
    value ``ledger.sum_error`` is the gap between layers + unattributed
    and the wall, as a share of the wall; where every span nests under
    a root span on one thread it compares the unattributed remainder
    with the roots' own self time, so double-counted or lost time
    shows.
    """
    spans = list(spans)
    roots = [s for s in spans if s["root"]]
    wall = sum(s["dur"] for s in roots) - sum(
        s["dur"] for s in spans if s["name"] == INSTALL)
    rows = {layer: 0.0 for layer in LAYERS}
    children: Dict[int, float] = defaultdict(float)
    for span in spans:
        if span["parent"] is not None:
            children[span["parent"]] += span["dur"]
        if not span["root"] and span["name"] != INSTALL:
            rows[span["name"]] += span["self"]
    for layer, seconds in (extra or {}).items():
        rows[layer] += seconds
    unattributed = wall - sum(rows.values())
    if not extra and _all_nested(spans):
        root_self = sum(s["dur"] - children[s["id"]] for s in roots)
        error = abs(root_self - unattributed) / wall if wall else 0.0
    else:
        error = max(0.0, -unattributed) / wall if wall else 0.0
    per_op = 1000.0 / max(1, ops)
    result = {f"{layer}_ms": seconds * per_op
              for layer, seconds in rows.items()}
    result.update({
        "ledger.wall_ms": wall * per_op,
        "ledger.unattributed_ms": unattributed * per_op,
        "ledger.unattributed_share": unattributed / wall if wall else 0.0,
        "ledger.sum_error": error,
    })
    return result


def _all_nested(spans: List[Dict[str, Any]]) -> bool:
    """Whether every span's parent chain ends at a root span."""
    by_id = {s["id"]: s for s in spans}
    rooted: Dict[int, bool] = {}

    def reaches(span_id: Optional[int]) -> bool:
        chain = []
        while span_id is not None and span_id not in rooted:
            span = by_id.get(span_id)
            if span is None:
                break
            if span["root"]:
                rooted[span_id] = True
                break
            chain.append(span_id)
            span_id = span["parent"]
        found = rooted.get(span_id, False) if span_id is not None \
            else False
        for item in chain:
            rooted[item] = found
        return found

    return all(reaches(s["id"]) for s in spans)


# -- the trace file -----------------------------------------------------


def write_trace(path: Path, spans: Iterable[Dict[str, Any]], t0: float,
                meta: Dict[str, Any], counters: Dict[str, float],
                gauges: Dict[str, float]) -> None:
    """Write spans as a ``repro.obs`` schema-v1 JSONL trace."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        def emit(record: Dict[str, Any]) -> None:
            handle.write(json.dumps(record, default=str) + "\n")

        emit({"type": "meta", "version": 1, "pid": os.getpid(),
              "attrs": meta})
        for span in sorted(spans, key=lambda s: s["start"]):
            attrs = dict(span["attrs"])
            attrs.update(span_id=span["id"], parent=span["parent"],
                         thread=span["thread"], request=span["request"],
                         self_s=span["self"])
            record = {"type": "span", "name": span["name"],
                      "t": span["start"] - t0, "dur": span["dur"],
                      "attrs": attrs}
            if "worker" in span:
                record["worker"] = span["worker"]
            emit(record)
        emit({"type": "metrics",
              "counters": {k: int(v) for k, v in sorted(counters.items())},
              "gauges": dict(sorted(gauges.items())),
              "histograms": {}})
