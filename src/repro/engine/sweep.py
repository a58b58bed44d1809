"""Parallel sweep execution with fault tolerance.

Sweep workloads — Fig. 5/6 bus-size and hierarchy scans, corpus grids
— are embarrassingly parallel across *instances* (distinct seeds, bus
sizes, hierarchy levels, grids): each task builds its own solver
state, so processes share nothing.  :class:`SweepExecutor` fans such
tasks over a process pool while keeping the results in task-submission
order, so ``jobs=1`` and ``jobs=N`` produce byte-identical sweep
outputs (property-tested in ``tests/engine``).

A long sweep must survive one bad instance.  Three failure classes are
handled distinctly:

* **Ordinary exceptions** raised by the task function are caught *inside
  the worker* and shipped back as values, so they carry exact task
  attribution and never take the pool down.
* **Worker crashes** (segfault, OOM-kill, ``os._exit``) surface as
  ``BrokenProcessPool``; the pool is unusable afterwards, so it is
  killed and every task without a result is re-run *alone* in a fresh
  single-worker pool — innocent tasks recover on their first solo
  attempt, and the culprit is isolated exactly.
* **Hangs** are cut off by the per-task ``timeout``; the pool's worker
  processes are killed (a hung worker ignores cooperative shutdown) and
  the same solo-recovery phase runs.

A task that still fails after its attempt budget becomes a
:class:`SweepTaskError` naming the task index and arguments; with
``on_error="return"`` the error object takes the failed task's slot in
the result list and every other task's result survives.

Tasks must be module-level callables with picklable arguments (the
standard :mod:`multiprocessing` contract).  Solver *state* never
crosses the pool — only task descriptions and result dataclasses do.
"""

from __future__ import annotations

import os
import time
import traceback
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as _FuturesTimeout
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, TypeVar

from ..obs.tracer import Tracer, activate, current_tracer
from ..obs.tracer import span as obs_span

__all__ = ["SweepExecutor", "SweepTaskError", "resolve_jobs"]

_T = TypeVar("_T")
_R = TypeVar("_R")

#: Error-handling policies for :meth:`SweepExecutor.map`.
_ON_ERROR = ("raise", "return")


def resolve_jobs(jobs: Optional[int], reserve: int = 0) -> int:
    """Normalize a ``--jobs`` value: ``None``/``0`` → usable cpu count.

    Prefers the scheduling affinity mask over the raw CPU count: in a
    cgroup-pinned container (CI runners, batch schedulers) the machine
    may report 64 CPUs while the process is allowed 2, and sizing the
    pool to 64 just thrashes the two it actually has.

    ``reserve`` holds back that many cores from the *auto* sizing (the
    result never drops below 1).  The service daemon reserves one core
    for its event loop: a pool sized to every core would starve the
    accept/dispatch loop exactly when the workers are busiest.  An
    explicit ``jobs`` value is always honored as given — the operator
    asked for that many.
    """
    if reserve < 0:
        raise ValueError("reserve must be non-negative")
    if jobs is None or jobs == 0:
        try:
            usable = len(os.sched_getaffinity(0)) or 1
        except (AttributeError, OSError):
            # Not POSIX (or the mask is unreadable): raw count fallback.
            usable = os.cpu_count() or 1
        return max(1, usable - reserve)
    if jobs < 0:
        raise ValueError("jobs must be positive (or 0/None for auto)")
    return jobs


class SweepTaskError(RuntimeError):
    """One sweep task failed after exhausting its attempt budget.

    Carries the submission ``index`` and original ``task`` arguments so
    a partial sweep can report — and a caller re-drive — exactly the
    work that was lost.  ``cause_type``/``cause_message`` describe the
    final failure; ``worker_traceback`` holds the in-worker traceback
    when the failure was an ordinary exception (empty for crashes and
    timeouts, where no Python frame survives).
    """

    def __init__(self, index: int, task: Any, attempts: int,
                 cause_type: str, cause_message: str,
                 worker_traceback: str = "") -> None:
        super().__init__(
            f"sweep task #{index} ({task!r}) failed after "
            f"{attempts} attempt(s): {cause_type}: {cause_message}")
        self.index = index
        self.task = task
        self.attempts = attempts
        self.cause_type = cause_type
        self.cause_message = cause_message
        self.worker_traceback = worker_traceback


@dataclass
class _WorkerFailure:
    """Picklable record of a failure observed for one attempt."""

    exc_type: str
    message: str
    traceback: str = ""


@dataclass
class _TaskOutcome:
    """A task's result plus its worker-side telemetry, shipped back
    across the pool.  ``export`` is the worker tracer's
    :meth:`~repro.obs.tracer.Tracer.export` — plain dicts, picklable."""

    value: Any
    worker: int
    duration: float
    export: Dict[str, Any] = field(default_factory=dict)


class _TelemetryBoundary:
    """Picklable wrapper tracing one task inside a pool worker.

    The parent's tracer does not exist in the worker process, so the
    worker traces into a fresh in-memory :class:`~repro.obs.Tracer`
    (activated for the duration of the task, which is what the solver
    probes and spans inside *fn* see) and ships its export home inside
    a :class:`_TaskOutcome` for the parent to absorb with per-worker
    attribution.  Only used when the parent has an active tracer.
    """

    def __init__(self, fn: Callable[[Any], Any]) -> None:
        self.fn = fn

    def __call__(self, task: Any) -> "_TaskOutcome":
        tracer = Tracer()
        started = time.perf_counter()
        with activate(tracer):
            value = self.fn(task)
        return _TaskOutcome(value, os.getpid(),
                            time.perf_counter() - started,
                            tracer.export())


class _FaultBoundary:
    """Picklable wrapper returning failures as values, not raises.

    An exception that escapes a pool worker is re-raised in the parent
    with no record of *which* task raised it; catching at the boundary
    keeps the pool alive and the attribution exact.
    """

    def __init__(self, fn: Callable[[Any], Any]) -> None:
        self.fn = fn

    def __call__(self, task: Any) -> Any:
        try:
            return self.fn(task)
        except BaseException as exc:  # noqa: BLE001 — shipped, not hidden
            return _WorkerFailure(type(exc).__name__, str(exc),
                                  traceback.format_exc())


def _kill_pool(pool: ProcessPoolExecutor) -> None:
    """Forcibly tear down a pool whose workers may be hung or dead.

    A cooperative ``shutdown(wait=True)`` would block forever behind a
    hung worker, so the processes are killed first.
    """
    for proc in getattr(pool, "_processes", {}).values():
        try:
            proc.kill()
        except Exception:  # pragma: no cover — racing process exit
            pass
    pool.shutdown(wait=False, cancel_futures=True)


class SweepExecutor:
    """Deterministically-ordered, fault-tolerant process-pool fan-out.

    ``jobs=1`` runs inline in the calling process (no pool, no pickle
    round-trip) — the reference execution the parallel path must match.
    """

    def __init__(self, jobs: Optional[int] = 1) -> None:
        self.jobs = resolve_jobs(jobs)
        #: Wall-clock duration of the last :meth:`map` call.
        self.last_wall_time = 0.0
        #: :class:`SweepTaskError` per task lost in the last :meth:`map`
        #: call (empty when everything succeeded).
        self.last_failures: List[SweepTaskError] = []
        #: Per-task attribution of the last :meth:`map` call when a
        #: tracer was active — dicts of ``index``, ``worker`` (pid),
        #: ``dur`` (seconds), ``ok``.  Empty with tracing off.
        self.last_telemetry: List[Dict[str, Any]] = []

    def map(self, fn: Callable[[_T], _R], tasks: Sequence[_T], *,
            timeout: Optional[float] = None,
            retries: int = 0,
            on_error: str = "raise") -> List[Any]:
        """Apply *fn* to every task; results follow task order.

        ``timeout`` bounds each task's wall-clock seconds (pooled runs
        only — the inline ``jobs=1`` path cannot preempt a call and
        documents hangs as the caller's to bound via solver
        :class:`~repro.sat.Limits`).  ``retries`` grants each *failed*
        task that many additional attempts, each in a fresh
        single-worker pool.  ``on_error="raise"`` (default) raises the
        first :class:`SweepTaskError`; ``"return"`` puts the error
        object in the failed task's result slot so the rest of the
        sweep survives — check ``last_failures`` afterwards.
        """
        if on_error not in _ON_ERROR:
            raise ValueError(f"on_error must be one of {_ON_ERROR}, "
                             f"got {on_error!r}")
        if retries < 0:
            raise ValueError("retries must be non-negative")
        task_list = list(tasks)
        self.last_failures = []
        self.last_telemetry = []
        started = time.perf_counter()
        with obs_span("sweep", jobs=self.jobs,
                      tasks=len(task_list)) as sp:
            try:
                if self.jobs == 1 or len(task_list) <= 1:
                    return self._map_inline(fn, task_list, retries,
                                            on_error)
                return self._map_pool(fn, task_list, timeout, retries,
                                      on_error)
            finally:
                self.last_wall_time = time.perf_counter() - started
                sp.attrs["failures"] = len(self.last_failures)

    def starmap(self, fn: Callable[..., _R],
                tasks: Sequence[Sequence[Any]], *,
                timeout: Optional[float] = None,
                retries: int = 0,
                on_error: str = "raise") -> List[Any]:
        """Like :meth:`map` for argument tuples."""
        return self.map(_Star(fn), list(tasks), timeout=timeout,
                        retries=retries, on_error=on_error)

    # ------------------------------------------------------------------

    def _fail(self, err: SweepTaskError, on_error: str,
              results: List[Any], index: int) -> None:
        """Record a task's final failure per the *on_error* policy."""
        self.last_failures.append(err)
        tracer = current_tracer()
        if tracer is not None:
            entry: Dict[str, Any] = {"index": index, "ok": False,
                                     "error": err.cause_type}
            self.last_telemetry.append(entry)
            tracer.event("sweep.task", **entry)
        if on_error == "raise":
            raise err
        results[index] = err

    def _settle(self, value: Any, index: int) -> Any:
        """Unwrap a :class:`_TaskOutcome` from a traced pool worker:
        absorb its telemetry into the live tracer with per-worker (pid)
        attribution, record the task event, return the task's value.
        Non-outcome values (tracing off, or a failure) pass through."""
        if not isinstance(value, _TaskOutcome):
            return value
        entry: Dict[str, Any] = {"index": index, "worker": value.worker,
                                 "dur": value.duration, "ok": True}
        self.last_telemetry.append(entry)
        tracer = current_tracer()
        if tracer is not None:
            tracer.absorb(value.export, worker=value.worker)
            tracer.event("sweep.task", **entry)
        return value.value

    def _map_inline(self, fn: Callable[[_T], _R], tasks: List[_T],
                    retries: int, on_error: str) -> List[Any]:
        tracer = current_tracer()
        results: List[Any] = [None] * len(tasks)
        for idx, task in enumerate(tasks):
            attempt = 0
            task_started = time.perf_counter()
            ok = False
            while True:
                attempt += 1
                try:
                    results[idx] = fn(task)
                    ok = True
                    break
                except Exception as exc:
                    if attempt <= retries:
                        continue
                    err = SweepTaskError(idx, task, attempt,
                                         type(exc).__name__, str(exc),
                                         traceback.format_exc())
                    err.__cause__ = exc
                    self._fail(err, on_error, results, idx)
                    break
            if ok and tracer is not None:
                # Inline tasks trace straight into the live tracer; only
                # the per-task attribution event needs emitting here.
                entry: Dict[str, Any] = {
                    "index": idx, "worker": os.getpid(),
                    "dur": time.perf_counter() - task_started, "ok": True,
                }
                self.last_telemetry.append(entry)
                tracer.event("sweep.task", **entry)
        return results

    def _map_pool(self, fn: Callable[[_T], _R], tasks: List[_T],
                  timeout: Optional[float], retries: int,
                  on_error: str) -> List[Any]:
        # With a tracer active, each worker runs its task under a fresh
        # in-memory tracer whose export rides home in a _TaskOutcome;
        # _settle absorbs it.  The telemetry boundary sits *inside* the
        # fault boundary so a task exception still becomes a
        # _WorkerFailure value, exactly as with tracing off.
        traced_fn: Callable[[Any], Any] = (
            _TelemetryBoundary(fn) if current_tracer() is not None else fn)
        boundary = _FaultBoundary(traced_fn)
        n = len(tasks)
        results: List[Any] = [None] * n
        resolved = [False] * n
        attempts = [0] * n
        failures: Dict[int, _WorkerFailure] = {}

        # Phase 1: one shared pool, results drained in submission order.
        pool = ProcessPoolExecutor(max_workers=min(self.jobs, n))
        pool_dead = False
        try:
            futures = [pool.submit(boundary, task) for task in tasks]
            for idx, fut in enumerate(futures):
                if pool_dead:
                    # The pool died while waiting on an earlier task;
                    # salvage whatever already finished before the kill.
                    if fut.done() and not fut.cancelled():
                        try:
                            results[idx] = self._settle(
                                fut.result(timeout=0), idx)
                            resolved[idx] = True
                            attempts[idx] = 1
                        except Exception:
                            pass
                    continue
                try:
                    results[idx] = self._settle(
                        fut.result(timeout=timeout), idx)
                    resolved[idx] = True
                    attempts[idx] = 1
                except _FuturesTimeout:
                    # Futures drain in submission order, so this task
                    # has provably been running for the full budget:
                    # the hang is *its* attempt, and it counts against
                    # its retry budget like any other failed attempt.
                    pool_dead = True
                    _kill_pool(pool)
                    attempts[idx] = 1
                    failures[idx] = _WorkerFailure(
                        "Timeout",
                        f"task exceeded its {timeout:g}s "
                        f"wall-clock budget")
                except BrokenProcessPool:
                    # A crash poisons the shared pool, but a neighbour
                    # sharing the pool may be the culprit — no attempt
                    # is charged to this task; solo recovery isolates
                    # the guilty one with a full budget.
                    pool_dead = True
                    _kill_pool(pool)
        except BaseException:
            # Anything unexpected (KeyboardInterrupt, a telemetry
            # failure in _settle) must still tear the pool down hard:
            # the cooperative shutdown below would block forever
            # behind a worker that is hung mid-task.
            if not pool_dead:
                pool_dead = True
                _kill_pool(pool)
            raise
        finally:
            if not pool_dead:
                pool.shutdown(wait=True)

        for idx in range(n):
            if resolved[idx] and isinstance(results[idx], _WorkerFailure):
                failures[idx] = results[idx]

        # Phase 2: solo recovery.  Each task without a clean result
        # re-runs alone in a fresh single-worker pool, so one culprit
        # cannot take neighbours down with it again.  Tasks that never
        # got an attempt (cancelled when the pool died, or starved
        # behind a hang) get a full budget; tasks whose attempt
        # genuinely failed have already spent one.
        for idx in range(n):
            clean = resolved[idx] and idx not in failures
            if clean:
                continue
            failure = failures.get(idx)
            while attempts[idx] < retries + 1:
                attempts[idx] += 1
                value = self._solo_attempt(boundary, tasks[idx], timeout)
                if isinstance(value, _WorkerFailure):
                    failure = value
                    continue
                results[idx] = self._settle(value, idx)
                resolved[idx] = True
                failures.pop(idx, None)
                failure = None
                break
            if failure is not None:
                err = SweepTaskError(idx, tasks[idx], attempts[idx],
                                     failure.exc_type, failure.message,
                                     failure.traceback)
                self._fail(err, on_error, results, idx)
        return results

    @staticmethod
    def _solo_attempt(boundary: "_FaultBoundary", task: Any,
                      timeout: Optional[float]) -> Any:
        """One isolated attempt; failures come back as values."""
        pool = ProcessPoolExecutor(max_workers=1)
        try:
            fut = pool.submit(boundary, task)
            try:
                value = fut.result(timeout=timeout)
            except _FuturesTimeout:
                _kill_pool(pool)
                return _WorkerFailure(
                    "Timeout",
                    f"task exceeded its {timeout:g}s wall-clock budget")
            except BrokenProcessPool as exc:
                _kill_pool(pool)
                return _WorkerFailure(
                    "WorkerCrash",
                    str(exc) or "worker process died abnormally")
            pool.shutdown(wait=True)
            return value
        except BaseException:
            _kill_pool(pool)
            raise


class _Star:
    """Picklable argument-tuple adapter (lambdas don't cross pools)."""

    def __init__(self, fn: Callable[..., Any]) -> None:
        self.fn = fn

    def __call__(self, args: Sequence[Any]) -> Any:
        return self.fn(*args)
