"""The job layer: a bounded queue with coalescing and tenant limits.

Every solver-backed request becomes a :class:`Job` with a stable id,
observable state, and a result payload clients poll (or wait) for.
Three policies live here:

**Request coalescing.**  Identical in-flight requests — same session
fingerprint, same spec, same effective budget — share one solve: the
first submission creates the job, later ones attach to it and are
counted on ``service.coalesce.hits``.  N concurrent identical POSTs
therefore produce exactly one solver run, which is the whole point of
fronting the engine with a daemon: security-index-style traffic against
one grid differs only in budgets and properties, and the duplicates are
free.  Coalescing never crosses budgets: a 1-second query must not
inherit an unbounded query's solve (or vice versa), so the effective
:class:`~repro.sat.Limits` is part of the key.

**Bounded admission.**  A global queue limit plus per-tenant
:class:`TenantPolicy` caps (pending jobs, and a budget ceiling merged
into every request via ``Limits.merged``) keep one client from
occupying the pool.  Over-limit submissions are rejected with 429 at
admission — never silently queued without bound.

**Cooperative cancellation.**  Cancelling a queued job simply marks it;
cancelling a *running* job arms the engine's sticky
:meth:`~repro.engine.VerificationEngine.interrupt`, the in-flight solve
returns UNKNOWN (limit reason ``interrupt``), the warm context survives
for the next request, and the job finishes with the exit-code-3
payload.  The interrupt is cleared only after the solve has fully
unwound, and solves on one session are serialized (they share live
solver state), so a cancel can never leak into a neighbour's query.

Jobs run under a per-job in-memory tracer (installed with
:func:`~repro.obs.tracer.thread_activate`, so concurrent jobs on
different threads never interleave): the job's JSONL trace is
downloadable afterwards and validates against the
:mod:`repro.obs.schema`, and its metrics fold into the service
registry that ``/metrics`` exports.
"""

from __future__ import annotations

import asyncio
import sys
import time
import traceback
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import (
    Any,
    Awaitable,
    Callable,
    Dict,
    Hashable,
    List,
    Mapping,
    Optional,
    Tuple,
)

from ..core.specs import Property
from ..obs.metrics import MetricsRegistry
from ..obs.tracer import Tracer, thread_activate
from ..sat.limits import Limits, ResourceLimitReached
from .executor import ExecutorBridge
from .protocol import (
    JobKind,
    JobState,
    ServiceError,
    cancelled_payload,
    max_resiliency_payload,
    result_payload,
    vectors_payload,
)
from .sessions import Session

__all__ = ["Job", "JobManager", "JobOutcome", "TenantPolicy",
           "enumerate_fn", "max_resiliency_fn", "run_traced", "verify_fn"]


@dataclass(frozen=True)
class TenantPolicy:
    """What one tenant may ask of the service.

    ``limits`` is a per-solve budget ceiling merged (tighter-field-wise)
    into every request's own limits; ``max_pending`` bounds the
    tenant's queued-plus-running jobs.
    """

    limits: Optional[Limits] = None
    max_pending: int = 16

    def effective_limits(self,
                         requested: Optional[Limits]) -> Optional[Limits]:
        """The tighter of the request's and the tenant's budgets."""
        if requested is None:
            return self.limits
        return requested.merged(self.limits)


@dataclass
class JobOutcome:
    """What a job's worker-thread body hands back to the scheduler.

    A body that crashed still produces an outcome: ``error`` carries the
    one-line description, ``error_tb`` the full traceback (operator
    log only), and ``trace_records`` / ``metrics`` whatever telemetry
    accumulated before the failure — a failed job's trace is evidence,
    not garbage.
    """

    payload: Dict[str, Any]
    trace_records: List[Dict[str, Any]] = field(default_factory=list)
    metrics: Dict[str, Any] = field(default_factory=dict)
    error: Optional[str] = None
    error_tb: Optional[str] = None


@dataclass
class Job:
    """One submitted request and everything observable about it."""

    job_id: str
    kind: JobKind
    key: Optional[Hashable]
    session_id: Optional[str]
    tenant: str
    spec_text: str
    runner: Callable[[], Awaitable[JobOutcome]]
    interrupt: Optional[Callable[[], None]]
    clear_interrupt: Optional[Callable[[], None]]
    cancel_on_disconnect: bool = False
    state: JobState = JobState.QUEUED
    submitted: float = field(default_factory=time.monotonic)
    started: Optional[float] = None
    finished: Optional[float] = None
    result: Optional[Dict[str, Any]] = None
    error: Optional[str] = None
    coalesced: int = 0
    watchers: int = 0
    cancel_requested: bool = False
    cancel_reason: Optional[str] = None
    interrupt_armed: bool = False
    trace_records: List[Dict[str, Any]] = field(default_factory=list)
    done: asyncio.Event = field(default_factory=asyncio.Event)

    def describe(self) -> Dict[str, Any]:
        now = time.monotonic()
        # A finished job's age stops at the finish stamp — it should
        # not keep growing while the record sits in history.
        end = self.finished if self.finished is not None else now
        info: Dict[str, Any] = {
            "job": self.job_id,
            "kind": self.kind.value,
            "state": self.state.value,
            "session": self.session_id,
            "tenant": self.tenant,
            "spec": self.spec_text,
            "coalesced": self.coalesced,
            "age_s": round(end - self.submitted, 3),
        }
        if self.started is not None:
            info["queued_s"] = round(self.started - self.submitted, 3)
            run_end = self.finished if self.finished is not None else now
            info["run_s"] = round(run_end - self.started, 3)
        if self.result is not None:
            info["result"] = self.result
        if self.error is not None:
            info["error"] = self.error
        if self.cancel_reason is not None:
            info["cancel_reason"] = self.cancel_reason
        return info


# ----------------------------------------------------------------------
# Worker-thread job bodies
# ----------------------------------------------------------------------

def run_traced(meta: Mapping[str, Any],
               fn: Callable[[], Dict[str, Any]]) -> JobOutcome:
    """Run *fn* under a per-job tracer; bundle payload + telemetry.

    Executes on a bridge worker thread.  The tracer is installed as the
    *thread's* override, so concurrent jobs trace independently and a
    process-wide CLI tracer (if any) never sees job internals.  The
    returned records are a complete, schema-valid trace (meta first,
    metrics last) ready to serialize as JSONL.

    A crash inside *fn* does not forfeit the telemetry: the tracer is
    closed normally and the partial trace plus metrics ride back on an
    outcome with ``error`` set, so the scheduler can mark the job
    FAILED while keeping the evidence downloadable.
    """
    tracer = Tracer(meta=dict(meta))
    error: Optional[str] = None
    error_tb: Optional[str] = None
    payload: Dict[str, Any] = {}
    try:
        with thread_activate(tracer):
            payload = fn()
    except Exception as exc:
        error = f"{type(exc).__name__}: {exc}"
        error_tb = traceback.format_exc()
    finally:
        tracer.close()
    return JobOutcome(payload=payload,
                      trace_records=list(tracer.records),
                      metrics=tracer.registry.snapshot(),
                      error=error, error_tb=error_tb)


def verify_fn(session: Session, spec: Any, limits: Optional[Limits],
              minimize: bool = True) -> Callable[[], Dict[str, Any]]:
    """The worker-thread body of a verify job."""

    def fn() -> Dict[str, Any]:
        session.touch()
        result = session.engine.verify(spec, minimize=minimize,
                                       limits=limits)
        return result_payload(result)

    return fn


def enumerate_fn(session: Session, spec: Any, limits: Optional[Limits],
                 limit: Optional[int] = None,
                 minimal: bool = True) -> Callable[[], Dict[str, Any]]:
    """The worker-thread body of an enumerate job.

    An expired budget (or a cancel interrupt) mid-enumeration is not an
    error: the vectors found so far come back in an ``incomplete``
    payload with exit code 3.
    """

    def fn() -> Dict[str, Any]:
        session.touch()
        try:
            vectors = session.engine.enumerate_threat_vectors(
                spec, limit=limit, minimal=minimal, limits=limits)
        except ResourceLimitReached as exc:
            partial = list(exc.partial or [])
            reason = exc.reason.value if exc.reason is not None else None
            return vectors_payload(spec, partial, incomplete=True,
                                   limit_reason=reason)
        return vectors_payload(spec, vectors)

    return fn


def max_resiliency_fn(session: Session, prop: Property,
                      limits: Optional[Limits],
                      screen: bool = True) -> Callable[[], Dict[str, Any]]:
    """The three searches, in turn, on the session's engine.

    Probes share the session's warm contexts, and a cancel interrupt
    reaches them cooperatively — interrupted probes come back UNKNOWN,
    leaving sound (inexact) brackets and an exit-code-3 payload.
    """

    def fn() -> Dict[str, Any]:
        session.touch()
        total, ied, rtu = (
            session.engine.max_resiliency(prop, axis=axis, limits=limits,
                                          screen=screen)
            for axis in ("total", "ied", "rtu"))
        return max_resiliency_payload(prop.value, total, ied, rtu)

    return fn


# ----------------------------------------------------------------------


class JobManager:
    """Owns every job: admission, scheduling, coalescing, cancellation.

    All state transitions happen on the event loop thread — submit,
    cancel, and finalize are plain methods called from coroutines — so
    the manager needs no locks of its own.  Only the job *bodies* run
    on worker threads, and they touch nothing here.
    """

    def __init__(self, bridge: ExecutorBridge,
                 registry: MetricsRegistry,
                 queue_limit: int = 64,
                 default_policy: Optional[TenantPolicy] = None,
                 tenants: Optional[Mapping[str, TenantPolicy]] = None,
                 history: int = 256) -> None:
        if queue_limit < 1:
            raise ValueError("queue_limit must be positive")
        self.bridge = bridge
        self.registry = registry
        self.queue_limit = queue_limit
        self.default_policy = default_policy or TenantPolicy()
        self.tenants: Dict[str, TenantPolicy] = dict(tenants or {})
        self.history = history
        self._jobs: "OrderedDict[str, Job]" = OrderedDict()
        self._inflight: Dict[Hashable, Job] = {}
        self._session_locks: Dict[str, asyncio.Lock] = {}
        #: Caps concurrently *running* jobs at the pool width; admitted
        #: jobs beyond it wait here (the bounded queue's run side).
        self._slots = asyncio.Semaphore(bridge.workers)
        self._counter = 0
        self._tasks: Dict[str, "asyncio.Task[None]"] = {}
        #: Optional hook fired (on the event loop) after a job reaches
        #: a terminal state — the HTTP layer uses it to mirror traces
        #: to disk.  Exceptions are logged, never fatal.
        self.on_finish: Optional[Callable[[Job], None]] = None

    # -- admission ------------------------------------------------------

    def policy_for(self, tenant: str) -> TenantPolicy:
        return self.tenants.get(tenant, self.default_policy)

    def _pending(self, tenant: Optional[str] = None) -> int:
        return sum(1 for job in self._jobs.values()
                   if not job.state.finished
                   and (tenant is None or job.tenant == tenant))

    def submit(self, kind: JobKind,
               runner: Callable[[], Awaitable[JobOutcome]],
               *,
               key: Optional[Hashable] = None,
               session_id: Optional[str] = None,
               tenant: str = "anonymous",
               spec_text: str = "",
               interrupt: Optional[Callable[[], None]] = None,
               clear_interrupt: Optional[Callable[[], None]] = None,
               cancel_on_disconnect: bool = False
               ) -> Tuple[Job, bool]:
        """Admit one request; returns ``(job, coalesced)``.

        With a *key*, an unfinished job under the same key absorbs this
        submission — the caller gets the existing job and no new work
        enters the system.  A twin that is already doomed
        (``cancel_requested``) never absorbs: the newcomer must not
        inherit a cancelled verdict it never asked for.  Otherwise
        admission checks the global and per-tenant pending caps (429 on
        breach) and schedules the job.
        """
        if key is not None:
            twin = self._inflight.get(key)
            if (twin is not None and not twin.state.finished
                    and not twin.cancel_requested):
                twin.coalesced += 1
                # Any poll-mode interest pins the job: a later waiter's
                # disconnect must not cancel a solve whose result a
                # poll-mode submitter still plans to fetch.
                if not cancel_on_disconnect:
                    twin.cancel_on_disconnect = False
                self.registry.count("service.coalesce.hits")
                return twin, True
        if self._pending() >= self.queue_limit:
            self.registry.count("service.jobs.rejected")
            raise ServiceError(429, "queue-full",
                               f"job queue is full "
                               f"({self.queue_limit} pending)")
        policy = self.policy_for(tenant)
        if self._pending(tenant) >= policy.max_pending:
            self.registry.count("service.jobs.rejected")
            raise ServiceError(429, "tenant-queue-full",
                               f"tenant {tenant!r} already has "
                               f"{policy.max_pending} pending job(s)")
        self._counter += 1
        job = Job(job_id=f"j{self._counter:06d}", kind=kind, key=key,
                  session_id=session_id, tenant=tenant,
                  spec_text=spec_text, runner=runner,
                  interrupt=interrupt, clear_interrupt=clear_interrupt,
                  cancel_on_disconnect=cancel_on_disconnect)
        self._jobs[job.job_id] = job
        if key is not None:
            self._inflight[key] = job
        self.registry.count("service.jobs.submitted")
        self._trim_history()
        task = asyncio.get_running_loop().create_task(self._drive(job))
        self._tasks[job.job_id] = task
        return job, False

    # -- scheduling -----------------------------------------------------

    def _session_lock(self, session_id: Optional[str]) -> asyncio.Lock:
        # Solves against one session share live solver state and must
        # serialize; sessionless jobs get a throwaway lock.
        if session_id is None:
            return asyncio.Lock()
        lock = self._session_locks.get(session_id)
        if lock is None:
            lock = asyncio.Lock()
            self._session_locks[session_id] = lock
        return lock

    async def _drive(self, job: Job) -> None:
        try:
            async with self._slots:
                # A queued job cancelled while waiting for a slot was
                # already finalized by cancel(); nothing left to do.
                if job.state.finished:
                    return
                if job.cancel_requested:
                    self._finalize_cancelled(job)
                    return
                async with self._session_lock(job.session_id):
                    if job.state.finished:
                        return
                    if job.cancel_requested:
                        self._finalize_cancelled(job)
                        return
                    job.state = JobState.RUNNING
                    job.started = time.monotonic()
                    self.registry.count("service.solves")
                    self.registry.observe(
                        "service.queue_wait_ms",
                        (job.started - job.submitted) * 1000.0)
                    try:
                        outcome = await job.runner()
                    except Exception as exc:
                        # A runner that escapes run_traced's capture
                        # (e.g. a stub in tests, or a bridge failure)
                        # still yields an outcome so the FAILED path
                        # below is the only FAILED path.
                        outcome = JobOutcome(
                            payload={},
                            error=f"{type(exc).__name__}: {exc}",
                            error_tb=traceback.format_exc())
                    finally:
                        # Re-arm the engine only after the solve has
                        # fully unwound; the session lock is still held,
                        # so the next job on this session cannot start
                        # before the sticky flag is cleared.
                        if job.interrupt_armed \
                                and job.clear_interrupt is not None:
                            job.clear_interrupt()
            # Telemetry is absorbed for every terminal state — a failed
            # job keeps its (partial) trace and folds its metrics into
            # the service registry just like a successful one.
            self._absorb(job, outcome)
            if outcome.error is not None:
                job.error = outcome.error
                self.registry.count("service.jobs.failed")
                self._finish(job, JobState.FAILED)
                # Keep the traceback out of client payloads but
                # visible to the operator.
                if outcome.error_tb:
                    print(outcome.error_tb, file=sys.stderr)
                return
            if job.cancel_requested \
                    and outcome.payload.get("exit_code") == 3:
                job.result = dict(outcome.payload)
                job.result["cancelled"] = True
                job.result["cancel_reason"] = job.cancel_reason
                self.registry.count("service.jobs.cancelled")
                self._finish(job, JobState.CANCELLED)
                return
            job.result = outcome.payload
            self.registry.count("service.jobs.completed")
            self._finish(job, JobState.DONE)
        except asyncio.CancelledError:
            # Daemon shutdown: surface the standard UNKNOWN payload.
            if not job.state.finished:
                self._finalize_cancelled(job)
            raise

    def _absorb(self, job: Job, outcome: JobOutcome) -> None:
        """Fold a finished body's telemetry into the service."""
        job.trace_records = outcome.trace_records
        if outcome.metrics:
            self.registry.merge(outcome.metrics)
        duration = (time.monotonic() - job.started
                    if job.started is not None else 0.0)
        self.registry.observe("service.solve_ms", duration * 1000.0)

    def _finalize_cancelled(self, job: Job) -> None:
        job.result = cancelled_payload(
            job.spec_text, job.cancel_reason or "cancelled")
        self.registry.count("service.jobs.cancelled")
        self._finish(job, JobState.CANCELLED)

    def _finish(self, job: Job, state: JobState) -> None:
        job.state = state
        job.finished = time.monotonic()
        if job.key is not None and self._inflight.get(job.key) is job:
            del self._inflight[job.key]
        self._tasks.pop(job.job_id, None)
        # Drop the session's serialization lock once no unfinished job
        # references it (an unfinished job is either holding it or
        # queued to acquire it) — otherwise the dict grows one entry
        # per session ever seen.
        if job.session_id is not None and not any(
                other.session_id == job.session_id
                and not other.state.finished
                for other in self._jobs.values()):
            self._session_locks.pop(job.session_id, None)
        job.done.set()
        if self.on_finish is not None:
            try:
                self.on_finish(job)
            except Exception:
                traceback.print_exc()

    def _trim_history(self) -> None:
        # Finished jobs are kept for polling/trace download, but only
        # `history` of them; the oldest finished jobs age out first.
        finished = [job_id for job_id, job in self._jobs.items()
                    if job.state.finished]
        excess = len(self._jobs) - self.history
        for job_id in finished[:max(0, excess)]:
            del self._jobs[job_id]

    # -- lookup / cancellation -----------------------------------------

    def get(self, job_id: str) -> Job:
        job = self._jobs.get(job_id)
        if job is None:
            raise ServiceError(404, "no-such-job",
                               f"unknown job {job_id!r} (finished jobs "
                               f"age out after {self.history} entries)")
        return job

    def jobs(self) -> List[Job]:
        return list(self._jobs.values())

    def cancel(self, job_id: str, reason: str = "cancelled") -> Job:
        """Request cooperative cancellation; returns the job.

        Queued jobs finish as CANCELLED without ever touching the
        engine.  Running jobs get a sticky engine interrupt: the solve
        in flight returns UNKNOWN and the job finishes with the
        exit-code-3 payload.  Cancelling a finished job is a no-op.
        """
        job = self.get(job_id)
        if job.state.finished or job.cancel_requested:
            return job
        job.cancel_requested = True
        job.cancel_reason = reason
        self.registry.count("service.jobs.cancel_requests")
        if job.state is JobState.RUNNING and job.interrupt is not None:
            job.interrupt_armed = True
            job.interrupt()
        elif job.state is JobState.QUEUED:
            # Still waiting for a worker slot: finalize right away so
            # the client sees the UNKNOWN payload immediately; _drive
            # notices the terminal state when the slot frees up.
            self._finalize_cancelled(job)
        return job

    def watcher_gone(self, job: Job) -> None:
        """A waiting client disconnected; cancel if nobody else cares.

        Only jobs submitted in wait mode opt in
        (``cancel_on_disconnect``); poll-mode jobs must survive their
        submitter's disconnect so the result can be fetched later.
        """
        if (job.cancel_on_disconnect and job.watchers <= 0
                and not job.state.finished):
            self.cancel(job.job_id, reason="client-disconnect")
            self.registry.count("service.jobs.disconnect_cancels")

    # -- introspection --------------------------------------------------

    def stats(self) -> Dict[str, int]:
        states: Dict[str, int] = {state.value: 0 for state in JobState}
        for job in self._jobs.values():
            states[job.state.value] += 1
        return {
            "tracked": len(self._jobs),
            "pending": self._pending(),
            "inflight_keys": len(self._inflight),
            **states,
        }

    async def drain(self) -> None:
        """Cancel every unfinished job and await their tasks (shutdown)."""
        for job in list(self._jobs.values()):
            if not job.state.finished:
                self.cancel(job.job_id, reason="shutdown")
        tasks = [task for task in self._tasks.values() if not task.done()]
        for task in tasks:
            task.cancel()
        for task in tasks:
            try:
                await task
            except (asyncio.CancelledError, Exception):
                pass
