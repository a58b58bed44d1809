"""The executor bridge: solver work off the event loop.

Solves are seconds-long CPU-bound calls; run on the event loop they
would freeze every health check, metrics scrape, and job poll.  The
bridge owns the worker pool and gives the job layer one awaitable
entry point per lane:

* the **warm lane** (:meth:`ExecutorBridge.run`) — a thread pool.
  Warm-session solves *must* run in-process: the cached
  :class:`~repro.core.incremental.IncrementalContext`\\ s hold live
  solvers that cannot cross a process boundary, and cooperative
  :meth:`~repro.engine.VerificationEngine.interrupt` needs shared
  memory to reach a running search.  Threads serve both; the solver's
  budget polling keeps them responsive.

* the **cold lane** (:func:`sweep_max_searches`) — a
  :class:`~repro.engine.SweepExecutor` process fan-out, driven from a
  pool thread so the event loop never blocks.  Stateless multi-query
  jobs (the three maximal-resiliency searches) use it and inherit the
  sweep layer's fault tolerance: per-task timeouts, retries in fresh
  solo pools, and crash salvage.  Worker tasks carry the config as
  *text* (the daemon has no file to point at) and rebuild their own
  engine — solver state never crosses a process boundary.

Pool sizing reserves one core for the event loop (see
:func:`~repro.engine.sweep.resolve_jobs`): a daemon whose workers
occupy every core starves its own accept loop exactly when it is
busiest.  An explicit ``--jobs`` value is honored as given.
"""

from __future__ import annotations

import asyncio
import functools
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, Optional, Tuple, TypeVar

from ..core.search import SearchBounds
from ..core.specs import Property
from ..engine.engine import VerificationEngine
from ..engine.sweep import SweepExecutor, resolve_jobs
from ..sat.limits import Limits
from ..scada.config_io import parse_config

__all__ = ["ExecutorBridge", "max_search_task", "sweep_max_searches"]

_R = TypeVar("_R")


def max_search_task(
    task: Tuple[str, str, str, Optional[Limits], bool],
) -> SearchBounds:
    """Worker: one maximal-resiliency search on inline config text.

    Module-level and picklable; mirrors the CLI's path-based sweep task
    but parses the configuration from the request body the daemon
    received.  Lint already ran when the session was opened.
    """
    config_text, prop_value, kind, limits, screen = task
    config = parse_config(config_text, strict=False)
    engine = VerificationEngine(config.network, config.problem,
                                backend="assumption", lint=False)
    prop = Property(prop_value)
    if kind == "total":
        return engine.max_total_resiliency_bounds(prop, limits=limits,
                                                  screen=screen)
    if kind == "ied":
        return engine.max_ied_resiliency_bounds(prop, limits=limits,
                                                screen=screen)
    return engine.max_rtu_resiliency_bounds(prop, limits=limits,
                                            screen=screen)


def sweep_max_searches(
    config_text: str,
    prop_value: str,
    limits: Optional[Limits],
    screen: bool,
    jobs: int,
    timeout: Optional[float] = None,
) -> Tuple[SearchBounds, SearchBounds, SearchBounds]:
    """Fan the three maximal-resiliency searches over a process pool.

    Synchronous — a job body calls it from its bridge thread, so the
    event loop stays free while the sweep layer contributes its fault
    tolerance (worker retries in fresh solo pools, crash salvage,
    per-task timeouts).  Telemetry flows into whatever tracer is active
    on the *calling* thread, i.e. the job's.
    """
    tasks = [(config_text, prop_value, kind, limits, screen)
             for kind in ("total", "ied", "rtu")]
    total, ied, rtu = SweepExecutor(jobs=min(jobs, 3)).map(
        max_search_task, tasks, timeout=timeout, retries=1,
        on_error="raise")
    return total, ied, rtu


class ExecutorBridge:
    """Awaitable access to the daemon's worker pool."""

    def __init__(self, jobs: Optional[int] = None) -> None:
        #: Resolved worker count: auto sizing keeps one core free for
        #: the event loop; an explicit count is the operator's call.
        self.workers = resolve_jobs(jobs, reserve=1)
        self._pool = ThreadPoolExecutor(
            max_workers=self.workers, thread_name_prefix="repro-worker")

    async def run(self, fn: Callable[..., _R], *args: Any,
                  **kwargs: Any) -> _R:
        """Run *fn* on a pool thread; await its result."""
        loop = asyncio.get_running_loop()
        call = functools.partial(fn, *args, **kwargs)
        return await loop.run_in_executor(self._pool, call)

    def shutdown(self, wait: bool = True) -> None:
        self._pool.shutdown(wait=wait, cancel_futures=True)
