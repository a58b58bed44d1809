"""The executor bridge: solver work off the event loop.

Solves are seconds-long CPU-bound calls; run on the event loop they
would freeze every health check, metrics scrape, and job poll.  The
bridge owns the worker pool and gives the job layer one awaitable
entry point, :meth:`ExecutorBridge.run`, over a thread pool.
Session solves *must* run in-process: the cached
:class:`~repro.core.incremental.IncrementalContext`\\ s hold live
solvers that cannot cross a process boundary, and cooperative
:meth:`~repro.engine.VerificationEngine.interrupt` needs shared memory
to reach a running search.  Threads serve both; the solver's budget
polling keeps them responsive.

Pool sizing reserves one core for the event loop (see
:func:`~repro.engine.sweep.resolve_jobs`): a daemon whose workers
occupy every core starves its own accept loop exactly when it is
busiest.  An explicit ``--jobs`` value is honored as given.
"""

from __future__ import annotations

import asyncio
import functools
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, Optional, TypeVar

from ..engine.sweep import resolve_jobs

__all__ = ["ExecutorBridge"]

_R = TypeVar("_R")


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
