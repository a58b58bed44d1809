"""Verification-as-a-service: the engine behind an asyncio daemon.

The service turns the per-process CLI workflow — parse, lint, encode,
solve, exit — into a long-lived daemon that keeps expensive state warm
between requests.  Four layers, one per module:

* :mod:`.sessions` — warm engine state (lint verdicts, encoding
  caches, live incremental solvers) keyed by configuration
  fingerprint, LRU-bounded, explicitly invalidatable.
* :mod:`.jobs` — admission and scheduling: a bounded queue,
  per-tenant budgets, request coalescing (identical in-flight queries
  share one solve), cooperative cancellation via the engine's sticky
  interrupt.
* :mod:`.executor` — the worker thread pool bridging asyncio to
  seconds-long CPU-bound solves on the sessions' warm engines.
* :mod:`.http` — the stdlib-asyncio HTTP transport and ``/metrics``.

:mod:`.protocol` defines the wire shapes shared by all of them, and
:mod:`.client` is the matching stdlib client (``repro client``).

Start a daemon with ``repro serve`` (or :class:`ReproService`
programmatically); drive it with ``repro client`` or any HTTP client.
"""

from .client import ServiceClient, ServiceClientError
from .executor import ExecutorBridge
from .http import ReproService
from .jobs import Job, JobManager, TenantPolicy
from .protocol import JobKind, JobState, ServiceError
from .sessions import Session, SessionManager

__all__ = [
    "ExecutorBridge",
    "Job",
    "JobKind",
    "JobManager",
    "JobState",
    "ReproService",
    "ServiceClient",
    "ServiceClientError",
    "ServiceError",
    "Session",
    "SessionManager",
    "TenantPolicy",
]
