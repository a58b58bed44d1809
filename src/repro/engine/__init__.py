"""Unified verification engine: pluggable backends, encoding cache,
parallel sweeps.

Public entry point: :class:`VerificationEngine` — the facade every
consumer (CLI, sweep drivers, audit report, hardening) verifies
through — plus :class:`SweepExecutor` for fanning independent instances
across a process pool.  See ``docs/ENGINE.md`` for the architecture.
"""

from .backends import (
    BACKEND_NAMES,
    AssumptionBackend,
    FreshBackend,
    VerificationBackend,
    make_backend,
)
from .cache import EncodingCache, EncodingKey
from .engine import VerificationEngine
from .sweep import SweepExecutor, SweepTaskError, resolve_jobs

__all__ = [
    "BACKEND_NAMES",
    "AssumptionBackend",
    "EncodingCache",
    "EncodingKey",
    "FreshBackend",
    "SweepExecutor",
    "SweepTaskError",
    "VerificationBackend",
    "VerificationEngine",
    "make_backend",
    "resolve_jobs",
]
