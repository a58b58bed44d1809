"""Unified verification engine: two verification paths, encoding cache,
parallel sweeps.

Public entry point: :class:`VerificationEngine` — the facade every
consumer (CLI, sweep drivers, audit report, hardening) verifies
through — plus :class:`SweepExecutor` for fanning independent instances
across a process pool.  See ``docs/ENGINE.md`` for the architecture.
"""

from .cache import EncodingCache, EncodingKey
from .engine import VerificationEngine
from .sweep import SweepExecutor, SweepTaskError, resolve_jobs

__all__ = [
    "EncodingCache",
    "EncodingKey",
    "SweepExecutor",
    "SweepTaskError",
    "VerificationEngine",
    "resolve_jobs",
]
