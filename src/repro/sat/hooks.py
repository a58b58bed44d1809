"""The solver event-hook protocol.

:class:`SatSolver` exposes a ``hooks`` attribute; when it is not
``None`` the search calls these methods at its rare structural points.
The protocol lives in :mod:`repro.sat` (not :mod:`repro.obs`) so the
solver never imports the telemetry layer — observers depend on the
solver, never the reverse.  The concrete tracing implementation is
:class:`repro.obs.tracer.SolverProbe`.

Overhead discipline: with ``hooks is None`` (the default) every call
site is a single attribute check.  ``on_learned`` is the only hook on
a per-conflict path; the others fire per restart / clause-DB reduction
/ activity rescale, which are orders of magnitude rarer.
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable

__all__ = ["SolverHooks"]


@runtime_checkable
class SolverHooks(Protocol):
    """What a solver observer implements.  All methods must be cheap."""

    def on_learned(self, lbd: int, size: int, level: int) -> None:
        """A clause was learned from a conflict.

        *lbd* is its literal-block distance (1 for unit clauses),
        *size* its literal count, and *level* the decision level at
        which the conflict occurred (before backjumping).
        """

    def on_restart(self, restarts: int, conflicts: int) -> None:
        """The search restarted (*restarts* so far, at *conflicts*)."""

    def on_reduce_db(self, before: int, after: int,
                     conflicts: int) -> None:
        """The learned-clause DB was reduced from *before* to *after*
        clauses, at *conflicts* total conflicts."""

    def on_rescale(self) -> None:
        """VSIDS activities were rescaled to avoid overflow."""

    # The hooks below were added with the clause-arena solver.  The
    # solver dispatches them through ``getattr`` so observer classes
    # written against the original four-method protocol keep working
    # unchanged; implement them to see arena and tier events.

    def on_arena_compact(self, live: int, reclaimed: int) -> None:
        """The clause arena was compacted: *live* literal slots kept,
        *reclaimed* waste slots released."""

    def on_tiers(self, core: int, mid: int, local: int) -> None:
        """Learned-clause tier sizes after a clause-DB reduction."""
