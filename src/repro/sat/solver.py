"""A CDCL SAT solver over a flat clause arena.

This is the solving engine that replaces Z3 for the paper's model (which
is purely Boolean once cardinality sums are encoded).  It implements the
standard conflict-driven clause-learning architecture:

* two-watched-literal unit propagation,
* first-UIP conflict analysis with clause minimization,
* VSIDS-style variable activities with phase saving,
* Luby-sequence restarts,
* LBD-tiered learned-clause retention (core / mid / local) with
  per-tier database-reduction policies,
* solving under assumptions, with extraction of an unsatisfiable core
  over the assumption set (the ``analyzeFinal`` mechanism).

The public literal convention is DIMACS (signed integers); internally a
literal ``v``/``-v`` is encoded as ``2v``/``2v+1`` so flat lists can be
indexed by literal.

Clause storage
--------------
Clauses live in a :class:`ClauseArena`: one contiguous literal buffer
plus offset / length / LBD / activity side arrays, all indexed by an
integer *clause reference*.  Watch lists and implication reasons hold
references, never objects, so the hot propagation loop runs on flat
``list`` indexing with no attribute lookups, and the memory estimate
used by :class:`~repro.sat.limits.Limits` is O(1) (buffer lengths)
instead of a full database walk.  Deletion marks a reference dead and
counts the wasted buffer slots; when waste crosses a threshold the
arena is compacted in place.  References are *stable across
compaction* (only offsets move), so watch lists, reasons, and tier
lists never need remapping.
"""

from __future__ import annotations

from heapq import heappop, heappush
from time import monotonic
from typing import Dict, Iterable, List, Optional, Sequence

from .hooks import SolverHooks
from .limits import LimitReason, Limits
from .types import from_internal, to_internal

__all__ = ["SatSolver", "SolverStats", "ClauseArena"]

_UNDEF = -1

#: Sentinel clause reference meaning "no reason" (decision / assumption).
_NO_REASON = -1

#: Outer-loop iterations between wall-clock / memory polls.  Conflict,
#: propagation, and interrupt checks are plain integer/attribute reads
#: and run every iteration; ``monotonic()`` and the (O(1)) memory
#: estimate are only sampled at this cadence so an unbounded solve
#: pays (almost) nothing for the limit machinery.
_LIMIT_POLL_INTERVAL = 128

#: Learned clauses with LBD at or below this are *core*: kept forever.
_CORE_LBD = 2
#: ... at or below this are *mid*: reduced gently; the rest are *local*.
_MID_LBD = 6

#: Luby restart unit in conflicts.
_RESTART_BASE = 100


class ClauseArena:
    """Flat int-array clause storage.

    A clause is addressed by an integer reference ``ref`` indexing the
    side arrays; its literals occupy ``lits[off[ref] : off[ref] +
    length[ref]]``.  The first two slots of every live clause are its
    watched literals.  ``flags`` packs the learned bit
    (:data:`LEARNED`) and the dead bit (:data:`DEAD`); ``lbd`` and
    ``act`` carry the learned-clause glue and VSIDS-style activity.

    Dead clauses leave their literal slots behind as waste (tracked in
    :attr:`wasted`); :meth:`compact` rewrites the buffer keeping
    references stable, and dead references are recycled through a free
    list so the side arrays stay bounded too.
    """

    LEARNED = 1
    DEAD = 2

    __slots__ = ("lits", "off", "length", "lbd", "act", "flags",
                 "free", "wasted", "compactions")

    def __init__(self) -> None:
        self.lits: List[int] = []
        self.off: List[int] = []
        self.length: List[int] = []
        self.lbd: List[int] = []
        self.act: List[float] = []
        self.flags: List[int] = []
        self.free: List[int] = []
        self.wasted = 0
        self.compactions = 0

    def alloc(self, lits: Sequence[int], learned: bool) -> int:
        """Store a clause; returns its reference."""
        flags = self.LEARNED if learned else 0
        if self.free:
            ref = self.free.pop()
            self.off[ref] = len(self.lits)
            self.length[ref] = len(lits)
            self.lbd[ref] = 0
            self.act[ref] = 0.0
            self.flags[ref] = flags
        else:
            ref = len(self.off)
            self.off.append(len(self.lits))
            self.length.append(len(lits))
            self.lbd.append(0)
            self.act.append(0.0)
            self.flags.append(flags)
        self.lits.extend(lits)
        return ref

    def free_clause(self, ref: int) -> None:
        """Mark *ref* dead and recycle it; its slots become waste."""
        self.wasted += self.length[ref]
        self.flags[ref] |= self.DEAD
        self.free.append(ref)

    def clause_lits(self, ref: int) -> List[int]:
        """A copy of *ref*'s literals (cold paths only)."""
        o = self.off[ref]
        return self.lits[o:o + self.length[ref]]

    @property
    def live_clauses(self) -> int:
        return len(self.off) - len(self.free)

    def compact(self) -> int:
        """Rewrite the literal buffer without the dead slots.

        References are stable — only offsets change — so no watch list,
        reason, or tier list needs updating.  Returns the number of
        reclaimed slots.
        """
        old = self.lits
        off = self.off
        length = self.length
        flags = self.flags
        dead = self.DEAD
        new_lits: List[int] = []
        for ref in range(len(off)):
            if flags[ref] & dead:
                continue
            o = off[ref]
            off[ref] = len(new_lits)
            new_lits.extend(old[o:o + length[ref]])
        reclaimed = len(old) - len(new_lits)
        self.lits = new_lits
        self.wasted = 0
        self.compactions += 1
        return reclaimed


class SolverStats:
    """Counters describing the work a solve performed."""

    __slots__ = (
        "conflicts", "decisions", "propagations", "restarts",
        "learned_clauses", "deleted_clauses", "max_decision_level",
        "arena_compactions",
    )

    def __init__(self) -> None:
        self.conflicts = 0
        self.decisions = 0
        self.propagations = 0
        self.restarts = 0
        self.learned_clauses = 0
        self.deleted_clauses = 0
        self.max_decision_level = 0
        self.arena_compactions = 0

    def as_dict(self) -> Dict[str, int]:
        return {name: getattr(self, name) for name in self.__slots__}

    def delta(self, before: Dict[str, int]) -> Dict[str, int]:
        """Counter increments since a previous :meth:`as_dict` snapshot.

        Monotone counters are differenced; ``max_decision_level`` (a
        high-water mark, not a counter) is reported as its current
        value.  Incremental facades use this to attribute search effort
        to individual queries on a long-lived solver.
        """
        current = self.as_dict()
        out = {name: current[name] - before.get(name, 0)
               for name in self.__slots__}
        out["max_decision_level"] = current["max_decision_level"]
        return out

    def __repr__(self) -> str:
        fields = ", ".join(f"{k}={v}" for k, v in self.as_dict().items())
        return f"SolverStats({fields})"


def _luby(i: int) -> int:
    """The i-th element (0-based) of the Luby restart sequence
    1 1 2 1 1 2 4 1 1 2 1 1 2 4 8 ..."""
    size = 1
    seq = 0
    while size < i + 1:
        seq += 1
        size = 2 * size + 1
    while size - 1 != i:
        size = (size - 1) // 2
        seq -= 1
        i = i % size
    return 1 << seq


class SatSolver:
    """An incremental CDCL solver over DIMACS-style literals.

    One fixed configuration: fresh variables start at activity 0 with a
    negative saved phase, VSIDS decays by 0.95 per conflict, and
    restarts follow the Luby sequence in units of
    :data:`_RESTART_BASE` conflicts.
    """

    def __init__(self) -> None:
        self.num_vars = 0
        # Indexed by internal literal: 1 true, 0 false, -1 unassigned.
        self._value: List[int] = [_UNDEF, _UNDEF]
        # Indexed by variable.
        self._level: List[int] = [0]
        self._reason: List[int] = [_NO_REASON]
        self._activity: List[float] = [0.0]
        self._phase: List[bool] = [True]
        self._seen: List[int] = [0]
        # Indexed by internal literal: refs of clauses watching it.
        self._watches: List[List[int]] = [[], []]

        self._arena = ClauseArena()
        #: Original (problem) clause refs.
        self._clauses: List[int] = []
        #: Learned clause refs, tiered by LBD at learn time.
        self._tier_core: List[int] = []
        self._tier_mid: List[int] = []
        self._tier_local: List[int] = []
        self._trail: List[int] = []
        self._trail_lim: List[int] = []
        self._qhead = 0

        self._var_inc = 1.0
        self._var_decay = 1.0 / 0.95
        self._cla_inc = 1.0
        self._cla_decay = 1.0 / 0.999
        self._order_heap: List[tuple] = []
        #: Activity value at each variable's freshest heap entry;
        #: ``-1.0`` means "no fresh entry in the heap".  Lets
        #: :meth:`_cancel_until` skip redundant pushes (the historical
        #: version re-pushed the whole trail on every backtrack, so
        #: duplicate entries accumulated without bound).
        self._heap_act: List[float] = [-1.0]

        self._reduce_calls = 0

        self._ok = True
        self._interrupted = False
        #: Why the last :meth:`solve` returned ``None`` (UNKNOWN);
        #: ``None`` after a decided (sat/unsat) answer.
        self.limit_reason: Optional[LimitReason] = None
        self._clauses_added = 0
        self._proof_originals: Optional[List[List[int]]] = None
        self._proof_learned: Optional[List[List[int]]] = None
        #: DRUP-style deletion records (observability only: the RUP
        #: checker is monotone, so deletions never affect validity).
        self._proof_deleted: Optional[List[List[int]]] = None
        self._model: List[bool] = []
        self._core: List[int] = []
        self._assumption_set: set = set()
        self.stats = SolverStats()
        #: Optional event observer (see :mod:`repro.sat.hooks`).  With
        #: the default ``None`` every call site is one attribute check.
        self.hooks: Optional[SolverHooks] = None

    # ------------------------------------------------------------------
    # Variable and clause management
    # ------------------------------------------------------------------

    def new_var(self) -> int:
        """Allocate a fresh variable and return its (positive) index."""
        self.num_vars += 1
        self._value.extend((_UNDEF, _UNDEF))
        self._level.append(0)
        self._reason.append(_NO_REASON)
        self._activity.append(0.0)
        self._phase.append(False)
        self._seen.append(0)
        self._watches.append([])
        self._watches.append([])
        heappush(self._order_heap, (0.0, self.num_vars))
        self._heap_act.append(0.0)
        return self.num_vars

    def _ensure_vars(self, lits: Iterable[int]) -> None:
        top = 0
        for lit in lits:
            v = lit if lit > 0 else -lit
            if v > top:
                top = v
        while self.num_vars < top:
            self.new_var()

    def add_clause(self, lits: Sequence[int]) -> bool:
        """Add a clause of DIMACS literals.

        Returns ``False`` when the solver's clause set has become
        trivially unsatisfiable (an empty clause, possibly after level-0
        simplification); further calls are then no-ops.
        """
        if not self._ok:
            return False
        if self._trail_lim:
            raise RuntimeError("add_clause is only legal at decision level 0")
        self._clauses_added += 1
        if self._proof_originals is not None:
            self._proof_originals.append(list(lits))
        self._ensure_vars(lits)

        seen = set()
        simplified: List[int] = []
        value = self._value
        for lit in lits:
            ilit = to_internal(lit)
            if ilit in seen:
                continue
            if ilit ^ 1 in seen:
                return True  # tautology
            val = value[ilit]
            if val == 1:
                return True  # already satisfied at level 0
            if val == 0:
                continue  # already false at level 0: drop the literal
            seen.add(ilit)
            simplified.append(ilit)

        if not simplified:
            self._ok = False
            return False
        if len(simplified) == 1:
            if not self._enqueue(simplified[0], _NO_REASON):
                self._ok = False
                return False
            conflict = self._propagate()
            if conflict is not None:
                self._ok = False
                return False
            return True

        ref = self._arena.alloc(simplified, learned=False)
        self._clauses.append(ref)
        self._attach(ref)
        return True

    def _attach(self, ref: int) -> None:
        # Convention: _watches[lit] holds the clauses in which `lit` is
        # one of the two watched literals; the list is visited when `lit`
        # becomes false.
        arena = self._arena
        o = arena.off[ref]
        self._watches[arena.lits[o]].append(ref)
        self._watches[arena.lits[o + 1]].append(ref)

    # ------------------------------------------------------------------
    # Assignment and propagation
    # ------------------------------------------------------------------

    def _enqueue(self, ilit: int, reason: int) -> bool:
        val = self._value[ilit]
        if val != _UNDEF:
            return val == 1
        var = ilit >> 1
        self._value[ilit] = 1
        self._value[ilit ^ 1] = 0
        self._level[var] = len(self._trail_lim)
        self._reason[var] = reason
        self._phase[var] = not (ilit & 1)
        self._trail.append(ilit)
        return True

    def _propagate(self) -> Optional[int]:
        """Unit propagation; returns the conflicting clause ref, if any."""
        value = self._value
        watches = self._watches
        trail = self._trail
        arena = self._arena
        buf = arena.lits
        offs = arena.off
        lens = arena.length
        while self._qhead < len(trail):
            ilit = trail[self._qhead]
            self._qhead += 1
            self.stats.propagations += 1
            false_lit = ilit ^ 1
            watchers = watches[false_lit]
            i = 0
            j = 0
            n = len(watchers)
            while i < n:
                ref = watchers[i]
                i += 1
                o = offs[ref]
                # Put the false literal in position 1.
                if buf[o] == false_lit:
                    buf[o] = buf[o + 1]
                    buf[o + 1] = false_lit
                first = buf[o]
                if value[first] == 1:
                    watchers[j] = ref
                    j += 1
                    continue
                # Look for a replacement watch.
                found = False
                for k in range(o + 2, o + lens[ref]):
                    cand = buf[k]
                    if value[cand] != 0:
                        buf[o + 1] = cand
                        buf[k] = false_lit
                        watches[cand].append(ref)
                        found = True
                        break
                if found:
                    continue
                watchers[j] = ref
                j += 1
                if value[first] == 0:
                    # Conflict: restore remaining watchers and bail out.
                    while i < n:
                        watchers[j] = watchers[i]
                        j += 1
                        i += 1
                    del watchers[j:]
                    self._qhead = len(trail)
                    return ref
                # Unit.
                var = first >> 1
                value[first] = 1
                value[first ^ 1] = 0
                self._level[var] = len(self._trail_lim)
                self._reason[var] = ref
                self._phase[var] = not (first & 1)
                trail.append(first)
            del watchers[j:]
        return None

    # ------------------------------------------------------------------
    # Decisions and backtracking
    # ------------------------------------------------------------------

    def _decide(self) -> Optional[int]:
        heap = self._order_heap
        value = self._value
        activity = self._activity
        heap_act = self._heap_act
        while heap:
            act, var = heappop(heap)
            if value[var << 1] == _UNDEF and -act == activity[var]:
                heap_act[var] = -1.0
                return var
            # Otherwise stale: the variable is assigned, or a fresher
            # entry (with its current activity) sits elsewhere.
        # Every fresh entry was consumed: rebuild from the unassigned
        # variables once, instead of the historical per-call O(n) scan.
        self._rebuild_heap()
        heap = self._order_heap
        if heap:
            act, var = heappop(heap)
            self._heap_act[var] = -1.0
            return var
        return None

    def _bump_var(self, var: int) -> None:
        act = self._activity[var] + self._var_inc
        self._activity[var] = act
        if act > 1e100:
            self._rescale_activities()
            return  # the rescale rebuilt the heap with fresh entries
        if self._value[var << 1] == _UNDEF:
            heappush(self._order_heap, (-act, var))
            self._heap_act[var] = act

    def _rebuild_heap(self) -> None:
        """Rebuild the order heap with exactly one entry per unassigned
        variable (at its current activity)."""
        activity = self._activity
        value = self._value
        heap_act = self._heap_act
        heap = []
        for var in range(1, self.num_vars + 1):
            if value[var << 1] == _UNDEF:
                heap.append((-activity[var], var))
                heap_act[var] = activity[var]
            else:
                heap_act[var] = -1.0
        heap.sort()  # a sorted list satisfies the heap invariant
        self._order_heap = heap

    def _rescale_activities(self) -> None:
        activity = self._activity
        for var in range(1, self.num_vars + 1):
            activity[var] *= 1e-100
        self._var_inc *= 1e-100
        self._rebuild_heap()
        if self.hooks is not None:
            self.hooks.on_rescale()

    def _cancel_until(self, level: int) -> None:
        if len(self._trail_lim) <= level:
            return
        bound = self._trail_lim[level]
        value = self._value
        trail = self._trail
        activity = self._activity
        heap_act = self._heap_act
        heap = self._order_heap
        for idx in range(len(trail) - 1, bound - 1, -1):
            ilit = trail[idx]
            var = ilit >> 1
            value[ilit] = _UNDEF
            value[ilit ^ 1] = _UNDEF
            self._reason[var] = _NO_REASON
            act = activity[var]
            if heap_act[var] != act:
                heappush(heap, (-act, var))
                heap_act[var] = act
        del trail[bound:]
        del self._trail_lim[level:]
        self._qhead = bound
        # Lazy deletion still leaves stale entries behind; a rebuild
        # threshold keeps the heap linear in the variable count.
        if len(heap) > 2 * self.num_vars + 64:
            self._rebuild_heap()

    # ------------------------------------------------------------------
    # Conflict analysis
    # ------------------------------------------------------------------

    def _analyze(self, conflict: int) -> tuple:
        """First-UIP analysis → (learned internal lits, backjump level)."""
        learned: List[int] = [0]  # placeholder for the asserting literal
        seen = self._seen
        level = self._level
        reason = self._reason
        trail = self._trail
        arena = self._arena
        buf = arena.lits
        offs = arena.off
        lens = arena.length
        flags = arena.flags
        current_level = len(self._trail_lim)

        counter = 0
        p = -1
        idx = len(trail) - 1
        ref = conflict

        to_clear: List[int] = []
        while True:
            assert ref != _NO_REASON
            if flags[ref] & ClauseArena.LEARNED:
                self._bump_clause(ref)
            o = offs[ref]
            start = o if p == -1 else o + 1
            for k in range(start, o + lens[ref]):
                q = buf[k]
                var = q >> 1
                if seen[var] or level[var] == 0:
                    continue
                seen[var] = 1
                to_clear.append(var)
                self._bump_var(var)
                if level[var] >= current_level:
                    counter += 1
                else:
                    learned.append(q)
            # Find the next literal to resolve on.
            while not seen[trail[idx] >> 1]:
                idx -= 1
            p = trail[idx]
            idx -= 1
            var = p >> 1
            ref = reason[var]
            seen[var] = 0
            counter -= 1
            if counter == 0:
                break
        learned[0] = p ^ 1

        # Clause minimization: drop literals implied by the rest.
        abstract_levels = 0
        for lit in learned[1:]:
            abstract_levels |= 1 << (level[lit >> 1] & 31)
        kept = [learned[0]]
        for lit in learned[1:]:
            if reason[lit >> 1] == _NO_REASON or not self._redundant(
                    lit, abstract_levels, to_clear):
                kept.append(lit)
        learned = kept

        for var in to_clear:
            seen[var] = 0

        if len(learned) == 1:
            back_level = 0
        else:
            # Move the literal with the highest level (below current) to
            # position 1.
            best = 1
            for k in range(2, len(learned)):
                if level[learned[k] >> 1] > level[learned[best] >> 1]:
                    best = k
            learned[1], learned[best] = learned[best], learned[1]
            back_level = level[learned[1] >> 1]
        return learned, back_level

    def _redundant(self, lit: int, abstract_levels: int,
                   to_clear: List[int]) -> bool:
        """Check whether *lit* is implied by other learned-clause literals."""
        seen = self._seen
        level = self._level
        reason = self._reason
        arena = self._arena
        buf = arena.lits
        offs = arena.off
        lens = arena.length
        stack = [lit]
        top = len(to_clear)
        while stack:
            current = stack.pop()
            ref = reason[current >> 1]
            if ref == _NO_REASON:
                # Shouldn't happen for stacked literals, but be safe.
                for var in to_clear[top:]:
                    seen[var] = 0
                del to_clear[top:]
                return False
            o = offs[ref]
            for k in range(o + 1, o + lens[ref]):
                q = buf[k]
                var = q >> 1
                if seen[var] or level[var] == 0:
                    continue
                if reason[var] != _NO_REASON and (
                        (1 << (level[var] & 31)) & abstract_levels):
                    seen[var] = 1
                    to_clear.append(var)
                    stack.append(q)
                else:
                    for cleared in to_clear[top:]:
                        seen[cleared] = 0
                    del to_clear[top:]
                    return False
        return True

    def _compute_lbd(self, lits: Sequence[int]) -> int:
        levels = {self._level[lit >> 1] for lit in lits}
        levels.discard(0)
        return len(levels)

    def _bump_clause(self, ref: int) -> None:
        arena = self._arena
        arena.act[ref] += self._cla_inc
        if arena.act[ref] > 1e20:
            act = arena.act
            for tier in (self._tier_core, self._tier_mid, self._tier_local):
                for learned_ref in tier:
                    act[learned_ref] *= 1e-20
            self._cla_inc *= 1e-20

    # ------------------------------------------------------------------
    # Learned clause DB reduction (per-tier policies)
    # ------------------------------------------------------------------

    def _learned_tier(self, lbd: int) -> List[int]:
        if lbd <= _CORE_LBD:
            return self._tier_core
        if lbd <= _MID_LBD:
            return self._tier_mid
        return self._tier_local

    @property
    def tier_sizes(self) -> tuple:
        """Current (core, mid, local) learned-clause tier sizes."""
        return (len(self._tier_core), len(self._tier_mid),
                len(self._tier_local))

    def _reduce_db(self) -> None:
        """Per-tier retention: *core* (LBD ≤ 2) is never deleted;
        *local* halves by (LBD, activity) every call; *mid* sheds its
        least active quarter every other call."""
        arena = self._arena
        reason = self._reason
        locked = set()
        for var in range(1, self.num_vars + 1):
            ref = reason[var]
            if ref != _NO_REASON:
                locked.add(ref)
        act = arena.act
        lbd = arena.lbd
        before = (len(self._tier_core) + len(self._tier_mid)
                  + len(self._tier_local))
        removed: set = set()

        local = self._tier_local
        local.sort(key=lambda r: (lbd[r], -act[r]))
        keep_count = len(local) // 2
        kept: List[int] = []
        for index, ref in enumerate(local):
            if index < keep_count or ref in locked:
                kept.append(ref)
            else:
                removed.add(ref)
        self._tier_local = kept

        self._reduce_calls += 1
        if self._reduce_calls % 2 == 0:
            mid = self._tier_mid
            mid.sort(key=lambda r: -act[r])
            keep_count = (3 * len(mid)) // 4
            kept = []
            for index, ref in enumerate(mid):
                if index < keep_count or ref in locked:
                    kept.append(ref)
                else:
                    removed.add(ref)
            self._tier_mid = kept

        if removed:
            self.stats.deleted_clauses += len(removed)
            for watchlist in self._watches:
                watchlist[:] = [r for r in watchlist if r not in removed]
            if self._proof_deleted is not None:
                for ref in removed:
                    self._proof_deleted.append(
                        [from_internal(lit)
                         for lit in arena.clause_lits(ref)])
            for ref in removed:
                arena.free_clause(ref)
            self._maybe_compact()
        after = (len(self._tier_core) + len(self._tier_mid)
                 + len(self._tier_local))
        hooks = self.hooks
        if hooks is not None:
            hooks.on_reduce_db(before, after, self.stats.conflicts)
            on_tiers = getattr(hooks, "on_tiers", None)
            if on_tiers is not None:
                on_tiers(*self.tier_sizes)

    def _maybe_compact(self) -> None:
        arena = self._arena
        if arena.wasted > 2048 and arena.wasted * 2 > len(arena.lits):
            live = len(arena.lits) - arena.wasted
            reclaimed = arena.compact()
            self.stats.arena_compactions += 1
            hooks = self.hooks
            if hooks is not None:
                on_compact = getattr(hooks, "on_arena_compact", None)
                if on_compact is not None:
                    on_compact(live, reclaimed)

    # ------------------------------------------------------------------
    # Top-level search
    # ------------------------------------------------------------------

    def solve(self, assumptions: Sequence[int] = (),
              limits: Optional[Limits] = None) -> Optional[bool]:
        """Solve under *assumptions* (DIMACS literals).

        Returns ``True`` (sat: :attr:`model` is valid), ``False``
        (unsat: :meth:`core` holds a subset of the assumptions that is
        jointly unsatisfiable with the clauses), or ``None`` when a
        resource budget expired — *limits* (wall-clock, conflicts,
        propagations, estimated memory) or a cooperative
        :meth:`interrupt`.  After a
        ``None`` answer :attr:`limit_reason` names the expired budget;
        a ``None`` answer is never a spurious verdict — the search was
        simply abandoned.

        Budgets are per-call deltas, so each query against a shared
        incremental solver gets the full budget.  Conflict and
        propagation counters are checked every loop iteration; the
        clock and the memory estimate are polled every
        ``_LIMIT_POLL_INTERVAL`` iterations to keep the hot loop cheap.
        """
        self._model = []
        self._core = []
        self.limit_reason = None
        if not self._ok:
            return False
        self._ensure_vars(assumptions)
        assumption_ilits = [to_internal(lit) for lit in assumptions]
        self._assumption_set = set(assumption_ilits)

        effective = limits if limits is not None else Limits()
        deadline = (monotonic() + effective.max_time
                    if effective.max_time is not None else None)
        conflict_budget = effective.max_conflicts
        propagation_ceiling = (
            self.stats.propagations + effective.max_propagations
            if effective.max_propagations is not None else None)
        memory_budget = effective.max_memory_mb
        poll_countdown = _LIMIT_POLL_INTERVAL

        conflict = self._propagate()
        if conflict is not None:
            self._ok = False
            return False

        restart_idx = 0
        conflicts_this_solve = 0
        max_learnts = max(1000, len(self._clauses) // 3)

        budget = _luby(restart_idx) * _RESTART_BASE
        while True:
            if self._interrupted:
                return self._abandon(LimitReason.INTERRUPT)
            if (propagation_ceiling is not None
                    and self.stats.propagations > propagation_ceiling):
                return self._abandon(LimitReason.PROPAGATIONS)
            poll_countdown -= 1
            if poll_countdown <= 0:
                poll_countdown = _LIMIT_POLL_INTERVAL
                if deadline is not None and monotonic() >= deadline:
                    return self._abandon(LimitReason.TIME)
                if (memory_budget is not None
                        and self._estimate_memory_mb() > memory_budget):
                    return self._abandon(LimitReason.MEMORY)
            conflict = self._propagate()
            if conflict is not None:
                self.stats.conflicts += 1
                conflicts_this_solve += 1
                if conflict_budget is not None and \
                        conflicts_this_solve > conflict_budget:
                    return self._abandon(LimitReason.CONFLICTS)
                if not self._trail_lim:
                    self._ok = False
                    return False
                learned, back_level = self._analyze(conflict)
                if self._proof_learned is not None:
                    self._proof_learned.append(
                        [from_internal(lit) for lit in learned])
                hooks = self.hooks
                # Decision level at the conflict, read before backjumping.
                conflict_level = len(self._trail_lim)
                self._cancel_until(back_level)
                if len(learned) == 1:
                    if not self._enqueue(learned[0], _NO_REASON):
                        self._ok = False
                        return False
                    lbd = 1
                else:
                    lbd = self._compute_lbd(learned)
                    ref = self._arena.alloc(learned, learned=True)
                    self._arena.lbd[ref] = lbd
                    self._learned_tier(lbd).append(ref)
                    self.stats.learned_clauses += 1
                    self._attach(ref)
                    self._enqueue(learned[0], ref)
                if hooks is not None:
                    hooks.on_learned(lbd, len(learned), conflict_level)
                self._var_inc *= self._var_decay
                self._cla_inc *= self._cla_decay
                budget -= 1
                if budget <= 0:
                    restart_idx += 1
                    budget = _luby(restart_idx) * _RESTART_BASE
                    self.stats.restarts += 1
                    if hooks is not None:
                        hooks.on_restart(self.stats.restarts,
                                         self.stats.conflicts)
                    self._cancel_until(0)
                if (len(self._tier_mid) + len(self._tier_local)
                        > max_learnts):
                    self._reduce_db()
                    max_learnts = int(max_learnts * 1.3)
                continue

            # No conflict: extend the assignment.
            next_lit = self._next_assumption(assumption_ilits)
            if next_lit == 0:
                return False  # an assumption is already falsified
            if next_lit is None:
                var = self._decide()
                if var is None:
                    self._store_model()
                    self._cancel_until(0)
                    return True
                self.stats.decisions += 1
                ilit = (var << 1) | (0 if self._phase[var] else 1)
                self._new_decision_level()
                self._enqueue(ilit, _NO_REASON)
            else:
                self._new_decision_level()
                self._enqueue(next_lit, _NO_REASON)

    # ------------------------------------------------------------------
    # Resource control
    # ------------------------------------------------------------------

    def interrupt(self) -> None:
        """Cooperatively abort the current (or next) :meth:`solve`.

        Safe to call from another thread: the solver checks the flag at
        every outer-loop iteration and returns ``None`` with
        :attr:`limit_reason` ``INTERRUPT``.  The flag is sticky — a
        solve started after the call aborts immediately — until
        :meth:`clear_interrupt`.
        """
        self._interrupted = True

    def clear_interrupt(self) -> None:
        """Re-arm the solver after an :meth:`interrupt`."""
        self._interrupted = False

    @property
    def interrupted(self) -> bool:
        return self._interrupted

    def _abandon(self, reason: LimitReason) -> Optional[bool]:
        """Give up the current search: backtrack fully, record *reason*.

        The clause database (including everything learned so far) is
        kept — a later solve call resumes with all that work — but no
        verdict is reported for this call.  Always returns ``None``,
        the UNKNOWN outcome of :meth:`solve`.
        """
        self._cancel_until(0)
        self.limit_reason = reason
        return None

    def _estimate_memory_mb(self) -> float:
        """An O(1) estimate of the clause-database footprint in MB.

        Python offers no portable live-RSS probe without third-party
        dependencies, so the memory limit bounds an *estimate* derived
        from the arena buffer length (including not-yet-compacted
        waste, which is real memory), the per-clause side-array slots,
        and the per-variable bookkeeping arrays.  Historically this
        walked every clause on each 128-conflict poll; the arena keeps
        the totals as plain list lengths, so the poll is constant-time.
        """
        arena = self._arena
        approx_bytes = (96 * arena.live_clauses + 12 * len(arena.lits)
                        + 60 * self.num_vars)
        return approx_bytes / 1e6

    def _new_decision_level(self) -> None:
        self._trail_lim.append(len(self._trail))
        if len(self._trail_lim) > self.stats.max_decision_level:
            self.stats.max_decision_level = len(self._trail_lim)

    def _next_assumption(self, assumption_ilits: List[int]):
        """Return the next unassigned assumption literal.

        Returns ``None`` when all assumptions hold, or ``0`` when an
        assumption is falsified (after computing the core).
        """
        for ilit in assumption_ilits[len(self._trail_lim):]:
            val = self._value[ilit]
            if val == 1:
                # Already satisfied: still open a level so indexing by
                # decision level keeps matching the assumption order.
                self._new_decision_level()
                continue
            if val == 0:
                self._analyze_final(ilit)
                self._cancel_until(0)
                return 0
            return ilit
        return None

    def _analyze_final(self, failed_ilit: int) -> None:
        """Compute an assumption core given a falsified assumption."""
        core = {from_internal(failed_ilit)}
        seen = [0] * (self.num_vars + 1)
        queue = [failed_ilit ^ 1]
        seen[failed_ilit >> 1] = 1
        arena = self._arena
        buf = arena.lits
        offs = arena.off
        lens = arena.length
        while queue:
            lit = queue.pop()
            var = lit >> 1
            if self._level[var] == 0:
                continue
            ref = self._reason[var]
            if ref == _NO_REASON:
                if lit in self._assumption_set:
                    core.add(from_internal(lit))
                continue
            o = offs[ref]
            for k in range(o + 1, o + lens[ref]):
                q = buf[k]
                if not seen[q >> 1]:
                    seen[q >> 1] = 1
                    queue.append(q ^ 1)
        self._core = sorted(core, key=abs)

    def _store_model(self) -> None:
        model = [False] * (self.num_vars + 1)
        for var in range(1, self.num_vars + 1):
            val = self._value[var << 1]
            model[var] = val == 1 if val != _UNDEF else self._phase[var]
        self._model = model

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------

    @property
    def model(self) -> List[bool]:
        """The satisfying assignment from the last sat answer.

        Indexed by variable; entry 0 is unused.
        """
        if not self._model:
            raise RuntimeError("no model available (last solve was not sat)")
        return self._model

    def model_value(self, lit: int) -> bool:
        """Evaluate a DIMACS literal under the stored model."""
        model = self.model
        v = lit if lit > 0 else -lit
        value = model[v]
        return value if lit > 0 else not value

    def enable_proof(self) -> None:
        """Start recording an unsat proof (original + learned clauses).

        Must be called before any clause is added; the log can be
        validated with :func:`repro.sat.proof.check_unsat_proof` after an
        assumption-free unsat answer.  Clause-DB deletions are recorded
        separately (DRUP-style) in :attr:`proof_deletions` but do not
        participate in checking, because the additions-only checker is
        monotone.
        """
        if self._clauses_added:
            raise RuntimeError("enable_proof() before adding clauses")
        self._proof_originals = []
        self._proof_learned = []
        self._proof_deleted = []

    @property
    def proof(self) -> Optional[tuple]:
        """The recorded (originals, learned) clause lists, if enabled."""
        if self._proof_originals is None:
            return None
        return (self._proof_originals, self._proof_learned)

    @property
    def proof_deletions(self) -> Optional[List[List[int]]]:
        """DRUP-style deletion records (observability; not checked)."""
        return self._proof_deleted

    def core(self) -> List[int]:
        """Assumption literals forming an unsat core of the last solve."""
        return list(self._core)

    @property
    def num_clauses(self) -> int:
        """Clauses currently in the database (after level-0
        simplification)."""
        return len(self._clauses)

    @property
    def num_clauses_added(self) -> int:
        """Clauses submitted via :meth:`add_clause`, before level-0
        simplification — the *encoded* model size."""
        return self._clauses_added
