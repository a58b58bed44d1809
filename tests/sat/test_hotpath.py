"""Hot-path regressions: heap growth and memory polling.

Two properties the arena rewrite must hold forever:

* the VSIDS order heap stays bounded on bump-heavy instances (the
  historical solver re-pushed the whole trail on every backtrack and
  grew without bound);
* the memory estimate is O(1) — polling it every 128 iterations must
  not dominate a solve.
"""

import random
import time

from repro.sat import SatSolver


def _pigeonhole(holes: int):
    """PHP(holes+1, holes): unsatisfiable and conflict-heavy."""
    pigeons = holes + 1
    var = lambda p, h: p * holes + h + 1
    clauses = [[var(p, h) for h in range(holes)] for p in range(pigeons)]
    for h in range(holes):
        for p1 in range(pigeons):
            for p2 in range(p1 + 1, pigeons):
                clauses.append([-var(p1, h), -var(p2, h)])
    return pigeons * holes, clauses


def test_order_heap_stays_bounded_on_bump_heavy_instance():
    """Satellite 1: `_decide` stale entries no longer accumulate.

    PHP(7,6) drives thousands of conflicts and backtracks; with the
    historical re-push-the-trail `_cancel_until` the heap ballooned to
    hundreds of entries per variable.  The `_heap_act` freshness filter
    caps live+stale entries near the variable count.
    """
    n, clauses = _pigeonhole(6)
    solver = SatSolver()
    for clause in clauses:
        solver.add_clause(clause)
    assert solver.solve() is False
    assert solver.stats.conflicts > 500  # genuinely bump-heavy
    assert len(solver._order_heap) <= 2 * solver.num_vars + 64


def test_memory_estimate_is_constant_time_and_sane():
    """Satellite 2: the estimate must not scale with clause count."""
    small = SatSolver()
    small.add_clause([1, 2])

    big = SatSolver()
    rng = random.Random(0)
    for _ in range(50_000):
        v = rng.randint(1, 200)
        w = rng.randint(201, 400)
        big.add_clause([v, -w, rng.choice([1, -1]) * rng.randint(1, 400)])

    assert big._estimate_memory_mb() > small._estimate_memory_mb() > 0.0

    # 10k polls over a 50k-clause database: an O(clauses) walk would
    # take seconds here; the O(1) arena totals take microseconds each.
    start = time.perf_counter()
    for _ in range(10_000):
        big._estimate_memory_mb()
    per_call = (time.perf_counter() - start) / 10_000
    assert per_call < 200e-6, f"memory poll costs {per_call * 1e6:.1f}us"


def test_memory_polling_does_not_dominate_solve():
    """Satellite 2: cumulative poll time stays a sliver of the solve."""
    n, clauses = _pigeonhole(6)
    solver = SatSolver()
    for clause in clauses:
        solver.add_clause(clause)

    poll_time = 0.0
    original = solver._estimate_memory_mb

    def timed_estimate():
        nonlocal poll_time
        start = time.perf_counter()
        try:
            return original()
        finally:
            poll_time += time.perf_counter() - start

    solver._estimate_memory_mb = timed_estimate
    start = time.perf_counter()
    from repro.sat.limits import Limits

    assert solver.solve(limits=Limits(max_memory_mb=512.0)) is False
    wall = time.perf_counter() - start
    assert poll_time < 0.2 * wall, (
        f"memory polling took {poll_time:.4f}s of a {wall:.4f}s solve")
