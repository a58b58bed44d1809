"""SweepExecutor: ordering, determinism, jobs resolution, and fault
tolerance (crashes, hangs, exceptions must not take down neighbours)."""

import os
import time

import pytest

from repro.analysis import sweep_bus_sizes
from repro.engine import SweepExecutor, SweepTaskError, resolve_jobs


def _square(x):
    return x * x


def _add(a, b):
    return a + b


def _crash_on_three(x):
    if x == 3:
        os._exit(17)  # hard kill: no exception, no cleanup
    return x * x


def _raise_on_two(x):
    if x == 2:
        raise ValueError(f"bad task {x}")
    return x * x


def _hang_on_one(x):
    if x == 1:
        time.sleep(60.0)
    return x * x


_FLAKY_MARKER = os.path.join("/tmp", "repro_sweep_flaky_marker")


def _flaky_once(x):
    # Fails the first time it is ever called for x == 2, succeeds on
    # the retry (a file marker survives across worker processes).
    if x == 2 and not os.path.exists(_FLAKY_MARKER):
        with open(_FLAKY_MARKER, "w") as fh:
            fh.write("seen")
        raise RuntimeError("transient failure")
    return x * x


def test_resolve_jobs():
    assert resolve_jobs(1) == 1
    assert resolve_jobs(7) == 7
    assert resolve_jobs(None) >= 1
    assert resolve_jobs(0) >= 1
    with pytest.raises(ValueError):
        resolve_jobs(-2)


def test_inline_map_preserves_order():
    executor = SweepExecutor(jobs=1)
    assert executor.map(_square, [3, 1, 2]) == [9, 1, 4]
    assert executor.last_wall_time >= 0.0


def test_pool_map_matches_inline():
    tasks = list(range(12))
    inline = SweepExecutor(jobs=1).map(_square, tasks)
    pooled = SweepExecutor(jobs=4).map(_square, tasks)
    assert pooled == inline


def test_starmap_inline_and_pooled():
    tasks = [(1, 2), (3, 4), (10, -1)]
    assert SweepExecutor(jobs=1).starmap(_add, tasks) == [3, 7, 9]
    assert SweepExecutor(jobs=3).starmap(_add, tasks) == [3, 7, 9]


def test_worker_crash_keeps_other_results():
    # One task hard-kills its worker; every other task still returns.
    executor = SweepExecutor(jobs=2)
    results = executor.map(_crash_on_three, [0, 1, 2, 3, 4, 5],
                           on_error="return")
    for i in (0, 1, 2, 4, 5):
        assert results[i] == i * i
    assert isinstance(results[3], SweepTaskError)
    assert results[3].index == 3
    assert results[3].task == 3
    assert executor.last_failures == [results[3]]


def test_worker_crash_raises_with_task_index():
    with pytest.raises(SweepTaskError) as excinfo:
        SweepExecutor(jobs=2).map(_crash_on_three, [0, 3])
    assert excinfo.value.index == 1
    assert "#1" in str(excinfo.value)


def test_worker_exception_attributed_to_task():
    executor = SweepExecutor(jobs=2)
    results = executor.map(_raise_on_two, [1, 2, 3], on_error="return")
    assert results[0] == 1 and results[2] == 9
    err = results[1]
    assert isinstance(err, SweepTaskError)
    assert err.index == 1
    assert err.cause_type == "ValueError"
    assert "bad task 2" in err.cause_message
    assert "ValueError" in err.worker_traceback


def test_inline_exception_attributed_to_task():
    executor = SweepExecutor(jobs=1)
    results = executor.map(_raise_on_two, [1, 2, 3], on_error="return")
    assert results[0] == 1 and results[2] == 9
    assert isinstance(results[1], SweepTaskError)
    assert results[1].cause_type == "ValueError"
    with pytest.raises(SweepTaskError):
        SweepExecutor(jobs=1).map(_raise_on_two, [2])


def test_hung_task_times_out_and_neighbours_survive():
    executor = SweepExecutor(jobs=2)
    started = time.monotonic()
    results = executor.map(_hang_on_one, [0, 1, 2, 3], timeout=2.0,
                           on_error="return")
    elapsed = time.monotonic() - started
    assert results[0] == 0 and results[2] == 4 and results[3] == 9
    err = results[1]
    assert isinstance(err, SweepTaskError)
    assert err.index == 1
    assert err.cause_type == "Timeout"
    assert elapsed < 30.0  # nowhere near the 60s the hang would take


def test_retry_recovers_transient_failure():
    if os.path.exists(_FLAKY_MARKER):
        os.remove(_FLAKY_MARKER)
    try:
        executor = SweepExecutor(jobs=2)
        results = executor.map(_flaky_once, [1, 2, 3], retries=1)
        assert results == [1, 4, 9]
        assert executor.last_failures == []
    finally:
        if os.path.exists(_FLAKY_MARKER):
            os.remove(_FLAKY_MARKER)


def _hang_marking(path):
    # Records one line per actual execution, then hangs (the `.ok`
    # variant returns immediately so the pool path is exercised).
    if path.endswith(".ok"):
        return "ok"
    with open(path, "a") as fh:
        fh.write("run\n")
    time.sleep(60.0)


def test_timeout_attempts_match_actual_runs(tmp_path):
    # Regression: the pooled attempt that timed out was not counted,
    # so a hung task ran retries+2 times while SweepTaskError reported
    # retries+1 attempts.  The marker file counts real executions.
    ok = str(tmp_path / "task.ok")
    marker = str(tmp_path / "task.runs")
    executor = SweepExecutor(jobs=2)
    results = executor.map(_hang_marking, [ok, marker], timeout=1.5,
                           retries=1, on_error="return")
    assert results[0] == "ok"
    err = results[1]
    assert isinstance(err, SweepTaskError)
    assert err.cause_type == "Timeout"
    with open(marker) as fh:
        runs = len(fh.read().splitlines())
    assert err.attempts == 2  # pooled timeout + one solo retry
    assert runs == err.attempts


def test_unexpected_error_still_kills_hung_pool(monkeypatch):
    # Regression: an exception escaping the drain loop (here a broken
    # telemetry settle) reached a cooperative shutdown(wait=True) that
    # blocked forever behind the hung worker.  The pool must be killed
    # on *every* exit path, so the error propagates promptly.
    def explode(self, value, index):
        raise RuntimeError("telemetry plumbing failed")

    monkeypatch.setattr(SweepExecutor, "_settle", explode)
    executor = SweepExecutor(jobs=2)
    started = time.monotonic()
    with pytest.raises(RuntimeError, match="telemetry plumbing"):
        executor.map(_hang_on_one, [0, 1], timeout=30.0)
    assert time.monotonic() - started < 10.0


def test_retry_exhaustion_counts_attempts():
    executor = SweepExecutor(jobs=2)
    results = executor.map(_raise_on_two, [2], retries=2,
                           on_error="return")
    err = results[0]
    assert isinstance(err, SweepTaskError)
    assert err.attempts == 3  # initial + 2 retries


def test_map_argument_validation():
    executor = SweepExecutor(jobs=1)
    with pytest.raises(ValueError):
        executor.map(_square, [1], on_error="ignore")
    with pytest.raises(ValueError):
        executor.map(_square, [1], retries=-1)


def _point_key(point):
    """Everything deterministic about a ScalingPoint (times are not)."""
    return (point.bus_size, point.hierarchy, point.seed,
            point.num_devices, point.max_k,
            point.sat_num_vars, point.sat_num_clauses,
            point.unsat_num_vars, point.unsat_num_clauses,
            len(point.sat_times), len(point.unsat_times))


def test_sweep_deterministic_across_jobs():
    kwargs = dict(seeds=(0, 1), runs=1)
    serial = sweep_bus_sizes([14], jobs=1, **kwargs)
    parallel = sweep_bus_sizes([14], jobs=4, **kwargs)
    assert not serial.failures and not parallel.failures
    assert [_point_key(p) for p in serial.points] == \
        [_point_key(p) for p in parallel.points]


def test_resolve_jobs_reserve_only_shapes_auto_sizing():
    # Auto sizing holds back `reserve` cores (the service daemon keeps
    # one for its event loop) but never drops below one worker.
    auto = resolve_jobs(None)
    assert resolve_jobs(None, reserve=1) == max(1, auto - 1)
    assert resolve_jobs(0, reserve=1) == max(1, auto - 1)
    assert resolve_jobs(None, reserve=10_000) == 1
    # An explicit request is the operator's call — reserve is ignored.
    assert resolve_jobs(4, reserve=1) == 4
    assert resolve_jobs(1, reserve=3) == 1
    with pytest.raises(ValueError):
        resolve_jobs(None, reserve=-1)
