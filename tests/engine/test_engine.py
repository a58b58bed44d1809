"""VerificationEngine facade: lint gate, stats, cache reuse, export."""

import pytest

from repro.cases import case_problem, fig3_network
from repro.core import (
    ConfigurationLintError,
    Property,
    ResiliencySpec,
    ScadaAnalyzer,
)
from repro.engine import VerificationEngine


@pytest.fixture
def fig3_engine():
    return VerificationEngine(fig3_network(), case_problem())


def test_results_carry_backend_and_stats(fig3_engine):
    result = fig3_engine.verify(ResiliencySpec.observability(k=1))
    assert result.backend == "fresh"
    assert "check_time" in result.stats
    assert result.stats["decisions"] >= 0


def test_incremental_stats_are_per_query_deltas():
    network, problem = fig3_network(), case_problem()
    engine = VerificationEngine(network, problem, backend="assumption")
    first = engine.verify(ResiliencySpec.observability(k=1),
                          minimize=False)
    second = engine.verify(ResiliencySpec.observability(k=1),
                           minimize=False)
    # Same query twice on the shared solver: cumulative counters would
    # double, per-query deltas stay in the same ballpark.
    assert second.stats["conflicts"] <= first.stats["conflicts"] + 1
    # Encoding sizes report base + this query's delta, not the running
    # total of every budget pushed so far (the old cumulative bug).
    assert second.num_vars <= first.num_vars
    assert second.num_clauses <= first.num_clauses


def test_incremental_reuses_cached_encoding():
    engine = VerificationEngine(fig3_network(), case_problem(),
                                backend="assumption")
    for k in range(3):
        engine.verify(ResiliencySpec.observability(k=k), minimize=False)
    engine.verify(ResiliencySpec.secured_observability(k=1),
                  minimize=False)
    assert engine.cache.misses == 2  # one context per property
    assert engine.cache.hits == 2   # the two repeat observability queries


def test_lint_gate_runs_once_at_construction():
    network, problem = fig3_network(), case_problem()
    engine = VerificationEngine(network, problem, lint=True)
    assert engine.backend_name == "fresh"

    # A config that fails lint must be rejected up front.
    bad_problem = problem.__class__(
        num_states=problem.num_states + 5,
        state_sets=problem.state_sets,
        unique_groups=problem.unique_groups,
    )
    with pytest.raises(ConfigurationLintError):
        VerificationEngine(network, bad_problem, lint=True)
    # ... unless the caller explicitly opts out.
    VerificationEngine(network, bad_problem, lint=False)


def test_wrap_passes_engine_through_and_adapts_analyzer():
    network, problem = fig3_network(), case_problem()
    engine = VerificationEngine(network, problem)
    assert VerificationEngine.wrap(engine) is engine

    analyzer = ScadaAnalyzer(network, problem)
    wrapped = VerificationEngine.wrap(analyzer)
    assert wrapped.backend_name == "fresh"
    assert wrapped.reference is analyzer.reference


def test_exports_available_on_every_backend():
    network, problem = fig3_network(), case_problem()
    spec = ResiliencySpec.observability(k=1)
    for backend in ("fresh", "assumption"):
        engine = VerificationEngine(network, problem, backend=backend)
        size = engine.model_size(spec)
        assert size["vars"] > 0 and size["clauses"] > 0
        assert "(set-logic" in engine.export_smtlib(spec)


def test_max_searches_on_engine(fig3_engine):
    total, ied, rtu = (
        fig3_engine.max_resiliency(Property.OBSERVABILITY,
                                   axis=axis).value
        for axis in ("total", "ied", "rtu"))
    assert total >= 0
    assert ied >= total
    assert rtu >= 0


@pytest.mark.parametrize("backend", ["fresh", "assumption"])
def test_interrupt_round_trip_keeps_engine_usable(backend):
    from repro.core.results import Status

    engine = VerificationEngine(fig3_network(), case_problem(),
                                backend=backend)
    spec = ResiliencySpec.observability(k=1)
    engine.interrupt()
    stopped = engine.verify(spec, minimize=False)
    assert stopped.status is Status.UNKNOWN
    assert stopped.limit_reason == "interrupt"
    engine.clear_interrupt()
    # The same engine (and any warm context) answers normally again.
    verdict = engine.verify(spec, minimize=False)
    assert verdict.status in (Status.RESILIENT, Status.THREAT_FOUND)
