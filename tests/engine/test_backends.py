"""Differential test: the ``assumption`` warm path against the ``fresh``
oracle.

The property test generates randomized SCADA instances (the §V-A
generator over IEEE cases) and random specifications, then checks that
both backends return the same verdict and that any threat vector is
confirmed by the reference evaluator — the strongest cross-check the
substrate offers.  The max-resiliency differential pins both paths'
search brackets to a plain ladder of fresh verifies.
"""

import functools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.core import (
    ObservabilityProblem,
    Property,
    ResiliencySpec,
    SearchBounds,
    Status,
)
from repro.engine import VerificationEngine
from repro.grid import ieee14
from repro.grid.ieee_cases import case_by_buses
from repro.scada import GeneratorConfig, generate_scada
from repro.service import ServiceClientError
from tests.service.conftest import RunningService, fig3_config_text

#: The engine's two verification paths.
PATHS = ("fresh", "assumption")


def _instance(seed: int, secure_fraction: float):
    config = GeneratorConfig(measurement_fraction=0.7,
                             hierarchy_level=1,
                             secure_fraction=secure_fraction,
                             seed=seed)
    synthetic = generate_scada(case_by_buses(14, seed=seed), config)
    problem = ObservabilityProblem.from_table(synthetic.table)
    return synthetic.network, problem


def _engines(network, problem):
    return {name: VerificationEngine(network, problem, backend=name,
                                     lint=False)
            for name in PATHS}


@settings(max_examples=12, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=40),
    secure=st.sampled_from([0.6, 0.8, 1.0]),
    k=st.integers(min_value=0, max_value=4),
    prop=st.sampled_from([Property.OBSERVABILITY,
                          Property.SECURED_OBSERVABILITY,
                          Property.COMMAND_DELIVERABILITY]),
)
def test_backends_verdict_equivalent(seed, secure, k, prop):
    network, problem = _instance(seed, secure)
    spec = ResiliencySpec.for_property(prop, k=k)
    results = {name: engine.verify(spec)
               for name, engine in _engines(network, problem).items()}

    statuses = {name: result.status for name, result in results.items()}
    assert len(set(statuses.values())) == 1, statuses

    reference = VerificationEngine(network, problem, lint=False).reference
    for name, result in results.items():
        assert result.backend == name
        if result.status is Status.THREAT_FOUND:
            assert result.threat is not None
            failed = set(result.threat.failed_devices)
            assert reference.is_threat(spec, failed), (name, failed)


@settings(max_examples=6, deadline=None)
@given(seed=st.integers(min_value=0, max_value=20),
       k=st.integers(min_value=1, max_value=3))
def test_backends_enumerate_same_threat_space(seed, k):
    network, problem = _instance(seed, 0.8)
    spec = ResiliencySpec.observability(k=k)
    spaces = {
        name: engine.enumerate_threat_vectors(spec, limit=60)
        for name, engine in _engines(network, problem).items()
    }
    canonical = {
        name: {frozenset(v.failed_devices) for v in vectors}
        for name, vectors in spaces.items()
    }
    for name in PATHS:
        assert canonical["fresh"] == canonical[name], name


@functools.lru_cache(maxsize=None)
def _search_engines(case):
    """Both paths' engines per case, kept warm across parametrizations."""
    from repro.cases import case_problem, fig3_network, fig4_network

    if case == "ieee14":
        synthetic = generate_scada(ieee14(), GeneratorConfig(
            measurement_fraction=0.6, hierarchy_level=1, seed=3))
        network = synthetic.network
        problem = ObservabilityProblem.from_table(synthetic.table)
    else:
        network = fig4_network() if case == "fig4" else fig3_network()
        problem = case_problem()
    return {name: VerificationEngine(network, problem, backend=name,
                                     lint=False)
            for name in PATHS}


def _axis_budget(axis, k):
    return {"total": {"k": k}, "ied": {"k1": k, "k2": 0},
            "rtu": {"k1": 0, "k2": k}}[axis]


@functools.lru_cache(maxsize=None)
def _fresh_ladder(case, prop, axis):
    """Largest budget a ladder of fresh verifies accepts (-1: none)."""
    engine = _search_engines(case)["fresh"]
    network = engine.network
    top = len({"total": network.field_device_ids,
               "ied": network.ied_ids, "rtu": network.rtu_ids}[axis])
    accepted = -1
    for k in range(top + 1):
        spec = ResiliencySpec.for_property(prop, **_axis_budget(axis, k))
        if not engine.verify(spec, minimize=False).is_resilient:
            break
        accepted = k
    return accepted


@pytest.mark.parametrize("screen", [True, False],
                         ids=["screen", "no-screen"])
@pytest.mark.parametrize("axis", ["total", "ied", "rtu"])
@pytest.mark.parametrize("prop", list(Property), ids=lambda p: p.value)
@pytest.mark.parametrize("case", ["fig3", "fig4", "ieee14"])
def test_max_resiliency_equivalent_across_backends(case, prop, axis,
                                                   screen):
    brackets = {
        name: engine.max_resiliency(prop, axis=axis, screen=screen)
        for name, engine in _search_engines(case).items()
    }
    k_star = _fresh_ladder(case, prop, axis)
    exact = SearchBounds(k_star, k_star)
    assert brackets == {"fresh": exact, "assumption": exact}


def test_incremental_certify_falls_back_to_fresh(fig3_case):
    network, problem = fig3_case
    engine = VerificationEngine(network, problem, backend="assumption",
                                lint=False)
    spec = ResiliencySpec.observability(k=0)
    result = engine.verify(spec, certify=True)
    assert result.is_resilient
    assert result.backend == "fresh"
    assert result.details.get("proof_checked") is True


def test_unknown_backend_rejected(fig3_case):
    network, problem = fig3_case
    with pytest.raises(ValueError, match="unknown backend"):
        VerificationEngine(network, problem, backend="quantum",
                           lint=False)


#: Every subcommand that once took ``--backend``, with the arguments it
#: needs to get past its positionals.
BACKEND_SUBCOMMANDS = (
    ["verify", "{config}", "--k", "1"],
    ["enumerate", "{config}", "--k", "1"],
    ["max-resiliency", "{config}"],
    ["report", "{config}"],
    ["watch", "{config}"],
    ["serve"],
    ["client", "health"],
    ["corpus", "run", "{root}"],
)


@pytest.mark.parametrize("name", ["incremental", "preprocessed",
                                  "portfolio", "fresh", "assumption"])
def test_removed_backends_rejected_everywhere(fig3_case, tmp_path,
                                              capsys, name):
    network, problem = fig3_case
    if name not in PATHS:
        with pytest.raises(ValueError, match="unknown backend"):
            VerificationEngine(network, problem, backend=name,
                               lint=False)
    config = tmp_path / "fig3.scada"
    config.write_text("[system]\nstates = 1\n")
    for argv in BACKEND_SUBCOMMANDS:
        argv = [arg.format(config=config, root=tmp_path) for arg in argv]
        with pytest.raises(SystemExit) as exited:
            main([*argv, "--backend", name])
        assert exited.value.code == 2, argv
        assert "unrecognized arguments: --backend" in \
            capsys.readouterr().err, argv
    box = RunningService(jobs=1)
    try:
        for field, value in (("backend", name), ("engine_cache", 8),
                             ("cold", True)):
            for path in ("/sessions", "/verify", "/max-resiliency",
                         "/watch"):
                with pytest.raises(ServiceClientError) as err:
                    box.client.request("POST", path, {
                        "config": fig3_config_text(), field: value})
                assert err.value.status == 400, (field, path)
                assert err.value.code == "bad-request", (field, path)
                assert repr(field) in str(err.value), (field, path)
        assert box.client.sessions()["stats"]["created"] == 0
    finally:
        box.stop()


@pytest.mark.parametrize("flag", [["--preprocess"], ["--inprocess"],
                                  ["--no-inprocess"], ["--jobs", "2"]])
def test_removed_verify_flags_rejected(tmp_path, capsys, flag):
    config = tmp_path / "fig3.scada"
    config.write_text("[system]\nstates = 1\n")
    with pytest.raises(SystemExit) as exited:
        main(["verify", str(config), "--k", "1", *flag])
    assert exited.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["max-resiliency", "{config}", "--jobs", "2"],
    ["report", "{config}", "--jobs", "2"],
    ["client", "max-resiliency", "{config}", "--cold"],
], ids=["max-resiliency-jobs", "report-jobs", "client-cold"])
def test_removed_fanout_flags_rejected(tmp_path, capsys, argv):
    config = tmp_path / "fig3.scada"
    config.write_text("[system]\nstates = 1\n")
    with pytest.raises(SystemExit) as exited:
        main([arg.format(config=config) for arg in argv])
    assert exited.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.fixture
def fig3_case():
    from repro.cases import case_problem, fig3_network

    return fig3_network(), case_problem()
