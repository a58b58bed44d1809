"""Fig. 7(a) — maximal resiliency vs number of measurements (14-bus).

Paper shape: more measurements ⇒ higher maximal resiliency, and the
system tolerates more IED failures than RTU failures (an RTU failure
takes all of its IEDs down with it).
"""

import pytest

from repro.core import ObservabilityProblem, Property
from repro.engine import VerificationEngine
from repro.grid import ieee14, sampled_measurement_plan
from repro.scada import GeneratorConfig, generate_scada

FRACTIONS = [0.4, 0.6, 0.8, 1.0]
_series = {}


def _engine(fraction, seed=0):
    plan = sampled_measurement_plan(ieee14(), fraction, seed=seed)
    synthetic = generate_scada(
        ieee14(),
        GeneratorConfig(seed=seed, dual_home_fraction=0.3),
        plan=plan)
    problem = ObservabilityProblem.from_table(synthetic.table)
    return VerificationEngine(synthetic.network, problem,
                              backend="assumption")


def _ied_rtu_maxima(engine):
    return tuple(engine.max_resiliency(Property.OBSERVABILITY,
                                       axis=axis).value
                 for axis in ("ied", "rtu"))


@pytest.mark.parametrize("fraction", FRACTIONS)
def test_max_resiliency_search(benchmark, fraction):
    engine = _engine(fraction)

    def search():
        ied, rtu = _series[fraction] = _ied_rtu_maxima(engine)
        return ied, rtu

    ied, rtu = benchmark.pedantic(search, rounds=1, iterations=1)
    assert ied >= -1 and rtu >= -1


def test_report_fig7a(benchmark, report):
    def make():
        lines = ["measurements (% of max) | max IED failures | "
                 "max RTU failures"]
        for fraction in FRACTIONS:
            if fraction not in _series:
                _series[fraction] = _ied_rtu_maxima(_engine(fraction))
            ied, rtu = _series[fraction]
            lines.append(f"{int(fraction * 100):23d} | {ied:16d} | "
                         f"{rtu:16d}")
        ieds = [v[0] for v in _series.values()]
        lines.append("")
        lines.append(f"IED series nondecreasing: "
                     f"{all(b >= a for a, b in zip(ieds, ieds[1:]))}")
        lines.append(f"IED tolerance >= RTU tolerance at every point: "
                     f"{all(i >= r for i, r in _series.values())}")
        report("fig7a_max_resiliency", "\n".join(lines))

    benchmark.pedantic(make, rounds=1, iterations=1)
