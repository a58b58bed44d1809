#!/usr/bin/env python3
"""A grid operator's resiliency audit of a 30-bus SCADA deployment.

This is the workflow the paper's introduction motivates: an operator
wants to know, *before* an incident, how many simultaneous device
outages (failures or DoS attacks) the telemetry network tolerates while
state estimation stays possible — and exactly which device combinations
are dangerous.

The script

1. generates a synthetic 30-bus SCADA system (§V-A policy),
2. finds the maximal observability resiliency (total, IED-only,
   RTU-only),
3. enumerates every minimal threat vector one step beyond the certified
   budget, and
4. ranks devices by how many threat vectors they participate in — the
   "dependability breach points" the paper's threat synthesis is for.

Usage::

    python examples/substation_outage_audit.py [seed]
"""

import sys
from collections import Counter

from repro.analysis import estimate_availability, threat_space
from repro.core import ObservabilityProblem, Property, ResiliencySpec
from repro.engine import VerificationEngine
from repro.grid import case30
from repro.scada import GeneratorConfig, generate_scada


def main(seed: int = 0) -> None:
    config = GeneratorConfig(
        measurement_fraction=0.8,
        hierarchy_level=2,
        dual_home_fraction=0.25,
        seed=seed,
    )
    synthetic = generate_scada(case30(seed=seed), config)
    network = synthetic.network
    problem = ObservabilityProblem.from_table(synthetic.table)
    # One warm engine serves the searches and the enumeration.
    engine = VerificationEngine(network, problem, backend="assumption")

    print(f"SCADA deployment: {len(network.ied_ids)} IEDs, "
          f"{len(network.rtu_ids)} RTUs, "
          f"{len(network.topology.links)} links, "
          f"{problem.num_measurements} measurements over "
          f"{problem.num_states} states")

    print("\n-- maximal resiliency --")
    k_total, k_ied, k_rtu = (
        engine.max_resiliency(Property.OBSERVABILITY, axis=axis).value
        for axis in ("total", "ied", "rtu"))
    print(f"  any devices : tolerates {k_total} failure(s)")
    print(f"  IEDs only   : tolerates {k_ied} failure(s)")
    print(f"  RTUs only   : tolerates {k_rtu} failure(s)")

    spec = ResiliencySpec.observability(k=k_total + 1)
    print(f"\n-- threat space one step beyond the certificate "
          f"({spec.describe()}) --")
    space = threat_space(engine, spec, limit=200)
    suffix = "+" if space.truncated else ""
    print(f"  {space.size}{suffix} minimal threat vector(s); "
          f"sizes: {space.by_size()}")
    for vector in space.vectors[:10]:
        print(f"    - {vector.describe(network.label)}")
    if space.size > 10:
        print(f"    ... and {space.size - 10} more")

    print("\n-- dependability breach points --")
    participation = Counter()
    for vector in space.vectors:
        for device in vector.failed_devices:
            participation[device] += 1
    for device, count in participation.most_common(5):
        share = 100.0 * count / max(space.size, 1)
        print(f"  {network.label(device):>8}: in {count} vectors "
              f"({share:.0f}% of the threat space)")

    critical = [device for device, count in participation.items()
                if count == space.size]
    if critical:
        names = ", ".join(network.label(d) for d in critical)
        print(f"\n  every threat vector involves: {names} — "
              f"harden these first.")

    print("\n-- probabilistic availability (2% per-device failure rate) --")
    estimate = estimate_availability(
        engine, failure_probability=0.02, samples=3000, seed=seed,
        certificate=max(k_total, 0) if k_total >= 0 else None)
    print(f"  {estimate.summary()}")


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 0)
