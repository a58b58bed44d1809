"""Evaluation drivers: scalability, threat space, attack-cost analysis,
availability.

Maximal resiliency is one engine method,
:meth:`~repro.engine.VerificationEngine.max_resiliency`."""

from .attack_cost import AttackCostResult, cheapest_threat, uniform_costs
from .monte_carlo import AvailabilityEstimate, estimate_availability
from .scaling import (
    ScalingPoint,
    ScalingSweep,
    measure_instance,
    sweep_bus_sizes,
    sweep_hierarchy,
)
from .threat_space import ThreatSpace, threat_space

__all__ = [
    "AttackCostResult",
    "AvailabilityEstimate",
    "ScalingPoint",
    "ScalingSweep",
    "ThreatSpace",
    "cheapest_threat",
    "estimate_availability",
    "measure_instance",
    "sweep_bus_sizes",
    "sweep_hierarchy",
    "uniform_costs",
    "threat_space",
]
