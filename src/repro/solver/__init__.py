"""Analytic fast-path network solver (see docs/solver.md).

``solve(scenario)`` returns per-flow bandwidth/FCT estimates and
per-resource utilization for any :class:`~repro.scenario.Scenario` without
running the discrete-event simulator; ``repro solve --validate``
cross-checks it against the DES and enforces the committed error floor.
"""

from .core import (FlowEstimate, FlowStarved, SolverResult, max_min_rates,
                   solve, solve_bandwidth)
from .network import Resource, RoutedFlow, SolverNetwork

__all__ = [
    "FlowEstimate", "FlowStarved", "Resource", "RoutedFlow", "SolverNetwork",
    "SolverResult", "max_min_rates", "solve", "solve_bandwidth",
]
