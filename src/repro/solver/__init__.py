"""Analytic fast-path network solver (see docs/solver.md).

``solve(scenario)`` returns per-flow bandwidth/FCT estimates and
per-resource utilization for any :class:`~repro.scenario.Scenario` without
running the discrete-event simulator.  ``tests/solver/test_validate.py``
measures it against the DES and holds each experiment family's error to a
literal bound.
"""

from .core import (FlowEstimate, FlowStarved, SolverResult, max_min_rates,
                   solve, solve_bandwidth)
from .network import Resource, RoutedFlow, SolverNetwork

__all__ = [
    "FlowEstimate", "FlowStarved", "Resource", "RoutedFlow", "SolverNetwork",
    "SolverResult", "max_min_rates", "solve", "solve_bandwidth",
]
