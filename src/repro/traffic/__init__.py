"""The one reader of a scenario's transfers.

:mod:`repro.traffic.flows` expands a :class:`~repro.scenario.Scenario`
into deterministic flows (its explicit messages at t=0, then a
:class:`~repro.scenario.TrafficSpec`'s Poisson arrivals over uniform /
permutation / hotspot / incast patterns); :mod:`repro.traffic.engine`
drives them over a session and reports flow-completion-time statistics
(p50/p99) plus ``traffic.*`` telemetry.
"""

from .engine import FlowRecord, TrafficEngine, run_traffic
from .flows import Flow, generate_flows, scenario_flows

__all__ = ["Flow", "FlowRecord", "TrafficEngine", "generate_flows",
           "run_traffic", "scenario_flows"]
