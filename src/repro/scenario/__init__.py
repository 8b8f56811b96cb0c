"""The declarative scenario layer: one schema for every harness.

A :class:`Scenario` describes a complete experiment — topology, traffic
(explicit messages and/or a generated :class:`TrafficSpec`), policies
(pipeline, striping, batching) and the seeded fault plan — as one
JSON/YAML-serializable value.  Benches
(``repro bench --scenario``), the fuzzer (``repro fuzz --replay``), the
chaos harness, and the traffic engine (:mod:`repro.traffic`) all consume
this one format.

Entry points:

* :func:`load_scenario` / :func:`dump_scenario` — file I/O (YAML needs
  PyYAML; JSON always works);
* :func:`build_world` — the scenario's world (its nodes);
* :meth:`repro.madeleine.Session.from_scenario` — the whole stack: world,
  channels, armed faults, virtual channel.
"""

from .build import build_world
from .loader import dump_scenario, load_scenario, loads_scenario
from .schema import (SCENARIO_VERSION, TRAFFIC_PATTERNS, MessageSpec,
                     Scenario, Topology, TrafficSpec)

__all__ = [
    "MessageSpec", "Scenario", "Topology", "TrafficSpec",
    "SCENARIO_VERSION", "TRAFFIC_PATTERNS",
    "build_world", "dump_scenario", "load_scenario", "loads_scenario",
]
