"""Coverage-guided scenario fuzzing for the forwarding stack.

A fault run is a scenario file (``tests/faults/scenarios/`` holds the
hand-picked ones) replayed by ``repro run --check`` and judged by the
invariant catalog; this package also explores the configuration space
systematically:

* :mod:`repro.scenario` — a :class:`Scenario` is one complete,
  JSON-serializable experiment: topology shape, virtual-channel knobs,
  traffic mix, and a seeded :class:`~repro.faults.FaultPlan`;
* :mod:`~repro.fuzz.generate` — draws scenarios from a seed and mutates
  corpus entries (coverage-guided exploration);
* :mod:`~repro.fuzz.executor` — runs one scenario under an event-budget
  watchdog and checks the invariant catalog of ``docs/robustness.md``;
* :mod:`~repro.fuzz.minimize` — greedily shrinks a failing scenario while
  the same invariant keeps failing;
* :mod:`~repro.fuzz.corpus` — replayable repro files for failing seeds;
* :mod:`~repro.fuzz.autopilot` — the campaign loop behind ``repro fuzz``.
"""

from ..scenario import MessageSpec, Scenario, Topology
from .autopilot import CampaignReport, run_campaign
from .corpus import repro_name, save_repro
from .executor import FuzzFailure, FuzzResult, run_scenario
from .generate import mutate_scenario, random_scenario
from .minimize import minimize_scenario

__all__ = [
    "MessageSpec", "Scenario", "Topology",
    "random_scenario", "mutate_scenario",
    "FuzzFailure", "FuzzResult", "run_scenario",
    "minimize_scenario",
    "save_repro", "repro_name",
    "CampaignReport", "run_campaign",
]
