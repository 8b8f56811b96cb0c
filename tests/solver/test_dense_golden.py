"""Frozen solver outputs in the dense regime (one giant contention
component, every rail re-solved every epoch).

``tests/data/solver_dense_golden.json`` was recorded on the commit before
the contention walk stopped re-scanning resources and the finish heap
learned to drop superseded entries; both are pure work savings, so finish
times and work counters are compared with ``==``.
"""

import json
from dataclasses import replace
from pathlib import Path

import pytest

from repro.scenario import load_scenario
from repro.solver import solve

ROOT = Path(__file__).resolve().parents[2]
GOLDEN = json.loads((ROOT / "tests/data/solver_dense_golden.json").read_text())
BASE = load_scenario(ROOT / "benchmarks/perf/scenarios/solver_dense.json")


# (the ids keep the mode axis they had while solve() had a second mode)
@pytest.mark.parametrize("mode", ["incremental"])
@pytest.mark.parametrize("flows", sorted(GOLDEN, key=int))
def test_dense_fabric_outputs_are_frozen(flows, mode):
    scenario = BASE.with_(seed=1,
                          traffic=replace(BASE.traffic, flows=int(flows)))
    result = solve(scenario)
    want = GOLDEN[flows]
    assert [f.finish_us for f in result.flows] == want["finish_us"]
    assert result.recomputes == want[mode]["recomputes"]
    assert result.epoch_flows == want[mode]["epoch_flows"]
    assert ({str(size): n for size, n in result.component_sizes.items()}
            == want[mode]["component_sizes"])
