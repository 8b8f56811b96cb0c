"""Committed fault runs: every file under ``scenarios/`` replays clean.

Each file is a bare scenario on the two-gateway testbed (``a0`` -myrinet
``c0``- {``gw00``, ``gw01``} -sci ``c1``- ``b0``), run exactly as
``repro run --check FILE`` runs it and judged by the invariant catalog
of ``docs/robustness.md``.  On top of I1-I8, every message must arrive,
except on ``total_loss.json``, where every one must end in a typed error.
"""

import pathlib

import pytest

from repro.fuzz import run_scenario
from repro.scenario import load_scenario

SCENARIOS = sorted(
    (pathlib.Path(__file__).parent / "scenarios").glob("*.json"))


def test_the_fault_runs_are_committed():
    assert {p.stem for p in SCENARIOS} >= {
        "acceptance", "flap", "random1", "random2", "random3", "total_loss"}


@pytest.mark.parametrize("path", SCENARIOS, ids=lambda p: p.stem)
def test_fault_scenario_file(path):
    scenario = load_scenario(path)
    result = run_scenario(scenario)
    assert result.ok, "; ".join(str(f) for f in result.failures)
    if path.stem == "total_loss":
        assert result.stats["delivered"] == 0
        assert "typed:RetryExhausted" in result.features
        return
    assert result.stats["delivered"] == len(scenario.messages)
    if path.stem == "acceptance":
        # 5% drop + 2.5% corruption on both rails and a crash of the
        # preferred gateway at 3 ms: the faults were real, and recovery
        # retransmitted its way round them.
        assert result.stats["dropped"] == 106
        assert any(f.startswith("reliable.retransmits:")
                   for f in result.features)
