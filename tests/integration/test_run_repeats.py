"""A run repeats in one process: its ids belong to its world.

Message, transfer and stripe ids travel in announces and headers, and
recovery code branches on them (a stale fragment redelivered after a drop,
a corrupted record), so a schedule is only reproducible if every run starts
from the same ids.  Each world numbers its own, so a scenario run twice
back to back, or after a different one, with nothing reset in between,
dispatches the same events at the same instants.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.scenario import load_scenario
from repro.traffic import run_traffic

TESTS = Path(__file__).resolve().parents[1]
SCENARIOS = sorted((TESTS / "faults" / "scenarios").glob("*.json")) + sorted(
    (TESTS / "fuzz" / "corpus").glob("*.json"))
STRIPE_CRASH = TESTS / "fuzz" / "corpus" / "seed3-stripe-record-crash.json"


def _run(path: Path):
    """What one run of ``path`` did: end time, events dispatched, every
    completed and failed flow, and the raw trace's event sequence."""
    session, engine = run_traffic(load_scenario(path), trace=True)
    return (session.now, session.sim.events_processed,
            [(r.flow.index, r.completed_at, r.attempts)
             for r in engine.records],
            [(flow.index, error) for flow, error in engine.failed],
            [(rec.t, rec.category, rec.event) for rec in session.trace])


def test_the_scenarios_are_committed():
    assert len(SCENARIOS) >= 13
    assert STRIPE_CRASH in SCENARIOS


@pytest.mark.parametrize("path", SCENARIOS, ids=lambda p: p.stem)
def test_a_run_repeats_in_one_process(path):
    first = _run(path)
    assert first[1] > 0
    assert _run(path) == first


def test_a_run_repeats_after_a_different_one():
    first = _run(STRIPE_CRASH)
    _run(TESTS / "faults" / "scenarios" / "acceptance.json")
    assert _run(STRIPE_CRASH) == first
