"""Every declared series reads the same, run by run.

``write_metrics_json`` (what ``repro run --metrics m.json`` writes) of four
worlds, compared with ``==`` against ``tests/data/telemetry_snapshots.json``:

* ``torus_built`` — a 2x2x2 torus built with the registry on and never run:
  every series is declared and none was ever updated;
* ``testbed_seed1`` — ``benchmarks/scenarios/testbed.json`` at seed 1, run
  to the end (a reliable 1 MB transfer through two gateways);
* ``torus_toggled`` — the torus with uniform traffic, built with the
  registry off, then switched on, off and on again while gateways hold
  staged items;
* ``gateway_restart_toggled`` — ``tests/faults/scenarios/random3.json``
  (its gateway crashes and restarts, so respawned forwarding workers share
  their predecessors' series), switched the same way.

The recording was made while every NIC, forwarding worker and pool still
created one instrument object per series at build, so a series that is
missing, relabelled, reordered or counted differently fails here.

Re-record with ``python -m tests.telemetry.test_snapshot_parity OUT.json``.
"""

from __future__ import annotations

import json
import pathlib
import sys
import tempfile

import pytest

from repro.analysis import write_metrics_json
from repro.madeleine import Session
from repro.scenario import Scenario, load_scenario
from repro.traffic import TrafficEngine

ROOT = pathlib.Path(__file__).resolve().parents[2]
RECORDING = ROOT / "tests" / "data" / "telemetry_snapshots.json"


def _torus() -> Scenario:
    doc = json.loads((ROOT / "benchmarks" / "perf" / "scenarios"
                      / "torus_sparse.json").read_text())
    doc["topology"]["dims"] = [2, 2, 2]
    doc["traffic"].update(flows=24, mean_interarrival=20.0)
    return Scenario.from_dict(doc)


def _written(session: Session) -> dict:
    """The registry as ``repro run --metrics m.json`` writes it."""
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "m.json"
        write_metrics_json(session.metrics, path)
        snapshot = json.loads(path.read_text())
    return {"series": len(session.metrics), "snapshot": snapshot}


def _built(scenario: Scenario) -> dict:
    return _written(Session.from_scenario(scenario))


def _run(scenario: Scenario, toggles: tuple[float, ...] = ()) -> dict:
    """Run to the end; with ``toggles``, start with the registry off and
    flip it at each of those simulated instants."""
    session = Session.from_scenario(scenario, telemetry=not toggles)
    engine = TrafficEngine(session, scenario)
    engine.start()
    for t in toggles:
        session.run(until=t)
        if session.metrics.enabled:
            session.metrics.disable()
        else:
            session.metrics.enable()
    session.run()
    return _written(session)


CASES = {
    "torus_built": lambda: _built(_torus()),
    "testbed_seed1": lambda: _run(load_scenario(
        ROOT / "benchmarks" / "scenarios" / "testbed.json").with_(seed=1)),
    "torus_toggled": lambda: _run(_torus(), (1_500.0, 4_000.0, 7_000.0)),
    "gateway_restart_toggled": lambda: _run(
        load_scenario(ROOT / "tests" / "faults" / "scenarios"
                      / "random3.json"),
        (2_000.0, 20_000.0, 30_000.0)),
}


def dump(path: str) -> None:
    note = ("recorded by tests/telemetry/test_snapshot_parity.py while "
            "every series was one instrument object created at build")
    doc = {"note": note, "cases": {name: make() for name, make in
                                   CASES.items()}}
    with open(path, "w") as fh:
        fh.write(json.dumps(doc, indent=1, sort_keys=True) + "\n")


@pytest.fixture(scope="module")
def recording():
    return json.loads(RECORDING.read_text())["cases"]


def test_every_case_is_recorded(recording):
    assert sorted(recording) == sorted(CASES)


@pytest.mark.parametrize("name", CASES)
def test_snapshot_matches_recording(recording, name):
    assert CASES[name]() == recording[name]


if __name__ == "__main__":
    dump(sys.argv[1])
