"""Nothing a DES run is done with waits for the cycle collector.

Every fragment's flow, every finished process, every race, every message
and every match-table entry dies by reference counting, so a run that is
held (session and traffic engine still referenced) leaves zero cyclic
garbage behind.  The property is about references, not about the
collector's internals, so it holds on every supported Python.

The same seed-1 runs also repeat the wall-clock benchmark's committed
simulated statistics (``benchmarks/perf/expected.json``) float for float.
"""

from __future__ import annotations

import gc
import json
from pathlib import Path

import numpy as np
import pytest

from repro.madeleine import Session
from repro.scenario import load_scenario
from repro.sim import DMA, FluidNetwork, FluidPath, FluidResource
from repro.traffic import TrafficEngine

PERF = Path(__file__).resolve().parents[2] / "benchmarks" / "perf"
SCENARIOS = PERF / "scenarios"

#: the four send modes and both DES fabrics of the wall-clock benchmark.
DES_WORKLOADS = ("send_modes.rendezvous", "send_modes.batched",
                 "send_modes.eager", "send_modes.striped", "torus_sparse",
                 "fat_tree_dense")


def _held_run(name: str, seed: int = 1):
    """Run one committed scenario to the end; returns what holds it."""
    scenario = load_scenario(SCENARIOS / f"{name}.json").with_(seed=seed)
    session = Session.from_scenario(scenario)
    engine = TrafficEngine(session, scenario)
    engine.start()
    session.run()
    return session, engine


@pytest.mark.parametrize("name", DES_WORKLOADS)
def test_a_held_run_leaves_no_cyclic_garbage(name):
    gc.collect()
    gc.disable()
    try:
        held = _held_run(name)
        garbage = gc.collect()
    finally:
        gc.enable()
    _session, engine = held
    assert len(engine.records) == len(engine.flows)
    assert garbage == 0
    _SIM_STATS[name] = _sim_stats(*held)


#: the simulated statistics of each seed-1 run above, so the check below
#: costs no second run.
_SIM_STATS: dict[str, dict] = {}


def _sim_stats(session, engine) -> dict:
    """What the benchmark records of a DES pass as ``sim``."""
    fcts = [r.fct for r in engine.records]
    return {"duration_us": session.now, "completed": len(engine.records),
            "bytes": sum(r.flow.nbytes for r in engine.records),
            "events": session.sim.events_processed,
            "fct_p50_us": float(np.percentile(fcts, 50)),
            "fct_p95_us": float(np.percentile(fcts, 95)),
            "fct_mean_us": float(np.mean(fcts))}


@pytest.mark.parametrize("name", DES_WORKLOADS)
def test_a_seed_1_run_repeats_the_benchmark_float_for_float(name):
    stats = _SIM_STATS.get(name) or _sim_stats(*_held_run(name))
    workload, _, mode = name.partition(".")
    expected = json.loads((PERF / "expected.json").read_text())[workload]["1"]
    prefix = f"{mode}." if mode else ""
    assert stats == {key: expected[prefix + key] for key in stats}


# -- races -----------------------------------------------------------------------
def test_a_losing_child_that_fails_later_is_defused_and_unhooked(sim):
    loser = sim.event(name="loser")
    got = []

    def racer():
        got.append((yield sim.any_of([sim.timeout(1.0, value="win"),
                                      loser])))

    sim.process(racer())
    sim.run()
    assert got == [(0, "win")]
    assert loser.callbacks == []
    loser.fail(RuntimeError("late failure"))
    sim.run()                   # no ProcessCrashed: the race swallowed it
    assert loser.processed


def test_races_against_one_long_lived_event_leave_it_no_hooks(sim):
    switch = sim.event(name="switch")

    def racer():
        for _ in range(1000):
            yield sim.any_of([sim.timeout(1.0), switch])

    sim.process(racer())
    sim.run()
    assert switch.callbacks == []


def test_a_child_listed_after_an_already_processed_winner(sim):
    done = sim.event().succeed("early")
    late = sim.event()
    sim.run()
    race = sim.any_of([done, late])
    assert race.triggered and late.callbacks == []
    sim.run()
    assert race.value == (0, "early")
    late.fail(RuntimeError("late failure"))
    sim.run()


def test_a_child_listed_twice_wins_once(sim):
    ev = sim.event()
    race = sim.any_of([ev, ev])
    ev.succeed("x")
    sim.run()
    assert race.value == (0, "x")


def test_gateway_abort_switches_hold_at_most_one_callback():
    session, _engine = _held_run("send_modes.rendezvous")
    workers = [w for vch in session.virtual_channels for w in vch.workers]
    assert workers
    for worker in workers:
        assert len(worker._abort_ev.callbacks) <= 1


# -- the match table -------------------------------------------------------------
@pytest.mark.parametrize("name", ["send_modes.rendezvous", "torus_sparse"])
def test_every_match_table_entry_holds_a_slot_or_a_sender(name):
    session, _engine = _held_run(name)
    table = session.world.fabric._match
    assert table
    for point in table.values():
        assert point.slots or point.senders


# -- flows and processes ---------------------------------------------------------
def test_a_finished_flow_lets_go_of_its_done_event(sim):
    net = FluidNetwork(sim)
    r = FluidResource("r", 100.0)
    moving = net.transfer("moving", 500.0, [(r, DMA)], peak=50.0)
    empty = net.transfer("empty", 0.0, [(r, DMA)], peak=50.0)
    sim.run()
    for done in (moving, empty):
        flow = done.value
        assert flow.done is None and flow.finished_at is not None


def test_flows_on_one_path_share_its_facts(sim):
    net = FluidNetwork(sim)
    r = FluidResource("r", 100.0)
    path = FluidPath([(r, DMA)])
    a = net.transfer("a", 100.0, path, peak=50.0)
    b = net.transfer("b", 100.0, path, peak=50.0)
    sim.run()
    assert a.value.route is path and b.value.route is path
    assert a.value.footprint is path.footprint


def test_a_returned_or_crashed_process_holds_no_bound_resume(sim):
    def returns():
        yield sim.timeout(1.0)
        return "ok"

    def crashes():
        yield sim.timeout(1.0)
        raise RuntimeError("boom")

    def waiter(proc):
        try:
            yield proc
        except RuntimeError:
            pass

    done = sim.process(returns())
    crashed = sim.process(crashes())
    sim.process(waiter(crashed))
    sim.run()
    assert done.value == "ok" and crashed.triggered and not crashed.ok
    assert done._resume_bound is None
    assert crashed._resume_bound is None
