"""Executor oracle: clean passes, deterministic results, and detection of a
deliberately broken stack (the acceptance gate of the fuzzer itself)."""

import pathlib

import pytest

from repro.faults import ChannelFaults, FaultPlan
from repro.fuzz import (MessageSpec, Scenario, Topology, minimize_scenario,
                        random_scenario, run_scenario)
from repro.scenario import TrafficSpec, load_scenario


@pytest.mark.parametrize("seed", range(8))
def test_random_seeds_pass_the_catalog(seed):
    result = run_scenario(random_scenario(seed))
    assert result.ok, [str(f) for f in result.failures]
    assert result.stats["delivered"] >= 1
    assert result.features


def test_results_are_deterministic():
    s = random_scenario(3)
    a, b = run_scenario(s), run_scenario(s)
    assert a.stats == b.stats
    assert a.features == b.features


def test_signature_distinguishes_topologies():
    quiet_chain = next(s for s in map(random_scenario, range(50))
                       if s.topology.kind == "chain")
    rail = next(s for s in map(random_scenario, range(50))
                if s.topology.kind == "multirail")
    fa = run_scenario(quiet_chain).features
    fb = run_scenario(rail).features
    assert "topo:chain" in fa and "topo:multirail" in fb
    assert fa != fb


def _leak_scenario():
    """Quiet pipelined chain, wide enough that minimization has work to do.

    Small messages keep every forward within the credit window, so the
    leaked credits show as a nonzero gauge instead of a stall-and-abandon.
    """
    topo = Topology(kind="chain", protocols=("myrinet", "sci"),
                    sizes=(2, 2), gateways=(2,))
    return Scenario(
        seed=99,
        topology=topo,
        pipeline=(4, 4, False),
        messages=(MessageSpec("a0", "b0", 2_000),
                  MessageSpec("a1", "b1", 2_000),
                  MessageSpec("a0", "b1", 1_000)),
        faults=FaultPlan(seed=99),
    )


def test_injected_credit_leak_is_caught(leaky_gateway):
    result = run_scenario(_leak_scenario())
    assert not result.ok
    assert any(f.invariant == "credit-leak" for f in result.failures), \
        [str(f) for f in result.failures]


def test_injected_credit_leak_minimizes_small(leaky_gateway):
    """The ISSUE acceptance gate: the planted fault shrinks to a scenario
    of at most 4 nodes and 3 fault events that still exhibits it."""
    scenario = _leak_scenario()
    assert scenario.topology.n_nodes == 6
    small = minimize_scenario(scenario, "credit-leak", max_runs=80)
    assert small.topology.n_nodes <= 4
    assert small.n_fault_events <= 3
    assert len(small.messages) == 1
    result = run_scenario(small)
    assert any(f.invariant == "credit-leak" for f in result.failures)


def test_clean_stack_holds_credit_invariant():
    result = run_scenario(_leak_scenario())
    assert result.ok, [str(f) for f in result.failures]


def test_faulty_channel_scenario_still_delivers():
    """Reliable traffic under fragment drops: typed errors allowed, crashes
    and conservation violations are not."""
    topo = Topology(kind="chain", protocols=("myrinet", "sci"),
                    sizes=(1, 1), gateways=(1,))
    s = Scenario(
        seed=5,
        topology=topo,
        messages=(MessageSpec("a0", "b0", 30_000),),
        faults=FaultPlan(seed=5,
                         channels={"c0": ChannelFaults(drop_p=0.05)}),
    )
    result = run_scenario(s)
    assert result.ok, [str(f) for f in result.failures]
    assert result.stats["dropped"] >= 0


@pytest.mark.parametrize("protocols, dst", [
    (("sci", "myrinet"), "a1"),     # direct, static chunks: the defect
    (("myrinet", "sci"), "a1"),     # direct, dynamic buffers: control
    (("sci", "myrinet"), "b0"),     # forwarded over the same faults: control
], ids=["direct-sci", "direct-myrinet", "forwarded"])
def test_lossy_reliable_pair_leaks_nothing(protocols, dst):
    """A reliable transfer between two nodes of one cluster under drops and
    corruption: every abandoned attempt must hand its landing blocks back
    (I5).  A regular ``IncomingMessage`` had no ``abort()``, so on a
    static-buffer network 37 of these 40 seeds leaked rx blocks; the
    generator never draws same-cluster pairs, so only this loop saw it."""
    topo = Topology(kind="chain", protocols=protocols, sizes=(2, 1),
                    gateways=(1,))
    failing = {}
    for seed in range(40):
        result = run_scenario(Scenario(
            seed=seed, topology=topo,
            messages=(MessageSpec("a0", dst, 60_000),
                      MessageSpec("a0", dst, 9_000)),
            faults=FaultPlan(seed=seed, channels={
                "c0": ChannelFaults(drop_p=0.08, corrupt_p=0.02)})))
        if not result.ok:
            failing[seed] = [str(f) for f in result.failures]
    assert not failing


# -- messages and generated traffic in one scenario ----------------------------
# The executor used to drive scenario.messages with its own senders and
# receivers next to a TrafficEngine on the same endpoints; the two could not
# share a rank.

BOTH = load_scenario(pathlib.Path(__file__).parent.parent / "data"
                     / "messages_plus_incast.json")


@pytest.mark.parametrize("seed", range(1, 6))
def test_plain_messages_and_incast_share_a_destination(seed):
    """Seed 3 died with ``MemoryError: Unable to allocate 78.1 TiB`` (the
    executor's receiver read an engine frame as its own length), others
    with ``UnpackMismatch``."""
    scenario = BOTH.with_(seed=seed)
    assert {m.kind for m in scenario.messages} == {scenario.traffic.kind} \
        == {"plain"}
    result = run_scenario(scenario)
    assert result.ok, [str(f) for f in result.failures]
    assert result.stats["delivered"] == result.stats["flows"] \
        == result.stats["flows_done"] == 2 + 6


def test_reliable_messages_and_reliable_traffic_share_endpoints():
    """Two ReliableEndpoints per rank each "owned" the incoming stream: six
    false ``[exactly-once] ... delivered 1x but sent 0x`` violations."""
    scenario = BOTH.with_(
        seed=5,
        messages=tuple(MessageSpec(m.src, m.dst, m.nbytes, "reliable")
                       for m in BOTH.messages),
        traffic=TrafficSpec(pattern="uniform", flows=6, size=20_000,
                            mean_interarrival=100.0, kind="reliable"))
    result = run_scenario(scenario)
    assert result.ok, [str(f) for f in result.failures]
    assert result.stats["delivered"] == result.stats["flows_done"] == 2 + 6


@pytest.mark.parametrize("messages, traffic", [("plain", "reliable"),
                                               ("reliable", "plain")])
def test_mixed_kinds_never_reach_the_driver(messages, traffic):
    scenario = BOTH.with_(
        messages=tuple(MessageSpec(m.src, m.dst, m.nbytes, messages)
                       for m in BOTH.messages),
        traffic=TrafficSpec(pattern="incast", flows=6, size=20_000,
                            mean_interarrival=100.0, kind=traffic))
    with pytest.raises(ValueError, match="mix kinds"):
        run_scenario(scenario)
