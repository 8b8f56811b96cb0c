"""Executor oracle: clean passes, deterministic results, and detection of a
deliberately broken stack (the acceptance gate of the fuzzer itself)."""

import pytest

from repro.faults import ChannelFaults, FaultPlan
from repro.fuzz import (MessageSpec, Scenario, Topology, minimize_scenario,
                        random_scenario, run_scenario)
from repro.madeleine.gateway import TEST_HOOKS


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


@pytest.fixture
def leaky_gateway():
    TEST_HOOKS.leak_credits = True
    try:
        yield
    finally:
        TEST_HOOKS.leak_credits = False


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
