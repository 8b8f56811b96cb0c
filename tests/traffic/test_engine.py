"""Traffic engine end-to-end: delivery, determinism, scheduler identity."""

from dataclasses import replace

import pytest

from repro.scenario import MessageSpec, Scenario, Topology, TrafficSpec
from repro.traffic import run_traffic


def _scenario(**kw):
    base = dict(
        seed=5,
        topology=Topology(kind="torus", protocols=("myrinet",), dims=(3, 3)),
        traffic=TrafficSpec(pattern="uniform", flows=12,
                            mean_interarrival=120.0, size=16 << 10),
        gw_stall_timeout=None)
    base.update(kw)
    return Scenario(**base)


def _run(**kw):
    session, engine = run_traffic(_scenario(**kw))
    return session, engine


def test_all_flows_complete():
    session, engine = _run()
    assert len(engine.records) == len(engine.flows) == 12
    summary = engine.summary()
    assert summary["completed"] == 12
    assert summary["p99_fct_us"] >= summary["p50_fct_us"] > 0
    assert summary["bytes"] == 12 * (16 << 10)


def test_telemetry_counters_match_records():
    session, engine = _run()
    m = session.metrics
    assert m.total("traffic.flows_started") == 12
    assert m.total("traffic.flows_completed") == 12
    assert m.total("traffic.active_flows") == 0
    assert m.total("traffic.bytes_delivered") == 12 * (16 << 10)


def test_runs_are_deterministic():
    _s1, e1 = _run()
    _s2, e2 = _run()
    assert [r.completed_at for r in e1.records] \
        == [r.completed_at for r in e2.records]


def test_reliable_traffic_completes():
    session, engine = _run(
        traffic=TrafficSpec(pattern="permutation", flows=6,
                            mean_interarrival=300.0, size=8 << 10,
                            kind="reliable"))
    assert len(engine.records) == 6
    assert session.metrics.total("reliable.deliveries") == 6


def test_lossy_reliable_traffic_ends_typed():
    """4x4 torus, 1% drop everywhere (the benchmark's excluded cell, seed
    1): transfer 18 gives up after 8 attempts.  That is a typed end of one
    flow — recorded, the source's next flow served — not a ProcessCrashed
    out of Session.run."""
    from repro.faults import ChannelFaults, FaultPlan

    session, engine = _run(
        seed=1,
        topology=Topology(kind="torus", protocols=("myrinet",), dims=(4, 4)),
        traffic=TrafficSpec(pattern="uniform", flows=200,
                            mean_interarrival=100.0, size=32 << 10,
                            kind="reliable"),
        faults=FaultPlan(seed=1, default=ChannelFaults(drop_p=0.01)),
        gw_stall_timeout=5_000.0)
    summary = engine.summary()
    assert summary["failed"] == len(engine.failed) >= 1
    assert summary["completed"] + summary["failed"] == summary["flows"] == 200
    assert {error for _flow, error in engine.failed} <= {"RetryExhausted",
                                                         "NoRouteError"}
    m = session.metrics
    assert m.total("traffic.active_flows") == 0
    assert m.total("traffic.flows_started") == 200
    assert m.total("traffic.flows_completed") == summary["completed"]


def test_traffic_requires_spec():
    """What the engine requires is something to drive, not a TrafficSpec: a
    message-only scenario runs (the engine used to refuse it with "no
    traffic spec"), and a scenario with neither is refused once, where every
    reader of a scenario looks."""
    from repro.madeleine import Session

    session, engine = _run(traffic=None,
                           messages=(MessageSpec("t0_0", "t1_1", 1024),))
    assert [(f.index, f.src, f.dst, f.nbytes, f.arrival)
            for f in engine.flows] == [(0, "t0_0", "t1_1", 1024, 0.0)]
    assert engine.summary()["completed"] == 1
    with pytest.raises(ValueError, match="no traffic"):
        Session.from_scenario(_scenario(traffic=None))


# -- one flow list, read by the DES and the solver -----------------------------

_MESSAGES = (MessageSpec("t0_0", "t1_1", 24 << 10, "plain"),
             MessageSpec("t2_0", "t1_1", 6 << 10, "plain"),
             MessageSpec("t0_0", "t2_2", 1 << 10, "plain"))


@pytest.mark.parametrize("kw", [
    dict(traffic=None, messages=_MESSAGES),
    dict(),
    dict(messages=_MESSAGES),
], ids=["messages", "traffic", "both"])
def test_engine_and_solver_read_one_flow_list(kw):
    from repro.solver import solve
    from repro.traffic import scenario_flows

    scenario = _scenario(**kw)
    _session, engine = _run(**kw)
    driven = [(f.index, f.src, f.dst, f.nbytes, f.arrival)
              for f in engine.flows]
    assert engine.flows == scenario_flows(scenario)
    assert driven == [(f.index, f.src, f.dst, f.nbytes, f.arrival)
                      for f in solve(scenario).flows]
    n = len(scenario.messages)
    assert [f.index for f in engine.flows] == list(range(len(driven)))
    assert driven[:n] == [(i, m.src, m.dst, m.nbytes, 0.0)
                          for i, m in enumerate(scenario.messages)]
    assert sorted(r.flow.index for r in engine.records) \
        == list(range(len(driven)))


def test_explicit_plain_messages_leave_a_source_in_list_order():
    """One sender process per source: t0_0's second message starts only
    when its first is packed, whatever their sizes."""
    _session, engine = _run(traffic=None, messages=_MESSAGES)
    done = {r.flow.index: r.completed_at for r in engine.records}
    assert done[0] < done[2]


def test_flow_records_carry_the_reliable_attempt_count():
    from repro.faults import ChannelFaults, FaultPlan

    session, engine = _run(
        traffic=None,
        messages=(MessageSpec("t0_0", "t1_1", 60_000),
                  MessageSpec("t0_0", "t2_2", 60_000)),
        faults=FaultPlan(seed=5, default=ChannelFaults(drop_p=0.05)),
        gw_stall_timeout=5_000.0)
    attempts = [r.attempts for r in engine.records]
    assert len(attempts) == 2 and max(attempts) > 1
    assert session.metrics.total("reliable.attempts") == sum(attempts)


@pytest.mark.parametrize(("protocols", "nbytes"), [
    (("myrinet", "sci"), 1 << 20), (("myrinet", "sci"), 4 << 20),
    (("fast_ethernet", "sci"), 256 << 10), (("fast_ethernet", "sci"), 1 << 20)],
    ids=["1M", "4M", "fast_ethernet-256K", "fast_ethernet-1M"])
def test_a_large_reliable_transfer_on_a_healthy_fabric_takes_one_attempt(
        protocols, nbytes):
    """The recovery clocks cover one whole attempt on the flow's route:
    with the default 20 ms re-ACK period a 1 MB transfer on the testbed
    took 11 attempts and a 4 MB one 54, every one after the first a
    needless retransmission.  Fast Ethernet's 11 MB/s puts 256 KB past
    that period already."""
    from repro.scenario import load_scenario
    sc = load_scenario("benchmarks/scenarios/testbed.json")
    (msg,) = sc.messages
    session, engine = run_traffic(sc.with_(
        topology=replace(sc.topology, protocols=protocols),
        messages=(MessageSpec(msg.src, msg.dst, nbytes),)))
    assert [r.attempts for r in engine.records] == [1]
    assert session.metrics.total("reliable.retransmits") == 0


def test_short_attempts_keep_the_default_recovery_clocks():
    from repro.madeleine import RetryPolicy
    from repro.traffic.engine import _CLOCK_US, _retry_policy
    # the testbed's 256 KB, and the corpus's largest Fast-Ethernet flow
    assert _retry_policy(8, (256 << 10) / 62.0) == RetryPolicy()
    assert _retry_policy(8, 44_690 / 11.0) == RetryPolicy()
    big = _retry_policy(3, 4 * _CLOCK_US)
    assert (big.rto, big.reack_interval, big.stall_timeout) == (
        4 * RetryPolicy.rto, 4 * RetryPolicy.reack_interval,
        RetryPolicy.stall_timeout)
    assert big.max_attempts == 3
