"""Failover routing: a reliable transfer survives the loss of its active
gateway by retrying onto the surviving minimum-hop rail, resuming from
the last acknowledged fragment; a true partition ends in NoRouteError."""


from repro.faults import ChannelFaults, FaultPlan, LinkEvent, NodeEvent
from repro.madeleine import RetryPolicy
from repro.routing import NoRouteError
from tests.faults.conftest import (payloads, reliable_pair, run_transfer,
                                   two_gateway_world)

#: short-fuse policy for partition tests (see test_recovery.SHORT).
SHORT = RetryPolicy(max_attempts=2, rto=5_000.0, rto_max=10_000.0,
                    stall_timeout=2_000.0, reack_interval=4_000.0,
                    reack_ttl=20_000.0)


def test_gateway_crash_fails_over_to_survivor():
    w, s, myri, sci = two_gateway_world()
    FaultPlan(seed=2, node_events=(
        NodeEvent(time=3_000.0, node="gwA"),)).arm(w)
    vch, rel_src, rel_dst = reliable_pair(s, myri, sci, RetryPolicy())
    msgs = payloads(2, 2, 120_000)
    attempts, got, errors = run_transfer(s, rel_src, rel_dst, msgs)

    assert not errors
    assert got == msgs
    # the first message was cut mid-flight and needed a retry ...
    assert attempts[0] > 1
    # ... and the retries went through the surviving gateway gwB (rank 2)
    forwarded = sum(wk.messages_forwarded for wk in vch.workers
                    if wk.gw_rank == 2)
    assert forwarded >= len(msgs)
    # route health reflects the crash
    assert 1 in vch.routes.down_nodes


def test_gateway_crash_and_restart_restores_route():
    w, s, myri, sci = two_gateway_world()
    w.trace.enable()
    FaultPlan(seed=3, node_events=(
        NodeEvent(time=2_000.0, node="gwA"),
        NodeEvent(time=40_000.0, node="gwA", up=True))).arm(w)
    vch, rel_src, rel_dst = reliable_pair(s, myri, sci, RetryPolicy())
    msgs = payloads(3, 3, 80_000)
    attempts, got, errors = run_transfer(s, rel_src, rel_dst, msgs)

    assert not errors
    assert got == msgs
    assert 1 not in vch.routes.down_nodes   # marked back up
    events = [r.event for r in w.fabric.trace.query("fault")]
    assert events.count("node_down") == 1 and events.count("node_up") == 1


def test_both_gateways_down_raises_no_route():
    """With every gateway gone the pair is partitioned: the sender burns
    its (short) budget waiting for a route and then gets NoRouteError —
    not a hang, not RetryExhausted."""
    w, s, myri, sci = two_gateway_world()
    FaultPlan(seed=4, node_events=(
        NodeEvent(time=500.0, node="gwA"),
        NodeEvent(time=500.0, node="gwB"))).arm(w)
    _vch, rel_src, rel_dst = reliable_pair(s, myri, sci, SHORT)

    state = {}

    def sender():
        yield s.sim.timeout(1_000.0)        # send strictly after the crash
        try:
            yield from rel_src.send(3, b"y" * 20_000)
        except NoRouteError as exc:
            state["exc"] = exc

    s.spawn(sender(), name="part-send")
    s.run()
    assert "partitioned" in str(state["exc"])


def test_link_down_partition_raises_no_route():
    w, s, myri, sci = two_gateway_world()
    FaultPlan(seed=5, link_events=(
        LinkEvent(time=500.0, channel=myri.id),)).arm(w)
    vch, rel_src, _rel_dst = reliable_pair(s, myri, sci, SHORT)

    state = {}

    def sender():
        yield s.sim.timeout(1_000.0)
        try:
            yield from rel_src.send(3, b"z" * 20_000)
        except NoRouteError as exc:
            state["exc"] = exc

    s.spawn(sender(), name="link-send")
    s.run()
    assert isinstance(state["exc"], NoRouteError)
    assert myri.id in vch.routes.down_channels


def test_link_flap_recovers_after_up():
    """A transient outage of the only rail out of the sender: attempts
    during the window fail (dropped fragments, then no route), and the
    transfer completes once the link returns."""
    w, s, myri, sci = two_gateway_world()
    FaultPlan(seed=6,
              channels={myri.id: ChannelFaults(), sci.id: ChannelFaults()},
              link_events=(
                  LinkEvent(time=2_000.0, channel=myri.id),
                  LinkEvent(time=60_000.0, channel=myri.id,
                            up=True))).arm(w)
    vch, rel_src, rel_dst = reliable_pair(s, myri, sci, RetryPolicy())
    msgs = payloads(6, 1, 120_000)
    attempts, got, errors = run_transfer(s, rel_src, rel_dst, msgs)

    assert not errors
    assert got == msgs
    assert attempts[0] > 1                    # the outage was felt
    assert myri.id not in vch.routes.down_channels
