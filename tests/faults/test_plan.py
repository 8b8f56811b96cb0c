"""Unit tests for the declarative fault-plan layer: validation, arming,
health bookkeeping, and the reproducibility guarantee (same seed, same
workload -> byte-identical fault schedule)."""

import pytest

from repro.faults import ChannelFaults, FaultPlan, LinkEvent, NodeEvent
from repro.faults.injector import base_channel_id
from repro.madeleine import RetryPolicy
from tests.faults.conftest import (payloads, reliable_pair, run_transfer,
                                   two_gateway_world)


# -- validation ----------------------------------------------------------------

@pytest.mark.parametrize("kw", [
    {"drop_p": -0.1}, {"drop_p": 1.5},
    {"corrupt_p": 2.0}, {"delay_p": -1e-9},
    {"delay_us": -1.0},
])
def test_channel_faults_rejects_bad_values(kw):
    with pytest.raises(ValueError):
        ChannelFaults(**kw)


def test_channel_faults_quiet():
    assert ChannelFaults().quiet
    assert ChannelFaults(delay_us=50.0).quiet      # probability still zero
    assert not ChannelFaults(drop_p=0.01).quiet


@pytest.mark.parametrize("kw", [
    {"max_attempts": 0},
    {"rto": 0.0},
    {"rto_max": -1.0},
    {"stall_timeout": 0.0},
    {"reack_interval": 0.0},
    {"reack_ttl": 0.0},
    # the receiver must keep re-ACKing for at least the sender's
    # worst-case silence, else a blind sender can never be repaired
    {"rto_max": 100_000.0, "reack_ttl": 50_000.0},
])
def test_retry_policy_rejects_bad_values(kw):
    with pytest.raises(ValueError):
        RetryPolicy(**kw)


@pytest.mark.parametrize("field, message", [
    ("rto", "timeouts"), ("rto_max", "timeouts"),
    ("stall_timeout", "timeouts"), ("reack_interval", "re-ACK"),
    ("reack_ttl", "re-ACK"),
])
def test_retry_policy_rejects_nan(field, message):
    """NaN compares False both ways, so it must fail a ``> 0`` check."""
    with pytest.raises(ValueError, match=message):
        RetryPolicy(**{field: float("nan")})


def test_retry_policy_defaults_are_valid():
    p = RetryPolicy()
    assert p.reack_ttl > p.rto_max


# -- arming --------------------------------------------------------------------

def test_plan_arms_once():
    w, _s, _myri, _sci = two_gateway_world()
    plan = FaultPlan(seed=3)
    injector = plan.arm(w)
    assert w.fabric.injector is injector
    with pytest.raises(RuntimeError):
        FaultPlan(seed=4).arm(w)


def test_base_channel_id_strips_forwarding_twin():
    assert base_channel_id("myrinet!fwd") == "myrinet"
    assert base_channel_id("myrinet") == "myrinet"


# -- health transitions --------------------------------------------------------

def test_injector_health_transitions_notify_and_trace():
    w, _s, myri, _sci = two_gateway_world()
    w.trace.enable()
    injector = FaultPlan(seed=0).arm(w)
    seen = []
    injector.subscribe(lambda kind, subject: seen.append((kind, subject)))

    injector.link_down(myri.id + "!fwd")   # twin normalizes to the rail
    injector.link_down(myri.id)            # duplicate: no second event
    assert injector.is_link_down(myri.id)
    injector.link_up(myri.id)
    injector.crash_node("gwA")
    assert injector.is_node_down(1)
    injector.restart_node("gwA")
    injector.restart_node("gwA")           # duplicate: no second event

    assert seen == [("link_down", myri.id), ("link_up", myri.id),
                    ("node_down", 1), ("node_up", 1)]
    events = [r.event for r in w.fabric.trace.query("fault")]
    assert events == ["link_down", "link_up", "node_down", "node_up"]


# -- determinism ---------------------------------------------------------------

def _faulty_run(seed):
    w, s, myri, sci = two_gateway_world()
    w.trace.enable()
    faults = ChannelFaults(drop_p=0.05, corrupt_p=0.02)
    FaultPlan(seed=seed, channels={myri.id: faults, sci.id: faults},
              link_events=(LinkEvent(time=8_000.0, channel=myri.id),
                           LinkEvent(time=20_000.0, channel=myri.id,
                                     up=True)),
              node_events=(NodeEvent(time=4_000.0, node="gwA"),)).arm(w)
    vch, rel_src, rel_dst = reliable_pair(s, myri, sci, RetryPolicy())
    attempts, got, errors = run_transfer(
        s, rel_src, rel_dst, payloads(seed, 2, 60_000))
    assert not errors and len(got) == 2
    # channel ids and message ids embed process-global counters, so the
    # comparable schedule is (time, event) — *when* each fault fired.
    fault_log = [(r.t, r.event) for r in w.fabric.trace.query("fault")]
    return attempts, rel_src.retransmits, fault_log


def test_same_seed_same_schedule():
    """The whole point of seeding: a chaos run is a reproducible bug
    report.  Two worlds, same plan + workload -> identical fault trace
    (times, victims) and identical recovery statistics."""
    a = _faulty_run(seed=5)
    b = _faulty_run(seed=5)
    assert a == b


def test_different_seed_different_schedule():
    a = _faulty_run(seed=5)
    b = _faulty_run(seed=6)
    assert a[2] != b[2]
