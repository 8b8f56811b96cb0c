"""Telemetry vs. ground truth: the registry's recovery counters must agree
with what the endpoints and the fault injector observed directly."""

import numpy as np

from repro.faults import ChannelFaults, FaultPlan, NodeEvent
from repro.hw import build_world
from repro.hw.params import GatewayParams
from repro.madeleine import ReliableEndpoint, RetryPolicy, Session


def lossy_transfer(drop_p=0.04, crash_at=None, nmsgs=2, nbytes=120_000,
                   seed=11):
    w = build_world({
        "m0": ["myrinet"], "gwA": ["myrinet", "sci"],
        "gwB": ["myrinet", "sci"], "s0": ["sci"],
    })
    s = Session(w, telemetry=True, packet_size=16 << 10)
    myri = s.channel("myrinet", ["m0", "gwA", "gwB"])
    sci = s.channel("sci", ["gwA", "gwB", "s0"])
    faults = ChannelFaults(drop_p=drop_p, corrupt_p=drop_p / 2)
    plan = FaultPlan(
        seed=seed, channels={myri.id: faults, sci.id: faults},
        node_events=tuple([NodeEvent(time=crash_at, node="gwA")]
                          if crash_at is not None else []))
    injector = plan.arm(w)
    vch = s.virtual_channel(
        [myri, sci], gateway_params=GatewayParams(stall_timeout=5_000.0))
    rng = np.random.default_rng(seed)
    payloads = [rng.integers(0, 256, nbytes, dtype=np.uint8).tobytes()
                for _ in range(nmsgs)]
    rel_src = ReliableEndpoint(vch.endpoint(0), RetryPolicy())
    rel_dst = ReliableEndpoint(vch.endpoint(3), RetryPolicy())
    attempts = []
    got = []

    def sender():
        for p in payloads:
            attempts.append((yield from rel_src.send(3, p)))

    def receiver():
        for _ in payloads:
            _src, data, _tid = yield from rel_dst.recv()
            got.append(data)

    s.spawn(sender())
    s.spawn(receiver())
    s.run()
    assert got == payloads, "lossy transfer must deliver intact"
    return s, vch, injector, rel_src, attempts


def test_registry_counters_match_ground_truth():
    s, vch, injector, rel_src, attempts = lossy_transfer()
    m = s.metrics
    # fault-injection counters mirror the injector's own tallies
    assert m.total("faults.fragments_dropped") == injector.dropped > 0
    assert m.total("faults.fragments_corrupted") == injector.corrupted
    assert m.total("faults.fragments_delayed") == injector.delayed
    # the reliable layer's counters mirror the endpoint's attributes
    assert m.value("reliable.retransmits", vchannel=vch.name,
                   rank=0) == rel_src.retransmits > 0
    assert m.value("reliable.attempts", vchannel=vch.name,
                   rank=0) == sum(attempts)
    assert m.value("reliable.deliveries", vchannel=vch.name, rank=3) == 2


def test_failover_counter_records_gateway_crash():
    s, _vch, injector, _rel, attempts = lossy_transfer(drop_p=0.0,
                                                       crash_at=2_000.0)
    m = s.metrics
    assert m.total("vchannel.failovers") >= 1
    assert m.total("faults.node_transitions") == 1
    assert attempts[0] > 1           # the crash forced at least one retry
    assert m.total("routing.down_transitions") >= 1
