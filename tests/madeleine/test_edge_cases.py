"""Edge cases and robustness: minimal pools, zero-length data, coexisting
virtual channels."""

import pytest

from repro.analysis import to_chrome_trace
from repro.faults import FaultPlan, NodeEvent
from repro.hw import PROTOCOLS, SCI, build_world, register_protocol, scaled
from repro.hw import GatewayParams, PipelineConfig
from repro.madeleine import Session
from tests.conftest import payload, transfer_once

if "sci_tinypool" not in PROTOCOLS:
    register_protocol(scaled(SCI, name="sci_tinypool", pool_blocks=2))


def test_forwarding_with_minimal_pools_completes():
    """pool_blocks=2 is the bare minimum for the double-buffer pipeline;
    everything must still complete (backpressure, not deadlock)."""
    w = build_world({"m0": ["myrinet"], "gw": ["myrinet", "sci_tinypool"],
                     "s0": ["sci_tinypool"]})
    s = Session(w, packet_size=16 << 10)
    vch = s.virtual_channel([
        s.channel("myrinet", ["m0", "gw"]),
        s.channel("sci_tinypool", ["gw", "s0"]),
    ])
    data = payload(500_000)
    out = transfer_once(s, vch, 0, 2, data)
    assert out["buf"].tobytes() == data.tobytes()


def test_minimal_pools_with_deep_decoupled_pipeline():
    """A pipeline depth larger than the pool must degrade gracefully to the
    pool's limit, not deadlock."""
    w = build_world({"m0": ["myrinet"], "gw": ["myrinet", "sci_tinypool"],
                     "s0": ["sci_tinypool"]})
    s = Session(w, packet_size=16 << 10)
    vch = s.virtual_channel([
        s.channel("myrinet", ["m0", "gw"]),
        s.channel("sci_tinypool", ["gw", "s0"]),
    ], gateway_params=GatewayParams(pipeline=PipelineConfig(depth=4)))
    data = payload(300_000)
    out = transfer_once(s, vch, 0, 2, data)
    assert out["buf"].tobytes() == data.tobytes()


def test_a_gateway_crash_mid_message_closes_its_forward_record():
    """The gateway crashes while its receive thread waits for a staging
    block: its message_start is closed by message_abandoned
    ``where="crash"``, and the Chrome trace shows the cut interval."""
    w = build_world({"m0": ["myrinet"], "gw": ["myrinet", "sci_tinypool"],
                     "s0": ["sci_tinypool"]})
    w.trace.enable()
    s = Session(w, packet_size=16 << 10, fault_plan=FaultPlan(
        node_events=(NodeEvent(time=4_000.0, node="gw"),)))
    vch = s.virtual_channel([
        s.channel("myrinet", ["m0", "gw"]),
        s.channel("sci_tinypool", ["gw", "s0"]),
    ], gateway_params=GatewayParams(pipeline=PipelineConfig(depth=4),
                                    stall_timeout=5_000.0))

    def sender():
        m = vch.endpoint(0).begin_packing(2)
        yield m.pack(payload(300_000))
        yield m.end_packing()

    s.spawn(sender())
    s.run()
    (start,) = w.trace.query("gateway", "message_start")
    (end,) = w.trace.query("gateway", "message_abandoned")
    assert not w.trace.query("gateway", "message_end")
    assert (end.attrs["gw"], end.attrs["msg"]) == (start.attrs["gw"],
                                                   start.attrs["msg"])
    assert end.attrs["where"] == "crash"
    assert end.t >= 4_000.0 > start.t
    (forward,) = [e for e in to_chrome_trace(w.trace)
                  if e["name"] == "forward"]
    assert forward["args"]["ok"] is False
    assert (forward["ts"], forward["ts"] + forward["dur"]) == (start.t, end.t)


def test_zero_length_pack_roundtrip():
    w = build_world({"a": ["myrinet"], "b": ["myrinet"]})
    s = Session(w)
    ch = s.channel("myrinet", ["a", "b"])
    done = {}

    def snd():
        m = ch.endpoint(0).begin_packing(1)
        yield m.pack(payload(0))
        yield m.pack(payload(100))
        yield m.end_packing()

    def rcv():
        inc = yield ch.endpoint(1).begin_unpacking()
        _e1, b1 = inc.unpack(0)
        _e2, b2 = inc.unpack(100)
        yield inc.end_unpacking()
        done["ok"] = len(b1) == 0 and b2.tobytes() == payload(100).tobytes()

    s.spawn(snd()); s.spawn(rcv()); s.run()
    assert done["ok"]


def test_zero_length_pack_through_gateway():
    w = build_world({"m0": ["myrinet"], "gw": ["myrinet", "sci"],
                     "s0": ["sci"]})
    s = Session(w)
    vch = s.virtual_channel([
        s.channel("myrinet", ["m0", "gw"]),
        s.channel("sci", ["gw", "s0"]),
    ])
    done = {}

    def snd():
        m = vch.endpoint(0).begin_packing(2)
        yield m.pack(payload(0))
        yield m.end_packing()

    def rcv():
        inc = yield vch.endpoint(2).begin_unpacking()
        _ev, b = inc.unpack(0)
        yield inc.end_unpacking()
        done["n"] = len(b)

    s.spawn(snd()); s.spawn(rcv()); s.run()
    assert done["n"] == 0


def test_two_virtual_channels_coexist():
    """Two vchannels over the same adapters: independent worlds of traffic,
    each with its own gateway workers."""
    w = build_world({"m0": ["myrinet"], "gw": ["myrinet", "sci"],
                     "s0": ["sci"]})
    s = Session(w, packet_size=16 << 10)

    def make_vch():
        return s.virtual_channel([
            s.channel("myrinet", ["m0", "gw"]),
            s.channel("sci", ["gw", "s0"]),
        ])

    vch1, vch2 = make_vch(), make_vch()
    d1, d2 = payload(50_000, 1), payload(70_000, 2)
    got = {}

    def snd(vch, data):
        def proc():
            m = vch.endpoint(0).begin_packing(2)
            yield m.pack(data)
            yield m.end_packing()
        return proc

    def rcv(vch, key, n):
        def proc():
            inc = yield vch.endpoint(2).begin_unpacking()
            _ev, b = inc.unpack(n)
            yield inc.end_unpacking()
            got[key] = b.tobytes()
        return proc

    s.spawn(snd(vch1, d1)()); s.spawn(snd(vch2, d2)())
    s.spawn(rcv(vch1, "v1", len(d1))()); s.spawn(rcv(vch2, "v2", len(d2))())
    s.run()
    assert got["v1"] == d1.tobytes()
    assert got["v2"] == d2.tobytes()
    assert sum(wk.messages_forwarded for wk in vch1.workers) == 1
    assert sum(wk.messages_forwarded for wk in vch2.workers) == 1


def test_packet_size_below_1kb_rejected():
    w = build_world({"m0": ["myrinet"], "gw": ["myrinet", "sci"],
                     "s0": ["sci"]})
    s = Session(w, packet_size=512)
    vch = s.virtual_channel([
        s.channel("myrinet", ["m0", "gw"]),
        s.channel("sci", ["gw", "s0"]),
    ])
    with pytest.raises(ValueError):
        vch.endpoint(0).begin_packing(2)


def test_unpack_argument_validation():
    w = build_world({"a": ["myrinet"], "b": ["myrinet"]})
    s = Session(w)
    ch = s.channel("myrinet", ["a", "b"])
    errors = {}

    def snd():
        m = ch.endpoint(0).begin_packing(1)
        yield m.pack(payload(10))
        yield m.end_packing()

    def rcv():
        inc = yield ch.endpoint(1).begin_unpacking()
        with pytest.raises(ValueError):
            inc.unpack()             # neither nbytes nor buffer
        from repro.memory import Buffer
        with pytest.raises(ValueError):
            inc.unpack(5, into=Buffer.alloc(10))   # contradictory
        _ev, _b = inc.unpack(10)
        yield inc.end_unpacking()
        errors["done"] = True

    s.spawn(snd()); s.spawn(rcv()); s.run()
    assert errors["done"]
