"""Virtual channels: transparency, routing dispatch, special twins."""

import pytest

from repro.hw import build_world
from repro.madeleine import (GTMOutgoing, OutgoingMessage, Session,
                             VirtualChannel)
from tests.conftest import payload, transfer_once


def paper_vch(packet_size=16 << 10):
    w = build_world({"m0": ["myrinet"], "gw": ["myrinet", "sci"],
                     "s0": ["sci"]})
    s = Session(w, packet_size=packet_size)
    myri = s.channel("myrinet", ["m0", "gw"])
    sci = s.channel("sci", ["gw", "s0"])
    vch = s.virtual_channel([myri, sci])
    return w, s, myri, sci, vch


def test_members_and_gateways():
    _w, _s, _m, _sc, vch = paper_vch()
    assert vch.members == [0, 1, 2]
    assert vch.gateways == [1]
    assert len(vch.workers) == 2     # one per special channel at the gateway


def test_special_twins_created():
    _w, _s, myri, sci, vch = paper_vch()
    assert vch.special_twin(myri).special
    assert vch.special_twin(myri).protocol.name == "myrinet"
    assert vch.special_twin(sci).members == sci.members


def test_direct_send_uses_regular_message():
    _w, _s, _m, _sc, vch = paper_vch()
    msg = vch.endpoint(0).begin_packing(1)
    assert isinstance(msg, OutgoingMessage)


def test_forwarded_send_uses_gtm():
    _w, _s, _m, _sc, vch = paper_vch()
    msg = vch.endpoint(0).begin_packing(2)
    assert isinstance(msg, GTMOutgoing)
    assert msg.mtu == 16 << 10


def test_transparent_forwarding_end_to_end():
    w, s, _m, _sc, vch = paper_vch()
    data = payload(200_000)
    out = transfer_once(s, vch, src=2, dst=0, data=data)
    assert out["buf"].tobytes() == data.tobytes()
    assert out["origin"] == 2


def test_direct_message_on_vchannel_end_to_end():
    w, s, _m, _sc, vch = paper_vch()
    data = payload(50_000)
    out = transfer_once(s, vch, src=0, dst=1, data=data)
    assert out["buf"].tobytes() == data.tobytes()
    assert out["origin"] == 0


def test_receiver_cannot_tell_forwarded_from_direct():
    """The API surface of the incoming message is identical; only the
    (internal) class differs."""
    w, s, _m, _sc, vch = paper_vch()
    kinds = []

    def snd(src, dst, n):
        def proc():
            m = vch.endpoint(src).begin_packing(dst)
            yield m.pack(payload(n))
            yield m.end_packing()
        return proc

    def rcv(n):
        def proc():
            inc = yield vch.endpoint(1).begin_unpacking()
            kinds.append(type(inc).__name__)
            _ev, b = inc.unpack(n)
            yield inc.end_unpacking()
        return proc

    # gw receives one direct message (from m0) — route length 1.
    s.spawn(snd(0, 1, 1000)())
    s.spawn(rcv(1000)())
    s.run()
    assert kinds == ["IncomingMessage"]


def test_gtm_final_message_arrives_as_gtm_incoming():
    w, s, _m, _sc, vch = paper_vch()
    kinds = []

    def snd():
        m = vch.endpoint(0).begin_packing(2)
        yield m.pack(payload(1000))
        yield m.end_packing()

    def rcv():
        inc = yield vch.endpoint(2).begin_unpacking()
        kinds.append(type(inc).__name__)
        _ev, b = inc.unpack(1000)
        yield inc.end_unpacking()

    s.spawn(snd()); s.spawn(rcv()); s.run()
    assert kinds == ["GTMIncoming"]


def test_forwarded_message_last_hop_on_regular_channel():
    """§2.2.2: once past the last gateway, messages travel on the regular
    channel (so regular nodes poll a single channel)."""
    w, s, myri, sci, vch = paper_vch()
    w.trace.enable()
    data = payload(64_000)
    transfer_once(s, vch, src=2, dst=0, data=data)
    frags = w.trace.query(category="xfer", event="fragment")
    # Hops toward the gateway use the special twin; the final hop must not.
    special_id = vch.special_twin(sci).id
    regular_last_hop = [r for r in frags if f"'{myri.id}'" in r["tag"]]
    special_first_hop = [r for r in frags if f"'{special_id}'" in r["tag"]]
    assert regular_last_hop, "last hop must use the regular channel"
    assert special_first_hop, "first hop must use the special channel"
    fwd_id = vch.special_twin(myri).id
    assert not [r for r in frags if f"'{fwd_id}'" in r["tag"]], \
        "final hop must not use the special twin"


def test_mtu_negotiation_through_sci():
    _w, _s, _m, _sc, vch = paper_vch(packet_size=1 << 20)
    # SCI's 128 KB limit binds.
    assert vch.mtu_for(0, 2) == 128 << 10


def test_endpoint_unknown_rank_rejected():
    _w, _s, _m, _sc, vch = paper_vch()
    with pytest.raises(KeyError):
        vch.endpoint(99)


def test_vchannel_requires_regular_channels():
    w, s, myri, sci, vch = paper_vch()
    with pytest.raises(ValueError):
        VirtualChannel([vch.special_twin(myri)])


def test_vchannel_requires_common_world():
    w1 = build_world({"a": ["myrinet"], "b": ["myrinet"]})
    w2 = build_world({"a": ["myrinet"], "b": ["myrinet"]})
    s1, s2 = Session(w1), Session(w2)
    ch1 = s1.channel("myrinet", ["a", "b"])
    ch2 = s2.channel("myrinet", ["a", "b"])
    with pytest.raises(ValueError):
        VirtualChannel([ch1, ch2])


def test_empty_vchannel_rejected():
    with pytest.raises(ValueError):
        VirtualChannel([])


def test_multi_buffer_gtm_message():
    w, s, _m, _sc, vch = paper_vch()
    parts = [payload(n, seed=n) for n in (100, 40_000, 7, 90_000)]
    got = {}

    def snd():
        m = vch.endpoint(0).begin_packing(2)
        for p in parts:
            yield m.pack(p)
        yield m.end_packing()

    def rcv():
        inc = yield vch.endpoint(2).begin_unpacking()
        bufs = []
        for p in parts:
            _ev, b = inc.unpack(len(p))
            bufs.append(b)
        yield inc.end_unpacking()
        got["parts"] = [b.tobytes() for b in bufs]

    s.spawn(snd()); s.spawn(rcv()); s.run()
    assert got["parts"] == [p.tobytes() for p in parts]


def test_gtm_descriptor_mismatch_detected():
    w, s, _m, _sc, vch = paper_vch()
    failures = []

    def snd():
        m = vch.endpoint(0).begin_packing(2)
        yield m.pack(payload(5000))
        yield m.end_packing()

    def rcv():
        inc = yield vch.endpoint(2).begin_unpacking()
        _ev, _b = inc.unpack(4999)   # descriptor says 5000
        try:
            yield inc.end_unpacking()
        except Exception as exc:
            failures.append(type(exc).__name__)

    s.spawn(snd()); s.spawn(rcv())
    try:
        s.run()
    except Exception as exc:
        failures.append(type(exc).__name__)
    assert failures


def test_gtm_message_to_gateway_itself_is_direct():
    """gw is one hop from everyone: messages TO the gateway never use GTM."""
    _w, _s, _m, _sc, vch = paper_vch()
    assert isinstance(vch.endpoint(2).begin_packing(1), OutgoingMessage)
    assert isinstance(vch.endpoint(0).begin_packing(1), OutgoingMessage)
