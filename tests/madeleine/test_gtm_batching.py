"""GTM header batching (§2.3): descriptors piggyback on payload fragments.

Opt-in per virtual channel (``header_batching=True``); negotiated through
the announce's batched flag so receivers and gateways need no out-of-band
agreement.  Batching must preserve data integrity in both directions
(static-rx SCI side and dynamic Myrinet side exercise different landing
paths) while strictly reducing — never increasing — the number of wire
records of a forwarded message.
"""

import pytest

from repro.hw import build_world
from repro.madeleine import Session
from tests.conftest import payload, transfer_once


def batched_testbed(header_batching=True, packet_size=16 << 10):
    w = build_world({"m0": ["myrinet"], "gw": ["myrinet", "sci"],
                     "s0": ["sci"]})
    w.trace.enable()
    s = Session(w, packet_size=packet_size)
    myri = s.channel("myrinet", ["m0", "gw"])
    sci = s.channel("sci", ["gw", "s0"])
    vch = s.virtual_channel([myri, sci], header_batching=header_batching)
    return w, s, vch


def wire_records(world):
    return world.trace.query(category="xfer", event="fragment")


@pytest.mark.parametrize("n", [1, 1000, 16368, 16369, 40_000, 200_000])
@pytest.mark.parametrize("src,dst", [(2, 0), (0, 2)],
                         ids=["sci-to-myri", "myri-to-sci"])
def test_batched_transfer_delivers_identical_data(n, src, dst):
    w, s, vch = batched_testbed()
    data = payload(n, seed=n)
    out = transfer_once(s, vch, src=src, dst=dst, data=data)
    assert out["buf"].tobytes() == data.tobytes()
    assert out["origin"] == src


@pytest.mark.parametrize("src,dst", [(2, 0), (0, 2)],
                         ids=["sci-to-myri", "myri-to-sci"])
def test_batching_reduces_wire_records(src, dst):
    data = payload(100_000, seed=3)
    w_plain, s_plain, vch_plain = batched_testbed(header_batching=False)
    transfer_once(s_plain, vch_plain, src=src, dst=dst, data=data)
    w_batch, s_batch, vch_batch = batched_testbed(header_batching=True)
    transfer_once(s_batch, vch_batch, src=src, dst=dst, data=data)
    plain, batched = len(wire_records(w_plain)), len(wire_records(w_batch))
    # One data descriptor per hop is absorbed into a payload record; only
    # the terminator still travels alone.
    assert batched == plain - 2


def test_batching_never_adds_records_at_mtu_straddle():
    # A payload in (mtu - 16, mtu] loses its descriptor record but gains a
    # tail fragment: the counts must then be equal, never worse.
    mtu = 16 << 10
    data = payload(mtu, seed=5)
    w_plain, s_plain, vch_plain = batched_testbed(header_batching=False)
    transfer_once(s_plain, vch_plain, src=2, dst=0, data=data)
    w_batch, s_batch, vch_batch = batched_testbed(header_batching=True)
    transfer_once(s_batch, vch_batch, src=2, dst=0, data=data)
    assert len(wire_records(w_batch)) == len(wire_records(w_plain))


def test_zero_length_buffer_roundtrips_batched():
    w, s, vch = batched_testbed()
    data = payload(0)
    out = transfer_once(s, vch, src=2, dst=0, data=data)
    assert out["buf"].tobytes() == b""


def test_multi_buffer_batched_message():
    w, s, vch = batched_testbed()
    parts = [payload(n, seed=n) for n in (100, 40_000, 0, 7, 90_000)]
    got = {}

    def snd():
        m = vch.endpoint(0).begin_packing(2)
        for p in parts:
            yield m.pack(p)
        yield m.end_packing()

    def rcv():
        inc = yield vch.endpoint(2).begin_unpacking()
        assert inc.batched
        bufs = []
        for p in parts:
            _ev, b = inc.unpack(len(p))
            bufs.append(b)
        yield inc.end_unpacking()
        got["parts"] = [b.tobytes() for b in bufs]

    s.spawn(snd())
    s.spawn(rcv())
    s.run()
    assert got["parts"] == [p.tobytes() for p in parts]


def test_batched_descriptor_mismatch_detected():
    w, s, vch = batched_testbed()
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

    s.spawn(snd())
    s.spawn(rcv())
    try:
        s.run()
    except Exception as exc:
        failures.append(type(exc).__name__)
    assert failures


def test_announce_carries_the_negotiated_flag():
    _w, s, vch = batched_testbed(header_batching=True)
    m = vch.endpoint(0).begin_packing(2)
    assert m.batched
    _w2, s2, vch2 = batched_testbed(header_batching=False)
    m2 = vch2.endpoint(0).begin_packing(2)
    assert not m2.batched
