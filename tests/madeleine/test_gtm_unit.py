"""Unit-level tests of the Generic Transmission Module behaviour."""

import pytest
from hypothesis import given, strategies as st

from repro.hw import build_world
from repro.madeleine import (DESC_BYTES, GTMOutgoing, RecvMode, SendMode,
                             Session, TransportPolicy)
from repro.madeleine.bmm import split_fragments
from repro.madeleine.gtm import wire_items
from tests.conftest import payload, transfer_once


def paper_vch(packet_size=16 << 10, **vch_kwargs):
    w = build_world({"m0": ["myrinet"], "gw": ["myrinet", "sci"],
                     "s0": ["sci"]})
    s = Session(w)
    vch = s.virtual_channel([
        s.channel("myrinet", ["m0", "gw"]),
        s.channel("sci", ["gw", "s0"]),
    ], packet_size=packet_size, **vch_kwargs)
    return w, s, vch


# -- split_fragments -----------------------------------------------------------

def test_split_exact_multiple():
    assert split_fragments(32768, 16384) == [(0, 16384), (16384, 16384)]


def test_split_with_tail():
    assert split_fragments(20000, 16384) == [(0, 16384), (16384, 3616)]


def test_split_smaller_than_mtu():
    assert split_fragments(5, 16384) == [(0, 5)]


def test_split_empty():
    assert split_fragments(0, 16384) == []


def test_split_bad_mtu():
    with pytest.raises(ValueError):
        split_fragments(10, 0)


@pytest.mark.parametrize("length,mtu", [(1, 1), (1000, 7), (16384, 1024),
                                        (99999, 4096)])
def test_split_covers_everything(length, mtu):
    pieces = split_fragments(length, mtu)
    assert sum(size for _off, size in pieces) == length
    assert all(size <= mtu for _off, size in pieces)
    pos = 0
    for off, size in pieces:
        assert off == pos
        pos += size



# -- wire_items: the plan both ends execute -------------------------------------

@given(length=st.integers(0, 300_000),
       mtu=st.sampled_from([1 << 10, 8 << 10, 16 << 10, 64 << 10]),
       batched=st.booleans())
def test_wire_items_tile_the_buffer_in_order(length, mtu, batched):
    items = wire_items(length, mtu, batched)
    # the first item, and only it, carries the 16-byte descriptor
    assert [hdr for _k, hdr, _o, _n in items] \
        == [DESC_BYTES] + [0] * (len(items) - 1)
    # payloads tile [0, length) in order, every item fits one MTU
    end = 0
    for kind, hdr, off, size in items:
        assert off == end and size >= 0 and hdr + size <= mtu
        end = off + size
    assert end == length
    assert [k for k, *_ in items[1:]] == ["frag"] * (len(items) - 1)
    assert all(size > 0 for _k, _h, _o, size in items[1:])
    if not batched:
        assert items[0] == ("desc", DESC_BYTES, 0, 0)
        assert [(off, size) for _k, _h, off, size in items[1:]] \
            == split_fragments(length, mtu)
    else:
        assert items[0] == ("gtmh", DESC_BYTES, 0,
                            min(length, mtu - DESC_BYTES))
    if length == 0:
        assert len(items) == 1    # the header item alone

# -- GTM wire behaviour ------------------------------------------------------------

def test_gtm_requires_multi_hop_route():
    _w, _s, vch = paper_vch()
    with pytest.raises(ValueError):
        GTMOutgoing(vch, 0, 1)     # direct neighbours


def test_fragments_respect_mtu_on_wire():
    w, s, vch = paper_vch(packet_size=8 << 10)
    transfer_once(s, vch, 0, 2, payload(50_000))
    frags = [r for r in w.trace.query(category="xfer", event="fragment")
             if r["kind"] == "frag"]
    assert frags
    assert all(r["nbytes"] <= 8 << 10 for r in frags)
    # 50_000 = 6*8192 + 848; sent twice (both hops)
    sizes = sorted(r["nbytes"] for r in frags)
    assert sizes.count(848) == 2
    assert sizes.count(8192) == 12


def test_descriptor_stream_structure():
    """Per §2.3: per buffer one descriptor then its fragments, then an empty
    terminating descriptor."""
    w, s, vch = paper_vch(packet_size=16 << 10)
    parts = [payload(10_000, 1), payload(20_000, 2)]
    got = {}

    def snd():
        m = vch.endpoint(0).begin_packing(2)
        for p in parts:
            yield m.pack(p)
        yield m.end_packing()

    def rcv():
        inc = yield vch.endpoint(2).begin_unpacking()
        for p in parts:
            inc.unpack(len(p))
        yield inc.end_unpacking()
        got["done"] = True

    s.spawn(snd()); s.spawn(rcv()); s.run()
    assert got["done"]
    # first hop: announce, then desc, frag, desc, frag, frag, desc(end)
    first_hop = [r for r in w.trace.query(category="xfer", event="fragment")
                 if "!fwd" in r["tag"]]
    kinds = [r["kind"] for r in first_hop]
    assert kinds == ["announce", "desc", "frag", "desc", "frag", "frag",
                     "desc"]
    assert first_hop[-1]["nbytes"] == 16   # the empty terminator record


def test_gtm_safer_copy_counted_on_dynamic_origin():
    w, s, vch = paper_vch()
    data = payload(5_000)
    out = {}

    def snd():
        m = vch.endpoint(0).begin_packing(2)   # origin on Myrinet (dynamic)
        ev = m.pack(data, SendMode.SAFER, RecvMode.CHEAPER)
        yield ev
        data[:] = 0
        yield m.end_packing()

    def rcv():
        inc = yield vch.endpoint(2).begin_unpacking()
        _ev, b = inc.unpack(5_000, SendMode.SAFER, RecvMode.CHEAPER)
        yield inc.end_unpacking()
        out["bytes"] = b.tobytes()

    s.spawn(snd()); s.spawn(rcv()); s.run()
    assert out["bytes"] != bytes(5000)        # original data, not zeros
    assert "gtm.safer" in w.accounting.by_label()


def test_gtm_later_deferred_to_end():
    w, s, vch = paper_vch()
    d1, d2 = payload(3_000, 1), payload(4_000, 2)
    got = {}

    def snd():
        m = vch.endpoint(0).begin_packing(2)
        yield m.pack(d1, SendMode.LATER, RecvMode.CHEAPER)
        yield m.pack(d2, SendMode.CHEAPER, RecvMode.CHEAPER)
        yield m.end_packing()

    def rcv():
        inc = yield vch.endpoint(2).begin_unpacking()
        _e1, b1 = inc.unpack(3_000, SendMode.LATER, RecvMode.CHEAPER)
        _e2, b2 = inc.unpack(4_000, SendMode.CHEAPER, RecvMode.CHEAPER)
        yield inc.end_unpacking()
        got["ok"] = (b1.tobytes() == d1.tobytes()
                     and b2.tobytes() == d2.tobytes())

    s.spawn(snd()); s.spawn(rcv()); s.run()
    assert got["ok"]
    # LATER data travels after eager data: the 4000-buffer's descriptor
    # precedes the 3000-buffer's on the wire.
    descs = [r for r in w.trace.query(category="xfer", event="fragment")
             if r["kind"] == "frag" and "!fwd" in r["tag"]]
    assert descs[0]["nbytes"] == 4_000
    assert descs[1]["nbytes"] == 3_000


def test_non_gtm_announce_on_special_channel_is_error():
    """Failure injection: a regular announce must never reach a forwarding
    worker; if it does, the worker crashes loudly."""
    w, s, vch = paper_vch()
    myri_special = vch.special_twin(vch.channels[0])

    def bad_sender():
        # Bypass the vchannel and push a REGULAR message onto the special
        # channel the gateway worker listens on.
        msg = myri_special.endpoint(0).begin_packing(1)
        yield msg.pack(payload(100))
        yield msg.end_packing()

    s.spawn(bad_sender())
    with pytest.raises(Exception) as excinfo:
        s.run()
    assert "GatewayError" in repr(excinfo.value) or "non-GTM" in str(excinfo.value) \
        or "crashed" in str(excinfo.value)


def test_gtm_mtu_encoded_in_announce():
    _w, _s, vch = paper_vch(packet_size=32 << 10)
    msg = vch.endpoint(0).begin_packing(2)
    assert msg.mtu == 32 << 10



# -- eager + SAFER (two defects fixed with the one send path) ---------------------

def _safer_eager_roundtrip(src, dst, sizes):
    """Pack ``sizes`` SAFER with eager on, overwriting each buffer as soon
    as its pack completes; returns (world, sent bytes, received bytes)."""
    w, s, vch = paper_vch(transport_policy=TransportPolicy(
        eager_threshold=4096, gateway_balance=False))
    bufs = [payload(n, seed=n) for n in sizes]
    want = [b.tobytes() for b in bufs]
    got = {}

    def snd():
        m = vch.endpoint(src).begin_packing(dst)
        for b in bufs:
            yield m.pack(b, SendMode.SAFER)
            b[:] = 0
        yield m.end_packing()

    def rcv():
        inc = yield vch.endpoint(dst).begin_unpacking()
        out = [inc.unpack(n, SendMode.SAFER)[1] for n in sizes]
        yield inc.end_unpacking()
        got["bytes"] = [b.tobytes() for b in out]

    s.spawn(snd()); s.spawn(rcv()); s.run()
    return w, want, got["bytes"]


@pytest.mark.parametrize("sizes", [(1000,), (3000, 3000)],
                         ids=["eager", "replayed"])
def test_safer_eager_candidate_is_shadowed_on_static_origin(sizes):
    """An SCI origin stages nothing before end_packing while the message is
    an eager candidate, so SAFER must shadow there too: the receiver gets
    the bytes packed, not the caller's overwrite."""
    _w, want, got = _safer_eager_roundtrip(2, 0, sizes)    # SCI -> Myrinet
    assert got == want


def test_safer_replay_shadows_once():
    """Two 3000 B SAFER packs overflow the 4096 B eager budget and are
    replayed as rendezvous: 6000 B of data is shadowed once, not twice."""
    w, want, got = _safer_eager_roundtrip(0, 2, (3000, 3000))
    assert got == want
    assert w.accounting.by_label()["gtm.safer"] == (2, 6000)
