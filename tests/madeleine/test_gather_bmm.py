"""Scatter/gather aggregation BMM (§2.1.1)."""


from repro.hw import build_world, register_protocol, scaled, MYRINET, PROTOCOLS
from repro.madeleine import (RECV_CHEAPER, RECV_EXPRESS, SEND_CHEAPER,
                             SEND_LATER, SEND_SAFER, Session)
from tests.conftest import payload

if "myrinet_nogather" not in PROTOCOLS:
    register_protocol(scaled(MYRINET, name="myrinet_nogather", gather=False))
if "myrinet_tiny_mtu" not in PROTOCOLS:
    register_protocol(scaled(MYRINET, name="myrinet_tiny_mtu", max_mtu=1 << 10))


def make_pair(proto="myrinet"):
    w = build_world({"a": [proto], "b": [proto]})
    s = Session(w)
    ch = s.channel(proto, ["a", "b"])
    return w, s, ch


def roundtrip(w, s, ch, parts, modes=None):
    modes = modes or [(SEND_CHEAPER, RECV_CHEAPER)] * len(parts)
    got = {}

    def snd():
        m = ch.endpoint(0).begin_packing(1)
        for p, (sm, rm) in zip(parts, modes):
            yield m.pack(p, sm, rm)
        yield m.end_packing()

    def rcv():
        inc = yield ch.endpoint(1).begin_unpacking()
        bufs = []
        for p, (sm, rm) in zip(parts, modes):
            _ev, b = inc.unpack(len(p), sm, rm)
            bufs.append(b)
        yield inc.end_unpacking()
        got["parts"] = [b.tobytes() for b in bufs]

    s.spawn(snd()); s.spawn(rcv()); s.run()
    assert got["parts"] == [p.tobytes() for p in parts]
    return got


def body_fragments(w):
    return [r for r in w.trace.query(category="xfer", event="fragment")
            if r["kind"] == "frag"]


def test_small_buffers_coalesce_into_one_fragment():
    w, s, ch = make_pair()
    w.trace.enable()
    parts = [payload(100, seed=i) for i in range(20)]
    roundtrip(w, s, ch, parts)
    frags = body_fragments(w)
    assert len(frags) == 1
    assert frags[0]["nbytes"] == 2000


def test_gather_is_zero_copy():
    w, s, ch = make_pair()
    parts = [payload(500, seed=i) for i in range(10)]
    roundtrip(w, s, ch, parts)
    assert w.accounting.copies == 0


def test_express_closes_group():
    w, s, ch = make_pair()
    w.trace.enable()
    parts = [payload(100, 1), payload(100, 2), payload(100, 3)]
    modes = [(SEND_CHEAPER, RECV_CHEAPER),
             (SEND_CHEAPER, RECV_EXPRESS),     # boundary after this one
             (SEND_CHEAPER, RECV_CHEAPER)]
    roundtrip(w, s, ch, parts, modes)
    frags = body_fragments(w)
    assert [f["nbytes"] for f in frags] == [200, 100]


def test_group_splits_at_mtu():
    w, s, ch = make_pair("myrinet_tiny_mtu")
    w.trace.enable()
    parts = [payload(400, seed=i) for i in range(5)]   # 2000B over 1KB MTU
    roundtrip(w, s, ch, parts)
    frags = body_fragments(w)
    assert [f["nbytes"] for f in frags] == [800, 800, 400]


def test_large_buffer_bypasses_group():
    w, s, ch = make_pair()
    w.trace.enable()
    big = payload(MYRINET.max_mtu + 10, seed=7)
    parts = [payload(100, 1), big, payload(100, 2)]
    roundtrip(w, s, ch, parts)
    frags = body_fragments(w)
    sizes = [f["nbytes"] for f in frags]
    # group [100] flushed by the big buffer, big split into mtu + 10,
    # trailing 100 grouped alone at the end
    assert sizes == [100, MYRINET.max_mtu, 10, 100]


def test_safer_member_still_shadowed():
    w, s, ch = make_pair()
    data = payload(300)
    original = data.tobytes()
    got = {}

    def snd():
        m = ch.endpoint(0).begin_packing(1)
        ev = m.pack(data, SEND_SAFER, RECV_CHEAPER)
        yield ev
        data[:] = 0
        yield m.end_packing()

    def rcv():
        inc = yield ch.endpoint(1).begin_unpacking()
        _ev, b = inc.unpack(300, SEND_SAFER, RECV_CHEAPER)
        yield inc.end_unpacking()
        got["b"] = b.tobytes()

    s.spawn(snd()); s.spawn(rcv()); s.run()
    assert got["b"] == original
    assert w.accounting.by_label()["bmm.safer"] == (1, 300)


def test_later_members_grouped_at_end():
    w, s, ch = make_pair()
    w.trace.enable()
    parts = [payload(100, 1), payload(100, 2), payload(100, 3)]
    modes = [(SEND_CHEAPER, RECV_CHEAPER),
             (SEND_LATER, RECV_CHEAPER),
             (SEND_CHEAPER, RECV_CHEAPER)]
    roundtrip(w, s, ch, parts, modes)
    frags = body_fragments(w)
    # the LATER member is emitted at end_packing, where the group of the
    # two eager members is still open: all three share one fragment (both
    # sides replay the same decision, so the mirror stays consistent)
    assert [f["nbytes"] for f in frags] == [300]


def test_gather_faster_than_eager_for_many_small_buffers():
    parts = [payload(256, seed=i) for i in range(32)]

    def run(proto):
        w, s, ch = make_pair(proto)
        t = {}

        def snd():
            m = ch.endpoint(0).begin_packing(1)
            for p in parts:
                yield m.pack(p)
            yield m.end_packing()

        def rcv():
            inc = yield ch.endpoint(1).begin_unpacking()
            for p in parts:
                inc.unpack(len(p))
            yield inc.end_unpacking()
            t["t"] = s.now

        s.spawn(snd()); s.spawn(rcv()); s.run()
        return t["t"]

    t_gather = run("myrinet")
    t_eager = run("myrinet_nogather")
    assert t_gather < t_eager / 4     # 1 fragment instead of 32


def test_mixed_express_sizes_roundtrip():
    w, s, ch = make_pair()
    parts = [payload(n, seed=n) for n in (1, 999, 4096, 3, 70000)]
    modes = [(SEND_CHEAPER, RECV_EXPRESS)] * len(parts)
    roundtrip(w, s, ch, parts, modes)


from hypothesis import given, settings, strategies as st
from repro.madeleine import RecvMode, SendMode


@given(
    sizes=st.lists(st.integers(1, 3000), min_size=1, max_size=20),
    data=st.data(),
)
@settings(max_examples=40, deadline=None)
def test_gather_mirror_property(sizes, data):
    """Random pack sequences with random flags on a tiny-MTU gather
    protocol: the receiver's replay of the grouping decisions must always
    line up with the sender's (stressing group boundaries hard)."""
    modes = []
    for _ in sizes:
        sm = data.draw(st.sampled_from(list(SendMode)))
        rm = data.draw(st.sampled_from(
            [RecvMode.CHEAPER] if sm == SendMode.LATER else list(RecvMode)))
        modes.append((sm, rm))
    w, s, ch = make_pair("myrinet_tiny_mtu")
    parts = [payload(n, seed=n) for n in sizes]
    roundtrip(w, s, ch, parts, modes)


# -- the grouping decision, on its own -------------------------------------------
from types import SimpleNamespace
from unittest import mock

from repro.madeleine import bmm
from repro.memory import Buffer
from repro.sim import Simulator


class _Wire:
    """Stands in for the message on either end: records every payload the
    BMM would send (or post a slot for) instead of touching a fabric."""

    aborted = False

    def __init__(self, mtu, gather):
        self.tm = SimpleNamespace(
            protocol=SimpleNamespace(max_mtu=mtu, gather=gather))
        self.sim = Simulator()
        self.payloads = []

    def _record(self, payload, *_kind):
        self.payloads.append(payload)
        return self.sim.event()

    _send = _post = _record

    def _wait(self, ev):
        return (yield ev)


def _sizes(payload):
    """A wire fragment as the byte counts of its gather elements."""
    return ([len(b) for b in payload] if isinstance(payload, list)
            else [len(payload)])


@given(buffers=st.lists(st.tuples(st.integers(0, 3000), st.booleans()),
                        max_size=24),
       mtu=st.sampled_from([1, 64, 1000, 1024]), gather=st.booleans())
@settings(max_examples=200, deadline=None)
def test_grouping_property(buffers, mtu, gather):
    """One function decides the gather groups on both ends: the groups tile
    the buffer list in order, none exceeds the MTU, a buffer of at least
    one MTU is solo (split into <= MTU pieces), EXPRESS closes its group —
    and the receiver's slots are the sender's fragments because both come
    out of the same calls."""
    calls = []
    real = bmm.grouping

    def spy(*args):
        calls.append(args)
        return real(*args)

    with mock.patch.object(bmm, "grouping", spy):
        tx, rx = _Wire(mtu, gather), _Wire(mtu, gather)
        sender = bmm.GatherDynamicBMM(tx)
        receiver = bmm.GatherDynamicBMMRx(rx)
        bufs = [Buffer.alloc(n) for n, _express in buffers]
        modes = [RecvMode.EXPRESS if express else RecvMode.CHEAPER
                 for _n, express in buffers]
        closed_by = []      # fragments on the wire after each pack
        for buf, rmode in zip(bufs, modes):
            list(sender.emit(buf, rmode))
            closed_by.append(len(tx.payloads))
            list(receiver.consume(buf, rmode))
        list(sender.flush())
        list(receiver.finish())

    frags = [_sizes(p) for p in tx.payloads]
    assert frags == [_sizes(p) for p in rx.payloads]
    assert calls[0::2] == calls[1::2] and len(calls) == 2 * len(buffers)
    # tiling: concatenated, the fragments are the buffer list in order,
    # zero-length solo buffers (no fragment at all) aside
    flat = [n for frag in frags for n in frag]
    solo = [not gather or n >= mtu for n, _e in buffers]
    want = []
    for (n, _e), alone in zip(buffers, solo):
        want += ([min(mtu, n - off) for off in range(0, n, mtu)] if alone
                 else [n])
    assert flat == want
    assert all(sum(frag) <= mtu for frag in frags)
    # solo buffers share a fragment with nobody
    assert all(len(frag) == 1 for frag in frags
               if any(n >= mtu for n in frag))
    if not gather:
        assert all(len(frag) == 1 for frag in frags)
    # EXPRESS: everything packed so far is on the wire when its pack returns
    sent_bytes = 0
    for (n, express), upto in zip(buffers, closed_by):
        sent_bytes += n
        if express:
            assert sum(map(sum, frags[:upto])) == sent_bytes
