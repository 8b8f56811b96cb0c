"""Regular (single-network) message path: semantics, ordering, flags."""

import numpy as np
import pytest

from repro.hw import build_world
from repro.madeleine import (RECV_CHEAPER, RECV_EXPRESS, SEND_CHEAPER,
                             SEND_LATER, SEND_SAFER, MessageStateError,
                             Session, UnpackMismatch)
from repro.memory import Buffer
from tests.conftest import payload


def make_pair(proto):
    w = build_world({"a": [proto], "b": [proto]})
    s = Session(w)
    ch = s.channel(proto, ["a", "b"])
    return w, s, ch


@pytest.mark.parametrize("proto", ["myrinet", "sci", "sbp", "fast_ethernet"])
def test_single_buffer_roundtrip(proto):
    w, s, ch = make_pair(proto)
    data = payload(40000)
    got = {}

    def snd():
        m = ch.endpoint(0).begin_packing(1)
        yield m.pack(data)
        yield m.end_packing()

    def rcv():
        inc = yield ch.endpoint(1).begin_unpacking()
        _ev, buf = inc.unpack(40000)
        yield inc.end_unpacking()
        got["data"] = buf.tobytes()
        got["origin"] = inc.origin

    s.spawn(snd()); s.spawn(rcv()); s.run()
    assert got["data"] == data.tobytes()
    assert got["origin"] == 0


@pytest.mark.parametrize("proto", ["myrinet", "sci"])
def test_multi_buffer_message_order_preserved(proto):
    w, s, ch = make_pair(proto)
    parts = [payload(n, seed=n) for n in (17, 4096, 1, 100000, 333)]
    got = {}

    def snd():
        m = ch.endpoint(0).begin_packing(1)
        for p in parts:
            yield m.pack(p)
        yield m.end_packing()

    def rcv():
        inc = yield ch.endpoint(1).begin_unpacking()
        bufs = []
        for p in parts:
            _ev, b = inc.unpack(len(p))
            bufs.append(b)
        yield inc.end_unpacking()
        got["parts"] = [b.tobytes() for b in bufs]

    s.spawn(snd()); s.spawn(rcv()); s.run()
    assert got["parts"] == [p.tobytes() for p in parts]


def test_safer_allows_immediate_buffer_reuse():
    """SEND_SAFER: the library copies at pack time, so mutating the user
    buffer right after pack must not corrupt the message."""
    w, s, ch = make_pair("myrinet")
    data = payload(5000)
    original = data.tobytes()
    got = {}

    def snd():
        m = ch.endpoint(0).begin_packing(1)
        ev = m.pack(data, SEND_SAFER, RECV_CHEAPER)
        yield ev
        data[:] = 0          # clobber after pack returns
        yield m.end_packing()

    def rcv():
        inc = yield ch.endpoint(1).begin_unpacking()
        _ev, b = inc.unpack(5000, SEND_SAFER, RECV_CHEAPER)
        yield inc.end_unpacking()
        got["data"] = b.tobytes()

    s.spawn(snd()); s.spawn(rcv()); s.run()
    assert got["data"] == original


def test_cheaper_zero_copy_on_dynamic_network():
    """SEND_CHEAPER on Myrinet references user memory directly: no copies."""
    w, s, ch = make_pair("myrinet")
    data = payload(100000)
    got = {}

    def snd():
        m = ch.endpoint(0).begin_packing(1)
        yield m.pack(data, SEND_CHEAPER, RECV_CHEAPER)
        yield m.end_packing()

    def rcv():
        inc = yield ch.endpoint(1).begin_unpacking()
        _ev, b = inc.unpack(100000)
        yield inc.end_unpacking()
        got["ok"] = b.tobytes() == data.tobytes()

    s.spawn(snd()); s.spawn(rcv()); s.run()
    assert got["ok"]
    assert w.accounting.copies == 0


def test_later_data_arrives_by_end_unpacking():
    """SEND_LATER data may be modified until end_packing; the bytes on the
    wire must be the buffer's content at end_packing time."""
    w, s, ch = make_pair("myrinet")
    data = payload(3000)
    got = {}

    def snd():
        m = ch.endpoint(0).begin_packing(1)
        ev = m.pack(data, SEND_LATER, RECV_CHEAPER)
        yield ev
        data[:] = 42         # allowed: LATER reads at end_packing
        yield m.end_packing()

    def rcv():
        inc = yield ch.endpoint(1).begin_unpacking()
        _ev, b = inc.unpack(3000, SEND_LATER, RECV_CHEAPER)
        yield inc.end_unpacking()
        got["data"] = b.tobytes()

    s.spawn(snd()); s.spawn(rcv()); s.run()
    assert got["data"] == b"\x2a" * 3000


def test_express_available_at_unpack_return():
    """RECV_EXPRESS data must be readable right after yielding the unpack
    event — the classic 'size header first' idiom."""
    w, s, ch = make_pair("myrinet")
    body = payload(12345)
    header = np.array([len(body)], dtype=np.uint32).view(np.uint8)
    got = {}

    def snd():
        m = ch.endpoint(0).begin_packing(1)
        yield m.pack(header, SEND_CHEAPER, RECV_EXPRESS)
        yield m.pack(body, SEND_CHEAPER, RECV_CHEAPER)
        yield m.end_packing()

    def rcv():
        inc = yield ch.endpoint(1).begin_unpacking()
        ev, h = inc.unpack(4, SEND_CHEAPER, RECV_EXPRESS)
        yield ev
        size = int(h.data.view(np.uint32)[0])     # readable NOW
        _ev2, b = inc.unpack(size, SEND_CHEAPER, RECV_CHEAPER)
        yield inc.end_unpacking()
        got["size"] = size
        got["body"] = b.tobytes()

    s.spawn(snd()); s.spawn(rcv()); s.run()
    assert got["size"] == 12345
    assert got["body"] == body.tobytes()


def test_unpack_into_user_buffer():
    w, s, ch = make_pair("myrinet")
    data = payload(2000)
    target = Buffer.alloc(2000)
    done = {}

    def snd():
        m = ch.endpoint(0).begin_packing(1)
        yield m.pack(data)
        yield m.end_packing()

    def rcv():
        inc = yield ch.endpoint(1).begin_unpacking()
        _ev, b = inc.unpack(into=target)
        yield inc.end_unpacking()
        done["same"] = b is target

    s.spawn(snd()); s.spawn(rcv()); s.run()
    assert done["same"]
    assert target.tobytes() == data.tobytes()


def test_unpack_size_mismatch_detected_dynamic():
    w, s, ch = make_pair("myrinet")
    errors = []

    def snd():
        m = ch.endpoint(0).begin_packing(1)
        yield m.pack(payload(1000))
        yield m.end_packing()

    def rcv():
        inc = yield ch.endpoint(1).begin_unpacking()
        _ev, _b = inc.unpack(500)      # wrong size: protocol violation
        try:
            yield inc.end_unpacking()
        except Exception as exc:
            errors.append(type(exc).__name__)

    s.spawn(snd(), "snd")
    s.spawn(rcv(), "rcv")
    crashed = None
    try:
        s.run()
    except Exception as exc:   # the sender side may surface it first
        crashed = exc
    assert errors or crashed is not None
    if errors:
        assert errors[0] in ("UnpackMismatch", "TransferError")


def test_unpack_size_mismatch_detected_static():
    w, s, ch = make_pair("sci")
    errors = []

    def snd():
        m = ch.endpoint(0).begin_packing(1)
        yield m.pack(payload(1000))
        yield m.end_packing()

    def rcv():
        inc = yield ch.endpoint(1).begin_unpacking()
        _ev, _b = inc.unpack(400)     # short: leftover chunk bytes at end
        try:
            yield inc.end_unpacking()
        except UnpackMismatch:
            errors.append("mismatch")

    s.spawn(snd()); s.spawn(rcv()); s.run()
    assert errors == ["mismatch"]


def test_pack_after_end_rejected():
    w, s, ch = make_pair("myrinet")

    def snd():
        m = ch.endpoint(0).begin_packing(1)
        yield m.pack(payload(10))
        m.end_packing()
        with pytest.raises(MessageStateError):
            m.pack(payload(10))
        yield s.sim.timeout(0)

    def rcv():
        inc = yield ch.endpoint(1).begin_unpacking()
        _ev, _b = inc.unpack(10)
        yield inc.end_unpacking()

    s.spawn(snd()); s.spawn(rcv()); s.run()


def test_pack_to_self_rejected():
    w, s, ch = make_pair("myrinet")
    with pytest.raises(ValueError):
        ch.endpoint(0).begin_packing(0)


def test_pack_to_non_member_rejected():
    w = build_world({"a": ["myrinet"], "b": ["myrinet"], "c": ["myrinet"]})
    s = Session(w)
    ch = s.channel("myrinet", ["a", "b"])
    with pytest.raises(ValueError):
        ch.endpoint(0).begin_packing(2)


def test_two_messages_back_to_back():
    w, s, ch = make_pair("sci")
    d1, d2 = payload(5000, 1), payload(7000, 2)
    got = []

    def snd():
        for d in (d1, d2):
            m = ch.endpoint(0).begin_packing(1)
            yield m.pack(d)
            yield m.end_packing()

    def rcv():
        for d in (d1, d2):
            inc = yield ch.endpoint(1).begin_unpacking()
            _ev, b = inc.unpack(len(d))
            yield inc.end_unpacking()
            got.append(b.tobytes())

    s.spawn(snd()); s.spawn(rcv()); s.run()
    assert got == [d1.tobytes(), d2.tobytes()]


def test_bidirectional_messages_cross():
    w, s, ch = make_pair("myrinet")
    d0, d1 = payload(3000, 3), payload(4000, 4)
    got = {}

    def peer(rank, mine, theirs):
        def proc():
            # end_packing is synchronous ("guarantees the whole message has
            # been transmitted", §2.1.2), so a head-to-head exchange must
            # post its receives before blocking on it.
            m = ch.endpoint(rank).begin_packing(1 - rank)
            m.pack(mine)
            sent = m.end_packing()
            inc = yield ch.endpoint(rank).begin_unpacking()
            _ev, b = inc.unpack(len(theirs))
            yield inc.end_unpacking()
            yield sent
            got[rank] = b.tobytes()
        return proc

    s.spawn(peer(0, d0, d1)())
    s.spawn(peer(1, d1, d0)())
    s.run()
    assert got[0] == d1.tobytes()
    assert got[1] == d0.tobytes()


def test_empty_message():
    w, s, ch = make_pair("myrinet")
    done = {}

    def snd():
        m = ch.endpoint(0).begin_packing(1)
        yield m.end_packing()

    def rcv():
        inc = yield ch.endpoint(1).begin_unpacking()
        yield inc.end_unpacking()
        done["t"] = s.now

    s.spawn(snd()); s.spawn(rcv()); s.run()
    assert "t" in done


def test_sci_chunk_aggregation_copies_accounted():
    """The static BMM copies on both sides; the copy accounting must show
    exactly len(data) bytes in and out."""
    w, s, ch = make_pair("sci")
    data = payload(50000)

    def snd():
        m = ch.endpoint(0).begin_packing(1)
        yield m.pack(data)
        yield m.end_packing()

    def rcv():
        inc = yield ch.endpoint(1).begin_unpacking()
        _ev, _b = inc.unpack(50000)
        yield inc.end_unpacking()

    s.spawn(snd()); s.spawn(rcv()); s.run()
    by = w.accounting.by_label()
    assert by["bmm.chunk_in"][1] == 50000
    assert by["bmm.chunk_out"][1] == 50000


def test_small_buffers_share_sci_chunk():
    """Aggregation: many small packs should produce far fewer wire fragments
    than packs (they share 32 KB chunks)."""
    w, s, ch = make_pair("sci")
    w.trace.enable()
    parts = [payload(100, seed=i) for i in range(50)]

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

    s.spawn(snd()); s.spawn(rcv()); s.run()
    frags = w.trace.query(category="xfer", event="fragment", kind="chunk")
    assert len(frags) == 1      # 5000 bytes << one 32 KB chunk
