"""Unit tests for NICs and the rendezvous fabric."""

import numpy as np
import pytest

from repro.hw import (FRAGMENT_HEADER_BYTES, MYRINET, TransferError,
                      build_world)
from repro.memory import Buffer
from tests.conftest import payload


def two_nodes(proto="myrinet"):
    w = build_world({"a": [proto], "b": [proto]})
    return w, w.node("a").nic(proto), w.node("b").nic(proto)


def test_fragment_moves_payload_exactly():
    w, na, nb = two_nodes()
    data = Buffer.wrap(payload(5000))
    dst = Buffer.alloc(5000)
    res = {}

    def snd():
        yield na.send(nb, "t", data)

    def rcv():
        meta, n = yield w.fabric.post_recv(nb, "t", dst)
        res["n"] = n
        res["meta"] = meta

    w.sim.process(snd())
    w.sim.process(rcv())
    w.run()
    assert res["n"] == 5000
    assert (dst.data == data.data).all()


def test_fragment_timing_matches_model():
    w, na, nb = two_nodes()
    data = Buffer.wrap(payload(65536))
    dst = Buffer.alloc(65536)
    res = {}

    def snd():
        yield na.send(nb, "t", data)
        res["tx"] = w.sim.now

    def rcv():
        yield w.fabric.post_recv(nb, "t", dst)
        res["rx"] = w.sim.now

    w.sim.process(snd())
    w.sim.process(rcv())
    w.run()
    p = MYRINET
    expect_tx = (p.tx_overhead + p.latency
                 + (65536 + FRAGMENT_HEADER_BYTES) / p.host_peak)
    assert res["tx"] == pytest.approx(expect_tx)
    assert res["rx"] == pytest.approx(expect_tx + p.rx_overhead)


def test_rendezvous_blocks_sender_until_post():
    w, na, nb = two_nodes()
    data = Buffer.wrap(payload(1000))
    res = {}

    def snd():
        yield na.send(nb, "t", data)
        res["tx"] = w.sim.now

    def rcv():
        yield w.sim.timeout(500)   # receiver late
        yield w.fabric.post_recv(nb, "t", Buffer.alloc(1000))
        res["rx"] = w.sim.now

    w.sim.process(snd())
    w.sim.process(rcv())
    w.run()
    assert res["tx"] > 500   # sender waited for the posted receive


def test_nic_serializes_transfers():
    """Two back-to-back fragments take twice the time of one (single engine)."""
    w, na, nb = two_nodes()
    res = {}

    def snd():
        e1 = na.send(nb, "t", Buffer.wrap(payload(65536, 1)))
        e2 = na.send(nb, "t", Buffer.wrap(payload(65536, 2)))
        yield e1
        res["t1"] = w.sim.now
        yield e2
        res["t2"] = w.sim.now

    def rcv():
        yield w.fabric.post_recv(nb, "t", Buffer.alloc(65536))
        yield w.fabric.post_recv(nb, "t", Buffer.alloc(65536))

    w.sim.process(snd())
    w.sim.process(rcv())
    w.run()
    # back-to-back: the engine serializes; the receiver posts its second
    # slot rx_overhead after the first delivery, hence the small gap
    assert res["t2"] == pytest.approx(2 * res["t1"] + MYRINET.rx_overhead,
                                      rel=1e-6)


def test_in_order_delivery_per_tag():
    w, na, nb = two_nodes()
    seen = []

    def snd():
        for i in range(5):
            yield na.send(nb, "t", Buffer.wrap(np.full(10, i, dtype=np.uint8)))

    def rcv():
        for _ in range(5):
            buf = Buffer.alloc(10)
            yield w.fabric.post_recv(nb, "t", buf)
            seen.append(int(buf.data[0]))

    w.sim.process(snd())
    w.sim.process(rcv())
    w.run()
    assert seen == [0, 1, 2, 3, 4]


def test_tags_are_independent():
    w, na, nb = two_nodes()
    res = {}

    def snd():
        yield na.send(nb, "tag2", Buffer.wrap(np.full(4, 2, dtype=np.uint8)))

    def rcv():
        b1 = Buffer.alloc(4)
        ev1 = w.fabric.post_recv(nb, "tag1", b1)
        b2 = Buffer.alloc(4)
        yield w.fabric.post_recv(nb, "tag2", b2)
        res["got2"] = int(b2.data[0])
        res["ev1_pending"] = not ev1.triggered

    w.sim.process(snd())
    w.sim.process(rcv())
    w.run()
    assert res["got2"] == 2
    assert res["ev1_pending"]


def test_oversized_fragment_fails_both_sides():
    w, na, nb = two_nodes()
    errors = []

    def snd():
        try:
            yield na.send(nb, "t", Buffer.wrap(payload(100)))
        except TransferError as exc:
            errors.append(("tx", str(exc)))

    def rcv():
        try:
            yield w.fabric.post_recv(nb, "t", Buffer.alloc(50))
        except TransferError:
            errors.append(("rx", None))

    w.sim.process(snd())
    w.sim.process(rcv())
    w.run()
    assert {e[0] for e in errors} == {"tx", "rx"}


def test_cross_protocol_send_rejected():
    w = build_world({"a": ["myrinet"], "b": ["sci"]})
    na = w.node("a").nic("myrinet")
    nb = w.node("b").nic("sci")
    with pytest.raises(TransferError):
        na.send(nb, "t", Buffer.alloc(4))


def test_loopback_send_rejected():
    w, na, _nb = two_nodes()
    with pytest.raises(TransferError):
        na.send(na, "t", Buffer.alloc(4))


def test_metadata_only_fragment():
    w, na, nb = two_nodes()
    res = {}

    def snd():
        yield na.send(nb, "t", None, meta={"k": 7}, nbytes=8)

    def rcv():
        meta, n = yield w.fabric.post_recv(nb, "t", None, capacity=8)
        res.update(meta=meta, n=n)

    w.sim.process(snd())
    w.sim.process(rcv())
    w.run()
    assert res["meta"]["k"] == 7 and res["n"] == 8


def test_static_pools_created_per_discipline():
    w = build_world({"a": ["sci", "myrinet"]})
    sci = w.node("a").nic("sci")
    myri = w.node("a").nic("myrinet")
    assert sci.tx_pool is not None and sci.rx_pool is not None
    assert myri.tx_pool is None and myri.rx_pool is None


def test_trace_records_transfers():
    w, na, nb = two_nodes()
    w.trace.enable()

    def snd():
        yield na.send(nb, "t", Buffer.wrap(payload(256)))

    def rcv():
        yield w.fabric.post_recv(nb, "t", Buffer.alloc(256))

    w.sim.process(snd())
    w.sim.process(rcv())
    w.run()
    recs = w.trace.query(category="xfer", event="fragment")
    assert len(recs) == 1
    assert recs[0]["nbytes"] == 256
    assert recs[0]["proto"] == "myrinet"


def test_multiple_adapters_same_protocol():
    w = build_world({"a": ["myrinet", "myrinet"], "b": ["myrinet"]})
    assert w.node("a").nic("myrinet", 0) is not w.node("a").nic("myrinet", 1)
    with pytest.raises(KeyError):
        w.node("a").nic("myrinet", 2)
