"""Point-to-point minimpi semantics over the paper's testbed."""

import numpy as np
import pytest

from repro.hw import build_world
from repro.madeleine import Session
from repro.minimpi import ANY_SOURCE, ANY_TAG, Communicator


def mpi_world():
    w = build_world({"m0": ["myrinet"], "gw": ["myrinet", "sci"],
                     "s0": ["sci"]})
    s = Session(w, packet_size=32 << 10)
    vch = s.virtual_channel([
        s.channel("myrinet", ["m0", "gw"]),
        s.channel("sci", ["gw", "s0"]),
    ])
    comms = {r: Communicator(vch, r) for r in vch.members}
    return w, s, comms


def test_send_recv_basic():
    w, s, comms = mpi_world()
    data = np.arange(1000, dtype=np.uint8)
    got = {}

    def snd():
        yield from comms[0].send(data, dest=2, tag=5)

    def rcv():
        msg = yield from comms[2].recv(source=0, tag=5)
        got["data"] = msg.array().tobytes()
        got["source"] = msg.source
        got["tag"] = msg.tag

    s.spawn(snd()); s.spawn(rcv()); s.run()
    assert got == {"data": data.tobytes(), "source": 0, "tag": 5}


def test_cross_cluster_transparent():
    """ranks 0 (myrinet) and 2 (sci) talk through the gateway without
    knowing it."""
    w, s, comms = mpi_world()
    got = {}

    def snd():
        yield from comms[2].send(np.full(50_000, 7, np.uint8), dest=0)

    def rcv():
        msg = yield from comms[0].recv()
        got["n"] = msg.nbytes
        got["src"] = msg.source

    s.spawn(snd()); s.spawn(rcv()); s.run()
    assert got == {"n": 50_000, "src": 2}


def test_tag_matching_with_unexpected_queue():
    """A message with the wrong tag is parked; the right one is delivered
    first, then the parked one is matched later."""
    w, s, comms = mpi_world()
    order = []

    def snd():
        yield from comms[0].send(np.full(10, 1, np.uint8), dest=1, tag=1)
        yield from comms[0].send(np.full(10, 2, np.uint8), dest=1, tag=2)

    def rcv():
        msg2 = yield from comms[1].recv(tag=2)   # arrives second!
        order.append(msg2.tag)
        msg1 = yield from comms[1].recv(tag=1)   # from the parked queue
        order.append(msg1.tag)

    s.spawn(snd()); s.spawn(rcv()); s.run()
    assert order == [2, 1]


def test_any_source_any_tag():
    w, s, comms = mpi_world()
    seen = []

    def snd(rank, tag):
        def proc():
            yield from comms[rank].send(np.full(4, rank, np.uint8),
                                        dest=1, tag=tag)
        return proc

    def rcv():
        for _ in range(2):
            msg = yield from comms[1].recv(source=ANY_SOURCE, tag=ANY_TAG)
            seen.append((msg.source, msg.tag))

    s.spawn(snd(0, 10)()); s.spawn(snd(2, 20)()); s.spawn(rcv()); s.run()
    assert sorted(seen) == [(0, 10), (2, 20)]


def test_source_filter():
    w, s, comms = mpi_world()
    got = []

    def snd(rank):
        def proc():
            yield from comms[rank].send(np.full(4, rank, np.uint8), dest=1)
        return proc

    def rcv():
        msg = yield from comms[1].recv(source=2)
        got.append(msg.source)
        msg = yield from comms[1].recv(source=0)
        got.append(msg.source)

    s.spawn(snd(0)()); s.spawn(snd(2)()); s.spawn(rcv()); s.run()
    assert got == [2, 0]


def test_sendrecv_head_to_head():
    w, s, comms = mpi_world()
    got = {}

    def peer(me, other):
        def proc():
            msg = yield from comms[me].sendrecv(
                np.full(30_000, me, np.uint8), dest=other, source=other)
            got[me] = int(msg.array()[0])
        return proc

    s.spawn(peer(0, 2)()); s.spawn(peer(2, 0)()); s.run()
    assert got == {0: 2, 2: 0}


def test_empty_message():
    w, s, comms = mpi_world()
    got = {}

    def snd():
        yield from comms[0].send(np.zeros(0, np.uint8), dest=1, tag=3)

    def rcv():
        msg = yield from comms[1].recv(tag=3)
        got["n"] = msg.nbytes

    s.spawn(snd()); s.spawn(rcv()); s.run()
    assert got["n"] == 0


def test_negative_tag_rejected():
    _w, _s, comms = mpi_world()
    with pytest.raises(ValueError):
        comms[0].isend(np.zeros(1, np.uint8), dest=1, tag=-3)


def test_non_member_rank_rejected():
    w, s, comms = mpi_world()
    vch = comms[0].vchannel
    with pytest.raises(ValueError):
        Communicator(vch, 99)


def test_typed_arrays_roundtrip():
    w, s, comms = mpi_world()
    data = np.linspace(0, 1, 500, dtype=np.float64)
    got = {}

    def snd():
        yield from comms[0].send(data, dest=2, tag=9)

    def rcv():
        msg = yield from comms[2].recv(tag=9)
        got["arr"] = msg.array(np.float64)

    s.spawn(snd()); s.spawn(rcv()); s.run()
    assert np.array_equal(got["arr"], data)
