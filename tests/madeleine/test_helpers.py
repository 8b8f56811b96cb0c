"""Whole-message convenience helpers."""


from repro.hw import build_world
from repro.madeleine import (Session, recv_arrays, recv_message_into,
                             send_arrays)
from repro.memory import Buffer
from tests.conftest import payload


def setup():
    w = build_world({"m0": ["myrinet"], "gw": ["myrinet", "sci"],
                     "s0": ["sci"]})
    s = Session(w, packet_size=16 << 10)
    vch = s.virtual_channel([
        s.channel("myrinet", ["m0", "gw"]),
        s.channel("sci", ["gw", "s0"]),
    ])
    return w, s, vch


def test_send_recv_arrays_roundtrip():
    w, s, vch = setup()
    a, b = payload(1000, 1), payload(30_000, 2)
    got = {}

    def snd():
        yield from send_arrays(vch.endpoint(0), 2, a, b)

    def rcv():
        origin, bufs = yield from recv_arrays(vch.endpoint(2), 1000, 30_000)
        got["origin"] = origin
        got["data"] = [x.tobytes() for x in bufs]

    s.spawn(snd()); s.spawn(rcv()); s.run()
    assert got["origin"] == 0
    assert got["data"] == [a.tobytes(), b.tobytes()]


def test_recv_message_into_user_buffers():
    w, s, vch = setup()
    a = payload(5000)
    target = Buffer.alloc(5000)
    got = {}

    def snd():
        yield from send_arrays(vch.endpoint(2), 0, a)

    def rcv():
        origin = yield from recv_message_into(vch.endpoint(0), target)
        got["origin"] = origin

    s.spawn(snd()); s.spawn(rcv()); s.run()
    assert got["origin"] == 2
    assert target.tobytes() == a.tobytes()


def test_helpers_work_on_plain_channels():
    w = build_world({"a": ["sci"], "b": ["sci"]})
    s = Session(w)
    ch = s.channel("sci", ["a", "b"])
    data = payload(12_345)
    got = {}

    def snd():
        yield from send_arrays(ch.endpoint(0), 1, data)

    def rcv():
        origin, bufs = yield from recv_arrays(ch.endpoint(1), len(data))
        got["ok"] = bufs[0].tobytes() == data.tobytes()

    s.spawn(snd()); s.spawn(rcv()); s.run()
    assert got["ok"]
