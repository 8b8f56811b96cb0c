"""Tests for the PACX-style TCP coupling baseline."""

from repro.baselines import app_recv, app_send, build_pacx_coupling
from repro.hw import build_world
from repro.madeleine import Session
from tests.conftest import payload, transfer_once


def build():
    w = build_world({
        "m0": ["myrinet"],
        "md": ["myrinet", "gigabit_tcp"],   # cluster A daemon
        "sd": ["sci", "gigabit_tcp"],       # cluster B daemon
        "s0": ["sci"],
    })
    s = Session(w)
    pacx = build_pacx_coupling(s, ["m0", "md"], "myrinet",
                               ["s0", "sd"], "sci")
    return w, s, pacx


def test_pacx_routes_via_both_daemons():
    _w, s, pacx = build()
    s0 = s.rank("s0")                 # rank 3 (insertion order)
    route = pacx.routes.route(0, s0)  # m0 -> s0
    ranks = [route[0].src] + [h.dst for h in route]
    assert ranks == [0, 1, 2, 3]      # m0 -> md -> sd -> s0
    assert route[1].channel is pacx.inter


def test_pacx_end_to_end_delivery():
    w, s, pacx = build()
    data = payload(200_000)
    got = {}

    def snd():
        yield app_send(pacx.routes, 0, s.rank("s0"), data)

    def rcv():
        buf = yield from app_recv(pacx.intra_b, s.rank("s0"))
        got["data"] = buf.tobytes()
        got["t"] = s.now

    s.spawn(snd()); s.spawn(rcv()); s.run(until=100_000_000)
    assert got["data"] == data.tobytes()
    assert pacx.relays[0].messages_forwarded == 1
    assert pacx.relays[1].messages_forwarded == 1


def test_pacx_much_slower_than_native_forwarding():
    """The paper's §1 claim: TCP glue cannot exploit gigabit-class
    inter-cluster links; native multi-device forwarding can."""
    data = payload(1_000_000)
    w, s, pacx = build()
    out = {}

    def snd():
        yield app_send(pacx.routes, 0, s.rank("s0"), data)

    def rcv():
        yield from app_recv(pacx.intra_b, s.rank("s0"))
        out["t"] = s.now

    s.spawn(snd()); s.spawn(rcv()); s.run(until=100_000_000)
    bw_pacx = len(data) / out["t"]

    w2 = build_world({"m0": ["myrinet"], "gw": ["myrinet", "sci"],
                      "s0": ["sci"]})
    s2 = Session(w2, packet_size=64 << 10)
    vch = s2.virtual_channel([
        s2.channel("myrinet", ["m0", "gw"]),
        s2.channel("sci", ["gw", "s0"]),
    ])
    bw_native = len(data) / transfer_once(s2, vch, 0, 2, data)["t"]
    assert bw_native > 1.5 * bw_pacx, (bw_native, bw_pacx)
