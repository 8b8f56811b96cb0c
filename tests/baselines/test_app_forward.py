"""Tests for the application-level store-and-forward baseline."""

import pytest

from repro.baselines import AppLevelForwarder, app_recv, app_send
from repro.hw import build_world
from repro.madeleine import Session
from repro.routing import RouteTable
from tests.conftest import payload, transfer_once


def setup_chain():
    w = build_world({"m0": ["myrinet"], "gw": ["myrinet", "sci"],
                     "s0": ["sci"]})
    s = Session(w)
    myri = s.channel("myrinet", ["m0", "gw"])
    sci = s.channel("sci", ["gw", "s0"])
    fwd = AppLevelForwarder([myri, sci], gw_rank=1)
    rt = RouteTable([myri, sci])
    return w, s, myri, sci, fwd, rt


def test_relay_delivers_payload():
    w, s, myri, sci, fwd, rt = setup_chain()
    data = payload(100_000)
    got = {}

    def snd():
        yield app_send(rt, 0, 2, data)

    def rcv():
        buf = yield from app_recv(sci, 2)
        got["data"] = buf.tobytes()

    s.spawn(snd()); s.spawn(rcv()); s.run(until=10_000_000)
    assert got["data"] == data.tobytes()
    assert fwd.messages_forwarded == 1


def test_relay_charges_a_copy():
    w, s, myri, sci, fwd, rt = setup_chain()
    data = payload(50_000)

    def snd():
        yield app_send(rt, 0, 2, data)

    def rcv():
        yield from app_recv(sci, 2)

    s.spawn(snd()); s.spawn(rcv()); s.run(until=10_000_000)
    by = w.accounting.by_label()
    assert by["baseline.app_copy"][1] == 50_000


def test_relay_slower_than_gtm_forwarding():
    """The §2.2.2 argument: app-level forwarding loses to the integrated
    mechanism (no pipelining + extra copies)."""
    data = payload(1_000_000)
    # baseline
    w, s, myri, sci, fwd, rt = setup_chain()
    t_app = {}

    def snd():
        yield app_send(rt, 0, 2, data)

    def rcv():
        yield from app_recv(sci, 2)
        t_app["t"] = s.now

    s.spawn(snd()); s.spawn(rcv()); s.run(until=10_000_000)

    # integrated GTM forwarding, same topology and packet granularity
    w2 = build_world({"m0": ["myrinet"], "gw": ["myrinet", "sci"],
                      "s0": ["sci"]})
    s2 = Session(w2, packet_size=64 << 10)
    vch = s2.virtual_channel([
        s2.channel("myrinet", ["m0", "gw"]),
        s2.channel("sci", ["gw", "s0"]),
    ])
    t_gtm = transfer_once(s2, vch, 0, 2, data)["t"]
    assert t_gtm < t_app["t"] * 0.75, (t_gtm, t_app["t"])


def test_wrong_destination_detected():
    w, s, myri, sci, fwd, rt = setup_chain()

    def snd():
        yield app_send(rt, 0, 2, payload(100))

    def rcv_wrong():
        # gw relays to rank 2 on the sci channel; receiving at rank 1's own
        # app with the 2-addressed envelope must raise.
        yield from app_recv(sci, 2)

    captured = []

    def rcv_bad_claim():
        try:
            yield from app_recv(myri, 0)
        except RuntimeError as exc:
            captured.append(str(exc))

    s.spawn(snd()); s.spawn(rcv_wrong())
    s.run(until=10_000_000)


def test_forwarder_needs_two_channels():
    w = build_world({"a": ["myrinet"], "b": ["myrinet"]})
    s = Session(w)
    ch = s.channel("myrinet", ["a", "b"])
    with pytest.raises(ValueError):
        AppLevelForwarder([ch], gw_rank=0)
