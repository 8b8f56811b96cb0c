"""Integration tests: whole cluster-of-clusters configurations."""

import numpy as np

from repro.hw import (ClusterSpec, GatewayLink, build_cluster_of_clusters,
                      build_world)
from repro.madeleine import Session
from tests.conftest import payload, transfer_once


def test_paper_testbed_end_to_end(paper_session):
    session, _myri, _sci, vch = paper_session
    data = payload(500_000)
    out = transfer_once(session, vch, src=2, dst=0, data=data)
    assert out["buf"].tobytes() == data.tobytes()
    bw = len(data) / out["t"]
    assert 20 < bw < 66, f"implausible forwarding bandwidth {bw} MB/s"


def test_two_gateway_chain():
    """myrinet cluster -- sci cluster -- sbp cluster: messages cross two
    gateways; the middle hop stays on the special channel (§2.2.2 mentions
    exactly this multi-gateway disambiguation problem)."""
    w = build_world({
        "a0": ["myrinet"], "gw1": ["myrinet", "sci"],
        "gw2": ["sci", "sbp"], "c0": ["sbp"],
    })
    w.trace.enable()
    s = Session(w, packet_size=8 << 10)
    ch1 = s.channel("myrinet", ["a0", "gw1"])
    ch2 = s.channel("sci", ["gw1", "gw2"])
    ch3 = s.channel("sbp", ["gw2", "c0"])
    vch = s.virtual_channel([ch1, ch2, ch3])
    data = payload(120_000)
    out = transfer_once(s, vch, src=0, dst=3, data=data)
    assert out["buf"].tobytes() == data.tobytes()
    assert out["origin"] == 0
    # both gateways forwarded exactly one message
    fwd = {wk.gw_rank: wk.messages_forwarded for wk in vch.workers
           if wk.messages_forwarded}
    assert fwd == {1: 1, 2: 1}
    # middle hop (gw1 -> gw2) must use the SCI special twin
    special_sci = vch.special_twin(ch2).id
    mids = [r for r in w.trace.query(category="xfer", event="fragment")
            if f"'{special_sci}'" in r["tag"]]
    assert mids


def test_two_gateway_reverse_direction():
    w = build_world({
        "a0": ["myrinet"], "gw1": ["myrinet", "sci"],
        "gw2": ["sci", "sbp"], "c0": ["sbp"],
    })
    s = Session(w, packet_size=8 << 10)
    vch = s.virtual_channel([
        s.channel("myrinet", ["a0", "gw1"]),
        s.channel("sci", ["gw1", "gw2"]),
        s.channel("sbp", ["gw2", "c0"]),
    ])
    data = payload(60_000, seed=9)
    out = transfer_once(s, vch, src=3, dst=0, data=data)
    assert out["buf"].tobytes() == data.tobytes()
    assert out["origin"] == 3


def test_larger_clusters_multiple_flows():
    """Two 3-node clusters; several concurrent forwarded messages between
    distinct pairs must all arrive intact."""
    world, members, gws = build_cluster_of_clusters(
        clusters=[ClusterSpec("m", "myrinet", 3),
                  ClusterSpec("s", "sci", 3)],
        gateways=[GatewayLink("m", "s")],
    )
    s = Session(world, packet_size=16 << 10)
    myri = s.channel("myrinet", members["m"])
    sci = s.channel("sci", members["s"] + gws)
    vch = s.virtual_channel([myri, sci])
    pairs = [("m0", "s0"), ("m1", "s1"), ("s2", "m0")]
    datas = {p: payload(80_000 + 1000 * i, seed=i) for i, p in enumerate(pairs)}
    got = {}

    def make_sender(src, dst, data):
        def proc():
            m = vch.endpoint(s.rank(src)).begin_packing(s.rank(dst))
            yield m.pack(data)
            yield m.end_packing()
        return proc

    def make_receiver(dst, expected):
        def proc():
            inc = yield vch.endpoint(s.rank(dst)).begin_unpacking()
            _ev, b = inc.unpack(len(datas[expected]))
            yield inc.end_unpacking()
            got[expected] = (inc.origin, b.tobytes())
        return proc

    # m0 receives one message (from s2); s0, s1 each receive one.
    for (src, dst) in pairs:
        s.spawn(make_sender(src, dst, datas[(src, dst)])())
    for p in pairs:
        s.spawn(make_receiver(p[1], p)())
    s.run()
    for (src, dst), (origin, data) in got.items():
        assert origin == s.rank(src)
        assert data == datas[(src, dst)].tobytes()


def test_intra_cluster_traffic_does_not_cross_gateway():
    world, members, _gws = build_cluster_of_clusters(
        clusters=[ClusterSpec("m", "myrinet", 3),
                  ClusterSpec("s", "sci", 2)],
        gateways=[GatewayLink("m", "s")],
    )
    s = Session(world)
    myri = s.channel("myrinet", members["m"])
    sci = s.channel("sci", members["s"] + _gws)
    vch = s.virtual_channel([myri, sci])
    data = payload(10_000)
    transfer_once(s, vch, src=s.rank("m0"), dst=s.rank("m1"), data=data)
    assert all(wk.messages_forwarded == 0 for wk in vch.workers)


def test_ping_pong_through_gateway_symmetric_payload():
    """Round trip: request forwarded one way, reply the other."""
    w = build_world({"m0": ["myrinet"], "gw": ["myrinet", "sci"],
                     "s0": ["sci"]})
    s = Session(w, packet_size=16 << 10)
    vch = s.virtual_channel([
        s.channel("myrinet", ["m0", "gw"]),
        s.channel("sci", ["gw", "s0"]),
    ])
    data = payload(100_000)
    times = {}

    def pinger():
        m = vch.endpoint(0).begin_packing(2)
        yield m.pack(data)
        yield m.end_packing()
        inc = yield vch.endpoint(0).begin_unpacking()
        _ev, b = inc.unpack(len(data))
        yield inc.end_unpacking()
        times["rtt"] = s.now
        times["echo_ok"] = b.tobytes() == data.tobytes()

    def ponger():
        inc = yield vch.endpoint(2).begin_unpacking()
        _ev, b = inc.unpack(len(data))
        yield inc.end_unpacking()
        m = vch.endpoint(2).begin_packing(0)
        yield m.pack(b)
        yield m.end_packing()

    s.spawn(pinger()); s.spawn(ponger()); s.run()
    assert times["echo_ok"]
    assert times["rtt"] > 0


def test_fan_in_to_single_receiver():
    """Several origins sending to the same destination through the same
    gateway: messages serialize but all arrive correctly."""
    world, members, gws = build_cluster_of_clusters(
        clusters=[ClusterSpec("m", "myrinet", 3),
                  ClusterSpec("s", "sci", 2)],
        gateways=[GatewayLink("m", "s")],
    )
    s = Session(world, packet_size=16 << 10)
    vch = s.virtual_channel([
        s.channel("myrinet", members["m"]),
        s.channel("sci", members["s"] + gws),
    ])
    srcs = ["m0", "m1"]
    datas = {name: payload(50_000, seed=i) for i, name in enumerate(srcs)}
    got = {}

    def sender(name):
        def proc():
            m = vch.endpoint(s.rank(name)).begin_packing(s.rank("s0"))
            yield m.pack(datas[name])
            yield m.end_packing()
        return proc

    def receiver():
        for _ in srcs:
            inc = yield vch.endpoint(s.rank("s0")).begin_unpacking()
            _ev, b = inc.unpack(50_000)
            yield inc.end_unpacking()
            got[inc.origin] = b.tobytes()

    for name in srcs:
        s.spawn(sender(name)())
    s.spawn(receiver())
    s.run()
    assert got == {s.rank(n): datas[n].tobytes() for n in srcs}


def test_bandwidth_asymmetry_reproduced():
    """System-level check of the paper's headline finding: Myrinet->SCI is
    substantially slower than SCI->Myrinet at large packet sizes (Figures 6
    vs 7), because the gateway's SCI PIO sends are preempted by Myrinet DMA
    receives on the PCI bus."""
    def direction(src, dst):
        w = build_world({"m0": ["myrinet"], "gw": ["myrinet", "sci"],
                         "s0": ["sci"]})
        s = Session(w, packet_size=128 << 10)
        vch = s.virtual_channel([
            s.channel("myrinet", ["m0", "gw"]),
            s.channel("sci", ["gw", "s0"]),
        ])
        data = np.zeros(4_000_000, dtype=np.uint8)
        return 4_000_000 / transfer_once(s, vch, src, dst, data)["t"]

    bw_sci_to_myri = direction(2, 0)
    bw_myri_to_sci = direction(0, 2)
    assert bw_sci_to_myri > bw_myri_to_sci * 1.25
    assert 45 < bw_sci_to_myri < 66
    assert 30 < bw_myri_to_sci < 50
