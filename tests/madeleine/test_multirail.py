"""Multi-rail routing over parallel gateways (high-level routing built on
the forwarding mechanism, as §1/§4 envisage)."""


from repro.hw import build_world
from repro.madeleine import Session
from tests.conftest import payload


def dual_gateway_world(multirail):
    """Two Myrinet/SCI gateways between the same pair of clusters."""
    w = build_world({
        "m0": ["myrinet"],
        "gwA": ["myrinet", "sci"],
        "gwB": ["myrinet", "sci"],
        "s0": ["sci"],
    })
    s = Session(w, packet_size=16 << 10)
    myri = s.channel("myrinet", ["m0", "gwA", "gwB"])
    sci = s.channel("sci", ["gwA", "gwB", "s0"])
    vch = s.virtual_channel([myri, sci], multirail=multirail)
    return w, s, vch


def test_all_routes_finds_both_rails():
    w, s, vch = dual_gateway_world(multirail=False)
    rails = vch.routes.all_routes(0, 3)
    assert len(rails) == 2
    vias = sorted(r[0].dst for r in rails)
    assert vias == [1, 2]     # gwA and gwB
    # deterministic order
    assert [r[0].dst for r in vch.routes.all_routes(0, 3)] == \
        [r[0].dst for r in rails]


def test_single_rail_uses_one_gateway():
    w, s, vch = dual_gateway_world(multirail=False)
    got = []

    def snd():
        for i in range(4):
            m = vch.endpoint(0).begin_packing(3)
            m.pack(payload(20_000, i))
            yield m.end_packing()

    def rcv():
        for _ in range(4):
            inc = yield vch.endpoint(3).begin_unpacking()
            _ev, b = inc.unpack(20_000)
            yield inc.end_unpacking()
            got.append(b.tobytes())

    s.spawn(snd()); s.spawn(rcv()); s.run()
    fwd = {w.nodes[wk.gw_rank].name: wk.messages_forwarded
           for wk in vch.workers if wk.messages_forwarded}
    assert sum(fwd.values()) == 4
    assert len(fwd) == 1              # all through the same gateway


def test_multirail_spreads_across_gateways():
    w, s, vch = dual_gateway_world(multirail=True)
    datas = [payload(20_000, i) for i in range(4)]
    got = []

    def snd():
        for d in datas:
            m = vch.endpoint(0).begin_packing(3)
            m.pack(d)
            yield m.end_packing()

    def rcv():
        for _ in datas:
            inc = yield vch.endpoint(3).begin_unpacking()
            _ev, b = inc.unpack(20_000)
            yield inc.end_unpacking()
            got.append(b.tobytes())

    s.spawn(snd()); s.spawn(rcv()); s.run()
    # every payload arrived (order across rails may differ)
    assert sorted(got) == sorted(d.tobytes() for d in datas)
    per_gw = {w.nodes[wk.gw_rank].name: wk.messages_forwarded
              for wk in vch.workers if wk.messages_forwarded}
    assert per_gw == {"gwA": 2, "gwB": 2}


def test_multirail_parallel_messages_faster():
    """Messages to two distinct receivers spread over the two rails and
    finish sooner than when both squeeze through one gateway.

    (A single receiving process would serialize at unpack time regardless —
    Madeleine receives one message at a time — so the win shows up with
    distinct receivers.)"""
    def run(multirail):
        w = build_world({
            "m0": ["myrinet"],
            "gwA": ["myrinet", "sci"],
            "gwB": ["myrinet", "sci"],
            "s0": ["sci"], "s1": ["sci"],
        })
        s = Session(w, packet_size=16 << 10)
        myri = s.channel("myrinet", ["m0", "gwA", "gwB"])
        sci = s.channel("sci", ["gwA", "gwB", "s0", "s1"])
        vch = s.virtual_channel([myri, sci], multirail=multirail)
        done = {}

        def snd(dst, seed):
            def proc():
                m = vch.endpoint(0).begin_packing(dst)
                m.pack(payload(500_000, seed))
                yield m.end_packing()
            return proc

        def rcv(dst):
            def proc():
                inc = yield vch.endpoint(dst).begin_unpacking()
                _ev, _b = inc.unpack(500_000)
                yield inc.end_unpacking()
                done[dst] = s.now
            return proc

        for dst, seed in ((s.rank("s0"), 1), (s.rank("s1"), 2)):
            s.spawn(snd(dst, seed)())
            s.spawn(rcv(dst)())
        s.run()
        return max(done.values()), {
            w.nodes[wk.gw_rank].name: wk.messages_forwarded
            for wk in vch.workers if wk.messages_forwarded}

    t_single, fwd_single = run(False)
    t_multi, fwd_multi = run(True)
    assert len(fwd_single) == 1          # everything through one gateway
    assert len(fwd_multi) == 2           # one message per gateway
    assert t_multi * 1.3 < t_single      # the second rail pays off


def test_multirail_noop_when_single_route():
    w = build_world({"m0": ["myrinet"], "gw": ["myrinet", "sci"],
                     "s0": ["sci"]})
    s = Session(w)
    vch = s.virtual_channel([
        s.channel("myrinet", ["m0", "gw"]),
        s.channel("sci", ["gw", "s0"]),
    ], multirail=True)
    from tests.conftest import transfer_once
    data = payload(50_000)
    out = transfer_once(s, vch, 0, 2, data)
    assert out["buf"].tobytes() == data.tobytes()
