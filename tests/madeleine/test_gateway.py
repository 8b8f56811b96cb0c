"""Gateway forwarding: the zero-copy matrix of §2.3, pipeline behaviour."""


from repro.hw import GatewayParams, PipelineConfig, build_world
from repro.madeleine import Session
from tests.conftest import payload, transfer_once


def chain(in_proto, out_proto, packet_size=16 << 10, gateway_params=None):
    """src(in_proto) -> gw(in+out) -> dst(out_proto)."""
    w = build_world({"src": [in_proto], "gw": [in_proto, out_proto],
                     "dst": [out_proto]})
    s = Session(w)
    ch_in = s.channel(in_proto, ["src", "gw"])
    ch_out = s.channel(out_proto, ["gw", "dst"])
    vch = s.virtual_channel([ch_in, ch_out], packet_size=packet_size,
                            gateway_params=gateway_params)
    return w, s, vch


GATEWAY_LABELS = {"gateway.static_copy"}


def gateway_copies(world):
    return {k: v for k, v in world.accounting.by_label().items()
            if k in GATEWAY_LABELS}


# -- the §2.3 zero-copy matrix --------------------------------------------------

def test_dynamic_to_dynamic_zero_gateway_copies():
    w, s, vch = chain("myrinet", "gigabit_tcp")
    data = payload(100_000)
    out = transfer_once(s, vch, 0, 2, data)
    assert out["buf"].tobytes() == data.tobytes()
    assert gateway_copies(w) == {}
    # fully dynamic path: no copies anywhere at all
    assert w.accounting.copies == 0


def test_static_rx_to_dynamic_tx_zero_gateway_copies():
    """SCI -> Myrinet: fragments land in the SCI segment block and are sent
    from it directly (the paper's primary direction)."""
    w, s, vch = chain("sci", "myrinet")
    data = payload(100_000)
    out = transfer_once(s, vch, 0, 2, data)
    assert out["buf"].tobytes() == data.tobytes()
    assert gateway_copies(w) == {}
    # only the SCI *origin* stages fragments (accounted as gtm.stage)
    assert set(w.accounting.by_label()) == {"gtm.stage"}


def test_dynamic_rx_to_static_tx_borrows_outgoing_buffer():
    """Myrinet -> SCI: the gateway receives straight into a block borrowed
    from the outgoing SCI TM (the §2.3 trick)."""
    w, s, vch = chain("myrinet", "sci")
    data = payload(100_000)
    out = transfer_once(s, vch, 0, 2, data)
    assert out["buf"].tobytes() == data.tobytes()
    assert gateway_copies(w) == {}
    # only the SCI *receiver* copies out of the landing block
    assert set(w.accounting.by_label()) == {"gtm.deliver"}


def test_static_to_static_exactly_one_gateway_copy():
    """SBP -> SCI: both sides demand protocol buffers; the paper concedes
    one unavoidable copy per fragment."""
    w, s, vch = chain("sbp", "sci")
    data = payload(100_000)
    out = transfer_once(s, vch, 0, 2, data)
    assert out["buf"].tobytes() == data.tobytes()
    copies = gateway_copies(w)
    # every payload byte once, plus the two 16-byte descriptor records
    # (buffer descriptor + terminator) that also transit the blocks
    from repro.madeleine import DESC_BYTES
    assert copies["gateway.static_copy"][1] == 100_000 + 2 * DESC_BYTES


def test_static_copy_costs_time():
    """The static x static copy is serial: same transfer must be slower than
    the borrowed-buffer direction at identical parameters."""
    data = payload(400_000)
    _w1, s1, v1 = chain("sci", "sbp")     # static x static (copy)
    t_copy = transfer_once(s1, v1, 0, 2, data)["t"]
    _w2, s2, v2 = chain("myrinet", "sbp")  # borrow (no copy)
    t_borrow = transfer_once(s2, v2, 0, 2, data)["t"]
    # Not directly comparable end-to-end (different first hops), so compare
    # against the same pair with memcpy made nearly free instead.
    from repro.hw import NodeParams
    w3 = build_world({"src": ["sci"], "gw": ["sci", "sbp"], "dst": ["sbp"]},
                     node_params=NodeParams(memcpy_bandwidth=1e9))
    s3 = Session(w3)
    ch_in = s3.channel("sci", ["src", "gw"])
    ch_out = s3.channel("sbp", ["gw", "dst"])
    v3 = s3.virtual_channel([ch_in, ch_out], packet_size=16 << 10)
    t_freecopy = transfer_once(s3, v3, 0, 2, data)["t"]
    assert t_copy > t_freecopy * 1.05


# -- pipeline behaviour ------------------------------------------------------------

def test_pipelining_beats_store_and_forward():
    """Depth 2 (the paper's double buffering) must beat depth 1."""
    data = payload(1_000_000)
    _w1, s1, v1 = chain("sci", "myrinet",
                        gateway_params=GatewayParams(
                            pipeline=PipelineConfig(depth=1)))
    t1 = transfer_once(s1, v1, 0, 2, data)["t"]
    _w2, s2, v2 = chain("sci", "myrinet")
    t2 = transfer_once(s2, v2, 0, 2, data)["t"]
    assert t2 < t1 * 0.75


def test_switch_overhead_hurts_bandwidth():
    data = payload(1_000_000)
    _w1, s1, v1 = chain("sci", "myrinet",
                        gateway_params=GatewayParams(switch_overhead=0.0))
    t_fast = transfer_once(s1, v1, 0, 2, data)["t"]
    _w2, s2, v2 = chain("sci", "myrinet",
                        gateway_params=GatewayParams(switch_overhead=160.0))
    t_slow = transfer_once(s2, v2, 0, 2, data)["t"]
    assert t_slow > t_fast


def test_larger_packets_amortize_overhead():
    data = payload(2_000_000)
    _w1, s1, v1 = chain("sci", "myrinet", packet_size=8 << 10)
    t_small = transfer_once(s1, v1, 0, 2, data)["t"]
    _w2, s2, v2 = chain("sci", "myrinet", packet_size=128 << 10)
    t_big = transfer_once(s2, v2, 0, 2, data)["t"]
    assert t_big < t_small


def test_gateway_trace_has_balanced_recv_send():
    w, s, vch = chain("sci", "myrinet", packet_size=16 << 10)
    data = payload(100_000)
    transfer_once(s, vch, 0, 2, data)
    recvs = w.trace.query(category="gateway", event="recv")
    sends = w.trace.query(category="gateway", event="send")
    assert len(recvs) == len(sends) > 0
    # fragments + descriptors + terminator
    n_frag_items = sum(1 for r in recvs if r["kind"] == "frag")
    assert n_frag_items == (100_000 + (16 << 10) - 1) // (16 << 10)


def test_messages_forwarded_counter():
    w, s, vch = chain("sci", "myrinet")
    transfer_once(s, vch, 0, 2, payload(10_000))
    assert sum(wk.messages_forwarded for wk in vch.workers) == 1


def test_sequential_messages_through_gateway():
    w, s, vch = chain("sci", "myrinet")
    datas = [payload(30_000, seed=i) for i in range(3)]
    got = []

    def snd():
        for d in datas:
            m = vch.endpoint(0).begin_packing(2)
            yield m.pack(d)
            yield m.end_packing()

    def rcv():
        for d in datas:
            inc = yield vch.endpoint(2).begin_unpacking()
            _ev, b = inc.unpack(len(d))
            yield inc.end_unpacking()
            got.append(b.tobytes())

    s.spawn(snd()); s.spawn(rcv()); s.run()
    assert got == [d.tobytes() for d in datas]


def test_opposite_directions_simultaneously():
    """SCI->Myrinet and Myrinet->SCI messages crossing the same gateway at
    the same time (separate workers per incoming device)."""
    w = build_world({"m0": ["myrinet"], "gw": ["myrinet", "sci"],
                     "s0": ["sci"]})
    s = Session(w)
    myri = s.channel("myrinet", ["m0", "gw"])
    sci = s.channel("sci", ["gw", "s0"])
    vch = s.virtual_channel([myri, sci], packet_size=16 << 10)
    d_ms, d_sm = payload(200_000, 1), payload(200_000, 2)
    got = {}

    def endpoint(rank, data_out, n_in, key):
        def proc():
            m = vch.endpoint(rank).begin_packing(2 - rank)
            m.pack(data_out)
            sent = m.end_packing()
            inc = yield vch.endpoint(rank).begin_unpacking()
            _ev, b = inc.unpack(n_in)
            yield inc.end_unpacking()
            yield sent
            got[key] = b.tobytes()
        return proc

    s.spawn(endpoint(0, d_ms, len(d_sm), "at_m0")())
    s.spawn(endpoint(2, d_sm, len(d_ms), "at_s0")())
    s.run()
    assert got["at_m0"] == d_sm.tobytes()
    assert got["at_s0"] == d_ms.tobytes()


def test_gateway_app_traffic_coexists_with_forwarding():
    """The gateway is also a regular node (§2.2.2): it can receive its own
    messages while forwarding."""
    w, s, vch = chain("sci", "myrinet")
    d_fwd, d_gw = payload(100_000, 1), payload(50_000, 2)
    got = {}

    def src():
        m = vch.endpoint(0).begin_packing(2)   # forwarded
        m.pack(d_fwd)
        sent1 = m.end_packing()
        m2 = vch.endpoint(0).begin_packing(1)  # direct to gateway
        m2.pack(d_gw)
        sent2 = m2.end_packing()
        yield sent1
        yield sent2

    def gw_app():
        inc = yield vch.endpoint(1).begin_unpacking()
        _ev, b = inc.unpack(len(d_gw))
        yield inc.end_unpacking()
        got["gw"] = b.tobytes()

    def dst():
        inc = yield vch.endpoint(2).begin_unpacking()
        _ev, b = inc.unpack(len(d_fwd))
        yield inc.end_unpacking()
        got["dst"] = b.tobytes()

    s.spawn(src()); s.spawn(gw_app()); s.spawn(dst()); s.run()
    assert got["gw"] == d_gw.tobytes()
    assert got["dst"] == d_fwd.tobytes()
