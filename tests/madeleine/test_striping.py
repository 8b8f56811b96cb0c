"""End-to-end multirail striping: split at the sender, per-rail gateway
pipelines, in-order reassembly at the final receiver."""

import pytest

from repro.hw import build_world
from repro.madeleine import GTMOutgoing, Session, StripedOutgoing
from repro.madeleine.bmm import UnpackMismatch
from repro.madeleine.flags import RecvMode, SendMode
from repro.routing import StripePolicy
from tests.conftest import payload, transfer_once


def striped_session(telemetry=False, policy=None, packet_size=16 << 10):
    """Two Myrinet/SCI gateways between the clusters, striping enabled."""
    w = build_world({
        "m0": ["myrinet"],
        "gwA": ["myrinet", "sci"],
        "gwB": ["myrinet", "sci"],
        "s0": ["sci"],
    })
    s = Session(w, telemetry=telemetry, packet_size=packet_size)
    myri = s.channel("myrinet", ["m0", "gwA", "gwB"])
    sci = s.channel("sci", ["gwA", "gwB", "s0"])
    vch = s.virtual_channel([myri, sci],
                            stripe_policy=policy or StripePolicy())
    return w, s, vch


def forwarded_per_gateway(w, vch):
    return {w.nodes[wk.gw_rank].name: wk.messages_forwarded
            for wk in vch.workers if wk.messages_forwarded}


def test_striped_transfer_uses_both_gateways():
    w, s, vch = striped_session()
    data = payload(100_000)
    out = transfer_once(s, vch, 0, 3, data)
    assert out["buf"].tobytes() == data.tobytes()
    assert out["origin"] == 0
    per_gw = forwarded_per_gateway(w, vch)
    assert sorted(per_gw) == ["gwA", "gwB"]    # one stripe through each


def test_striped_message_type_and_fallbacks():
    _w, _s, vch = striped_session()
    assert isinstance(vch._begin_packing(0, 3), StripedOutgoing)
    # a single disjoint route (gateway on the same cloud) is not striped
    assert not isinstance(vch._begin_packing(0, 1), StripedOutgoing)

    # ... and a single-gateway topology falls back entirely
    w2 = build_world({"m0": ["myrinet"], "gw": ["myrinet", "sci"],
                      "s0": ["sci"]})
    s2 = Session(w2)
    vch2 = s2.virtual_channel(
        [s2.channel("myrinet", ["m0", "gw"]), s2.channel("sci", ["gw", "s0"])],
        stripe_policy=StripePolicy())
    assert isinstance(vch2._begin_packing(0, 2), GTMOutgoing)


def test_stripe_policy_single_gateway_transfer_falls_back():
    w = build_world({"m0": ["myrinet"], "gw": ["myrinet", "sci"],
                     "s0": ["sci"]})
    s = Session(w)
    vch = s.virtual_channel(
        [s.channel("myrinet", ["m0", "gw"]), s.channel("sci", ["gw", "s0"])],
        stripe_policy=StripePolicy())
    data = payload(50_000)
    assert transfer_once(s, vch, 0, 2, data)["buf"].tobytes() \
        == data.tobytes()


def test_striped_multi_buffer_in_order_with_zero_length():
    _w, s, vch = striped_session()
    bufs = [payload(40_000, 1), payload(0, 2), payload(24_000, 3)]
    got = {}

    def snd():
        m = vch.endpoint(0).begin_packing(3)
        for b in bufs:
            yield m.pack(b)
        yield m.end_packing()

    def rcv():
        inc = yield vch.endpoint(3).begin_unpacking()
        pairs = [inc.unpack(len(b)) for b in bufs]
        yield inc.end_unpacking()
        got["bufs"] = [b.tobytes() for _ev, b in pairs]

    s.spawn(snd()); s.spawn(rcv()); s.run()
    assert got["bufs"] == [b.tobytes() for b in bufs]


def test_striped_later_deferred_to_end():
    _w, s, vch = striped_session()
    d1, d2 = payload(30_000, 1), payload(40_000, 2)
    got = {}

    def snd():
        m = vch.endpoint(0).begin_packing(3)
        yield m.pack(d1, SendMode.LATER, RecvMode.CHEAPER)
        yield m.pack(d2)
        yield m.end_packing()

    def rcv():
        inc = yield vch.endpoint(3).begin_unpacking()
        _e1, b1 = inc.unpack(30_000, SendMode.LATER, RecvMode.CHEAPER)
        _e2, b2 = inc.unpack(40_000)
        yield inc.end_unpacking()
        got["ok"] = (b1.tobytes() == d1.tobytes()
                     and b2.tobytes() == d2.tobytes())

    s.spawn(snd()); s.spawn(rcv()); s.run()
    assert got["ok"]


def test_striped_unpack_size_mismatch_detected():
    _w, s, vch = striped_session()
    errors = []

    def snd():
        m = vch.endpoint(0).begin_packing(3)
        yield m.pack(payload(50_000))
        yield m.end_packing()

    def rcv():
        inc = yield vch.endpoint(3).begin_unpacking()
        ev, _b = inc.unpack(40_000)        # wrong: stripes announce 50 000
        try:
            yield ev
        except UnpackMismatch:
            errors.append("mismatch")

    s.spawn(snd()); s.spawn(rcv()); s.run()
    assert errors == ["mismatch"]


def test_striping_telemetry():
    w, s, vch = striped_session(telemetry=True)
    data = payload(100_000)
    out = transfer_once(s, vch, 0, 3, data)
    assert out["buf"].tobytes() == data.tobytes()
    m = w.telemetry
    assert m.counter("vchannel.stripes_sent", vchannel=vch.name).value == 2
    depth = m.histogram("vchannel.stripe_reassembly_depth",
                        bounds=(1.0, 2.0, 4.0, 8.0), vchannel=vch.name)
    assert depth.count == 1 and depth.mean == 2.0     # both rails carried data
    for rail in (0, 1):
        g = m.gauge("vchannel.rail_occupancy", vchannel=vch.name, rail=rail)
        assert g.hwm > 0        # bytes were in flight on this rail...
        assert g.value == 0     # ...and all of them drained


def test_small_paquet_rides_one_rail():
    w, s, vch = striped_session(telemetry=True)
    data = payload(6_000)      # below 2 * min_stripe: not worth splitting
    out = transfer_once(s, vch, 0, 3, data)
    assert out["buf"].tobytes() == data.tobytes()
    depth = w.telemetry.histogram(
        "vchannel.stripe_reassembly_depth",
        bounds=(1.0, 2.0, 4.0, 8.0), vchannel=vch.name)
    assert depth.count == 1 and depth.mean == 1.0


def test_back_to_back_striped_messages():
    _w, s, vch = striped_session()
    datas = [payload(60_000, seed) for seed in range(1, 4)]
    got = []

    def snd():
        for d in datas:
            m = vch.endpoint(0).begin_packing(3)
            yield m.pack(d)
            yield m.end_packing()

    def rcv():
        for d in datas:
            inc = yield vch.endpoint(3).begin_unpacking()
            _ev, b = inc.unpack(len(d))
            yield inc.end_unpacking()
            got.append(b.tobytes())

    s.spawn(snd()); s.spawn(rcv()); s.run()
    assert sorted(got) == sorted(d.tobytes() for d in datas)


# ------------------------------------------------- dual-NIC direct rails


def dual_nic_session(telemetry=False):
    w = build_world({"a0": ["myrinet", "myrinet"],
                     "b0": ["myrinet", "myrinet"]})
    s = Session(w, telemetry=telemetry)
    rail0 = s.channel("myrinet", ["a0", "b0"])
    rail1 = s.channel("myrinet", ["a0", "b0"],
                      adapter_index={"a0": 1, "b0": 1})
    vch = s.virtual_channel([rail0, rail1], stripe_policy=StripePolicy())
    return w, s, vch, rail0, rail1


def test_adapter_index_mapping_binds_distinct_nics():
    w, s, _vch, rail0, rail1 = dual_nic_session()
    a0, b0 = s.rank("a0"), s.rank("b0")
    assert rail0.adapter_index_for(a0) == 0
    assert rail1.adapter_index_for(a0) == 1
    assert rail1.adapter_index_for(999) == 0   # non-members default to 0
    for rank, name in ((a0, "a0"), (b0, "b0")):
        node = w.nodes[rank]
        assert rail0.endpoint(rank).tm.nic is node.nic("myrinet", 0)
        assert rail1.endpoint(rank).tm.nic is node.nic("myrinet", 1)


def test_adapter_index_rejects_missing_adapter():
    w = build_world({"a0": ["myrinet"], "b0": ["myrinet", "myrinet"]})
    s = Session(w)
    with pytest.raises(KeyError):
        s.channel("myrinet", ["a0", "b0"],
                  adapter_index={"a0": 1, "b0": 1})


def test_dual_nic_striping_uses_both_rails():
    w, s, vch, _r0, _r1 = dual_nic_session(telemetry=True)
    data = payload(100_000)
    out = transfer_once(s, vch, 0, 1, data)
    assert out["buf"].tobytes() == data.tobytes()
    m = w.telemetry
    for rail in (0, 1):
        g = m.gauge("vchannel.rail_occupancy", vchannel=vch.name, rail=rail)
        assert g.hwm > 0 and g.value == 0
