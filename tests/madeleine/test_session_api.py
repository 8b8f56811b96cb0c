"""The redesigned Session surface: context manager, keyword-only config,
telemetry ownership."""

import pytest

from repro.faults import ChannelFaults, FaultPlan
from repro.hw import build_world
from repro.hw.params import GatewayParams
from repro.madeleine import ReliableEndpoint, RetryPolicy, Session
from repro.madeleine.vchannel import DEFAULT_PACKET_SIZE
from tests.conftest import payload


def two_nodes():
    return build_world({"a": ["myrinet"], "b": ["myrinet"]})


def forwarding_world():
    return build_world({"m0": ["myrinet"], "gw": ["myrinet", "sci"],
                        "s0": ["sci"]})


def test_context_manager_closes_session():
    with Session(two_nodes()) as session:
        assert not session.closed
    assert session.closed


def test_closed_session_refuses_construction():
    w = two_nodes()
    with Session(w) as session:
        pass
    with pytest.raises(RuntimeError, match="closed"):
        session.channel("myrinet", ["a", "b"])
    with pytest.raises(RuntimeError, match="closed"):
        session.spawn(iter(()))
    w2 = forwarding_world()
    with Session(w2) as s2:
        chans = [s2.channel("myrinet", ["m0", "gw"]),
                 s2.channel("sci", ["gw", "s0"])]
    with pytest.raises(RuntimeError, match="closed"):
        s2.virtual_channel(chans)


def test_telemetry_keyword_enables_world_telemetry():
    w = two_nodes()
    assert not w.telemetry.enabled
    session = Session(w, telemetry=True)
    assert w.telemetry.enabled
    assert session.metrics is w.telemetry
    assert session.trace is w.trace


def test_telemetry_none_leaves_state_and_false_disables():
    w = two_nodes()
    w.telemetry.enable()
    Session(w)                       # None: leave as-is
    assert w.telemetry.enabled
    Session(w, telemetry=False)
    assert not w.telemetry.enabled


def test_telemetry_keyword_rejects_non_bool():
    with pytest.raises(TypeError):
        Session(two_nodes(), telemetry="yes")


def test_telemetry_readable_after_close():
    w = two_nodes()
    with Session(w, telemetry=True) as session:
        session.trace.enable()
        ch = session.channel("myrinet", ["a", "b"])

        def sender():
            m = ch.endpoint(0).begin_packing(1)
            yield m.pack(payload(4096))
            yield m.end_packing()

        def receiver():
            inc = yield ch.endpoint(1).begin_unpacking()
            inc.unpack(4096)
            yield inc.end_unpacking()

        session.spawn(sender())
        session.spawn(receiver())
        session.run()
    assert session.metrics.total("wire.bytes") >= 4096
    assert len(session.trace) > 0


def test_packet_size_default_flows_to_virtual_channel():
    with Session(forwarding_world(), packet_size=8 << 10) as session:
        chans = [session.channel("myrinet", ["m0", "gw"]),
                 session.channel("sci", ["gw", "s0"])]
        vch = session.virtual_channel(chans)
        assert vch.packet_size == session.packet_size == 8 << 10


def test_default_packet_size_without_keyword():
    session = Session(two_nodes())
    assert session.packet_size == DEFAULT_PACKET_SIZE


def test_fault_plan_keyword_arms_the_world():
    w = forwarding_world()
    plan = FaultPlan(seed=5, default=ChannelFaults(drop_p=0.05))
    with Session(w, fault_plan=plan, telemetry=True) as session:
        assert w.fabric.injector is not None
        chans = [session.channel("myrinet", ["m0", "gw"]),
                 session.channel("sci", ["gw", "s0"])]
        vch = session.virtual_channel(
            chans, gateway_params=GatewayParams(stall_timeout=5_000.0))
        rel_src = ReliableEndpoint(vch.endpoint(0), RetryPolicy())
        rel_dst = ReliableEndpoint(vch.endpoint(2), RetryPolicy())
        data = payload(100_000).tobytes()
        got = {}

        def sender():
            yield from rel_src.send(2, data)

        def receiver():
            _src, blob, _tid = yield from rel_dst.recv()
            got["data"] = blob

        session.spawn(sender())
        session.spawn(receiver())
        session.run()
    assert got["data"] == data
    # the armed plan actually dropped fragments, and telemetry saw them
    assert session.metrics.total("faults.fragments_dropped") == \
        w.fabric.injector.dropped
    assert w.fabric.injector.dropped > 0
