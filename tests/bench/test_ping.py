"""Tests for the §3.1 ping measurement method."""

import pytest

from repro.bench import (MultirailHarness, PingHarness, Series,
                         bandwidth_sweep, figure_sweep, format_series_table,
                         human_size, measure_ack_latency)
from repro.hw import build_world
from repro.madeleine import Session


def test_ack_calibration_positive_and_repeatable():
    w = build_world({"a": ["fast_ethernet"], "b": ["fast_ethernet"]})
    s = Session(w)
    ack = s.channel("fast_ethernet", ["a", "b"])
    l1 = measure_ack_latency(s, ack, 0, 1)
    l2 = measure_ack_latency(s, ack, 0, 1)
    assert l1 > 0
    assert l1 == pytest.approx(l2)


def test_ping_method_matches_direct_measurement():
    """The RTT-minus-ack estimate must agree with the directly observed
    one-way time (this is exactly why the paper's method is sound)."""
    harness = PingHarness(packet_size=16 << 10)
    res = harness.measure(256 << 10, direction="b0->a0")
    assert res.one_way_us == pytest.approx(res.direct_us, rel=0.02)


def test_ping_directions_differ():
    harness = PingHarness(packet_size=64 << 10)
    sm = harness.measure(1 << 20, direction="b0->a0")   # SCI -> Myrinet
    ms = harness.measure(1 << 20, direction="a0->b0")   # Myrinet -> SCI
    assert sm.bandwidth > ms.bandwidth


def test_ping_bad_direction_rejected():
    with pytest.raises(ValueError):
        PingHarness().measure(1024, direction="sideways")


def test_bandwidth_monotone_in_message_size():
    harness = PingHarness(packet_size=32 << 10)
    series = bandwidth_sweep(lambda n: harness.measure(n, "b0->a0"),
                             [64 << 10, 256 << 10, 1 << 20], "sweep")
    assert series.bandwidths == sorted(series.bandwidths)


def test_series_asymptote():
    s = Series("x", sizes=[1, 2, 3, 4], bandwidths=[10, 20, 30, 40])
    assert s.asymptote == pytest.approx(40)
    with pytest.raises(ValueError):
        Series("empty").asymptote


def test_human_size():
    assert human_size(512) == "512 B"
    assert human_size(8 << 10) == "8 KB"
    assert human_size(2 << 20) == "2 MB"
    assert human_size(1536) == "1536 B"


def test_format_series_table_contains_all_points():
    a = Series("paquet 8 KB", sizes=[8192, 16384], bandwidths=[10.0, 20.0])
    b = Series("paquet 16 KB", sizes=[16384], bandwidths=[25.0])
    out = format_series_table([a, b], title="Figure X")
    assert "Figure X" in out
    assert "8 KB" in out and "16 KB" in out
    assert "25.0" in out and "10.0" in out


def test_a_harness_keeps_one_testbed_alive():
    harness = PingHarness(packet_size=32 << 10)
    first = harness.build()[0]
    second = harness.build()[0]
    assert first.fabric.pools and all(p._closed for p in first.fabric.pools)
    assert not any(p._closed for p in second.fabric.pools)
    # the results are those of the one-world-per-harness sweep, bit for bit
    assert [repr(harness.measure(n, "a0->b0").one_way_us)
            for n in (64 << 10, 256 << 10)] == ["2403.758553274682",
                                                "7606.585532746823"]
    (curve,) = figure_sweep("b0->a0", packet_sizes=(32 << 10,),
                            message_sizes=(64 << 10, 256 << 10))
    assert [repr(b) for b in curve.bandwidths] == ["29.920337098563305",
                                                   "42.95954884850495"]


def test_a_multirail_harness_keeps_one_testbed_alive():
    harness = MultirailHarness(packet_size=8 << 10, rails=2)
    first = harness.build()[0]
    assert repr(harness.measure(64 << 10).one_way_us) == "2759.8523949169107"
    assert all(p._closed for p in first.fabric.pools)


@pytest.mark.parametrize("harness", [
    PingHarness(), MultirailHarness(rails=1), MultirailHarness(rails=2),
    MultirailHarness(rails=3)], ids=["ping", "rails1", "rails2", "rails3"])
def test_the_harness_world_is_its_scenario_plus_the_ack_adapters(harness):
    """What the DES measures is what the solver prices: the harness world,
    less its Fast-Ethernet ack adapters, is ``scenario(...)``'s topology."""
    world = harness.build()[0]
    nodes = {node.name: [proto for proto, _i in node.nics]
             for node in world.nodes.values()}
    ack = {name for name, protos in nodes.items()
           if "fast_ethernet" in protos}
    assert {name: [p for p in protos if p != "fast_ethernet"]
            for name, protos in nodes.items()} == \
        harness.scenario(1 << 20).topology.node_spec()
    # the testbed's ack network: every node of the paper's testbed, the
    # two end nodes of the multirail one
    assert ack == (set(nodes) if isinstance(harness, PingHarness)
                   else {"a0", "b0"})


def test_harness_inputs_the_schema_rejects():
    with pytest.raises(ValueError, match="packet_size"):
        PingHarness(packet_size=512).measure(4096)
    with pytest.raises(ValueError, match="rails"):
        MultirailHarness(rails=4).build()
