"""Unit tests for world/topology construction."""

import gc
import weakref

import pytest

from repro.bench import PingHarness, one_way_ping
from repro.hw import (ClusterSpec, GatewayLink, NodeParams, World,
                      build_cluster_of_clusters, build_world)
from repro.memory import PoolClosed


def test_build_world_ranks_follow_insertion_order():
    w = build_world({"x": ["myrinet"], "y": ["sci"], "z": []})
    assert w.node("x").rank == 0
    assert w.node("y").rank == 1
    assert w.node("z").rank == 2
    assert w.node(1).name == "y"


def test_duplicate_node_name_rejected():
    w = World()
    w.add_node("a")
    with pytest.raises(ValueError):
        w.add_node("a")


def test_has_protocol():
    w = build_world({"a": ["myrinet", "sci"]})
    n = w.node("a")
    assert n.has_protocol("myrinet") and n.has_protocol("sci")
    assert not n.has_protocol("sbp")


def test_memcpy_time():
    w = build_world({"a": []})
    node = w.node("a")
    bw = node.params.memcpy_bandwidth
    assert node.memcpy_time(1000) == pytest.approx(1000 / bw)


def test_memcpy_advances_clock():
    w = build_world({"a": []})
    node = w.node("a")
    done = {}

    def proc():
        yield from node.memcpy(500)
        done["t"] = w.sim.now

    w.sim.process(proc())
    w.run()
    assert done["t"] == pytest.approx(500 / node.params.memcpy_bandwidth)


def test_pci_resource_per_node():
    w = build_world({"a": [], "b": []})
    assert w.node("a").pci is not w.node("b").pci
    assert w.node("a").pci.capacity == pytest.approx(
        NodeParams().pci.capacity)


def test_cluster_of_clusters_paper_shape():
    world, members, gws = build_cluster_of_clusters(
        clusters=[ClusterSpec("myri", "myrinet", 2),
                  ClusterSpec("sci", "sci", 2)],
        gateways=[GatewayLink("myri", "sci")],
    )
    assert members == {"myri": ["myri0", "myri1"], "sci": ["sci0", "sci1"]}
    assert gws == ["myri1"]
    gw = world.node("myri1")
    assert gw.has_protocol("myrinet") and gw.has_protocol("sci")
    assert not world.node("myri0").has_protocol("sci")


def test_cluster_of_clusters_extra_protocols():
    world, members, _ = build_cluster_of_clusters(
        clusters=[ClusterSpec("c", "myrinet", 2,
                              extra_protocols=("fast_ethernet",)),
                  ClusterSpec("d", "sci", 1)],
        gateways=[GatewayLink("c", "d")],
    )
    assert world.node("c0").has_protocol("fast_ethernet")


def test_gateway_unknown_cluster_rejected():
    with pytest.raises(ValueError):
        build_cluster_of_clusters(
            clusters=[ClusterSpec("a", "myrinet", 1)],
            gateways=[GatewayLink("a", "nope")],
        )


def test_three_cluster_chain_has_two_gateways():
    world, members, gws = build_cluster_of_clusters(
        clusters=[ClusterSpec("a", "myrinet", 2),
                  ClusterSpec("b", "sci", 2),
                  ClusterSpec("c", "sbp", 2)],
        gateways=[GatewayLink("a", "b"), GatewayLink("b", "c")],
    )
    assert gws == ["a1", "b1"]
    assert world.node("b1").has_protocol("sbp")



@pytest.mark.parametrize("protocols,pool", [
    (("myrinet", "sci"), ".rxpool"),            # NIC pools
    (("myrinet", "gigabit_tcp"), ".ring"),      # a gateway staging ring
])
def test_close_releases_every_pool_and_keeps_metrics_and_trace(protocols,
                                                                pool):
    world, session, vch, ack = PingHarness(packet_size=32 << 10,
                                           protocols=protocols).build()
    world.telemetry.enable()
    world.trace.enable()
    one_way_ping(session, vch, ack, session.rank("b0"), session.rank("a0"),
                 256 << 10)
    pools = world.fabric.pools
    assert any(p.name.endswith(pool) for p in pools)
    # the memory of every block, whoever still holds a view of it
    blocks = [weakref.ref(b.data.base) for p in pools for b in p._free]
    assert blocks
    fragments = world.telemetry.total("wire.fragments")
    records = len(world.trace)
    gc.disable()
    try:
        world.close()
        assert [ref() for ref in blocks] == [None] * len(blocks)
    finally:
        gc.enable()
    assert all(p._closed and p.available == 0 for p in pools)
    with pytest.raises(PoolClosed):
        pools[0].acquire()
    assert fragments > 0
    assert world.telemetry.total("wire.fragments") == fragments
    assert len(world.trace) == records > 0
    world.close()                        # idempotent
