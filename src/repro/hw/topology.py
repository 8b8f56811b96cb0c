"""World construction: nodes, adapters, and shared simulation services.

A :class:`World` bundles one simulator run's services (clock, fluid network,
trace, copy accounting) with the machines of the configuration.  Cluster-of-
clusters layouts are described by a simple ``{node_name: [protocols...]}``
mapping — a node with two different high-speed adapters is a candidate
gateway, exactly as in the paper's testbed (§3).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Sequence

from ..memory import CopyAccounting
from ..sim import FluidNetwork, Simulator, TraceRecorder
from ..telemetry import MetricsRegistry
from .fabric import Fabric, NIC
from .node import Node
from .params import PROTOCOLS, NodeParams, ProtocolParams

__all__ = ["World", "build_world", "ClusterSpec", "build_cluster_of_clusters"]


class World:
    """All simulation state for one experiment run.

    Observability is paid for per use.  The raw ``trace`` keeps one record
    per wire fragment and gateway step, so it is off until
    ``world.trace.enable()``; ``telemetry``, the world's one
    :class:`~repro.telemetry.MetricsRegistry`, is off until
    ``world.telemetry.enable()``.  Neither moves the schedule.
    """

    def __init__(self, node_params: Optional[NodeParams] = None) -> None:
        self.sim = Simulator()
        self.trace = TraceRecorder(enabled=False)
        self.accounting = CopyAccounting()
        # Off by default: a disabled registry records nothing and keeps
        # benchmark numbers bit-identical (Session(telemetry=True) enables it).
        self.telemetry = MetricsRegistry(enabled=False)
        self.fnet = FluidNetwork(self.sim, metrics=self.telemetry)
        self.fabric = Fabric(self.sim, self.fnet, self.trace, self.accounting,
                             metrics=self.telemetry)
        self.node_params = node_params or NodeParams()
        self.nodes: dict[int, Node] = {}
        self.names: dict[str, Node] = {}
        #: ids of every RealChannel built on this world (forwarding twins
        #: included); FaultPlan.arm validates link-event targets against it.
        self.channel_ids: set[str] = set()
        # The ids the wire carries (announces, headers, stripe records) and
        # the unnamed-channel numbers: each world counts its own, so a run
        # repeats exactly in one process.  GTM message ids are disjoint
        # from regular ones.
        self.msg_ids = itertools.count(1)
        self.gtm_msg_ids = itertools.count(1 << 20)
        self.transfer_ids = itertools.count(1)
        self.stripe_ids = itertools.count(1)
        self.channel_seq = itertools.count()

    def add_node(self, name: str,
                 protocols: Iterable[ProtocolParams | str] = (),
                 params: Optional[NodeParams] = None) -> Node:
        if name in self.names:
            raise ValueError(f"duplicate node name {name!r}")
        rank = len(self.nodes)
        node = Node(self.sim, rank, name, params or self.node_params)
        self.nodes[rank] = node
        self.names[name] = node
        for proto in protocols:
            self.add_adapter(node, proto)
        return node

    def add_adapter(self, node: Node | str,
                    protocol: ProtocolParams | str) -> NIC:
        if isinstance(node, str):
            node = self.names[node]
        if isinstance(protocol, str):
            protocol = PROTOCOLS[protocol]
        index = sum(1 for (p, _i) in node.nics if p == protocol.name)
        return NIC(self.fabric, node, protocol, index)

    def node(self, key: int | str) -> Node:
        if isinstance(key, str):
            return self.names[key]
        return self.nodes[key]

    def run(self, until=None):
        return self.sim.run(until)

    def close(self) -> None:
        """Let go of the memory of a world that is done (idempotent).

        A world is cyclic by construction (a blocked process and the queue
        it waits on refer to each other, and so do a pool and its blocks),
        so once dropped it waits for the cycle collector, and so would the
        blocks of its static pools, its largest part.  ``close`` releases
        the blocks of every static pool built on it: NIC tx/rx pools and
        gateway staging rings.  A pool acquire after it raises
        :class:`~repro.memory.PoolClosed`.  Counters, gauges and the trace
        stay readable.
        """
        for pool in self.fabric.pools:
            pool.close()

    def __repr__(self) -> str:  # pragma: no cover
        return f"<World {len(self.nodes)} nodes @t={self.sim.now:.1f}µs>"


def build_world(adapters: Mapping[str, Sequence[str]],
                node_params: Optional[NodeParams] = None) -> World:
    """Build a world from ``{node_name: [protocol names]}`` (insertion order
    defines ranks)."""
    world = World(node_params)
    for name, protos in adapters.items():
        world.add_node(name, protos)
    return world


@dataclass(frozen=True)
class ClusterSpec:
    """One homogeneous cluster: ``size`` nodes on ``protocol``."""

    name: str
    protocol: str
    size: int
    #: extra protocols every node of the cluster also has (e.g. the
    #: Fast-Ethernet control network of the testbed).
    extra_protocols: tuple[str, ...] = ()


@dataclass(frozen=True)
class GatewayLink:
    """A gateway machine that belongs to ``cluster_a`` and also holds an
    adapter of ``cluster_b``'s protocol (the paper's Myrinet+SCI node)."""

    cluster_a: str
    cluster_b: str


def build_cluster_of_clusters(
        clusters: Sequence[ClusterSpec],
        gateways: Sequence[GatewayLink],
        node_params: Optional[NodeParams] = None,
) -> tuple[World, dict[str, list[str]], list[str]]:
    """Build the classic cluster-of-clusters testbed.

    Returns ``(world, {cluster: [node names]}, [gateway names])``.  Gateway
    machines are drawn from the *last* node of ``cluster_a`` and get an extra
    adapter on ``cluster_b``'s protocol.
    """
    by_name = {c.name: c for c in clusters}
    for gw in gateways:
        for c in (gw.cluster_a, gw.cluster_b):
            if c not in by_name:
                raise ValueError(f"gateway references unknown cluster {c!r}")
    world = World(node_params)
    members: dict[str, list[str]] = {}
    for spec in clusters:
        members[spec.name] = []
        for i in range(spec.size):
            name = f"{spec.name}{i}"
            world.add_node(name, (spec.protocol, *spec.extra_protocols))
            members[spec.name].append(name)
    gateway_names: list[str] = []
    for gw in gateways:
        host = members[gw.cluster_a][-1]
        world.add_adapter(host, by_name[gw.cluster_b].protocol)
        gateway_names.append(host)
    return world, members, gateway_names
