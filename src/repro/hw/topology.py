"""World construction: nodes, adapters, and shared simulation services.

A :class:`World` bundles one simulator run's services (clock, fluid network,
trace, copy accounting) with the machines of the configuration.  Cluster-of-
clusters layouts are described by a simple ``{node_name: [protocols...]}``
mapping — a node with two different high-speed adapters is a candidate
gateway, exactly as in the paper's testbed (§3).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Sequence

from ..memory import CopyAccounting
from ..sim import FluidNetwork, Simulator, TraceRecorder
from ..telemetry import Telemetry
from .fabric import Fabric, NIC
from .node import Node
from .params import PROTOCOLS, NodeParams, ProtocolParams

__all__ = ["World", "build_world", "ClusterSpec", "build_cluster_of_clusters"]


class World:
    """All simulation state for one experiment run."""

    def __init__(self, node_params: Optional[NodeParams] = None) -> None:
        self.sim = Simulator()
        self.trace = TraceRecorder()
        self.accounting = CopyAccounting()
        # Off by default: a disabled registry records nothing and keeps
        # benchmark numbers bit-identical (Session(telemetry=True) enables it).
        self.telemetry = Telemetry(clock=lambda: self.sim.now,
                                   trace=self.trace, enabled=False)
        self.fnet = FluidNetwork(self.sim, metrics=self.telemetry.metrics)
        self.fabric = Fabric(self.sim, self.fnet, self.trace, self.accounting,
                             telemetry=self.telemetry)
        self.node_params = node_params or NodeParams()
        self.nodes: dict[int, Node] = {}
        self.names: dict[str, Node] = {}
        #: ids of every RealChannel built on this world (forwarding twins
        #: included); FaultPlan.arm validates link-event targets against it.
        self.channel_ids: set[str] = set()

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
