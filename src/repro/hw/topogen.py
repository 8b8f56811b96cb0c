"""Deterministic topology generation: hierarchies, fat-trees, tori.

The paper's testbed is one Myrinet cluster joined to one SCI cluster by a
single dual-adapter gateway — the smallest :func:`chain`; :func:`multirail`
is the striping testbed.  Beyond those two small families this module
generates the large shapes the scale-out benches and the traffic engine
drive:

* :func:`hierarchy` — a chain of homogeneous clusters with one or more
  gateway machines at every cluster boundary (the paper's shape generalized
  to N clusters and parallel gateways);
* :func:`fat_tree` — a two-level leaf/spine network; every spine is a
  parallel gateway between every pair of leaves, so multirail striping has
  spine-count disjoint rails to pick from;
* :func:`torus` — a 2D/3D torus direct network (à la APEnet+): every link is
  its own channel on its own NIC and every node forwards, so route diversity
  grows with the dimension.

Output is a :class:`GeneratedTopology` — pure data (node → adapter lists,
channel membership, per-node NIC assignment) that plugs into the same
``node_spec()`` / ``channel_specs()`` interface the scenario schema uses to
build worlds and sessions.  Generation is a pure function of its arguments:
the same call always yields the same names, ranks (insertion order), channel
ids, and NIC indices, which is what makes large-scenario runs replayable.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence, Union

from .params import PROTOCOLS

__all__ = [
    "ChannelDef",
    "GeneratedTopology",
    "chain",
    "multirail",
    "hierarchy",
    "fat_tree",
    "torus",
]

AdapterIndex = Union[int, Mapping[str, int]]


@dataclass(frozen=True)
class ChannelDef:
    """One real channel: ``members`` (node names) joined on ``protocol``.

    ``adapter_index`` maps member name → NIC index on that node, so a node
    incident to several channels of one protocol puts each channel on its own
    adapter (per-link bandwidth, as on a real direct network).
    """

    name: str
    protocol: str
    members: tuple[str, ...]
    adapter_index: Mapping[str, int] = field(default_factory=dict)


@dataclass(frozen=True)
class GeneratedTopology:
    """A generated network: nodes with adapter lists plus channel layout."""

    kind: str
    #: node name → tuple of protocol names, one entry per NIC, in NIC order.
    nodes: tuple[tuple[str, tuple[str, ...]], ...]
    channels: tuple[ChannelDef, ...]
    #: nodes intended as traffic sources/sinks.
    endpoints: tuple[str, ...]
    #: nodes that sit on ≥ 2 channels and therefore forward.
    gateways: tuple[str, ...]

    def node_spec(self) -> dict[str, list[str]]:
        """``{node_name: [protocols]}`` for :func:`repro.hw.build_world`."""
        return {name: list(protos) for name, protos in self.nodes}

    def channel_specs(self) -> list[tuple[str, str, list[str], AdapterIndex]]:
        """``(name, protocol, members, adapter_index)`` per channel, in the
        deterministic construction order — feed to ``Session.channel``."""
        return [(c.name, c.protocol, list(c.members), dict(c.adapter_index))
                for c in self.channels]

    @property
    def node_count(self) -> int:
        return len(self.nodes)

    def describe(self) -> str:
        return (f"{self.kind}: {len(self.nodes)} nodes, "
                f"{len(self.channels)} channels, "
                f"{len(self.gateways)} gateways")


class _Builder:
    """Accumulates nodes/channels, handing out one NIC per channel seat."""

    def __init__(self, kind: str) -> None:
        self.kind = kind
        self._nics: dict[str, list[str]] = {}
        self._channels: list[ChannelDef] = []
        self._membership: dict[str, int] = {}

    def node(self, name: str) -> str:
        if name in self._nics:
            raise ValueError(f"duplicate node name {name!r}")
        self._nics[name] = []
        self._membership[name] = 0
        return name

    def channel(self, name: str, protocol: str,
                members: Sequence[str]) -> None:
        if protocol not in PROTOCOLS:
            raise ValueError(f"unknown protocol {protocol!r}")
        adapter_index: dict[str, int] = {}
        for member in members:
            nics = self._nics[member]
            adapter_index[member] = sum(
                1 for p in nics if p == protocol)
            nics.append(protocol)
            self._membership[member] += 1
        self._channels.append(ChannelDef(
            name=name, protocol=protocol, members=tuple(members),
            adapter_index=adapter_index))

    def build(self, endpoints: Sequence[str],
              gateways: Optional[Sequence[str]] = None) -> GeneratedTopology:
        """``gateways`` defaults to every node on >= 2 channels."""
        if gateways is None:
            gateways = [n for n, count in self._membership.items()
                        if count >= 2]
        return GeneratedTopology(
            kind=self.kind,
            nodes=tuple((n, tuple(p)) for n, p in self._nics.items()),
            channels=tuple(self._channels),
            endpoints=tuple(endpoints),
            gateways=tuple(gateways),
        )


def _cluster_chain(kind: str, sizes: Sequence[int], gateways: Sequence[int],
                   protocols: Sequence[str], node: str, gateway: str,
                   channel: str) -> GeneratedTopology:
    """Clusters of ``sizes[c]`` nodes, one shared channel each (protocols
    cycle), with ``gateways[c]`` dedicated gateway machines between cluster
    *c* and *c+1*, every one a member of both clusters' channels.  The
    last three arguments are name templates over cluster ``c`` (``t`` as a
    letter), node ``i`` and gateway ``g``."""
    b = _Builder(kind)
    members = [[b.node(node.format(c=c, t=chr(ord("a") + c), i=i))
                for i in range(size)] for c, size in enumerate(sizes)]
    endpoints = [name for cluster in members for name in cluster]
    # Gateways are created after all endpoints so endpoint ranks are stable
    # under gateway-count changes.
    for c, count in enumerate(gateways):
        for g in range(count):
            gw = b.node(gateway.format(c=c, g=g))
            members[c].append(gw)
            members[c + 1].append(gw)
    for c, cluster in enumerate(members):
        b.channel(channel.format(c=c), protocols[c % len(protocols)], cluster)
    return b.build(endpoints)


def chain(protocols: Sequence[str], sizes: Sequence[int],
          gateways: Sequence[int]) -> GeneratedTopology:
    """The cluster-of-clusters testbed (§3): cluster *c* is ``sizes[c]``
    nodes ``a0, a1, ...`` / ``b0, ...`` on channel ``c<c>`` over
    ``protocols[c]``, bridged to the next by ``gateways[c]`` parallel
    gateways ``gw<c><k>``."""
    return _cluster_chain("chain", sizes, gateways, protocols,
                          "{t}{i}", "gw{c}{g}", "c{c}")


def multirail(protocols: Sequence[str], rails: int) -> GeneratedTopology:
    """Two endpoints ``a0`` and ``b0`` with one NIC per rail, joined by
    ``rails`` disjoint rails ``ca<r>`` → ``gw<r>`` → ``cb<r>``."""
    pa, pb = protocols
    b = _Builder("multirail")
    b.node("a0")
    gws = [b.node(f"gw{r}") for r in range(rails)]
    b.node("b0")
    for r, gw in enumerate(gws):
        b.channel(f"ca{r}", pa, ["a0", gw])
        b.channel(f"cb{r}", pb, [gw, "b0"])
    # a0 and b0 sit on several channels without forwarding.
    return b.build(["a0", "b0"], gateways=gws)


def hierarchy(clusters: int = 3, cluster_size: int = 4,
              gateways_per_boundary: int = 1,
              protocols: Optional[Sequence[str]] = None) -> GeneratedTopology:
    """A chain of ``clusters`` homogeneous clusters.

    Cluster *k* is one shared channel of ``cluster_size`` nodes on protocol
    ``protocols[k % len(protocols)]`` (default alternates myrinet/sci, the
    paper's pairing).  Each boundary between consecutive clusters gets
    ``gateways_per_boundary`` dedicated gateway machines, every one a member
    of both clusters' channels — parallel gateways are parallel rails for
    striping and failover.
    """
    if clusters < 1:
        raise ValueError("need at least one cluster")
    if cluster_size < 1:
        raise ValueError("cluster_size must be >= 1")
    if gateways_per_boundary < 1:
        raise ValueError("gateways_per_boundary must be >= 1")
    return _cluster_chain(
        "hierarchy", [cluster_size] * clusters,
        [gateways_per_boundary] * (clusters - 1),
        list(protocols or ("myrinet", "sci")),
        "c{c}n{i}", "gw{c}_{g}", "cluster{c}")


def fat_tree(leaves: int = 4, spines: int = 2, hosts_per_leaf: int = 4,
             leaf_protocol: str = "myrinet",
             spine_protocol: str = "sci") -> GeneratedTopology:
    """A two-level leaf/spine fat-tree.

    Each leaf is one shared channel joining its hosts and its leaf switch;
    each (leaf, spine) pair gets a dedicated uplink channel.  Leaf switches
    and spines are forwarding nodes, so traffic between leaves crosses
    leaf → spine → leaf, and the ``spines`` parallel spine planes are
    channel-disjoint rails.
    """
    if leaves < 1 or spines < 1 or hosts_per_leaf < 1:
        raise ValueError("leaves, spines, and hosts_per_leaf must be >= 1")
    b = _Builder("fat_tree")
    endpoints: list[str] = []
    hosts: list[list[str]] = []
    for li in range(leaves):
        names = [b.node(f"l{li}h{h}") for h in range(hosts_per_leaf)]
        hosts.append(names)
        endpoints.extend(names)
    lsw = [b.node(f"lsw{li}") for li in range(leaves)]
    ssw = [b.node(f"ssw{s}") for s in range(spines)]
    for li in range(leaves):
        b.channel(f"leaf{li}", leaf_protocol, hosts[li] + [lsw[li]])
    for li in range(leaves):
        for s in range(spines):
            b.channel(f"up{li}_{s}", spine_protocol, [lsw[li], ssw[s]])
    return b.build(endpoints)


def torus(dims: Sequence[int], protocol: str = "myrinet") -> GeneratedTopology:
    """A 2D/3D torus direct network.

    Every link between neighbouring nodes is its own two-member channel on a
    dedicated NIC pair (per-link bandwidth, as in APEnet+-style 3D networks).
    Wraparound links are skipped along dimensions of size 2, where they would
    duplicate the direct link.  Every node is an endpoint; every node is also
    a gateway (direct networks forward through compute nodes).
    """
    dims = tuple(int(d) for d in dims)
    if len(dims) not in (2, 3):
        raise ValueError(f"torus dims must be 2D or 3D, got {dims!r}")
    if any(d < 2 for d in dims):
        raise ValueError(f"every torus dimension must be >= 2, got {dims!r}")
    b = _Builder("torus")
    coords = list(itertools.product(*(range(d) for d in dims)))
    name = {c: "t" + "_".join(str(x) for x in c) for c in coords}
    for c in coords:
        b.node(name[c])
    for axis, size in enumerate(dims):
        for c in coords:
            if c[axis] == size - 1 and size == 2:
                continue  # wraparound would duplicate the direct link
            nbr = list(c)
            nbr[axis] = (c[axis] + 1) % size
            b.channel(f"x{axis}_{name[c][1:]}", protocol,
                      [name[c], name[tuple(nbr)]])
    return b.build([name[c] for c in coords])
