"""Connectivity graph over the real channels of a virtual channel.

Every real channel is a full crossbar among its members (a switch), so the
graph carries one edge per (channel, member pair).  Gateways are the ranks
that belong to more than one channel.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Callable, Collection, Sequence

if TYPE_CHECKING:  # pragma: no cover
    from ..madeleine.channel import RealChannel

__all__ = ["ChannelGraph", "build_graph", "gateway_ranks"]


class ChannelGraph:
    """Undirected multigraph as a plain adjacency map.

    ``adj[rank][neighbour]`` is ``{channel id: channel}`` — the parallel
    channels joining the pair, one dict shared by both directions.  Ranks
    and neighbours iterate in insertion order; route enumeration walks that
    order, so it is part of what ``tests/data/routes_golden.json`` pins.
    """

    __slots__ = ("adj",)

    def __init__(self) -> None:
        self.adj: dict[int, dict[int, dict]] = {}

    @property
    def nodes(self):
        return self.adj.keys()

    def __contains__(self, rank) -> bool:
        return rank in self.adj

    def number_of_edges(self) -> int:
        return sum(len(chans) for nbrs in self.adj.values()
                   for chans in nbrs.values()) // 2

    def add_edge(self, a: int, b: int, channel: "RealChannel") -> None:
        chans = self.adj[a].get(b)
        if chans is None:
            chans = self.adj[a][b] = self.adj[b][a] = {}
        chans[channel.id] = channel

    def without(self, channel_down: Callable[[str], bool],
                nodes: Collection[int]) -> "ChannelGraph":
        """The subgraph that survives ``channel_down(channel id)`` edges and
        the ranks in ``nodes``.  Pairs are re-joined rank by rank in
        adjacency order — *not* in channel order — so a neighbour list can
        be ordered differently from the full graph's; the route goldens
        were recorded over that order."""
        g = ChannelGraph()
        g.adj = {rank: {} for rank in self.adj if rank not in nodes}
        for a, nbrs in self.adj.items():
            if a in nodes:
                continue
            for b, chans in nbrs.items():
                if b in nodes:
                    continue
                for ch in chans.values():
                    if not channel_down(ch.id):
                        g.add_edge(a, b, ch)
        return g


def build_graph(channels: Sequence["RealChannel"]) -> ChannelGraph:
    """Nodes are ranks, one edge per channel per member pair, keyed by the
    channel id and carrying the channel object."""
    g = ChannelGraph()
    for ch in channels:
        for rank in ch.members:
            g.adj.setdefault(rank, {})
        for a, b in itertools.combinations(ch.members, 2):
            g.add_edge(a, b, ch)
    return g


def gateway_ranks(channels: Sequence["RealChannel"]) -> list[int]:
    """Ranks present on two or more channels (candidate forwarders)."""
    seen: dict[int, set[str]] = {}
    for ch in channels:
        for rank in ch.members:
            seen.setdefault(rank, set()).add(ch.id)
    return sorted(r for r, ids in seen.items() if len(ids) >= 2)
