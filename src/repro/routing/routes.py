"""Route computation for virtual channels.

Routes are minimum-hop paths over the channel graph; ties are broken
deterministically (lexicographically smallest rank sequence, then channel
id) so every node of the session computes identical tables — the paper's
configurations are statically configured (§2.3), and consistency between
the origin's choice and each gateway's next-hop choice is what keeps
multi-gateway forwarding loop-free.

Fault tolerance: the table additionally tracks *health* state.  A channel
(link) or a rank (gateway node) can be marked down — routes are then
computed over the surviving subgraph, and marked up again later.  Every
health transition invalidates the route cache, so stale hops can never be
returned; when no surviving path exists the table raises
:class:`NoRouteError` with a diagnostic naming what is down.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence, Union

if TYPE_CHECKING:  # pragma: no cover
    from ..madeleine.channel import RealChannel
    from ..telemetry import Telemetry

from .graph import ChannelGraph, build_graph

__all__ = ["Hop", "RouteTable", "NoRouteError", "MAX_ROUTE_CANDIDATES"]

#: Cap on the number of shortest node-paths :meth:`RouteTable.all_routes`
#: enumerates.  On highly symmetric graphs (tori, fat-trees) the number of
#: equal-cost paths grows combinatorially with distance; rail selection only
#: ever consumes a handful of disjoint candidates, so enumeration stops after
#: this many paths (they are yielded in a deterministic order, so the
#: truncated set is still reproducible across runs).
MAX_ROUTE_CANDIDATES = 64


class NoRouteError(RuntimeError):
    """The virtual channel does not connect the two ranks."""


@dataclass(frozen=True)
class Hop:
    """One forwarding step: ``src`` transmits to ``dst`` over ``channel``."""

    channel: "RealChannel"
    src: int
    dst: int

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Hop {self.src}->{self.dst} via {self.channel.id}>"


def _route_key(hops: list[Hop]) -> tuple:
    """Deterministic ordering of parallel routes: hop count, then the
    per-hop channel-id sequence, then the rank sequence."""
    return (len(hops), tuple(h.channel.id for h in hops),
            tuple(h.src for h in hops) + (hops[-1].dst,))


def _channel_id(channel: Union["RealChannel", str]) -> str:
    cid = channel if isinstance(channel, str) else channel.id
    # The special (forwarding) twin of a channel shares its physical rail:
    # marking either marks the rail.  Twins are named "<id>!fwd" by the
    # virtual channel; normalize so callers can pass either.
    return cid[:-4] if cid.endswith("!fwd") else cid


def _shortest_paths(g: ChannelGraph, src: int, dst: int):
    """Every minimum-hop rank path from ``src`` to ``dst`` (none when they
    are not connected).  Breadth-first levels from ``src`` in adjacency
    order give each rank its predecessors in discovery order; paths are
    read back from ``dst`` depth-first over those lists, first predecessor
    first — the order ``MAX_ROUTE_CANDIDATES`` truncates."""
    level = {src: 0}
    pred: dict[int, list[int]] = {src: []}
    frontier = [src]
    d = 0
    while frontier and dst not in level:
        d += 1
        nxt = []
        for node in frontier:
            for nbr in g.adj[node]:
                if nbr not in level:
                    level[nbr] = d
                    pred[nbr] = [node]
                    nxt.append(nbr)
                elif level[nbr] == d:
                    pred[nbr].append(node)
        frontier = nxt

    def back(node: int, tail: tuple):
        if node == src:
            yield [src, *tail]
        for p in pred[node]:
            yield from back(p, (node, *tail))

    if dst in level:
        yield from back(dst, ())


class RouteTable:
    """All-pairs minimum-hop routes over a set of real channels."""

    def __init__(self, channels: Sequence["RealChannel"],
                 telemetry: Optional["Telemetry"] = None) -> None:
        self.channels = list(channels)
        self.graph = build_graph(self.channels)
        self._cache: dict[tuple[int, int], list[Hop]] = {}
        #: per-destination BFS distance maps over the active graph; shared by
        #: every source routing toward that destination, so a table over an
        #: N-node topology costs one BFS per destination instead of one
        #: shortest-path enumeration per (src, dst) pair.
        self._dist: dict[int, dict[int, int]] = {}
        self._down_channels: set[str] = set()
        self._down_nodes: set[int] = set()
        self._active: Optional[ChannelGraph] = None
        self._generation = 0
        if telemetry is None:
            from ..telemetry import NULL_TELEMETRY
            telemetry = NULL_TELEMETRY
        m = telemetry.metrics
        self._m_recomputes = m.counter("routing.recomputes")
        self._m_invalidations = m.counter("routing.invalidations")
        self._m_down = m.counter("routing.down_transitions")
        self._m_up = m.counter("routing.up_transitions")

    def members(self) -> list[int]:
        return sorted(self.graph.nodes)

    # -- health -------------------------------------------------------------
    @property
    def generation(self) -> int:
        """Monotonic counter bumped by every cache invalidation.

        Consumers that derive state from routes (the multirail stripe
        scheduler caches its rail set) compare generations instead of
        subscribing to health events, so a revived rail is picked up again
        without anyone calling :meth:`invalidate` by hand.
        """
        return self._generation

    def invalidate(self) -> None:
        """Drop all cached routes (and the cached surviving subgraph).

        Called on every health transition so a route computed before a
        failure can never be served after it.
        """
        self._cache.clear()
        self._dist.clear()
        self._active = None
        self._generation += 1
        self._m_invalidations.inc()

    def mark_down(self, channel: Union["RealChannel", str]) -> None:
        """Record that ``channel`` (or its forwarding twin) is unusable.

        Idempotent: re-marking a channel that is already down is a no-op —
        no spurious transition count, no cache invalidation.
        """
        cid = _channel_id(channel)
        if cid in self._down_channels:
            return
        self._down_channels.add(cid)
        self._m_down.inc()
        self.invalidate()

    def mark_up(self, channel: Union["RealChannel", str]) -> None:
        """Record that ``channel`` (or its forwarding twin) came back.

        A real down->up transition invalidates the route cache, so routes
        (and the stripe scheduler's rail set) immediately include the
        revived rail; marking an already-live channel up is a no-op.
        """
        cid = _channel_id(channel)
        if cid not in self._down_channels:
            return
        self._down_channels.discard(cid)
        self._m_up.inc()
        self.invalidate()

    def mark_node_down(self, rank: int) -> None:
        """Record that a rank (typically a crashed gateway) is unusable."""
        if rank in self._down_nodes:
            return
        self._down_nodes.add(rank)
        self._m_down.inc()
        self.invalidate()

    def mark_node_up(self, rank: int) -> None:
        """Record that a rank restarted; same transition-only semantics as
        :meth:`mark_up`."""
        if rank not in self._down_nodes:
            return
        self._down_nodes.discard(rank)
        self._m_up.inc()
        self.invalidate()

    @property
    def down_channels(self) -> frozenset[str]:
        return frozenset(self._down_channels)

    @property
    def down_nodes(self) -> frozenset[int]:
        return frozenset(self._down_nodes)

    def is_healthy(self) -> bool:
        return not self._down_channels and not self._down_nodes

    @property
    def active_graph(self) -> ChannelGraph:
        """The channel graph restricted to live channels and live ranks."""
        if self._active is None:
            if self.is_healthy():
                self._active = self.graph
            else:
                self._active = self.graph.without(
                    lambda cid: _channel_id(cid) in self._down_channels,
                    self._down_nodes)
        return self._active

    def _unreachable(self, rank: int) -> NoRouteError:
        if rank in self.graph:
            return NoRouteError(
                f"rank {rank} is unreachable: partitioned by failures "
                f"(channels down: {sorted(self._down_channels) or 'none'}, "
                f"nodes down: {sorted(self._down_nodes) or 'none'})")
        return NoRouteError(
            f"rank {rank} is not reachable on this virtual channel")

    # -- routes -------------------------------------------------------------
    def route(self, src: int, dst: int) -> list[Hop]:
        """Hops from ``src`` to ``dst`` (length 1 = direct, no forwarding)."""
        if src == dst:
            raise ValueError("route to self")
        key = (src, dst)
        if key not in self._cache:
            self._cache[key] = self._compute(src, dst)
        return self._cache[key]

    def all_routes(self, src: int, dst: int) -> list[list[Hop]]:
        """Every minimum-hop route, deterministically ordered — the
        parallel *rails* a multi-gateway (or multi-NIC) configuration
        offers.

        Unlike :meth:`route`, parallel edges are not collapsed: a node pair
        joined by two live channels contributes one route per channel, so
        dual-NIC rails are enumerated too.  The order is a stable
        tie-break on (hop count, per-hop channel-id sequence, rank
        sequence), independent of graph insertion order — stripe scheduling
        and benches reproduce across runs.
        """
        if src == dst:
            raise ValueError("route to self")
        g = self.active_graph
        for rank in (src, dst):
            if rank not in g:
                raise self._unreachable(rank)
        paths = list(itertools.islice(_shortest_paths(g, src, dst),
                                      MAX_ROUTE_CANDIDATES))
        if not paths:
            raise self._no_path(src, dst)
        routes: list[list[Hop]] = []
        for path in paths:
            routes.extend(self._expand_path(path))
            if len(routes) >= MAX_ROUTE_CANDIDATES:
                del routes[MAX_ROUTE_CANDIDATES:]
                break
        routes.sort(key=_route_key)
        return routes

    def _expand_path(self, path: list[int]) -> list[list[Hop]]:
        """All hop sequences along one node path: the cartesian product of
        the live parallel channels of each consecutive pair."""
        g = self.active_graph
        choices = []
        for a, b in zip(path, path[1:]):
            chans = g.adj[a][b]
            choices.append([Hop(channel=chans[cid], src=a, dst=b)
                            for cid in sorted(chans)])
        return [list(combo) for combo in itertools.product(*choices)]

    def next_hop(self, at: int, dst: int) -> Hop:
        """The hop a node (typically a gateway) takes toward ``dst``."""
        return self.route(at, dst)[0]

    def hop_count(self, src: int, dst: int) -> int:
        return len(self.route(src, dst))

    def _no_path(self, src: int, dst: int) -> NoRouteError:
        detail = ""
        if not self.is_healthy():
            detail = (f" (surviving subgraph is partitioned; channels down: "
                      f"{sorted(self._down_channels) or 'none'}, nodes down: "
                      f"{sorted(self._down_nodes) or 'none'})")
        return NoRouteError(f"no route from {src} to {dst}{detail}")

    def _distances(self, dst: int) -> dict[int, int]:
        """Hop distance of every rank that can reach ``dst`` (BFS, cached).

        One map serves every source routing toward ``dst`` — the gateways
        along a route share the origin's map instead of each enumerating
        shortest paths from scratch, which keeps per-flow routing state O(1)
        once the map is warm.
        """
        dist = self._dist.get(dst)
        if dist is None:
            g = self.active_graph
            dist = {dst: 0}
            frontier = [dst]
            d = 0
            while frontier:
                d += 1
                nxt = []
                for node in frontier:
                    for nbr in g.adj[node]:
                        if nbr not in dist:
                            dist[nbr] = d
                            nxt.append(nbr)
                frontier = nxt
            self._dist[dst] = dist
        return dist

    def _compute(self, src: int, dst: int) -> list[Hop]:
        self._m_recomputes.inc()
        g = self.active_graph
        for rank in (src, dst):
            if rank not in g:
                raise self._unreachable(rank)
        dist = self._distances(dst)
        d = dist.get(src)
        if d is None:
            raise self._no_path(src, dst)
        # Greedy descent over the BFS distance map: at each step take the
        # smallest-rank neighbour one hop closer to dst.  This is exactly the
        # lexicographically smallest shortest path (the old
        # min(all_shortest_paths) tie-break) without enumerating the
        # combinatorial path set of symmetric topologies.
        path = [src]
        cur = src
        while d:
            cur = min(n for n in g.adj[cur] if dist.get(n) == d - 1)
            path.append(cur)
            d -= 1
        return self._hops_for(path)

    def _hops_for(self, path: list[int]) -> list[Hop]:
        g = self.active_graph
        hops: list[Hop] = []
        for a, b in zip(path, path[1:]):
            # Deterministic channel choice among (live) parallel edges.
            chans = g.adj[a][b]
            hops.append(Hop(channel=chans[min(chans)], src=a, dst=b))
        return hops
