"""Static network view of a :class:`~repro.scenario.Scenario`.

The analytic solver never builds a simulation world: this module turns a
scenario's topology into the three things the fixed-point iteration needs,
using *exactly* the DES's own routing machinery so solver and simulator
agree on which wires a flow crosses:

* **routes** — a :class:`~repro.routing.RouteTable` over lightweight channel
  stubs (the table only reads ``id``/``members``, so no simulator state is
  required); minimum-hop selection, deterministic tie-breaks, and the
  disjoint-rail enumeration used by striping are therefore bit-identical to
  what :class:`~repro.madeleine.VirtualChannel` computes;
* **resources** — the shared capacities congestion lives on: each node's
  PCI bus (every NIC transfer crosses it; a forwarding node pays twice),
  each NIC (one ``host_peak`` stream per adapter), and each channel's wire;
* **footprints** — per-route ``(resource, weight)`` lists plus the
  analytic rate ceiling from the §3.3.1 gateway-pipeline kernel
  (:func:`~repro.analysis.model.fragment_time` for direct hops,
  ``_rail_period`` for every gateway relay along the route).

Per-flow state points at shared objects: a footprint's keys are the
:attr:`Resource.key` tuples themselves and each ``(key, weight)`` entry comes
from one intern table of the network, so a scenario of thousands of flows
holds one object per distinct entry, not one per flow and hop.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from typing import Optional, Sequence

from ..analysis.model import _rail_period, fragment_time, route_setup_time
from ..hw.params import (DEFAULT_NODE, PROTOCOLS, GatewayParams, NodeParams,
                         ProtocolParams)
from ..routing import Hop, RouteTable, disjoint_routes, negotiate_mtu
from ..scenario import Scenario

__all__ = ["Resource", "RoutedFlow", "SolverNetwork"]


@dataclass(frozen=True)
class _StubChannel:
    """The slice of :class:`~repro.madeleine.RealChannel` the route table
    reads: an id, member ranks, the protocol, and each member's NIC index."""

    id: str
    protocol: ProtocolParams
    members: tuple[int, ...]
    adapter_index: Mapping[int, int]

    def nic(self, rank: int) -> tuple:
        """The (node, protocol, adapter) key of ``rank``'s seat."""
        return (rank, self.protocol.name, self.adapter_index.get(rank, 0))


@dataclass(frozen=True)
class Resource:
    """One shared capacity: a PCI bus, a NIC, or a channel wire."""

    key: tuple
    capacity: float        # bytes/µs


@dataclass(frozen=True)
class RoutedFlow:
    """One fluid flow the allocator sees: a rail (or rail subset) of an
    application flow, with its analytic ceiling and resource footprint."""

    id: tuple                      # (flow index, rail index)
    nbytes: float                  # fractional for stripe chunks
    arrival: float
    ceiling: float                 # bytes/µs, from the pipeline kernel
    setup_us: float                # route-aware pre-streaming setup
    #: ``((resource key, weight), ...)``; built by :class:`SolverNetwork`,
    #: every key is its :attr:`Resource.key` and every entry is shared with
    #: the other flows that carry an equal one.
    footprint: tuple[tuple[tuple, int], ...]
    #: interned integer resource ids aligned with ``footprint`` (see
    #: :attr:`SolverNetwork.res_index`) — the epoch loop's contention
    #: bookkeeping indexes arrays by these instead of hashing key tuples.
    res_ids: tuple = ()


class SolverNetwork:
    """Routes, resources, and per-flow cost kernels for one scenario."""

    def __init__(self, scenario: Scenario,
                 node_params: Optional[NodeParams] = None,
                 gateway_params: Optional[GatewayParams] = None) -> None:
        self.scenario = scenario
        topo = scenario.topology
        #: node name → rank, matching ``build_world`` insertion order.
        self.rank = {name: i for i, name in enumerate(topo.node_spec())}
        self.names = list(self.rank)
        self.node = node_params or DEFAULT_NODE
        self.gateway = scenario.gateway_params(gateway_params)
        self.stripe = scenario.stripe_policy
        self.channels: list[_StubChannel] = []
        by_id: dict[str, _StubChannel] = {}
        for name, proto, members, aidx in topo.channel_specs():
            ranks = tuple(self.rank[m] for m in members)
            if isinstance(aidx, Mapping):
                amap = {self.rank[m]: aidx.get(m, 0) for m in members}
            else:
                amap = {self.rank[m]: int(aidx) for m in members}
            stub = _StubChannel(id=name, protocol=PROTOCOLS[proto],
                                members=ranks, adapter_index=amap)
            self.channels.append(stub)
            by_id[name] = stub
        self._by_id = by_id
        self.routes = RouteTable(self.channels)
        self._resources: dict[tuple, Resource] = {}
        self._res_index: dict[tuple, int] = {}
        #: ``(channel id, src, dst)`` → the canonical keys one hop loads.
        self._hop_keys: dict[tuple, tuple] = {}
        #: ``(key, weight)`` → the one shared footprint entry equal to it.
        self._entries: dict[tuple, tuple] = {}
        #: per-route kernel results.  Packet size, gateway (its pipeline
        #: included) and node are fixed for this network and a channel's protocol is
        #: ``PROTOCOLS[name]``, so :meth:`ceiling` is a function of
        #: ``(protocol names along the route, end_share)`` and
        #: :meth:`setup_time` of those plus ``rails`` — the two key shapes.
        self._kernels: dict[tuple, float] = {}
        for ch in self.channels:
            self._add_resource(("link", ch.id), ch.protocol.link_bandwidth)
            for rank in ch.members:
                self._add_resource(("pci", rank), self.node.pci.capacity)
                self._add_resource(("nic",) + ch.nic(rank),
                                   ch.protocol.host_peak)
        # One unit-capacity receive slot per endpoint: the DES delivers one
        # incoming *message* at a time per node (connection locks, FIFO
        # receivers), so k concurrent flows into one endpoint each make
        # ~1/k progress even when NIC bandwidth is spare.  Each flow loads
        # the slot with ``rate / its solo ceiling`` (all rails of a striped
        # flow are one message and share one load term), which is the fluid
        # processor-sharing analogue of that FIFO — a solo flow saturates
        # its slot exactly when it reaches its ceiling, changing nothing.
        for name in topo.endpoint_names():
            self._add_resource(("rx", self.rank[name]), 1.0)

    def _add_resource(self, key: tuple, capacity: float) -> None:
        if key not in self._resources:
            self._resources[key] = Resource(key=key, capacity=capacity)
            self._res_index[key] = len(self._res_index)

    @property
    def resources(self) -> dict[tuple, Resource]:
        return self._resources

    @property
    def res_index(self) -> dict:
        """Resource key → dense integer id (registration order)."""
        return self._res_index

    def res_keys(self) -> list[tuple]:
        """Resource keys in id order (the inverse of :attr:`res_index`)."""
        return list(self._res_index)

    def _intern(self, footprint: tuple) -> tuple:
        """The ``res_ids`` tuple matching ``footprint`` entry for entry."""
        return tuple(self._res_index[key] for key, _w in footprint)

    def rail_entries(self, rf: RoutedFlow) -> tuple:
        """``((resource id, weight), ...)`` of ``rf``, aligned with its
        footprint — the shape the epoch loop reads.  The pairs come from
        the same intern table as the footprint entries (an id is an int and
        a key a tuple, so the two kinds never compare equal)."""
        entry = self._entries.setdefault
        return tuple([entry(iw, iw) for iw in
                      zip(rf.res_ids, [w for _k, w in rf.footprint])])

    # -- per-route kernels ---------------------------------------------------
    def packet_for(self, route: Sequence[Hop]) -> int:
        """The fragment size the GTM would negotiate on ``route``."""
        return negotiate_mtu(route, self.scenario.packet_size)

    def route_protocols(self, route: Sequence[Hop]) -> list[ProtocolParams]:
        return [h.channel.protocol for h in route]

    def ceiling(self, route: Sequence[Hop],
                end_share: float = float("inf")) -> float:
        """Steady-state rate limit of one flow on ``route`` (bytes/µs).

        Direct routes stream fragments back to back at the (possibly
        end-shared) host rate; forwarded routes are limited by the slowest
        gateway pipeline along the way, computed with the same
        ``_rail_period`` kernel the closed-form predictions use — a 2-hop
        route therefore reproduces :func:`predict_forwarding` exactly, and
        an ``end_share``-capped rail reproduces :func:`predict_multirail`'s
        per-rail figure.  Memoised per protocol sequence and ``end_share``.
        """
        key = (tuple([h.channel.protocol.name for h in route]), end_share)
        rate = self._kernels.get(key)
        if rate is None:
            rate = self._kernels[key] = self._ceiling(route, end_share)
        return rate

    def _ceiling(self, route: Sequence[Hop], end_share: float) -> float:
        packet = self.packet_for(route)
        protos = self.route_protocols(route)
        if len(protos) == 1:
            p = protos[0]
            rate = min(p.host_peak, end_share)
            return packet / fragment_time(p, packet, rate=rate)
        period = 0.0
        for p_in, p_out in zip(protos, protos[1:]):
            _r, _s, step = _rail_period(p_in, p_out, packet, self.gateway,
                                        self.node, end_share=end_share)
            period = max(period, step)
        return packet / period

    def steady_period(self, route: Sequence[Hop],
                      end_share: float = float("inf")) -> float:
        """Bottleneck pipeline period of ``route`` (µs per fragment)."""
        return self.packet_for(route) / self.ceiling(route, end_share)

    def setup_time(self, route: Sequence[Hop], rails: int = 1,
                   end_share: float = float("inf")) -> float:
        """Route-aware pre-streaming setup (announce, stripe record,
        per-gateway switch, pipeline fill) — the shared
        :func:`~repro.analysis.model.route_setup_time` helper.  Memoised
        per protocol sequence, ``end_share`` and ``rails``."""
        key = (tuple([h.channel.protocol.name for h in route]), end_share,
               rails)
        setup = self._kernels.get(key)
        if setup is None:
            setup = self._kernels[key] = route_setup_time(
                self.route_protocols(route),
                self.steady_period(route, end_share),
                gateway=self.gateway, rails=rails)
        return setup

    def footprint(self, route: Sequence[Hop]) -> tuple:
        """``((resource key, weight), ...)`` of one unit-rate flow on
        ``route``: each hop loads its channel wire, both seats' NICs, and
        both seats' PCI buses (so an interior gateway is loaded twice —
        once receiving, once retransmitting).  Sorted by key; keys and
        entries are the network's shared objects."""
        weights: dict[tuple, int] = {}
        for hop in route:
            for key in self._keys_of(hop):
                weights[key] = weights.get(key, 0) + 1
        entry = self._entries.setdefault
        return tuple([entry(kw, kw) for kw in sorted(weights.items())])

    def _keys_of(self, hop: Hop) -> tuple:
        """The five canonical resource keys ``hop`` loads, looked up once
        per ``(channel id, src, dst)``."""
        ch = hop.channel
        edge = (ch.id, hop.src, hop.dst)
        keys = self._hop_keys.get(edge)
        if keys is None:
            res = self._resources
            keys = self._hop_keys[edge] = tuple(
                res[key].key for key in (("link", ch.id),
                                         ("nic",) + ch.nic(hop.src),
                                         ("nic",) + ch.nic(hop.dst),
                                         ("pci", hop.src),
                                         ("pci", hop.dst)))
        return keys

    def _rx_entry(self, dst: int, weight: float) -> tuple:
        """The shared ``(("rx", dst), weight)`` entry of a flow's receive
        slot; rx entries are the only float-weighted ones, so equality never
        merges one with a hop's integer count."""
        kw = (self._resources[("rx", dst)].key, weight)
        return self._entries.setdefault(kw, kw)

    # -- flow expansion ------------------------------------------------------
    def rails_for(self, src: int, dst: int) -> list[list[Hop]]:
        """The disjoint rail set striping would use (primary route only
        when no stripe policy is configured)."""
        if self.stripe is None:
            return [self.routes.route(src, dst)]
        rails = disjoint_routes(self.routes.all_routes(src, dst),
                                self.stripe.max_rails)
        return rails or [self.routes.route(src, dst)]

    def routed_flows(self, index: int, src_name: str, dst_name: str,
                     nbytes: int, arrival: float = 0.0) -> list[RoutedFlow]:
        """Expand one application flow into its rail flows.

        A striped flow splits across its disjoint rails in proportion to
        each rail's ceiling (the fluid limit of the water-filling stripe
        scheduler), with every rail's end-host rate capped at a
        ``capacity / rails`` fair share exactly as in
        :func:`predict_multirail`; an unstriped (or too-small) flow rides
        its primary route alone.
        """
        src, dst = self.rank[src_name], self.rank[dst_name]
        rails = self.rails_for(src, dst)
        if (len(rails) < 2 or self.stripe is None
                or nbytes < 2 * self.stripe.min_stripe):
            route = rails[0] if len(rails) < 2 else self.routes.route(src, dst)
            ceil = self.ceiling(route)
            footprint = self.footprint(route) \
                + (self._rx_entry(dst, 1.0 / ceil),)
            return [RoutedFlow(id=(index, 0), nbytes=nbytes, arrival=arrival,
                               ceiling=ceil,
                               setup_us=self.setup_time(route),
                               footprint=footprint,
                               res_ids=self._intern(footprint))]
        share = self.node.pci.capacity / len(rails)
        ceilings = [self.ceiling(r, end_share=share) for r in rails]
        total = sum(ceilings)
        out = []
        assigned = 0.0
        # fractional byte counts: the fluid split is exact, and rounding to
        # whole bytes would skew the max-over-rails finish time.
        for k, (route, ceil) in enumerate(zip(rails, ceilings)):
            chunk = (nbytes - assigned if k == len(rails) - 1
                     else nbytes * ceil / total)
            assigned += chunk
            footprint = self.footprint(route) \
                + (self._rx_entry(dst, 1.0 / total),)
            out.append(RoutedFlow(
                id=(index, k), nbytes=chunk, arrival=arrival, ceiling=ceil,
                setup_us=self.setup_time(route, rails=len(rails),
                                         end_share=share),
                footprint=footprint,
                res_ids=self._intern(footprint)))
        return out
