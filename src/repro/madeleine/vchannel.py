"""Virtual channels (§2.2.1).

A virtual channel bundles a set of real channels into one addressing domain.
Creating one:

* builds, per member real channel, a *special* twin used exclusively for
  messages that still have gateways ahead of them (Figure 3);
* computes minimum-hop routes over the member channels;
* spawns a forwarding worker on every (gateway, incoming special channel).

``begin_packing`` picks the underlying machinery dynamically: a direct
(route length 1) message goes through the regular per-protocol path exactly
as before; anything longer goes through the Generic Transmission Module.
The application never sees the difference — the paper's transparency claim.
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

from dataclasses import replace as _dc_replace

from ..hw.params import GatewayParams, PipelineConfig
from ..routing import (RouteTable, StripePolicy, StripeScheduler,
                       disjoint_routes, gateway_ranks, negotiate_mtu,
                       tune_fragment_size)
from ..sim import Event, Queue
from .adaptive import TransportPolicy, apply_restripe
from .bmm import UnpackMismatch
from .channel import RealChannel
from .endpoint import MessageEndpoint
from .gateway import ForwardingWorker
from .gtm import GTMIncoming, GTMOutgoing
from .message import IncomingMessage, OutgoingMessage
from .stripe import StripedIncoming, StripedOutgoing
from .wire import MODE_GTM, MODE_REGULAR

__all__ = ["VirtualChannel", "VChannelEndpoint"]

DEFAULT_PACKET_SIZE = 16 << 10


class VChannelEndpoint(MessageEndpoint):
    """One rank's view of a virtual channel: a unified incoming stream over
    every member regular channel the rank belongs to."""

    def __init__(self, vchannel: "VirtualChannel", rank: int) -> None:
        self.vchannel = vchannel
        self.rank = rank
        sim = vchannel.sim
        self.incoming: Queue = Queue(sim, name=f"{vchannel.name}@{rank}.in")
        #: open stripe groups keyed by (origin, stripe_id): striped rails
        #: arriving on any member channel join here until the group is full.
        self._stripe_groups: dict[tuple[int, int], StripedIncoming] = {}
        self._channels = [ch for ch in vchannel.channels
                          if rank in ch.members]
        for ch in self._channels:
            sim.process(self._mover(ch), name=f"vmove:{ch.id}@{rank}")

    def _mover(self, channel: RealChannel):
        ep = channel.endpoint(self.rank)
        while True:
            announce, hop_src = yield ep.incoming.get()
            if announce.mode == MODE_GTM and announce.striped:
                # One rail of a stripe group: consume it here instead of
                # surfacing a per-rail message to the application.  The
                # rail identifies its group in its stripe record, read on
                # the rail's own executor so the mover never blocks.
                self._attach_stripe_rail(ep, announce, hop_src)
                continue
            yield self.incoming.put((channel, announce, hop_src))

    # -- stripe reassembly --------------------------------------------------------
    def _attach_stripe_rail(self, ep, announce, hop_src: int) -> None:
        rail = GTMIncoming(ep, announce, hop_src)
        rail.read_stripe_record().add_callback(
            lambda ev: self._join_stripe_group(rail, ev))

    def _join_stripe_group(self, rail: GTMIncoming, ev: Event) -> None:
        if not ev.ok:
            if self.vchannel._injector is not None:
                # Rail died — or its stripe record arrived corrupted —
                # before identifying its group.  Defuse so the kernel does
                # not re-raise through step(), abort the rail to reclaim
                # anything it still holds, and let the reliable layer's
                # retransmission recover the message end to end.
                ev.defuse()
                rail.abort()
                self.vchannel._m_rails_abandoned.inc()
                return
            raise ev.value
        record = ev.value
        key = (rail.origin, record.stripe_id)
        group = self._stripe_groups.get(key)
        if group is None:
            group = StripedIncoming(self.vchannel, rail.origin,
                                    record.stripe_id, record.total)
            self._stripe_groups[key] = group
            # The group surfaces to the application once, when its first
            # rail arrives; the channel slot is None because the message
            # spans several member channels.
            self.incoming.put_nowait((None, group, rail.origin))
        try:
            group.attach(record, rail)
        except UnpackMismatch:
            if self.vchannel._injector is None:
                raise
            # A corrupted stripe record can forge another group's identity
            # — wrong rail count, or a seq slot already taken.  The clash
            # is correct to raise on a clean wire, but under injection it
            # is the wire's fault: abandon the rail and let retransmission
            # recover whichever message it belonged to.  A group opened by
            # a forged record never completes; the reliable receiver's
            # stall bound aborts it.
            rail.abort()
            self.vchannel._m_rails_abandoned.inc()
            return
        if group.complete:
            del self._stripe_groups[key]

    # -- user interface ---------------------------------------------------------
    def begin_packing(self, dst: int) -> Union[OutgoingMessage, GTMOutgoing, StripedOutgoing]:
        return self.vchannel._begin_packing(self.rank, dst)

    def begin_unpacking(self) -> Event:
        """Event yielding the next incoming message — an
        :class:`IncomingMessage` or a :class:`GTMIncoming` depending on the
        pre-body announce, invisible to the caller."""
        out = self.vchannel.sim.event()
        got = self.incoming.get()

        def build(ev: Event) -> None:
            channel, announce, hop_src = ev.value
            if channel is None:
                # A reassembled stripe group (built by the mover); the
                # announce slot already holds the StripedIncoming.
                out.succeed(announce)
                return
            ep = channel.endpoint(self.rank)
            if announce.mode == MODE_GTM:
                out.succeed(GTMIncoming(ep, announce, hop_src))
            elif announce.mode == MODE_REGULAR:
                out.succeed(IncomingMessage(ep, announce, hop_src))
            else:  # pragma: no cover - decode validates modes already
                out.fail(ValueError(f"bad announce mode {announce.mode}"))

        got.add_callback(build)
        return out


class VirtualChannel:
    """A set of real channels with transparent inter-device forwarding."""

    def __init__(self, channels: Sequence[RealChannel],
                 packet_size: int = DEFAULT_PACKET_SIZE,
                 gateway_params: Optional[GatewayParams] = None,
                 name: str = "", multirail: bool = False,
                 header_batching: bool = False,
                 pipeline: Optional[PipelineConfig] = None,
                 stripe_policy: Optional[StripePolicy] = None,
                 transport_policy: Optional[TransportPolicy] = None) -> None:
        if not channels:
            raise ValueError("a virtual channel needs at least one real channel")
        worlds = {id(ch.world) for ch in channels}
        if len(worlds) != 1:
            raise ValueError("member channels belong to different worlds")
        if any(ch.special for ch in channels):
            raise ValueError("virtual channels are built from regular channels")
        self.channels = list(channels)
        self.world = channels[0].world
        self.sim = self.world.sim
        self.packet_size = packet_size
        gp = gateway_params or GatewayParams()
        if pipeline is not None:
            gp = _dc_replace(gp, pipeline=pipeline)
        self.gateway_params = gp
        #: the forwarding-pipeline config every worker runs.
        self.pipeline = gp.pipeline
        #: per-route tuned fragment sizes (adaptive MTU mode).
        self._mtu_cache: dict[tuple[str, ...], int] = {}
        #: probe-measured per-protocol host rates refining the tuner.
        self._rate_overrides: Optional[dict[str, float]] = None
        self.name = name or f"vch({','.join(ch.id for ch in channels)})"
        self.routes = RouteTable(self.channels,
                                 telemetry=self.world.telemetry)
        #: reroute-forcing health losses seen by this virtual channel.
        self._m_failovers = self.world.telemetry.metrics.counter(
            "vchannel.failovers", vchannel=self.name)
        # Special (forwarding) twin per member channel, §2.2.2 / Figure 3.
        self._specials: dict[str, RealChannel] = {
            ch.id: RealChannel(self.world, ch.protocol.name, ch.members,
                               name=f"{ch.id}!fwd",
                               adapter_index=ch.adapter_index, special=True)
            for ch in self.channels
        }
        #: multi-rail mode: when several minimum-hop routes exist (parallel
        #: gateways), spread successive messages across them round-robin.
        #: Inter-message ordering between one pair is then no longer
        #: guaranteed — the standard multi-rail trade-off.
        self.multirail = multirail
        #: header batching (§2.3): piggyback each buffer's self-description
        #: record on its first fragment instead of spending a wire record on
        #: it.  Negotiated per message through the announce, so receivers
        #: and gateways need no out-of-band agreement.  Off by default: the
        #: calibrated paper figures were measured without it.
        self.header_batching = header_batching
        self._rail_counters: dict[tuple[int, int], int] = {}
        #: transparent multirail striping: when set and several disjoint
        #: rails exist between a pair, each large paquet is split across
        #: them (§ docs/performance.md).  Orthogonal to ``multirail``
        #: (round-robin), which spreads whole *messages*.
        self.stripe_policy = stripe_policy
        # (generation, rails, scheduler) per pair; rebuilt whenever the
        # route table invalidates, so a revived rail rejoins the stripe
        # set without anyone touching the cache by hand.
        self._stripe_plans: dict[tuple[int, int],
                                 tuple[int, list, StripeScheduler]] = {}
        m = self.world.telemetry.metrics
        self._m_stripes_sent = m.counter("vchannel.stripes_sent",
                                         vchannel=self.name)
        #: stripes consumed by a completed reassembly; pairs with
        #: ``stripes_sent`` in the striping conservation law
        #: (docs/robustness.md) — they match once every striped message
        #: has fully drained.
        self._m_stripes_reassembled = m.counter("vchannel.stripes_reassembled",
                                                vchannel=self.name)
        #: stripe rails whose record never decoded (sender crash mid-record
        #: or corruption in transit); the whole striped message is left to
        #: the reliable layer to retransmit.
        self._m_rails_abandoned = m.counter("vchannel.stripe_rails_abandoned",
                                            vchannel=self.name)
        self._h_stripe_depth = m.histogram(
            "vchannel.stripe_reassembly_depth",
            bounds=(1.0, 2.0, 4.0, 8.0), vchannel=self.name)
        self._rail_gauges: dict[int, object] = {}
        #: congestion-aware adaptive transport (docs/adaptive.md); None
        #: (the default) keeps every wire decision exactly as before.
        self.transport_policy = transport_policy
        #: policy-gated fail-fast registry: striped sends in flight, so a
        #: rail loss aborts them at once instead of riding out the
        #: reliable layer's stall bound.
        self._live_stripes: set[StripedOutgoing] = set()
        self._m_eager_sends = m.counter("vchannel.eager_sends",
                                        vchannel=self.name)
        #: weight moves (suspensions + readmissions + fail-fast aborts)
        #: applied by the adaptive re-striping policy.
        self._m_restripe_events = m.counter("vchannel.restripe_events",
                                            vchannel=self.name)
        #: multirail messages steered off their round-robin rail by
        #: gateway-occupancy feedback.
        self._m_balance_moves = m.counter("gateway.balance_moves",
                                          vchannel=self.name)
        self.gateways = gateway_ranks(self.channels)
        self.workers: list[ForwardingWorker] = []
        for gw in self.gateways:
            for ch in self.channels:
                if gw in ch.members:
                    self.workers.append(ForwardingWorker(
                        self, gw, self._specials[ch.id], self.gateway_params))
        self._endpoints: dict[int, VChannelEndpoint] = {}
        self._injector = None
        injector = self.world.fabric.injector
        if injector is not None:
            self.watch_faults(injector)

    # -- fault awareness ---------------------------------------------------------
    def watch_faults(self, injector) -> None:
        """Subscribe to an armed :class:`~repro.faults.FaultInjector` so link
        and node transitions update routing health (failover) and crash /
        revive this virtual channel's forwarding workers.

        Called automatically from the constructor when a fault plan is armed
        before the virtual channel is built."""
        if self._injector is injector:
            return
        if self._injector is not None:
            raise RuntimeError(f"{self.name!r} already watches an injector")
        self._injector = injector
        injector.subscribe(self._on_fault)

    def _on_fault(self, kind: str, subject) -> None:
        if kind == "link_down":
            self.routes.mark_down(subject)
            self._m_failovers.inc()
            if self.transport_policy is not None:
                self._fail_fast_stripes(subject)
        elif kind == "link_up":
            self.routes.mark_up(subject)
        elif kind == "node_down":
            self.routes.mark_node_down(subject)
            self._m_failovers.inc()
            for w in self.workers:
                if w.gw_rank == subject:
                    w.retire()
        elif kind == "node_up":
            self.routes.mark_node_up(subject)
            self._revive_rank(subject)

    def _fail_fast_stripes(self, channel) -> None:
        """Policy-gated rail-loss recovery: abort striped transfers that
        have a stripe riding the dead channel.

        A dead link drops even the 16-byte lockstep records, so re-weighting
        cannot rescue a message already striped over it.  Aborting makes the
        sender blackhole its remaining stripes and the receiver short-ACK at
        once, so the reliable layer resends immediately — re-planned on the
        surviving rails via the generation-keyed stripe cache — instead of
        riding out its stall bound.  Incomplete receive groups are also
        abandoned: mid-fault they are exactly the ones about to stall.
        """
        cid = channel if isinstance(channel, str) else channel.id
        for out in list(self._live_stripes):
            if any(hop.channel.id == cid
                   for rail in out.rail_routes for hop in rail):
                self._live_stripes.discard(out)
                out.abort()
                self._m_restripe_events.inc()
        for ep in self._endpoints.values():
            for key, group in list(ep._stripe_groups.items()):
                del ep._stripe_groups[key]
                group.abort()
                self._m_restripe_events.inc()

    def _maybe_restripe(self, scheduler: StripeScheduler) -> None:
        """Per-paquet hook from :class:`StripedOutgoing`: re-weight the
        rail set when the policy says so.  A ``None`` policy returns
        before touching anything, so plain runs stay bit-identical."""
        pol = self.transport_policy
        if pol is None:
            return
        moved = apply_restripe(pol, scheduler, self)
        if moved:
            self._m_restripe_events.inc(moved)

    def _revive_rank(self, rank: int) -> None:
        """Bring a restarted node back: flush stale state queued at its
        endpoints, restart crashed announce listeners, and respawn the
        forwarding workers that retired when it crashed."""
        for ch in [*self.channels, *self._specials.values()]:
            if rank in ch.members:
                ep = ch.endpoint(rank)
                ep.drain_incoming()
                ep.restart_listener()
        replaced = []
        for w in self.workers:
            if w.gw_rank == rank and w.retired:
                w.retire()
                replaced.append(ForwardingWorker(
                    self, rank, w.in_channel, self.gateway_params))
            else:
                replaced.append(w)
        self.workers = replaced

    # -- structure -------------------------------------------------------------
    @property
    def members(self) -> list[int]:
        return self.routes.members()

    def special_twin(self, channel: RealChannel) -> RealChannel:
        return self._specials[channel.id]

    def mtu_for(self, src: int, dst: int) -> int:
        return self.effective_mtu(self.routes.route(src, dst))

    def effective_mtu(self, route) -> int:
        """Fragment size the GTM uses on ``route``.

        Static mode (default): the §2.3 negotiation,
        ``min(packet_size, per-hop MTU)``.  Adaptive mode
        (``PipelineConfig(adaptive_mtu=True)``): the knee of the analytic
        pipeline model via :func:`repro.routing.tune_fragment_size`, cached
        per path; the wire-format MTU stays the upper bound.
        """
        route = list(route)
        if not self.pipeline.adaptive_mtu or len(route) < 2:
            return negotiate_mtu(route, self.packet_size)
        key = tuple(hop.channel.id for hop in route)
        mtu = self._mtu_cache.get(key)
        if mtu is None:
            mtu = tune_fragment_size(route, gateway=self.gateway_params,
                                     pipeline=self.pipeline,
                                     slack=self.pipeline.tuner_slack,
                                     rate_overrides=self._rate_overrides)
            self._mtu_cache[key] = mtu
        return mtu

    def calibrate_rates(self, rates: dict[str, float]) -> None:
        """Feed probe-measured host rates (protocol name → bytes/µs) into
        the adaptive fragment tuner and drop previously tuned sizes."""
        self._rate_overrides = dict(rates)
        self._mtu_cache.clear()

    def _rail_gauge(self, rail: int):
        """Bytes currently in flight on rail ``rail`` of this channel's
        stripe set (lazy: rails only exist once striping engages)."""
        g = self._rail_gauges.get(rail)
        if g is None:
            g = self.world.telemetry.metrics.gauge(
                "vchannel.rail_occupancy", vchannel=self.name, rail=rail)
            self._rail_gauges[rail] = g
        return g

    def _stripe_rails(self, src: int,
                      dst: int) -> tuple[list, Optional[StripeScheduler]]:
        """The disjoint rail set (and its scheduler) for one pair.

        Cached per pair, keyed by the route table's generation: any health
        transition bumps the generation, so a failed rail drops out of the
        stripe set at the next message and a revived one rejoins — no
        manual invalidation.  The scheduler (and its backlog estimate) is
        rebuilt on regeneration, which is exact: in-flight stripes of the
        old rail set drain on their own connections.
        """
        key = (src, dst)
        cached = self._stripe_plans.get(key)
        gen = self.routes.generation
        if cached is not None and cached[0] == gen:
            return cached[1], cached[2]
        rails = disjoint_routes(self.routes.all_routes(src, dst),
                                self.stripe_policy.max_rails)
        scheduler = (StripeScheduler(rails, self.stripe_policy,
                                     self._rate_overrides)
                     if len(rails) > 1 else None)
        self._stripe_plans[key] = (gen, rails, scheduler)
        return rails, scheduler

    def endpoint(self, rank: int) -> VChannelEndpoint:
        if rank not in self.routes.graph:
            raise KeyError(f"rank {rank} is not a member of {self.name!r}")
        if rank not in self._endpoints:
            self._endpoints[rank] = VChannelEndpoint(self, rank)
        return self._endpoints[rank]

    # -- sending ------------------------------------------------------------------
    def _begin_packing(self, src: int,
                       dst: int) -> Union[OutgoingMessage, GTMOutgoing, StripedOutgoing]:
        """Start a message; the real channel (and whether the GTM is needed)
        is chosen from the route, §2.2.1."""
        pol = self.transport_policy
        eager = pol.eager_threshold if pol is not None else 0
        if self.stripe_policy is not None:
            rails, scheduler = self._stripe_rails(src, dst)
            if scheduler is not None:
                return StripedOutgoing(self, src, dst, rails, scheduler)
        route = self.routes.route(src, dst)
        if len(route) == 1:
            return route[0].channel.endpoint(src).begin_packing(dst)
        if self.multirail:
            rails = self.routes.all_routes(src, dst)
            if len(rails) > 1:
                i = self._rail_counters.get((src, dst), 0)
                self._rail_counters[(src, dst)] = i + 1
                # stagger the starting rail per pair so traffic to different
                # destinations spreads across the gateways immediately
                pick = (i + src + dst) % len(rails)
                if pol is not None and pol.gateway_balance:
                    pick = self._balanced_pick(rails, pick)
                return GTMOutgoing(self, src, dst, route=rails[pick],
                                   eager_threshold=eager)
        return GTMOutgoing(self, src, dst, eager_threshold=eager)

    def _balanced_pick(self, rails, rr_pick: int) -> int:
        """Occupancy-driven rail choice across parallel gateways.

        The load signal is the first-hop forwarding worker's staged-item
        count; ties fall back to round-robin order (distance from the
        round-robin pick), so an idle system behaves exactly like plain
        round-robin.
        """
        def load(route) -> int:
            hop0 = route[0]
            fwd_id = f"{hop0.channel.id}!fwd"
            return sum(w.staged_items for w in self.workers
                       if w.gw_rank == hop0.dst
                       and w.in_channel.id == fwd_id and not w.retired)

        loads = [load(r) for r in rails]
        best = min(range(len(rails)),
                   key=lambda k: (loads[k], (k - rr_pick) % len(rails)))
        if best != rr_pick:
            self._m_balance_moves.inc()
        return best

    def __repr__(self) -> str:  # pragma: no cover
        return (f"<VirtualChannel {self.name} members={self.members} "
                f"gateways={self.gateways}>")
