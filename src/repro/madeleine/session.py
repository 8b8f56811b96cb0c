"""Session management: the top-level user entry point.

A :class:`Session` owns a :class:`~repro.hw.topology.World` and the channels
created over it, runs application processes, and is the switch for the
observability layer (:mod:`repro.telemetry`).  Typical use::

    from repro.hw import build_world
    from repro.madeleine import Session

    world = build_world({"m0": ["myrinet"], "gw": ["myrinet", "sci"],
                         "s0": ["sci"]})
    with Session(world, packet_size=64 << 10, telemetry=True) as session:
        myri = session.channel("myrinet", ["m0", "gw"])
        sci = session.channel("sci", ["gw", "s0"])
        vch = session.virtual_channel([myri, sci])

        def app_sender():
            msg = vch.endpoint(session.rank("m0")).begin_packing(
                session.rank("s0"))
            yield msg.pack(payload)
            yield msg.end_packing()

        session.spawn(app_sender())
        session.run()
        print(session.metrics.total("gateway.messages_forwarded"))

Configuration is keyword-only: ``packet_size=`` sets the default virtual
channel packet size, ``telemetry=True/False`` enables/disables the world's
telemetry (``None`` leaves it as it is — off for a fresh world), and
``fault_plan=`` arms a :class:`~repro.faults.FaultPlan` before any channel
exists.  A closed session (after the ``with`` block, or ``close()``)
refuses to build channels or spawn processes; its telemetry stays readable
so results can be collected after the fact.
"""

from __future__ import annotations

from typing import (TYPE_CHECKING, Generator, Mapping, Optional, Sequence,
                    Union)

from ..hw.params import GatewayParams, PipelineConfig
from ..hw.topology import World
from ..sim import Event, Process
from ..sim.trace import TraceRecorder
from ..telemetry import MetricsRegistry, SpanTracker, Telemetry
from .channel import RealChannel
from .vchannel import DEFAULT_PACKET_SIZE, VirtualChannel

if TYPE_CHECKING:  # pragma: no cover
    from ..faults.plan import FaultPlan
    from ..routing import StripePolicy
    from ..scenario import Scenario
    from .adaptive import TransportPolicy

__all__ = ["Session"]


class Session:
    """Channels, virtual channels, and application processes over a world."""

    def __init__(self, world: World, *,
                 packet_size: Optional[int] = None,
                 telemetry: Optional[bool] = None,
                 fault_plan: Optional["FaultPlan"] = None) -> None:
        self.world = world
        self.sim = world.sim
        self.channels: list[RealChannel] = []
        self.virtual_channels: list[VirtualChannel] = []
        self.default_packet_size = (DEFAULT_PACKET_SIZE if packet_size is None
                                    else packet_size)
        self._closed = False
        if telemetry is True:
            world.telemetry.enable()
        elif telemetry is False:
            world.telemetry.disable()
        elif telemetry is not None:
            raise TypeError("telemetry= takes True, False, or None")
        if fault_plan is not None:
            fault_plan.arm(world)

    @classmethod
    def from_scenario(cls, scenario: "Scenario", *,
                      telemetry: bool = True) -> "Session":
        """Build the whole stack a declarative scenario describes.

        Constructs the world and every real channel of the topology,
        arms the fault plan (after the channels
        exist, so link-event targets validate; quiet plans stay unarmed to
        keep the injector-free hot path), and bundles the channels into one
        virtual channel with the scenario's policies.  The construction
        order is fixed — it is what makes fuzz replays bit-identical.

        The session exposes the result as ``session.channels`` /
        ``session.virtual_channels[0]``; drive traffic by hand or via
        :class:`repro.traffic.TrafficEngine`.
        """
        scenario.validate()
        from ..scenario import build_world
        world = build_world(scenario)
        session = cls(world, packet_size=scenario.packet_size,
                      telemetry=telemetry)
        channels = []
        for name, proto, members, aidx in scenario.topology.channel_specs():
            channels.append(session.channel(proto, members, name=name,
                                            adapter_index=aidx))
        if not scenario.quiet:
            scenario.faults.arm(world)
        session.virtual_channel(
            channels,
            gateway_params=GatewayParams(
                stall_timeout=scenario.gw_stall_timeout),
            multirail=scenario.multirail,
            header_batching=scenario.header_batching,
            pipeline=scenario.pipeline_config,
            stripe_policy=scenario.stripe_policy,
            transport_policy=scenario.transport_policy)
        return session

    # -- lifecycle ---------------------------------------------------------------
    def __enter__(self) -> "Session":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def close(self) -> None:
        """End the session: no further channels or processes.

        Telemetry and the trace remain readable — closing is about
        construction, not about the collected results.
        """
        self._closed = True

    @property
    def closed(self) -> bool:
        return self._closed

    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError("session is closed")

    # -- observability -----------------------------------------------------------
    @property
    def telemetry(self) -> Telemetry:
        return self.world.telemetry

    @property
    def metrics(self) -> MetricsRegistry:
        """The world's metrics registry (empty snapshot while disabled)."""
        return self.world.telemetry.metrics

    @property
    def spans(self) -> SpanTracker:
        return self.world.telemetry.spans

    @property
    def trace(self) -> TraceRecorder:
        return self.world.trace

    # -- naming ------------------------------------------------------------------
    def rank(self, node_name: str) -> int:
        """Rank of a node by name."""
        return self.world.names[node_name].rank

    def ranks(self, names: Sequence[Union[str, int]]) -> list[int]:
        return [n if isinstance(n, int) else self.rank(n) for n in names]

    # -- channel construction ---------------------------------------------------
    def channel(self, protocol: str, members: Sequence[Union[str, int]],
                name: Optional[str] = None,
                adapter_index: Union[int, Mapping[Union[str, int], int]] = 0,
                ) -> RealChannel:
        """Create a regular channel over ``protocol`` joining ``members``
        (ranks or node names).  ``adapter_index`` selects which adapter each
        member binds: one index for all, or a per-member mapping (names or
        ranks) for multi-NIC nodes — unlisted members use adapter 0."""
        self._check_open()
        if isinstance(adapter_index, Mapping):
            adapter_index = {self.rank(k) if isinstance(k, str) else k: v
                             for k, v in adapter_index.items()}
        ch = RealChannel(self.world, protocol, self.ranks(members),
                         name=name, adapter_index=adapter_index)
        self.channels.append(ch)
        return ch

    def virtual_channel(self, channels: Sequence[RealChannel],
                        packet_size: Optional[int] = None,
                        gateway_params: Optional[GatewayParams] = None,
                        name: str = "",
                        multirail: bool = False,
                        header_batching: bool = False,
                        pipeline: Optional["PipelineConfig"] = None,
                        stripe_policy: Optional["StripePolicy"] = None,
                        transport_policy: Optional["TransportPolicy"] = None,
                        ) -> VirtualChannel:
        """Bundle real channels into a virtual channel with transparent
        forwarding on every gateway node (``multirail`` spreads messages
        over parallel equal-length routes, relaxing inter-message order;
        ``header_batching`` piggybacks GTM self-description records on
        payload fragments, §2.3; ``pipeline`` configures the N-deep
        credit-based gateway pipeline and the adaptive fragment tuner;
        ``stripe_policy`` enables transparent multirail striping — large
        paquets split across disjoint rails for aggregate bandwidth;
        ``transport_policy`` turns on the congestion-aware adaptive
        transport, docs/adaptive.md).
        ``packet_size=None`` uses the session default."""
        self._check_open()
        vch = VirtualChannel(channels,
                             packet_size=(self.default_packet_size
                                          if packet_size is None
                                          else packet_size),
                             gateway_params=gateway_params, name=name,
                             multirail=multirail,
                             header_batching=header_batching,
                             pipeline=pipeline,
                             stripe_policy=stripe_policy,
                             transport_policy=transport_policy)
        self.virtual_channels.append(vch)
        return vch

    # -- execution ------------------------------------------------------------------
    def spawn(self, gen: Generator, name: str = "") -> Process:
        """Run an application process (a generator yielding sim events)."""
        self._check_open()
        return self.sim.process(gen, name=name or "app")

    def run(self, until: Optional[Union[float, Event]] = None):
        return self.sim.run(until)

    @property
    def now(self) -> float:
        return self.sim.now
