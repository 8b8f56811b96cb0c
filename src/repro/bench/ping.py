"""The paper's measurement method (§3.1).

One-way transmission time is obtained with a *single ping* test: the payload
travels src → dst over the high-speed path (possibly through the gateway),
and a small ack returns over a Fast-Ethernet connection.  Since the latency
of the ack is known exactly, the one-way time is the observed round-trip
time minus the ack latency.

We reproduce the method literally (including the ack calibration step) and
— because this is a simulator — can also measure the one-way time directly;
a test asserts the two agree.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..hw.params import GatewayParams, NodeParams
from ..madeleine.channel import RealChannel
from ..madeleine.session import Session
from ..madeleine.vchannel import VirtualChannel
from ..routing import StripePolicy
from ..scenario import MessageSpec, Scenario, Topology

__all__ = ["PingResult", "measure_ack_latency", "one_way_ping", "PingHarness",
           "MultirailHarness", "probe_protocol_rates"]

_ACK_BYTES = 4


@dataclass(frozen=True)
class PingResult:
    """One measured point."""

    size: int                 # payload bytes
    one_way_us: float         # estimated from RTT - ack (the paper's method)
    direct_us: float          # directly observed in the simulator
    rtt_us: float
    ack_us: float

    @property
    def bandwidth(self) -> float:
        """MB/s (== bytes/µs)."""
        return self.size / self.one_way_us


def _send(ch, frm: int, to: int, data):
    msg = ch.endpoint(frm).begin_packing(to)
    yield msg.pack(data)
    yield msg.end_packing()


def _recv(ch, at: int, nbytes: int):
    inc = yield ch.endpoint(at).begin_unpacking()
    _ev, _b = inc.unpack(nbytes)
    yield inc.end_unpacking()


def _ack():
    return np.zeros(_ACK_BYTES, dtype=np.uint8)


def measure_ack_latency(session: Session, ack_channel: RealChannel,
                        src: int, dst: int) -> float:
    """Calibrate the ack: one 4-byte message dst -> src on the ack channel."""
    t = {}

    def receiver():
        t0 = session.now
        yield from _recv(ack_channel, src, _ACK_BYTES)
        t["ack"] = session.now - t0

    session.spawn(_send(ack_channel, dst, src, _ack()), "ack-cal-snd")
    p = session.spawn(receiver(), "ack-cal-rcv")
    session.run(until=p)
    return t["ack"]


def one_way_ping(session: Session, vch: VirtualChannel,
                 ack_channel: RealChannel, src: int, dst: int,
                 size: int, ack_latency: Optional[float] = None) -> PingResult:
    """Run the §3.1 single-ping measurement for one payload size."""
    if ack_latency is None:
        ack_latency = measure_ack_latency(session, ack_channel, src, dst)
    data = np.zeros(size, dtype=np.uint8)
    t: dict[str, float] = {}

    def pinger():
        t["t0"] = session.now
        yield from _send(vch, src, dst, data)
        yield from _recv(ack_channel, src, _ACK_BYTES)
        t["rtt"] = session.now - t["t0"]

    def ponger():
        yield from _recv(vch, dst, size)
        t["direct"] = session.now - t["t0"]
        yield from _send(ack_channel, dst, src, _ack())

    session.spawn(ponger(), "ponger")
    p = session.spawn(pinger(), "pinger")
    session.run(until=p)
    return PingResult(size=size, one_way_us=t["rtt"] - ack_latency,
                      direct_us=t["direct"], rtt_us=t["rtt"],
                      ack_us=ack_latency)


def probe_protocol_rates(protocols, size: int = 1 << 20) -> dict[str, float]:
    """Short online probe phase for the adaptive fragment tuner: measure
    each protocol's achieved raw one-way rate (bytes/µs) with one direct
    transfer in a pristine world.  The result folds end-to-end software
    overheads into the rate, refining the calibrated ``host_peak``; feed it
    to :meth:`VirtualChannel.calibrate_rates` or
    ``PingHarness(rate_overrides=...)``.
    """
    from ..hw import build_world
    rates: dict[str, float] = {}
    for proto in protocols:
        world = build_world({"a": [proto], "b": [proto]})
        session = Session(world)
        ch = session.channel(proto, ["a", "b"])
        out: dict[str, float] = {}

        def rcv(ch=ch, out=out):
            yield from _recv(ch, 1, size)
            out["t"] = session.now

        session.spawn(_send(ch, 0, 1, np.zeros(size, dtype=np.uint8)))
        session.spawn(rcv())
        session.run()
        rates[proto] = size / out["t"]
    return rates


_ENDS = {"a0->b0": ("a0", "b0"), "b0->a0": ("b0", "a0")}


class _Harness:
    """A §3.1 testbed described as a :class:`~repro.scenario.Scenario`.

    :meth:`scenario` is the measured transfer as a scenario (what
    :func:`repro.solver.solve` prices); :meth:`build` hands it to
    :meth:`Session.from_scenario` with the harness's ``node_params`` and
    forwarding parameters, then adds the Fast-Ethernet ack adapters of
    :attr:`_ACK_NODES` and the ack channel.  Harness sessions keep
    telemetry off.  Simulated state is cheap, so each point runs in a
    pristine world — the equivalent of the paper's repeated, isolated test
    runs.  The harness keeps one testbed alive: :meth:`build` (and so
    :meth:`measure`) closes the world it returned last (``World.close``),
    so a sweep holds one testbed's pool blocks, not one per point waiting
    for the cycle collector.
    """

    #: the world :meth:`build` returned last; the next build closes it.
    _world = None
    #: ``None``: every node holds an ack adapter; else these nodes do.
    _ACK_NODES = None
    _DIRECTION = "b0->a0"
    #: the knobs only one of the two harnesses takes.
    rails = 1
    header_batching = False
    stripe_policy = None

    def scenario(self, size: int, direction: Optional[str] = None
                 ) -> Scenario:
        """One ``size``-byte plain transfer in ``direction`` ("a0->b0":
        first protocol first, or "b0->a0") on this testbed: the chain
        a0 — gw00 — b0, or the ``multirail`` topology for 2+ rails.

        The harness's ``node_params``, ``gateway_params`` and
        ``rate_overrides`` are not part of it: :meth:`build` applies them,
        so ``solve`` prices this object as the harness measures it only
        for a harness that leaves them at their defaults."""
        direction = direction or self._DIRECTION
        if direction not in _ENDS:
            raise ValueError(f"bad direction {direction!r}")
        src, dst = _ENDS[direction]
        protocols = tuple(self.protocols)
        topology = (Topology("chain", protocols, sizes=(1, 1), gateways=(1,))
                    if self.rails == 1 else
                    Topology("multirail", protocols, gateways=(self.rails,)))
        policy = self.stripe_policy
        stripe = (None if policy is None
                  else (policy.max_rails, policy.min_stripe))
        return Scenario(seed=0, topology=topology,
                        packet_size=self.packet_size,
                        header_batching=self.header_batching, stripe=stripe,
                        messages=(MessageSpec(src, dst, size, kind="plain"),),
                        gw_stall_timeout=None)

    def build(self):
        """Build this harness's testbed; returns ``(world, session, vch,
        ack_channel)``."""
        if self._world is not None:
            self._world.close()
        session = Session.from_scenario(
            self.scenario(1), telemetry=None,
            node_params=self.node_params, gateway_params=self.gateway_params)
        world = self._world = session.world
        for name in self._ACK_NODES or list(world.names):
            world.add_adapter(name, "fast_ethernet")
        vch = session.virtual_channels[0]
        if self.rate_overrides:
            vch.calibrate_rates(self.rate_overrides)
        ack = session.channel("fast_ethernet", ["a0", "b0"])
        return world, session, vch, ack

    def measure(self, size: int, direction: Optional[str] = None
                ) -> PingResult:
        """The §3.1 single ping of :meth:`scenario` ``(size, direction)``."""
        sc = self.scenario(size, direction)
        _world, session, vch, ack = self.build()
        (msg,) = sc.messages
        return one_way_ping(session, vch, ack, session.rank(msg.src),
                            session.rank(msg.dst), size)


@dataclass(eq=False)
class PingHarness(_Harness):
    """The paper's testbed: a0 —``protocols[0]``— gw00 —``protocols[1]``—
    b0, each node with a Fast-Ethernet adapter for the ack."""

    packet_size: int = 16 << 10
    gateway_params: Optional[GatewayParams] = None
    protocols: tuple = ("myrinet", "sci")
    node_params: Optional[NodeParams] = None
    header_batching: bool = False
    rate_overrides: Optional[dict] = None


@dataclass(eq=False)
class MultirailHarness(_Harness):
    """Paper-style testbed with N parallel rails between the two clouds.

    The topology generalizes :class:`PingHarness` to the multirail setup of
    the motivation: ``rails`` gateway machines bridge the clouds, and the
    end nodes hold one adapter of their cloud's protocol *per rail* (the
    dual-NIC configuration), so ``rails`` fully disjoint minimum-hop routes
    — distinct sender NIC, gateway, and receiver NIC — connect ``a0`` and
    ``b0``.  With ``stripe_policy=None`` the virtual channel uses one route
    (the single-rail reference); with a policy each large paquet is striped
    across up to ``max_rails`` of them.  Only a0 and b0 hold an ack
    adapter.
    """

    _ACK_NODES = ("a0", "b0")
    _DIRECTION = "a0->b0"

    packet_size: int = 8 << 10
    rails: int = 2
    protocols: tuple = ("myrinet", "sci")
    stripe_policy: Optional[StripePolicy] = None
    gateway_params: Optional[GatewayParams] = None
    node_params: Optional[NodeParams] = None
    rate_overrides: Optional[dict] = None
