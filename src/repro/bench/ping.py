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

from ..madeleine.channel import RealChannel
from ..madeleine.session import Session
from ..madeleine.vchannel import VirtualChannel

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


def measure_ack_latency(session: Session, ack_channel: RealChannel,
                        src: int, dst: int) -> float:
    """Calibrate the ack: one 4-byte message dst -> src on the ack channel."""
    t = {}

    def acker():
        msg = ack_channel.endpoint(dst).begin_packing(src)
        yield msg.pack(np.zeros(_ACK_BYTES, dtype=np.uint8))
        yield msg.end_packing()

    def receiver():
        t0 = session.now
        inc = yield ack_channel.endpoint(src).begin_unpacking()
        _ev, _b = inc.unpack(_ACK_BYTES)
        yield inc.end_unpacking()
        t["ack"] = session.now - t0

    session.spawn(acker(), "ack-cal-snd")
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
        msg = vch.endpoint(src).begin_packing(dst)
        yield msg.pack(data)
        yield msg.end_packing()
        inc = yield ack_channel.endpoint(src).begin_unpacking()
        _ev, _b = inc.unpack(_ACK_BYTES)
        yield inc.end_unpacking()
        t["rtt"] = session.now - t["t0"]

    def ponger():
        inc = yield vch.endpoint(dst).begin_unpacking()
        _ev, _b = inc.unpack(size)
        yield inc.end_unpacking()
        t["direct"] = session.now - t["t0"]
        ack = ack_channel.endpoint(dst).begin_packing(src)
        yield ack.pack(np.zeros(_ACK_BYTES, dtype=np.uint8))
        yield ack.end_packing()

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
        data = np.zeros(size, dtype=np.uint8)
        out: dict[str, float] = {}

        def snd(ch=ch):
            m = ch.endpoint(0).begin_packing(1)
            yield m.pack(data)
            yield m.end_packing()

        def rcv(ch=ch, out=out):
            inc = yield ch.endpoint(1).begin_unpacking()
            _ev, _b = inc.unpack(size)
            yield inc.end_unpacking()
            out["t"] = session.now

        session.spawn(snd())
        session.spawn(rcv())
        session.run()
        rates[proto] = size / out["t"]
    return rates


class PingHarness:
    """Builds a fresh paper-style testbed per measurement point.

    Simulated state is cheap, so each point runs in a pristine world — the
    equivalent of the paper's repeated, isolated test runs.  The harness
    keeps one testbed alive: :meth:`build` (and so :meth:`measure`) closes
    the world it returned last (``World.close``), so a sweep holds one
    testbed's pool blocks, not one per point waiting for the cycle
    collector.
    """

    #: the world :meth:`build` returned last; the next build closes it.
    _world = None

    def __init__(self, packet_size: int = 16 << 10,
                 gateway_params=None, protocols=("myrinet", "sci"),
                 node_params=None, header_batching: bool = False,
                 pipeline=None, rate_overrides=None) -> None:
        self.packet_size = packet_size
        self.gateway_params = gateway_params
        self.protocols = protocols
        self.node_params = node_params
        self.header_batching = header_batching
        self.pipeline = pipeline
        self.rate_overrides = rate_overrides

    def build(self):
        from ..hw import build_world
        if self._world is not None:
            self._world.close()
        pa, pb = self.protocols
        world = self._world = build_world({
            "a0": [pa, "fast_ethernet"],
            "gw": [pa, pb, "fast_ethernet"],
            "b0": [pb, "fast_ethernet"],
        }, node_params=self.node_params)
        session = Session(world)
        ch_a = session.channel(pa, ["a0", "gw"])
        ch_b = session.channel(pb, ["gw", "b0"])
        vch = session.virtual_channel([ch_a, ch_b],
                                      packet_size=self.packet_size,
                                      gateway_params=self.gateway_params,
                                      header_batching=self.header_batching,
                                      pipeline=self.pipeline)
        if self.rate_overrides:
            vch.calibrate_rates(self.rate_overrides)
        ack = session.channel("fast_ethernet", ["a0", "b0"])
        return world, session, vch, ack

    def measure(self, size: int, direction: str = "b0->a0") -> PingResult:
        """``direction``: "a0->b0" (first protocol first) or "b0->a0"."""
        world, session, vch, ack = self.build()
        if direction == "a0->b0":
            src, dst = session.rank("a0"), session.rank("b0")
        elif direction == "b0->a0":
            src, dst = session.rank("b0"), session.rank("a0")
        else:
            raise ValueError(f"bad direction {direction!r}")
        return one_way_ping(session, vch, ack, src, dst, size)


class MultirailHarness:
    """Paper-style testbed with N parallel rails between the two clouds.

    The topology generalizes :class:`PingHarness` to the multirail setup of
    the motivation: ``rails`` gateway machines bridge the clouds, and the
    end nodes hold one adapter of their cloud's protocol *per rail* (the
    dual-NIC configuration), so ``rails`` fully disjoint minimum-hop routes
    — distinct sender NIC, gateway, and receiver NIC — connect ``a0`` and
    ``b0``.  With ``stripe_policy=None`` the virtual channel uses one route
    (the single-rail reference); with a policy each large paquet is striped
    across up to ``max_rails`` of them.  Like :class:`PingHarness` it keeps
    one testbed alive: :meth:`build` closes the world it returned last.
    """

    _world = None

    def __init__(self, packet_size: int = 8 << 10, rails: int = 2,
                 protocols=("myrinet", "sci"), stripe_policy=None,
                 gateway_params=None, node_params=None, pipeline=None,
                 rate_overrides=None) -> None:
        if rails < 1:
            raise ValueError(f"need at least one rail, got {rails}")
        self.packet_size = packet_size
        self.rails = rails
        self.protocols = protocols
        self.stripe_policy = stripe_policy
        self.gateway_params = gateway_params
        self.node_params = node_params
        self.pipeline = pipeline
        self.rate_overrides = rate_overrides

    def build(self):
        from ..hw import build_world
        if self._world is not None:
            self._world.close()
        pa, pb = self.protocols
        gws = [f"gw{i}" for i in range(self.rails)]
        nodes = {"a0": [pa] * self.rails + ["fast_ethernet"],
                 **{gw: [pa, pb] for gw in gws},
                 "b0": [pb] * self.rails + ["fast_ethernet"]}
        world = self._world = build_world(nodes, node_params=self.node_params)
        session = Session(world)
        members = []
        for i, gw in enumerate(gws):
            # One channel pair per rail: a0's i-th NIC to gateway i, and
            # gateway i to b0's i-th NIC.
            members.append(session.channel(pa, ["a0", gw],
                                           adapter_index={"a0": i}))
            members.append(session.channel(pb, [gw, "b0"],
                                           adapter_index={"b0": i}))
        vch = session.virtual_channel(members,
                                      packet_size=self.packet_size,
                                      gateway_params=self.gateway_params,
                                      pipeline=self.pipeline,
                                      stripe_policy=self.stripe_policy)
        if self.rate_overrides:
            vch.calibrate_rates(self.rate_overrides)
        ack = session.channel("fast_ethernet", ["a0", "b0"])
        return world, session, vch, ack

    def measure(self, size: int, direction: str = "a0->b0") -> PingResult:
        world, session, vch, ack = self.build()
        if direction == "a0->b0":
            src, dst = session.rank("a0"), session.rank("b0")
        elif direction == "b0->a0":
            src, dst = session.rank("b0"), session.rank("a0")
        else:
            raise ValueError(f"bad direction {direction!r}")
        return one_way_ping(session, vch, ack, src, dst, size)
