"""Closed-form pipeline model (the §3.3.1 back-of-envelope, as code).

The paper reasons about the gateway pipeline analytically:

* the steady-state period of the double-buffer pipeline is
  ``max(t_recv, t_send) + switch_overhead`` where ``t_x`` are the one-hop
  fragment times of the two networks;
* in the Myrinet→SCI direction the send time must be computed with the PIO
  slowdown applied while the (DMA) receive is on the bus.

These formulas predict the asymptotic forwarding bandwidth from the raw
per-network cost models alone; a test cross-checks them against the full
simulation (they agree within a few percent, exactly the consistency
argument of §3.3.1).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..hw.fabric import FRAGMENT_HEADER_BYTES
from ..hw.params import (GatewayParams, NodeParams, PipelineConfig,
                         ProtocolParams)
from ..sim.fluid import DMA, PIO

__all__ = ["fragment_time", "route_setup_time", "PipelinePrediction",
           "predict_forwarding", "MultirailPrediction", "predict_multirail"]


def fragment_time(proto: ProtocolParams, nbytes: int,
                  rate: float | None = None) -> float:
    """One-hop wire time of one fragment (sender overhead + latency +
    stream time); ``rate`` overrides the protocol's host peak."""
    rate = proto.host_peak if rate is None else rate
    return (proto.tx_overhead + proto.latency
            + (nbytes + FRAGMENT_HEADER_BYTES) / rate)


def route_setup_time(protos: "list[ProtocolParams] | tuple[ProtocolParams, ...]",
                     period: float,
                     gateway: GatewayParams | None = None,
                     rails: int = 1) -> float:
    """Finite-message setup of a transfer whose route crosses ``protos``
    (one entry per hop, in order), before steady-state streaming.

    The pre-body announce — and, when striping (``rails > 1``), the 16-byte
    stripe record — serializes ahead of the first data fragment on *every*
    hop, each gateway relay adds its buffer-switch overhead, and the data
    pipeline then fills for one steady ``period`` per hop before the first
    fragment reaches the far cloud.  On the single-gateway (2-hop) testbed
    this is the classic announce + stripe + ``2 × period`` term; on the
    multi-gateway hierarchy/torus routes the solver sweeps, the per-hop
    record latencies and switch overheads accumulate along the whole route
    instead of being charged on the in-protocol only.
    """
    from ..madeleine.wire import ANNOUNCE_BYTES, STRIPE_BYTES
    gateway = gateway or GatewayParams()
    setup = sum(fragment_time(p, ANNOUNCE_BYTES) for p in protos)
    if rails > 1:
        setup += sum(fragment_time(p, STRIPE_BYTES) for p in protos)
    setup += (len(protos) - 1) * gateway.switch_overhead
    setup += len(protos) * period
    return setup


@dataclass(frozen=True)
class PipelinePrediction:
    recv_us: float
    send_us: float
    period_us: float
    bandwidth: float          # MB/s, asymptotic (payload bytes per period)


def _rail_period(in_proto: ProtocolParams, out_proto: ProtocolParams,
                 packet: int, gateway: GatewayParams, node: NodeParams,
                 pipe: PipelineConfig,
                 end_share: float = float("inf"),
                 ) -> tuple[float, float, float]:
    """(t_recv, t_send, steady period) of one forwarding rail.

    ``end_share`` caps the rates at the *end hosts*: on a multirail
    topology the origin's and final receiver's PCI buses are shared by all
    K rails (one NIC each per rail), so each rail streams at no more than
    ``capacity / K`` there.
    """
    cap = node.pci.capacity
    wire = packet + FRAGMENT_HEADER_BYTES

    # Fair-share rates while both flows are active on the gateway bus.
    recv_rate = min(in_proto.host_peak, cap / 2) \
        if in_proto.host_peak + out_proto.host_peak > cap else in_proto.host_peak
    recv_rate = min(recv_rate, end_share)          # origin-side bus share
    send_alone = min(out_proto.host_peak, end_share)   # receiver-side share
    if out_proto.tx_kind == PIO and in_proto.rx_kind == DMA:
        send_contended = out_proto.host_peak / node.pci.pio_preempt_slowdown
    else:
        send_contended = min(send_alone, max(cap - recv_rate, cap / 2)) \
            if in_proto.host_peak + out_proto.host_peak > cap else send_alone
    send_contended = min(send_contended, end_share)

    t_recv = fragment_time(in_proto, packet, rate=recv_rate)
    recv_stream = wire / recv_rate   # DMA-active portion of the period

    # Send: contended while the receive streams, then alone.
    contended_bytes = min(wire, send_contended * recv_stream)
    rest = wire - contended_bytes
    t_send = (out_proto.tx_overhead + out_proto.latency
              + contended_bytes / send_contended
              + (rest / send_alone if rest > 0 else 0.0))

    if pipe.depth == 1 or pipe.effective_credits == 1:
        period = t_recv + gateway.switch_overhead + t_send
    elif pipe.is_lockstep:
        period = max(t_recv, t_send) + gateway.switch_overhead
    else:
        period = max(t_recv + gateway.switch_overhead, t_send)
    return t_recv, t_send, period


def predict_forwarding(in_proto: ProtocolParams, out_proto: ProtocolParams,
                       packet: int,
                       gateway: GatewayParams | None = None,
                       node: NodeParams | None = None,
                       pipeline: PipelineConfig | None = None,
                       ) -> PipelinePrediction:
    """Asymptotic forwarding bandwidth through one gateway.

    Models: full-duplex sharing of the gateway PCI bus between the receive
    and send flows (fair split of the duplex capacity, capped at each
    protocol's peak), plus the PIO-under-DMA slowdown while the receive
    flow is active (§3.4.1), plus the per-switch software overhead.

    The steady-state period depends on the pipeline discipline
    (``pipeline`` overrides the gateway's resolved config):

    * lockstep (the paper's depth-2 buffer exchange): both threads meet
      every step, so ``max(recv, send) + switch_overhead``;
    * credit pipeline with >= 2 credits: the switch overhead happens on the
      receive thread while the sender streams, so
      ``max(recv + switch_overhead, send)``;
    * a single buffer/credit (store-and-forward per fragment):
      ``recv + switch_overhead + send``.
    """
    gateway = gateway or GatewayParams()
    node = node or NodeParams()
    pipe = pipeline if pipeline is not None else gateway.pipeline
    t_recv, t_send, period = _rail_period(in_proto, out_proto, packet,
                                          gateway, node, pipe)
    return PipelinePrediction(recv_us=t_recv, send_us=t_send,
                              period_us=period,
                              bandwidth=packet / period)


@dataclass(frozen=True)
class MultirailPrediction:
    rails: int
    period_us: float          # steady-state per-rail period
    rail_bandwidth: float     # MB/s through one rail of the K-rail set
    aggregate: float          # MB/s, asymptotic sum over the rails
    bandwidth: float          # MB/s for a finite message, setup included
    speedup: float            # aggregate / single-rail asymptotic bandwidth


def predict_multirail(in_proto: ProtocolParams, out_proto: ProtocolParams,
                      packet: int, rails: int = 2, message: int = 2 << 20,
                      gateway: GatewayParams | None = None,
                      node: NodeParams | None = None,
                      pipeline: PipelineConfig | None = None,
                      ) -> MultirailPrediction:
    """Aggregate bandwidth of ``rails`` disjoint forwarding rails.

    Each rail is an independent gateway pipeline (:func:`predict_forwarding`)
    — the rails share only the two *end hosts*, whose PCI buses carry one
    flow per rail.  The stripes are scheduled together and credit-paced
    identically, so their bus bursts overlap: each rail's end-host rates are
    capped at a ``capacity / rails`` fair share, which is what bends the
    aggregate below ``rails ×`` the single-rail figure as K grows.

    The asymptotic aggregate is the sum of the per-rail rates; the finite
    ``message`` figure adds the striping overhead — the per-rail announce
    and 16-byte stripe record, plus two periods of pipeline fill before the
    first fragment reaches the far cloud — which is what positions the knee
    of the bandwidth-vs-paquet-size curve.
    """
    if rails < 1:
        raise ValueError(f"rails must be >= 1, got {rails}")
    gateway = gateway or GatewayParams()
    node = node or NodeParams()
    pipe = pipeline if pipeline is not None else gateway.pipeline
    share = node.pci.capacity / rails
    _r, _s, period = _rail_period(in_proto, out_proto, packet,
                                  gateway, node, pipe, end_share=share)
    rail_bw = packet / period
    aggregate = rails * rail_bw
    single = predict_forwarding(in_proto, out_proto, packet,
                                gateway, node, pipeline).bandwidth
    setup = route_setup_time((in_proto, out_proto), period,
                             gateway=gateway, rails=rails)
    bandwidth = message / (message / aggregate + setup)
    return MultirailPrediction(rails=rails, period_us=period,
                               rail_bandwidth=rail_bw, aggregate=aggregate,
                               bandwidth=bandwidth,
                               speedup=aggregate / single)
