"""Path-wide MTU negotiation (§2.3) and the adaptive fragment tuner.

The Generic Transmission Module fragments messages so that every network on
the route can transmit a fragment without further fragmentation; the MTU is
chosen statically per (virtual channel, route) from the per-protocol limits
and the configured packet size.

:func:`tune_fragment_size` replaces the static choice with a per-path
*effective* fragment size grown from the hop rates and the gateway swap
overhead (the analytic model of :mod:`repro.analysis.model`): among all
KB-aligned candidates up to the wire-format limit, it returns the smallest
one whose predicted forwarded bandwidth is within :data:`TUNER_SLACK` of
the best — the knee of the fragment-size curve.  The wire-format MTU stays
the upper bound, so headers and gateways need no format change.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Optional, Sequence, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from ..hw.params import GatewayParams
    from .routes import Hop

__all__ = ["negotiate_mtu", "tune_fragment_size", "fragment_knee",
           "MTU_GRANULARITY", "MIN_MTU", "TUNER_SLACK"]

#: the wire format expresses MTUs in whole KB.
MTU_GRANULARITY = 1024
MIN_MTU = 1024
#: knee tolerance of the tuner: the smallest fragment size whose predicted
#: bandwidth is within this fraction of the best is chosen.
TUNER_SLACK = 0.02


def negotiate_mtu(hops: Iterable["Hop"], packet_size: int) -> int:
    """Largest MTU <= packet_size accepted by every hop, KB-aligned."""
    if packet_size < MIN_MTU:
        raise ValueError(f"packet size must be >= {MIN_MTU}, got {packet_size}")
    limit = packet_size
    for hop in hops:
        limit = min(limit, hop.channel.protocol.max_mtu)
    mtu = (limit // MTU_GRANULARITY) * MTU_GRANULARITY
    if mtu < MIN_MTU:
        raise ValueError(
            f"route cannot carry {MIN_MTU}B fragments (limit {limit}B)")
    return mtu


def _wire_limit(hops: Sequence["Hop"]) -> int:
    """Largest KB-aligned fragment every hop's wire format accepts."""
    limit = min(hop.channel.protocol.max_mtu for hop in hops)
    mtu = (limit // MTU_GRANULARITY) * MTU_GRANULARITY
    if mtu < MIN_MTU:
        raise ValueError(
            f"route cannot carry {MIN_MTU}B fragments (limit {limit}B)")
    return mtu


def _path_bandwidth(hops: Sequence["Hop"], fragment: int,
                    gateway: "GatewayParams",
                    rate_overrides: Optional[Mapping[str, float]]) -> float:
    """Predicted asymptotic bandwidth of the path at one fragment size:
    the slowest of the per-gateway forwarding pipelines and the raw
    per-hop fragment rates."""
    from dataclasses import replace

    from ..analysis.model import fragment_time, predict_forwarding

    def proto(hop):
        p = hop.channel.protocol
        if rate_overrides and p.name in rate_overrides:
            p = replace(p, host_peak=rate_overrides[p.name])
        return p

    bw = min(fragment / fragment_time(proto(hop), fragment) for hop in hops)
    for a, b in zip(hops, hops[1:]):
        node = a.channel.world.nodes[a.dst].params
        pred = predict_forwarding(proto(a), proto(b), fragment,
                                  gateway=gateway, node=node)
        bw = min(bw, pred.bandwidth)
    return bw


def fragment_knee(hops: Sequence["Hop"],
                  gateway: Optional["GatewayParams"] = None,
                  rate_overrides: Optional[Mapping[str, float]] = None,
                  ) -> list[tuple[int, float]]:
    """The tuner's decision curve: ``(fragment_size, predicted MB/s)`` for
    every KB-aligned candidate up to the route's wire-format limit."""
    from ..hw.params import GatewayParams

    hops = list(hops)
    gateway = gateway or GatewayParams()
    hi = _wire_limit(hops)
    sizes = list(range(MIN_MTU, hi + 1, MTU_GRANULARITY))
    return [(f, _path_bandwidth(hops, f, gateway, rate_overrides))
            for f in sizes]


def tune_fragment_size(hops: Sequence["Hop"],
                       gateway: Optional["GatewayParams"] = None,
                       rate_overrides: Optional[Mapping[str, float]] = None,
                       ) -> int:
    """Effective per-path fragment size: the smallest KB-aligned size whose
    predicted forwarded bandwidth is within :data:`TUNER_SLACK` of the best
    candidate, under ``gateway``'s pipeline.

    ``rate_overrides`` maps protocol names to measured host rates (bytes/µs)
    from an online probe phase, refining the calibrated ``host_peak``.
    Single-hop routes have no gateway pipeline to tune and get the full
    wire limit (bandwidth is monotone in fragment size there).
    """
    hops = list(hops)
    if len(hops) < 2:
        return _wire_limit(hops)
    curve = fragment_knee(hops, gateway=gateway,
                          rate_overrides=rate_overrides)
    best = max(bw for _f, bw in curve)
    for f, bw in curve:
        if bw >= (1.0 - TUNER_SLACK) * best:
            return f
    return curve[-1][0]  # pragma: no cover - slack < 1 guarantees a hit
