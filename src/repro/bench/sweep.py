"""Parameter sweeps: the loops behind every figure of the evaluation."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional, Sequence

from ..hw.params import GatewayParams, PipelineConfig
from .ping import (MultirailHarness, PingHarness, PingResult,
                   probe_protocol_rates)

__all__ = ["Series", "bandwidth_sweep", "figure_sweep", "pipeline_sweep",
           "rails_harness", "rails_sweep",
           "PAPER_PACKET_SIZES", "PAPER_MESSAGE_SIZES",
           "PIPELINE_SWEEP_DEPTHS", "PIPELINE_SWEEP_FRAGMENTS",
           "RAILS_SWEEP_RAILS", "RAILS_SWEEP_PACKETS"]

#: the paper sweeps paquet sizes 8 KB .. 128 KB (Figures 6 and 7)
PAPER_PACKET_SIZES = tuple((1 << k) << 10 for k in range(3, 8))

#: message sizes up to 16 MB (the figures' x axis, log-spaced)
PAPER_MESSAGE_SIZES = tuple((1 << k) << 10 for k in range(3, 15))


@dataclass
class Series:
    """One curve: bandwidth (MB/s) against message size (bytes)."""

    label: str
    sizes: list[int] = field(default_factory=list)
    bandwidths: list[float] = field(default_factory=list)
    meta: dict = field(default_factory=dict)

    def add(self, size: int, bandwidth: float) -> None:
        self.sizes.append(size)
        self.bandwidths.append(bandwidth)

    @property
    def asymptote(self) -> float:
        """Mean of the top quartile of points (a robust plateau estimate)."""
        if not self.bandwidths:
            raise ValueError(f"series {self.label!r} is empty")
        top = sorted(self.bandwidths)[-max(1, len(self.bandwidths) // 4):]
        return sum(top) / len(top)

    def as_rows(self) -> list[tuple[int, float]]:
        return list(zip(self.sizes, self.bandwidths))


def bandwidth_sweep(measure: Callable[[int], PingResult],
                    sizes: Iterable[int], label: str) -> Series:
    """Run ``measure`` over message sizes, collecting a bandwidth curve."""
    series = Series(label=label)
    for size in sizes:
        result = measure(size)
        series.add(size, result.bandwidth)
    return series


#: depth × fragment grid of ``repro bench --sweep-pipeline``.
PIPELINE_SWEEP_DEPTHS = (1, 2, 4, 8)
PIPELINE_SWEEP_FRAGMENTS = tuple((1 << k) << 10 for k in (3, 4, 5, 6, 7))


def _pipeline_cell(depth: int, fragment: Optional[int], message: int,
                   direction: str, rates: Optional[dict]):
    """One (depth, fragment) measurement on the fig5 topology;
    ``fragment=None`` runs the adaptive tuner instead of a static fragment
    size and also reports the size it chose."""
    adaptive = fragment is None
    gateway = GatewayParams(pipeline=PipelineConfig(depth=depth,
                                                    adaptive_mtu=adaptive))
    harness = PingHarness(packet_size=fragment or 8 << 10,
                          gateway_params=gateway, rate_overrides=rates)
    result = harness.measure(message, direction=direction)
    if adaptive:
        _world, session, vch, _ack = harness.build()
        (msg,) = harness.scenario(message, direction).messages
        fragment = vch.effective_mtu(vch.routes.route(
            session.rank(msg.src), session.rank(msg.dst)))
    return fragment, result.bandwidth


def pipeline_sweep(depths: Sequence[int] = PIPELINE_SWEEP_DEPTHS,
                   fragments: Sequence[int] = PIPELINE_SWEEP_FRAGMENTS,
                   message: int = 2 << 20, direction: str = "b0->a0",
                   probe: bool = False) -> dict:
    """Sweep pipeline depth × fragment size on the fig5 topology, plus one
    adaptively tuned point per depth.  ``probe=True`` runs the online
    rate-probe phase and feeds the measured rates into the tuner."""
    rates = probe_protocol_rates(("myrinet", "sci")) if probe else None
    grid: dict[str, dict[str, float]] = {}
    tuned: dict[str, dict[str, float]] = {}
    for depth in depths:
        row = grid.setdefault(f"depth{depth}", {})
        for fragment in fragments:
            row[f"{fragment >> 10}k"] = _pipeline_cell(
                depth, fragment, message, direction, rates)[1]
        fragment, bw = _pipeline_cell(depth, None, message, direction, rates)
        tuned[f"depth{depth}"] = {"fragment_kb": fragment >> 10, "mbs": bw}
    return {"direction": direction, "message": message,
            "probe": bool(probe), "grid": grid, "tuned": tuned}


#: rails × paquet grid of ``repro bench --sweep-rails``.
RAILS_SWEEP_RAILS = (1, 2, 3)
RAILS_SWEEP_PACKETS = tuple((1 << k) << 10 for k in (2, 3, 4))


def rails_harness(rails: int, packet: int) -> MultirailHarness:
    """The harness of one (rails, paquet) cell: striping over every rail
    (none on the single-rail reference)."""
    from ..routing import StripePolicy
    policy = StripePolicy(max_rails=rails) if rails > 1 else None
    return MultirailHarness(packet_size=packet, rails=rails,
                            stripe_policy=policy)


def _rails_cell(rails: int, packet: int, message: int):
    """One (rails, paquet) measurement on the multirail topology, plus the
    analytic aggregate-bandwidth prediction for the same point."""
    from ..analysis.model import predict_multirail
    from ..hw.params import PROTOCOLS
    harness = rails_harness(rails, packet)
    result = harness.measure(message)
    model = predict_multirail(PROTOCOLS[harness.protocols[0]],
                              PROTOCOLS[harness.protocols[1]],
                              packet, rails=rails, message=message)
    return result.bandwidth, model.bandwidth


def rails_sweep(rails: Sequence[int] = RAILS_SWEEP_RAILS,
                packets: Sequence[int] = RAILS_SWEEP_PACKETS,
                message: int = 2 << 20) -> dict:
    """Sweep rail count × paquet size on the multirail dual-NIC topology,
    reporting measured striped bandwidth next to the closed-form
    :func:`~repro.analysis.model.predict_multirail` figure for every cell."""
    grid: dict[str, dict[str, float]] = {}
    model: dict[str, dict[str, float]] = {}
    for r in rails:
        row, mrow = {}, {}
        for packet in packets:
            row[f"{packet >> 10}k"], mrow[f"{packet >> 10}k"] = _rails_cell(
                r, packet, message)
        grid[f"rails{r}"], model[f"rails{r}"] = row, mrow
    gains: dict[str, float] = {}
    base = grid.get("rails1", {})
    for key, row in grid.items():
        if key == "rails1":
            continue
        shared = [p for p in row if p in base]
        if shared:
            gains[key] = sum(row[p] / base[p] for p in shared) / len(shared)
    return {"message": message, "grid": grid, "model": model,
            "mean_gain": gains}


def figure_sweep(direction: str,
                 packet_sizes: Sequence[int] = PAPER_PACKET_SIZES,
                 message_sizes: Sequence[int] = PAPER_MESSAGE_SIZES,
                 protocols: tuple[str, str] = ("myrinet", "sci"),
                 gateway_params: Optional[GatewayParams] = None,
                 node_params=None) -> list[Series]:
    """The exact sweep behind Figure 6 (direction="b0->a0", i.e. SCI to
    Myrinet) and Figure 7 (direction="a0->b0"): one bandwidth-vs-message-size
    curve per paquet size."""
    curves = []
    for packet in packet_sizes:
        harness = PingHarness(packet_size=packet,
                              gateway_params=gateway_params,
                              protocols=protocols, node_params=node_params)
        series = bandwidth_sweep(
            lambda size: harness.measure(size, direction=direction),
            [m for m in message_sizes if m >= packet],
            label=f"paquet {packet >> 10} KB")
        series.meta["packet_size"] = packet
        series.meta["direction"] = direction
        curves.append(series)
    return curves
