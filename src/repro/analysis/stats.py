"""Session statistics: one-call summaries of what a run did.

Aggregates the trace and the copy accounting into per-protocol traffic
volumes, per-gateway forwarding counts, and a formatted report — the
numbers a downstream user wants after an experiment.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..hw.topology import World
from .pipeline import require_trace

__all__ = ["SessionStats", "collect_stats", "format_stats"]


@dataclass
class SessionStats:
    elapsed_us: float
    fragments: int = 0
    payload_bytes: int = 0
    by_protocol: dict[str, tuple[int, int]] = field(default_factory=dict)
    gateway_items: dict[int, int] = field(default_factory=dict)
    gateway_messages: dict[int, int] = field(default_factory=dict)
    copies: int = 0
    bytes_copied: int = 0
    copy_labels: dict[str, tuple[int, int]] = field(default_factory=dict)

    @property
    def aggregate_bandwidth(self) -> float:
        """Total payload bytes over elapsed simulated time (MB/s)."""
        return self.payload_bytes / self.elapsed_us if self.elapsed_us else 0.0


def collect_stats(world: World) -> SessionStats:
    """Summarise ``world``'s trace and copy accounting; its trace must have
    been enabled before the run (``world.trace.enable()``)."""
    require_trace(world.trace, "collect_stats")
    stats = SessionStats(elapsed_us=world.sim.now)
    for rec in world.trace:
        if rec.category == "xfer" and rec.event == "fragment":
            n = rec.attrs.get("nbytes", 0)
            stats.fragments += 1
            stats.payload_bytes += n
            proto = rec.attrs.get("proto", "?")
            c, b = stats.by_protocol.get(proto, (0, 0))
            stats.by_protocol[proto] = (c + 1, b + n)
        elif rec.category == "gateway":
            gw = rec.attrs.get("gw")
            if rec.event == "send":
                stats.gateway_items[gw] = stats.gateway_items.get(gw, 0) + 1
            elif rec.event == "message_end":
                stats.gateway_messages[gw] = \
                    stats.gateway_messages.get(gw, 0) + 1
    acc = world.accounting
    stats.copies = acc.copies
    stats.bytes_copied = acc.bytes_copied
    stats.copy_labels = acc.by_label()
    return stats


def format_stats(stats: SessionStats) -> str:
    lines = [f"simulated time      : {stats.elapsed_us:,.1f} µs",
             f"wire fragments      : {stats.fragments} "
             f"({stats.payload_bytes:,} payload bytes)"]
    for proto, (count, nbytes) in sorted(stats.by_protocol.items()):
        lines.append(f"  {proto:14s}: {count:6d} fragments, {nbytes:>12,} B")
    if stats.gateway_messages:
        lines.append("gateway forwarding  :")
        for gw in sorted(stats.gateway_messages):
            lines.append(f"  rank {gw}: {stats.gateway_messages[gw]} "
                         f"message(s), {stats.gateway_items.get(gw, 0)} items")
    lines.append(f"host copies         : {stats.copies} "
                 f"({stats.bytes_copied:,} B)")
    for label, (count, nbytes) in sorted(stats.copy_labels.items()):
        lines.append(f"  {label:20s}: {count:6d} x, {nbytes:>12,} B")
    return "\n".join(lines)
