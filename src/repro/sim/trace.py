"""Simulated-time tracing.

Replaces the paper's ``rdtsc`` instrumentation: components emit timestamped
records into a :class:`TraceRecorder`, and the analysis layer reconstructs
pipeline timelines (Figures 5 and 8) from them.

The raw trace is the one part of the observability layer whose memory grows
with every wire fragment and every forwarded item, so it records only when
asked.  A :class:`~repro.hw.topology.World` builds its recorder disabled;
``world.trace.enable()`` (or ``session.trace.enable()``) before the run
turns it on.  Nothing emits before the first simulation event, so enabling
right after the build loses no record.  On or off, the trace creates no
simulation event: the schedule is the same either way.
"""

from __future__ import annotations

from typing import Any, Iterator, NamedTuple, Optional

__all__ = ["TraceRecord", "TraceRecorder"]


class TraceRecord(NamedTuple):
    """One instrumentation sample: ``rec.t``, ``rec.category``,
    ``rec.event``, ``rec.attrs``; ``rec["key"]`` reads one attribute."""

    t: float                      # simulated time, µs
    category: str                 # e.g. "gateway", "nic", "pci"
    event: str                    # e.g. "recv_start", "send_end", "swap"
    attrs: dict[str, Any]

    def __getitem__(self, key):
        if isinstance(key, str):
            return self.attrs[key]
        return tuple.__getitem__(self, key)


class TraceRecorder:
    """Append-only store of trace records with simple filtered queries.

    Records only while :attr:`enabled`; a recorder built by a world starts
    disabled, one built directly starts enabled."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.records: list[TraceRecord] = []

    def enable(self) -> "TraceRecorder":
        self.enabled = True
        return self

    def disable(self) -> "TraceRecorder":
        """Stop recording; the records kept so far stay readable."""
        self.enabled = False
        return self

    def emit(self, t: float, category: str, event: str, **attrs: Any) -> None:
        if self.enabled:
            self.records.append(TraceRecord(t, category, event, attrs))

    def clear(self) -> None:
        self.records.clear()

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self.records)

    def query(self, category: Optional[str] = None, event: Optional[str] = None,
              **attr_filters: Any) -> list[TraceRecord]:
        """Records matching the category/event names and attribute equality."""
        out = []
        for rec in self.records:
            if category is not None and rec.category != category:
                continue
            if event is not None and rec.event != event:
                continue
            if any(rec.attrs.get(k) != v for k, v in attr_filters.items()):
                continue
            out.append(rec)
        return out

    def intervals(self, category: str, start_event: str, end_event: str,
                  key: str) -> list[tuple[Any, float, float]]:
        """Pair start/end records sharing the same ``key`` attribute value.

        Returns (key_value, t_start, t_end) tuples in start order; unmatched
        starts are dropped (still-open intervals at end of trace).
        """
        open_at: dict[Any, float] = {}
        out: list[tuple[Any, float, float]] = []
        for rec in self.records:
            if rec.category != category:
                continue
            if rec.event == start_event:
                open_at[rec.attrs.get(key)] = rec.t
            elif rec.event == end_event:
                k = rec.attrs.get(key)
                if k in open_at:
                    out.append((k, open_at.pop(k), rec.t))
        out.sort(key=lambda x: x[1])
        return out
