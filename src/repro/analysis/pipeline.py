"""Gateway-pipeline timeline analysis (Figures 5 and 8).

The gateway workers emit trace records per forwarded item:

* ``recv`` with ``start`` and end time (the receive step),
* ``swap`` (after the buffer-switch software overhead),
* ``send`` with ``start`` and end time (the retransmit step).

This module reconstructs the two-lane timeline the paper draws, and
quantifies its two pathologies: the per-switch software overhead (§3.3.1)
and the PCI-conflict send slowdown (§3.4.1, Figure 8).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..sim.trace import TraceRecorder

__all__ = ["StepTimeline", "PipelineStats", "extract_timeline",
           "pipeline_stats", "render_timeline"]


@dataclass(frozen=True)
class StepTimeline:
    """Per-fragment step intervals at one gateway for one message."""

    seq: int
    nbytes: int
    kind: str                      # "frag" or "desc"
    recv_start: float
    recv_end: float
    swap_end: Optional[float]
    send_start: Optional[float]
    send_end: Optional[float]

    @property
    def recv_duration(self) -> float:
        return self.recv_end - self.recv_start

    @property
    def send_duration(self) -> Optional[float]:
        if self.send_start is None or self.send_end is None:
            return None
        return self.send_end - self.send_start


@dataclass(frozen=True)
class PipelineStats:
    """Aggregates over the payload fragments of one forwarded message."""

    fragments: int
    mean_recv_us: float
    mean_send_us: float
    mean_period_us: float          # spacing between successive send ends
    overlap_fraction: float        # share of send time overlapped by a recv
    send_recv_ratio: float         # > 1 means sends are the bottleneck (Fig 8)


def require_trace(trace: TraceRecorder, reader: str) -> None:
    """Raise unless ``trace`` is on or holds records: ``reader`` would
    otherwise report zeros for a trace that was never taken."""
    if not trace.enabled and not len(trace):
        raise ValueError(
            f"{reader} reads the raw trace, which is off and empty: call "
            f"trace.enable() (world.trace or session.trace) before the run")


def extract_timeline(trace: TraceRecorder, msg_id: Optional[int] = None,
                     gw: Optional[int] = None) -> list[StepTimeline]:
    """Reconstruct the per-item timeline from gateway trace records."""
    require_trace(trace, "extract_timeline")

    def keep(rec):
        if msg_id is not None and rec.attrs.get("msg") != msg_id:
            return False
        if gw is not None and rec.attrs.get("gw") != gw:
            return False
        return True

    recvs = {r["seq"]: r for r in trace.query("gateway", "recv") if keep(r)}
    swaps = {r["seq"]: r for r in trace.query("gateway", "swap") if keep(r)}
    sends = {r["seq"]: r for r in trace.query("gateway", "send") if keep(r)}
    steps = []
    for seq in sorted(recvs):
        r = recvs[seq]
        s = sends.get(seq)
        w = swaps.get(seq)
        steps.append(StepTimeline(
            seq=seq, nbytes=r["nbytes"], kind=r.attrs.get("kind", "frag"),
            recv_start=r["start"], recv_end=r.t,
            swap_end=w.t if w else None,
            send_start=s["start"] if s else None,
            send_end=s.t if s else None,
        ))
    return steps


def pipeline_stats(steps: list[StepTimeline]) -> PipelineStats:
    """Aggregate the payload-fragment steps (descriptors excluded)."""
    frags = [s for s in steps
             if s.kind == "frag" and s.send_duration is not None]
    if not frags:
        raise ValueError("no completed payload fragments in the timeline")
    recv_d = [s.recv_duration for s in frags]
    send_d = [s.send_duration for s in frags]
    ends = sorted(s.send_end for s in frags)
    periods = [b - a for a, b in zip(ends, ends[1:])] or [ends[0]]
    # overlap: how much of each send interval coincides with any recv
    recv_ivals = [(s.recv_start, s.recv_end) for s in frags]
    overlap_total = 0.0
    send_total = 0.0
    for s in frags:
        send_total += s.send_duration
        for (a, b) in recv_ivals:
            lo = max(a, s.send_start)
            hi = min(b, s.send_end)
            if hi > lo:
                overlap_total += hi - lo
    return PipelineStats(
        fragments=len(frags),
        mean_recv_us=sum(recv_d) / len(frags),
        mean_send_us=sum(send_d) / len(frags),
        mean_period_us=sum(periods) / len(periods),
        overlap_fraction=overlap_total / send_total if send_total else 0.0,
        send_recv_ratio=(sum(send_d) / len(frags)) / (sum(recv_d) / len(frags)),
    )


def render_timeline(steps: list[StepTimeline], width: int = 78) -> str:
    """ASCII rendering of the two pipeline lanes (the Figures 5/8 picture):

    ``R`` marks receive activity, ``S`` send activity, ``.`` idle.
    """
    frags = [s for s in steps if s.send_end is not None]
    if not frags:
        return "(empty timeline)"
    t0 = min(s.recv_start for s in frags)
    t1 = max(s.send_end for s in frags)
    span = max(t1 - t0, 1e-9)
    scale = (width - 8) / span

    def lane(mark, ivals):
        cells = ["."] * (width - 8)
        for a, b in ivals:
            lo = int((a - t0) * scale)
            hi = max(lo + 1, int((b - t0) * scale))
            for i in range(lo, min(hi, len(cells))):
                cells[i] = mark
        return "".join(cells)

    recv_line = lane("R", [(s.recv_start, s.recv_end) for s in frags])
    send_line = lane("S", [(s.send_start, s.send_end) for s in frags])
    return (f"recv  | {recv_line}\n"
            f"send  | {send_line}\n"
            f"        0{'':{width - 18}}+{span:.0f}µs")
