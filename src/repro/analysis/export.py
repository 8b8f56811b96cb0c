"""Exporters: traces and metrics to on-disk formats.

* :func:`to_chrome_trace` / :func:`write_chrome_trace` — trace records to
  the Chrome trace-event format (``chrome://tracing`` / Perfetto): wire
  transfers, gateway pipeline steps and each gateway's forwarding of one
  message appear as duration events on per-component tracks, which makes
  the Figure 5/8 behaviour directly explorable;
* :func:`write_metrics_json` / :func:`write_metrics_csv` — a
  :meth:`~repro.telemetry.MetricsRegistry.snapshot` as JSON, or flattened
  to long-format CSV (one row per series and field) for spreadsheet use.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Any, Union

from ..sim.trace import TraceRecorder
from ..telemetry import MetricsRegistry
from .pipeline import require_trace

__all__ = ["to_chrome_trace", "write_chrome_trace",
           "write_metrics_json", "write_metrics_csv"]


def to_chrome_trace(trace: TraceRecorder) -> list[dict]:
    """Convert trace records to Chrome trace events (complete 'X' events).

    Tracks (pid/tid):

    * one track per NIC-to-NIC direction for wire transfers;
    * per gateway, a receive track and a send track, and a ``forward``
      track with one event per forwarded message: from its
      ``message_start`` record to the matching ``message_end`` or
      ``message_abandoned`` (``ok`` and ``where`` say which).  A message
      still in flight when the run stopped has no event.

    The trace must have been enabled before the run (``trace.enable()``).
    """
    require_trace(trace, "to_chrome_trace")
    events: list[dict] = []
    forwarding: dict[tuple, Any] = {}
    for rec in trace:
        if rec.category == "xfer" and rec.event == "fragment":
            start = rec.attrs.get("start", rec.t)
            events.append({
                "name": f"{rec.attrs.get('kind') or 'frag'} "
                        f"{rec.attrs.get('nbytes', 0)}B",
                "cat": "wire",
                "ph": "X",
                "ts": start,
                "dur": max(rec.t - start, 0.01),
                "pid": f"wire {rec.attrs.get('proto', '?')}",
                "tid": f"{rec.attrs.get('src')} -> {rec.attrs.get('dst')}",
                "args": dict(rec.attrs),
            })
        elif rec.category == "gateway" and rec.event in ("recv", "send"):
            start = rec.attrs.get("start", rec.t)
            events.append({
                "name": f"{rec.event} #{rec.attrs.get('seq')} "
                        f"({rec.attrs.get('nbytes', 0)}B)",
                "cat": "gateway",
                "ph": "X",
                "ts": start,
                "dur": max(rec.t - start, 0.01),
                "pid": f"gateway {rec.attrs.get('gw')}",
                "tid": f"{rec.event} thread",
                "args": dict(rec.attrs),
            })
        elif rec.category == "gateway" and rec.event == "message_start":
            forwarding[rec.attrs.get("gw"), rec.attrs.get("msg")] = rec
        elif rec.category == "gateway" and rec.event in (
                "message_end", "message_abandoned"):
            start = forwarding.pop(
                (rec.attrs.get("gw"), rec.attrs.get("msg")), None)
            if start is None:
                continue
            events.append({
                "name": "forward",
                "cat": "gateway",
                "ph": "X",
                "ts": start.t,
                "dur": max(rec.t - start.t, 0.01),
                "pid": f"gateway {rec.attrs.get('gw')}",
                "tid": "forward",
                "args": {**start.attrs, "ok": rec.event == "message_end",
                         "where": rec.attrs.get("where")},
            })
        elif rec.category == "gateway" and rec.event == "swap":
            events.append({
                "name": "buffer swap",
                "cat": "gateway",
                "ph": "i",
                "ts": rec.t,
                "pid": f"gateway {rec.attrs.get('gw')}",
                "tid": "recv thread",
                "s": "t",
                "args": dict(rec.attrs),
            })
    return events


def write_chrome_trace(trace: TraceRecorder, path: Union[str, Path]) -> int:
    """Write the trace as Chrome JSON; returns the number of events."""
    events = to_chrome_trace(trace)
    payload = {"traceEvents": events, "displayTimeUnit": "ms"}
    Path(path).write_text(json.dumps(payload), encoding="utf-8")
    return len(events)


# -- metrics ---------------------------------------------------------------
def _as_snapshot(metrics: Union[MetricsRegistry, dict]) -> dict[str, Any]:
    return metrics.snapshot() if isinstance(metrics, MetricsRegistry) \
        else metrics


def write_metrics_json(metrics: Union[MetricsRegistry, dict],
                       path: Union[str, Path]) -> int:
    """Write a metrics snapshot (or a registry) as JSON; returns the number
    of metric names written."""
    snapshot = _as_snapshot(metrics)
    Path(path).write_text(json.dumps(snapshot, indent=2, sort_keys=True),
                          encoding="utf-8")
    return len(snapshot)


def metrics_to_rows(metrics: Union[MetricsRegistry, dict]) -> list[list]:
    """Flatten a snapshot to long-format rows:
    ``[metric, kind, labels, field, value]``, deterministically ordered.

    Histogram buckets become ``bucket.le_<bound>`` fields; the labels
    column is ``k=v`` pairs joined with ``;``.
    """
    rows: list[list] = []
    for name, entry in sorted(_as_snapshot(metrics).items()):
        for series in entry["series"]:
            labels = ";".join(f"{k}={v}" for k, v in
                              sorted(series["labels"].items()))
            for field, value in series.items():
                if field == "labels":
                    continue
                if isinstance(value, dict):
                    for sub, n in value.items():
                        rows.append([name, entry["kind"], labels,
                                     f"{field}.{sub}", n])
                else:
                    rows.append([name, entry["kind"], labels, field, value])
    return rows


def write_metrics_csv(metrics: Union[MetricsRegistry, dict],
                      path: Union[str, Path]) -> int:
    """Write a metrics snapshot (or a registry) as long-format CSV; returns
    the number of data rows."""
    rows = metrics_to_rows(metrics)
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["metric", "kind", "labels", "field", "value"])
        writer.writerows(rows)
    return len(rows)
