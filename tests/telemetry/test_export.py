"""Exporters: metrics JSON/CSV and the span Chrome-trace format."""

import csv
import json

from repro.analysis import (metrics_to_rows, spans_to_chrome,
                            write_metrics_csv, write_metrics_json,
                            write_spans_chrome)
from repro.telemetry import MetricsRegistry, SpanTracker


class FakeClock:
    def __init__(self, now: float = 0.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now


def small_registry() -> MetricsRegistry:
    registry = MetricsRegistry()
    registry.counter("wire.bytes", nic=0).inc(4096)
    registry.gauge("gateway.occupancy", gw=1).set(2)
    return registry


def test_metrics_json_golden(tmp_path):
    path = tmp_path / "metrics.json"
    assert write_metrics_json(small_registry(), path) == 2
    assert json.loads(path.read_text()) == {
        "gateway.occupancy": {
            "kind": "gauge",
            "series": [{"labels": {"gw": 1}, "value": 2, "hwm": 2}],
        },
        "wire.bytes": {
            "kind": "counter",
            "series": [{"labels": {"nic": 0}, "value": 4096}],
        },
    }


def test_metrics_rows_flatten_histograms():
    registry = MetricsRegistry()
    registry.histogram("lat", bounds=(10.0, 100.0)).observe(5.0)
    rows = metrics_to_rows(registry)
    fields = {row[3]: row[4] for row in rows}
    assert fields["count"] == 1
    assert fields["sum"] == 5.0
    assert fields["buckets.le_10"] == 1       # sub-dicts become field.sub
    assert all(row[:3] == ["lat", "histogram", ""] for row in rows)


def test_metrics_csv_golden(tmp_path):
    path = tmp_path / "metrics.csv"
    assert write_metrics_csv(small_registry(), path) == 3
    with path.open(newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["metric", "kind", "labels", "field", "value"]
    assert rows[1] == ["gateway.occupancy", "gauge", "gw=1", "value", "2"]
    assert rows[2] == ["gateway.occupancy", "gauge", "gw=1", "hwm", "2"]
    assert rows[3] == ["wire.bytes", "counter", "nic=0", "value", "4096"]


def test_spans_to_chrome_events():
    clock = FakeClock()
    tracker = SpanTracker(clock=clock)
    root = tracker.begin("gateway", "forward", gw=1)
    clock.now = 300.0
    tracker.end(root, ok=True)
    (event,) = spans_to_chrome(tracker)
    assert event["ph"] == "X"
    assert event["name"] == "forward" and event["cat"] == "gateway"
    assert (event["ts"], event["dur"]) == (0.0, 300.0)
    assert event["pid"] == "span:gateway"
    assert event["args"] == {"span": root.id, "parent": None,
                             "gw": 1, "ok": True}


def test_spans_chrome_file_roundtrip(tmp_path):
    clock = FakeClock()
    tracker = SpanTracker(clock=clock)
    tracker.end(tracker.begin("a", "one"))
    clock.now = 2.0
    tracker.end(tracker.begin("a", "two"))
    path = tmp_path / "spans.json"
    assert write_spans_chrome(tracker, path) == 2
    payload = json.loads(path.read_text())
    assert [e["name"] for e in payload["traceEvents"]] == ["one", "two"]
    # zero-duration spans are widened so Perfetto renders them
    assert all(e["dur"] >= 0.01 for e in payload["traceEvents"])


def test_disabled_registry_exports_empty(tmp_path):
    registry = MetricsRegistry(enabled=False)
    registry.counter("n").inc()
    assert write_metrics_json(registry, tmp_path / "m.json") == 0
    assert write_metrics_csv(registry, tmp_path / "m.csv") == 0
