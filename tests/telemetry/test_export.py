"""Exporters: metrics JSON/CSV and the Chrome trace-event format."""

import csv
import json

from repro.analysis import (metrics_to_rows, to_chrome_trace,
                            write_chrome_trace, write_metrics_csv,
                            write_metrics_json)
from repro.sim.trace import TraceRecorder
from repro.telemetry import MetricsRegistry


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


def test_forward_records_to_chrome_events():
    """Each gateway's message_start pairs with its own end record, keyed by
    (gw, msg); a message still open when the run stopped has no event."""
    trace = TraceRecorder()
    trace.emit(10.0, "gateway", "message_start", gw=1, msg=7, dst=2)
    trace.emit(20.0, "gateway", "message_start", gw=2, msg=7, dst=2)
    trace.emit(300.0, "gateway", "message_end", gw=1, msg=7)
    trace.emit(400.0, "gateway", "message_abandoned", gw=2, msg=7,
               where="crash")
    trace.emit(500.0, "gateway", "message_start", gw=1, msg=8, dst=2)
    done, crashed = to_chrome_trace(trace)
    assert all(e["ph"] == "X" and e["name"] == "forward"
               and e["cat"] == "gateway" and e["tid"] == "forward"
               for e in (done, crashed))
    assert (done["ts"], done["dur"], done["pid"]) == (10.0, 290.0,
                                                      "gateway 1")
    assert done["args"] == {"gw": 1, "msg": 7, "dst": 2, "ok": True,
                            "where": None}
    assert (crashed["ts"], crashed["dur"], crashed["pid"]) == (
        20.0, 380.0, "gateway 2")
    assert crashed["args"]["ok"] is False
    assert crashed["args"]["where"] == "crash"


def test_chrome_file_roundtrip(tmp_path):
    trace = TraceRecorder()
    trace.emit(2.0, "gateway", "message_start", gw=1, msg=1)
    trace.emit(2.0, "gateway", "message_end", gw=1, msg=1)
    trace.emit(3.0, "xfer", "fragment", start=1.0, kind="data", nbytes=8,
               proto="sci", src=0, dst=1)
    path = tmp_path / "trace.json"
    assert write_chrome_trace(trace, path) == 2
    payload = json.loads(path.read_text())
    assert [e["name"] for e in payload["traceEvents"]] == ["forward",
                                                          "data 8B"]
    # zero-duration intervals are widened so Perfetto renders them
    assert all(e["dur"] >= 0.01 for e in payload["traceEvents"])


def test_disabled_registry_exports_empty(tmp_path):
    registry = MetricsRegistry(enabled=False)
    registry.counter("n").inc()
    assert write_metrics_json(registry, tmp_path / "m.json") == 0
    assert write_metrics_csv(registry, tmp_path / "m.csv") == 0
