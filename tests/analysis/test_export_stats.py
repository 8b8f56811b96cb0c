"""Chrome trace export and session statistics."""

import json

import pytest

from repro.analysis import (collect_stats, extract_timeline, format_stats,
                            to_chrome_trace, write_chrome_trace)
from repro.hw import build_world
from repro.madeleine import Session
from tests.conftest import payload, transfer_once


def run_forwarding():
    w = build_world({"m0": ["myrinet"], "gw": ["myrinet", "sci"],
                     "s0": ["sci"]})
    w.trace.enable()
    s = Session(w)
    vch = s.virtual_channel([
        s.channel("myrinet", ["m0", "gw"]),
        s.channel("sci", ["gw", "s0"]),
    ], packet_size=16 << 10)
    transfer_once(s, vch, 2, 0, payload(100_000))
    return w


def test_chrome_trace_structure():
    w = run_forwarding()
    events = to_chrome_trace(w.trace)
    assert events
    kinds = {e["ph"] for e in events}
    assert "X" in kinds and "i" in kinds
    x = [e for e in events if e["ph"] == "X"]
    assert all(e["dur"] > 0 for e in x)
    assert any(e["cat"] == "gateway" for e in x)
    assert any(e["cat"] == "wire" for e in x)


def test_write_chrome_trace(tmp_path):
    w = run_forwarding()
    path = tmp_path / "trace.json"
    n = write_chrome_trace(w.trace, path)
    doc = json.loads(path.read_text())
    assert len(doc["traceEvents"]) == n > 0


def test_collect_stats_counts():
    w = run_forwarding()
    stats = collect_stats(w)
    assert stats.elapsed_us > 0
    assert stats.fragments > 0
    # payload crossed both networks once each (plus control records)
    assert stats.by_protocol["sci"][1] >= 100_000
    assert stats.by_protocol["myrinet"][1] >= 100_000
    assert stats.gateway_messages == {1: 1}
    assert stats.aggregate_bandwidth > 0


def test_format_stats_readable():
    w = run_forwarding()
    text = format_stats(collect_stats(w))
    assert "wire fragments" in text
    assert "gateway forwarding" in text
    assert "sci" in text and "myrinet" in text


def test_empty_world_stats():
    w = build_world({"a": ["myrinet"]})
    w.trace.enable()
    stats = collect_stats(w)
    assert stats.fragments == 0
    assert stats.aggregate_bandwidth == 0.0
    assert "host copies" in format_stats(stats)


# -- a trace that was never on is refused, not read as zeros --------------------
def _untraced_forwarding():
    w = build_world({"m0": ["myrinet"], "gw": ["myrinet", "sci"],
                     "s0": ["sci"]})
    s = Session(w)
    vch = s.virtual_channel([
        s.channel("myrinet", ["m0", "gw"]),
        s.channel("sci", ["gw", "s0"]),
    ], packet_size=16 << 10)
    transfer_once(s, vch, 2, 0, payload(100_000))
    assert len(w.trace) == 0
    return w


def test_collect_stats_refuses_a_trace_never_enabled():
    with pytest.raises(ValueError, match=r"trace\.enable\(\)"):
        collect_stats(_untraced_forwarding())


def test_extract_timeline_refuses_a_trace_never_enabled():
    with pytest.raises(ValueError, match=r"trace\.enable\(\)"):
        extract_timeline(_untraced_forwarding().trace)


def test_chrome_export_refuses_a_trace_never_enabled(tmp_path):
    w = _untraced_forwarding()
    with pytest.raises(ValueError, match=r"trace\.enable\(\)"):
        to_chrome_trace(w.trace)
    with pytest.raises(ValueError, match=r"trace\.enable\(\)"):
        write_chrome_trace(w.trace, tmp_path / "trace.json")
    assert not (tmp_path / "trace.json").exists()


def test_a_trace_disabled_after_its_run_stays_readable():
    w = run_forwarding()
    w.trace.disable()
    assert collect_stats(w).fragments > 0
    assert extract_timeline(w.trace)
    assert to_chrome_trace(w.trace)
