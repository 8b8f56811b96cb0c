"""Chrome trace export, and the registry's totals of a forwarded run."""

import json

import pytest

from repro.analysis import extract_timeline, to_chrome_trace, write_chrome_trace
from repro.hw import build_world
from repro.madeleine import Session
from tests.conftest import payload, transfer_once


def run_forwarding():
    w = build_world({"m0": ["myrinet"], "gw": ["myrinet", "sci"],
                     "s0": ["sci"]})
    w.trace.enable()
    s = Session(w, telemetry=True, packet_size=16 << 10)
    vch = s.virtual_channel([
        s.channel("myrinet", ["m0", "gw"]),
        s.channel("sci", ["gw", "s0"]),
    ])
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


def test_registry_counts_a_forwarded_run():
    w = run_forwarding()
    m = w.telemetry
    assert m.total("wire.fragments") > 0
    # payload crossed both networks once each (plus control records)
    for proto in ("sci", "myrinet"):
        assert sum(i.value for i in m.series("wire.bytes")
                   if i.labels["proto"] == proto) >= 100_000
    assert m.value("gateway.messages_forwarded", gw=1) == 1
    assert m.value("gateway.items_forwarded", gw=1) > 0


# -- a trace that was never on is refused, not read as zeros --------------------
def _untraced_forwarding():
    w = build_world({"m0": ["myrinet"], "gw": ["myrinet", "sci"],
                     "s0": ["sci"]})
    s = Session(w, packet_size=16 << 10)
    vch = s.virtual_channel([
        s.channel("myrinet", ["m0", "gw"]),
        s.channel("sci", ["gw", "s0"]),
    ])
    transfer_once(s, vch, 2, 0, payload(100_000))
    assert len(w.trace) == 0
    return w


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
    assert extract_timeline(w.trace)
    assert to_chrome_trace(w.trace)
