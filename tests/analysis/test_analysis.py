"""Tests for bandwidth-curve and pipeline-trace analysis."""

import pytest

from repro.analysis import (bandwidth, extract_timeline, half_bandwidth_point,
                            pipeline_stats, plot_series, render_timeline)
from repro.bench import Series
from repro.hw import build_world
from repro.madeleine import Session
from tests.conftest import payload, transfer_once


def test_bandwidth_helper():
    assert bandwidth(1000, 10) == 100
    with pytest.raises(ValueError):
        bandwidth(1, 0)


def test_half_bandwidth_point():
    s = Series("s", sizes=[1, 2, 4, 8], bandwidths=[10, 25, 45, 50])
    # asymptote = 50, half = 25 -> first size reaching it is 2
    assert half_bandwidth_point(s) == 2
    never = Series("n", sizes=[1, 2], bandwidths=[1, 1])
    assert half_bandwidth_point(never) == 1   # trivially at its own plateau


def gateway_trace(direction, packet=16 << 10, size=300_000):
    src, dst = (2, 0) if direction == "sci->myri" else (0, 2)
    w = build_world({"m0": ["myrinet"], "gw": ["myrinet", "sci"],
                     "s0": ["sci"]})
    w.trace.enable()
    s = Session(w, packet_size=packet)
    vch = s.virtual_channel([
        s.channel("myrinet", ["m0", "gw"]),
        s.channel("sci", ["gw", "s0"]),
    ])
    transfer_once(s, vch, src, dst, payload(size))
    return w


def test_extract_timeline_structure():
    w = gateway_trace("sci->myri")
    steps = extract_timeline(w.trace)
    frags = [st for st in steps if st.kind == "frag"]
    assert len(frags) == (300_000 + (16 << 10) - 1) // (16 << 10)
    for st in frags:
        assert st.recv_end > st.recv_start
        assert st.swap_end is not None and st.swap_end >= st.recv_end
        assert st.send_end > st.send_start >= st.recv_end


def test_pipeline_stats_overlap_positive():
    """Double buffering: sends must overlap receives (Figure 5)."""
    w = gateway_trace("sci->myri")
    stats = pipeline_stats(extract_timeline(w.trace))
    assert stats.fragments > 10
    assert stats.overlap_fraction > 0.3
    assert stats.mean_period_us > 0


def test_fig8_send_slowdown_detected():
    """Myrinet->SCI: PIO sends under DMA pressure take much longer relative
    to receives than in the opposite direction (the Figure 8 pathology)."""
    kw = dict(packet=128 << 10, size=2_000_000)
    ratio_ms = pipeline_stats(extract_timeline(
        gateway_trace("myri->sci", **kw).trace)).send_recv_ratio
    ratio_sm = pipeline_stats(extract_timeline(
        gateway_trace("sci->myri", **kw).trace)).send_recv_ratio
    # SCI->Myrinet is balanced (both steps ~equal, Figure 5); Myrinet->SCI
    # sends are stretched by the PCI conflict (Figure 8).
    assert ratio_sm < 1.15
    assert ratio_ms > 1.3


def test_pipeline_stats_empty_rejected():
    with pytest.raises(ValueError):
        pipeline_stats([])


def test_render_timeline_ascii():
    w = gateway_trace("sci->myri")
    out = render_timeline(extract_timeline(w.trace))
    assert "recv  |" in out and "send  |" in out
    assert "R" in out and "S" in out
    assert render_timeline([]) == "(empty timeline)"


def test_plot_series_smoke():
    a = Series("a", sizes=[1024, 4096, 16384], bandwidths=[5, 20, 40])
    out = plot_series([a], title="t")
    assert "t" in out
    assert "o a" in out
    assert plot_series([Series("e")]) == "(no data)"
