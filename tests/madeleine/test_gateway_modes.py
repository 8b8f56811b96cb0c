"""Pipeline disciplines (lockstep vs decoupled), depth, ingress regulation."""

import pytest

from repro.hw import GatewayParams, PipelineConfig, build_world
from repro.madeleine import Session
from tests.conftest import payload, transfer_once


def forward(packet=64 << 10, size=1_000_000, gateway_params=None,
            direction="sci->myri"):
    w = build_world({"m0": ["myrinet"], "gw": ["myrinet", "sci"],
                     "s0": ["sci"]})
    w.trace.enable()
    s = Session(w, packet_size=packet)
    vch = s.virtual_channel([
        s.channel("myrinet", ["m0", "gw"]),
        s.channel("sci", ["gw", "s0"]),
    ], gateway_params=gateway_params)
    src, dst = (2, 0) if direction == "sci->myri" else (0, 2)
    out = transfer_once(s, vch, src, dst, payload(size))
    return w, out


def test_lockstep_is_default():
    assert GatewayParams().pipeline.is_lockstep


def test_lockstep_period_is_max_plus_overhead():
    """The defining property of the paper's shared-buffer pipeline."""
    from repro.analysis import extract_timeline, pipeline_stats
    w, _out = forward(gateway_params=GatewayParams(switch_overhead=40.0))
    stats = pipeline_stats(extract_timeline(w.trace))
    expected = max(stats.mean_recv_us, stats.mean_send_us) + 40.0
    assert stats.mean_period_us == pytest.approx(expected, rel=0.1)


def test_decoupled_can_hide_switch_overhead():
    """With the decoupled queue, a swap overhead smaller than the slack
    between the two steps costs nothing; in lockstep it always costs."""
    slow = GatewayParams(switch_overhead=40.0)
    fast = GatewayParams(switch_overhead=40.0,
                         pipeline=PipelineConfig(lockstep=False))
    _w1, out1 = forward(gateway_params=slow)
    _w2, out2 = forward(gateway_params=fast)
    assert out2["t"] <= out1["t"]


def test_lockstep_and_decoupled_same_payload():
    data = payload(300_000)
    for lockstep in (True, False):
        w, out = forward(size=300_000, gateway_params=GatewayParams(
            pipeline=PipelineConfig(lockstep=lockstep)))
        assert out["buf"].tobytes() == data.tobytes()


def test_depth_one_serializes_steps():
    """depth=1: a fragment's send completes before the next receive starts
    (store-and-forward per fragment)."""
    from repro.analysis import extract_timeline
    w, _out = forward(size=500_000,
                      gateway_params=GatewayParams(
                          pipeline=PipelineConfig(depth=1)))
    steps = [s for s in extract_timeline(w.trace) if s.kind == "frag"]
    for a, b in zip(steps, steps[1:]):
        assert b.recv_start >= a.send_end - 1e-9


def test_depth_two_overlaps_steps():
    from repro.analysis import extract_timeline
    w, _out = forward(size=500_000)
    steps = [s for s in extract_timeline(w.trace) if s.kind == "frag"]
    overlaps = sum(1 for a, b in zip(steps, steps[1:])
                   if b.recv_start < a.send_end)
    assert overlaps > len(steps) // 2


def test_ingress_limit_caps_accepted_rate():
    limit = 20.0   # MB/s
    w, out = forward(size=1_000_000,
                     gateway_params=GatewayParams(ingress_limit=limit))
    bw = 1_000_000 / out["t"]
    assert bw <= limit * 1.05
    assert out["buf"].nbytes == 1_000_000


def test_ingress_limit_above_line_rate_is_noop():
    _w1, out1 = forward(size=1_000_000)
    _w2, out2 = forward(size=1_000_000,
                        gateway_params=GatewayParams(ingress_limit=1000.0))
    assert out2["t"] == pytest.approx(out1["t"], rel=1e-6)


def test_regulated_gateway_still_zero_copy():
    w, _out = forward(size=400_000,
                      gateway_params=GatewayParams(ingress_limit=30.0))
    assert "gateway.static_copy" not in w.accounting.by_label()
