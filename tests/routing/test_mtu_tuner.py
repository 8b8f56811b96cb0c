"""The adaptive fragment tuner (effective MTU) over the analytic model."""

import pytest

from repro.hw import GatewayParams, PipelineConfig, build_world
from repro.madeleine import Session
from repro.routing import (RouteTable, fragment_knee, negotiate_mtu,
                           tune_fragment_size)
from repro.routing.mtu import MIN_MTU, MTU_GRANULARITY, TUNER_SLACK


def paper_route():
    w = build_world({"m0": ["myrinet"], "gw": ["myrinet", "sci"],
                     "s0": ["sci"]})
    s = Session(w)
    myri = s.channel("myrinet", ["m0", "gw"])
    sci = s.channel("sci", ["gw", "s0"])
    rt = RouteTable([myri, sci])
    return rt.route(0, 2), rt


def test_tuned_size_is_aligned_and_bounded():
    route, _rt = paper_route()
    f = tune_fragment_size(route)
    assert f % MTU_GRANULARITY == 0
    assert MIN_MTU <= f <= 128 << 10   # SCI's wire limit caps the route


def test_single_hop_gets_full_wire_limit():
    route, rt = paper_route()
    direct = rt.route(0, 1)   # myrinet only
    assert tune_fragment_size(direct) == 1 << 20


def test_knee_curve_is_well_formed():
    route, _rt = paper_route()
    curve = fragment_knee(route)
    sizes = [f for f, _bw in curve]
    assert sizes == sorted(sizes)
    assert sizes[0] == MIN_MTU and sizes[-1] == 128 << 10
    assert all(bw > 0 for _f, bw in curve)


def test_tuned_size_sits_at_the_knee():
    """The tuner returns the smallest candidate within slack of the best —
    larger fragments buy (essentially) nothing beyond it."""
    route, _rt = paper_route()
    assert TUNER_SLACK == 0.02
    f = tune_fragment_size(route)
    curve = dict(fragment_knee(route))
    best = max(curve.values())
    assert curve[f] >= (1 - TUNER_SLACK) * best
    smaller = [s for s in curve if s < f]
    assert all(curve[s] < (1 - TUNER_SLACK) * best for s in smaller)


def test_deeper_pipeline_shifts_the_knee_down():
    """With the swap overhead off the critical path, small fragments stop
    being punished, so the tuned size cannot grow."""
    route, _rt = paper_route()
    lockstep, deep = (
        tune_fragment_size(route, gateway=GatewayParams(
            pipeline=PipelineConfig(depth=depth)))
        for depth in (2, 4))
    assert deep <= lockstep


def test_heavier_swap_overhead_grows_the_fragment():
    route, _rt = paper_route()
    cheap = tune_fragment_size(route, gateway=GatewayParams(switch_overhead=1.0))
    dear = tune_fragment_size(route, gateway=GatewayParams(switch_overhead=400.0))
    assert dear > cheap


def test_rate_overrides_reshape_the_curve():
    route, _rt = paper_route()
    base = dict(fragment_knee(route))
    slowed = dict(fragment_knee(route, rate_overrides={"myrinet": 5.0}))
    assert set(slowed) == set(base)
    assert all(slowed[f] <= base[f] + 1e-9 for f in base)
    assert any(slowed[f] < base[f] for f in base)


def test_wire_limit_still_binds_in_adaptive_mode():
    route, _rt = paper_route()
    f = tune_fragment_size(route, gateway=GatewayParams(switch_overhead=1e6))
    assert f <= 128 << 10


def test_static_negotiation_untouched():
    """The default path stays the §2.3 rule: min(packet_size, hop MTUs)."""
    route, _rt = paper_route()
    assert negotiate_mtu(route, 16 << 10) == 16 << 10
    assert negotiate_mtu(route, 1 << 20) == 128 << 10
    with pytest.raises(ValueError):
        negotiate_mtu(route, 512)


def test_vchannel_adaptive_mtu_cached_and_recalibrated():
    w = build_world({"m0": ["myrinet"], "gw": ["myrinet", "sci"],
                     "s0": ["sci"]})
    s = Session(w, packet_size=8 << 10)
    vch = s.virtual_channel([
        s.channel("myrinet", ["m0", "gw"]),
        s.channel("sci", ["gw", "s0"]),
    ], gateway_params=GatewayParams(
        pipeline=PipelineConfig(depth=4, adaptive_mtu=True)))
    tuned = vch.mtu_for(0, 2)
    assert tuned > 8 << 10          # grew past the static packet size
    assert vch._mtu_cache            # cached per path
    assert vch.mtu_for(0, 2) == tuned
    vch.calibrate_rates({"myrinet": 5.0, "sci": 5.0})
    assert not vch._mtu_cache        # calibration invalidates the cache
    recal = vch.mtu_for(0, 2)
    assert recal % MTU_GRANULARITY == 0
    # direct routes keep the plain negotiation even in adaptive mode
    assert vch.mtu_for(0, 1) == 8 << 10
