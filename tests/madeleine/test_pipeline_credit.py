"""The N-deep credit pipeline and the adaptive fragment tuner."""

import pytest

from repro.hw import PipelineConfig, build_world
from repro.madeleine import Session
from tests.conftest import payload, transfer_once


def forward(packet=8 << 10, size=1_000_000, gateway_params=None,
            pipeline=None, telemetry=False, direction="sci->myri"):
    w = build_world({"m0": ["myrinet"], "gw": ["myrinet", "sci"],
                     "s0": ["sci"]})
    s = Session(w, telemetry=telemetry)
    vch = s.virtual_channel([
        s.channel("myrinet", ["m0", "gw"]),
        s.channel("sci", ["gw", "s0"]),
    ], packet_size=packet, gateway_params=gateway_params, pipeline=pipeline)
    src, dst = (2, 0) if direction == "sci->myri" else (0, 2)
    out = transfer_once(s, vch, src, dst, payload(size))
    return w, s, out


# -- config ------------------------------------------------------------------

def test_pipeline_config_validation():
    with pytest.raises(ValueError):
        PipelineConfig(depth=0)
    with pytest.raises(ValueError):
        PipelineConfig(depth=4, credits=5)
    with pytest.raises(ValueError):
        PipelineConfig(depth=4, credits=0)
    with pytest.raises(ValueError):
        PipelineConfig(depth=4, lockstep=True)
    with pytest.raises(ValueError):
        PipelineConfig(tuner_slack=1.5)


def test_config_defaults_are_paper_faithful():
    cfg = PipelineConfig()
    assert cfg.depth == 2 and cfg.effective_credits == 2
    assert cfg.is_lockstep and not cfg.adaptive_mtu


def test_legacy_params_map_onto_pipeline_config():
    """``pipeline_depth``/``lockstep`` survive as keys of the JSON session
    config, an input format; they land in the one PipelineConfig."""
    from repro.madeleine.config import load_config

    def pipeline_of(gateway: dict) -> PipelineConfig:
        _s, _chs, vchs = load_config({
            "nodes": {"m0": ["myrinet"], "gw": ["myrinet", "sci"],
                      "s0": ["sci"]},
            "channels": {
                "myri": {"protocol": "myrinet", "members": ["m0", "gw"]},
                "sci": {"protocol": "sci", "members": ["gw", "s0"]}},
            "virtual_channels": {"w": {"channels": ["myri", "sci"],
                                       "gateway": gateway}}})
        return vchs["w"].pipeline

    assert pipeline_of({"switch_overhead": 40.0}).is_lockstep
    deep = pipeline_of({"pipeline_depth": 4, "lockstep": False})
    assert deep.depth == 4 and not deep.is_lockstep
    # "lockstep" at any other depth than 2 has always run the credit queue
    assert not pipeline_of({"pipeline_depth": 3}).is_lockstep
    assert not pipeline_of({"lockstep": False}).is_lockstep


# -- schedule preservation ---------------------------------------------------

def test_depth2_config_reduces_to_lockstep_schedule():
    """PipelineConfig(depth=2) must be bit-identical to the default."""
    _w1, _s1, legacy = forward()
    _w2, _s2, cfg = forward(pipeline=PipelineConfig(depth=2))
    assert cfg["t"] == legacy["t"]


# -- the deep pipeline pays where the swap overhead dominates ---------------

def test_depth4_beats_depth2_on_small_fragments():
    _w1, _s1, d2 = forward(packet=8 << 10)
    _w2, _s2, d4 = forward(packet=8 << 10, pipeline=PipelineConfig(depth=4))
    assert d4["t"] < d2["t"]


def test_depth4_tuned_gains_at_least_ten_percent():
    """The tentpole acceptance criterion, as a unit test."""
    _w1, _s1, base = forward(packet=8 << 10)
    _w2, _s2, tuned = forward(packet=8 << 10,
                              pipeline=PipelineConfig(depth=4,
                                                      adaptive_mtu=True))
    assert base["t"] / tuned["t"] >= 1.10


def test_single_credit_serializes_steps():
    """credits=1 degenerates to store-and-forward per fragment even with a
    deep ring."""
    from repro.analysis import extract_timeline
    w, _s, _out = forward(size=500_000,
                          pipeline=PipelineConfig(depth=4, credits=1))
    steps = [s for s in extract_timeline(w.trace) if s.kind == "frag"]
    assert len(steps) > 2
    for a, b in zip(steps, steps[1:]):
        assert b.recv_start >= a.send_end - 1e-9


def test_deep_pipeline_delivers_payload_intact():
    data = payload(300_000)
    for pipeline in (PipelineConfig(depth=4),
                     PipelineConfig(depth=8, credits=4),
                     PipelineConfig(depth=4, adaptive_mtu=True)):
        _w, _s, out = forward(size=300_000, pipeline=pipeline)
        assert out["buf"].tobytes() == data.tobytes()


# -- telemetry ---------------------------------------------------------------

def test_credit_stalls_counted_when_send_bound():
    # Myrinet -> SCI: the PIO-slowed SCI send is the bottleneck, so the
    # receive thread runs out of credits and waits on the send thread.
    _w, s, _out = forward(direction="myri->sci", telemetry=True,
                          pipeline=PipelineConfig(depth=2, lockstep=False))
    assert s.metrics.total("gateway.credit_stalls") > 0


def test_occupancy_gauge_is_per_direction():
    _w, s, _out = forward(telemetry=True)
    series = s.metrics.series("gateway.occupancy")
    assert series and all("channel" in inst.labels for inst in series)


def test_ring_depth_histogram_tracks_dynamic_staging():
    # myrinet -> gigabit_tcp is dynamic x dynamic: staging comes from the
    # worker's private ring.
    w = build_world({"m0": ["myrinet"], "gw": ["myrinet", "gigabit_tcp"],
                     "t0": ["gigabit_tcp"]})
    s = Session(w, telemetry=True)
    vch = s.virtual_channel([
        s.channel("myrinet", ["m0", "gw"]),
        s.channel("gigabit_tcp", ["gw", "t0"]),
    ], packet_size=16 << 10, pipeline=PipelineConfig(depth=4))
    transfer_once(s, vch, 0, 2, payload(200_000))
    hist = s.metrics.series("gateway.ring_depth")
    assert sum(h.count for h in hist) > 0
    worker = next(w_ for w_ in vch.workers
                  if w_.in_channel.protocol.name == "myrinet")
    assert worker._ring is not None
    assert worker._ring.count == 4
    # every staged block came home
    assert worker._ring.available == worker._ring.count


# -- retire with acquires pending -------------------------------------------

def test_retire_with_pending_ring_acquires_leaks_nothing():
    """A worker blocked on its staging ring exits on retire(): no stranded
    waiter, no double release, and the held blocks return cleanly."""
    import numpy as np
    w = build_world({"m0": ["myrinet"], "gw": ["myrinet", "gigabit_tcp"],
                     "t0": ["gigabit_tcp"]})
    s = Session(w)
    vch = s.virtual_channel([
        s.channel("myrinet", ["m0", "gw"]),
        s.channel("gigabit_tcp", ["gw", "t0"]),
    ], packet_size=16 << 10)
    worker = next(w_ for w_ in vch.workers
                  if w_.in_channel.protocol.name == "myrinet")
    ring = worker._staging_ring(vch.mtu_for(0, 2))
    held = [ring.try_acquire() for _ in range(ring.count)]

    def snd():
        m = vch.endpoint(0).begin_packing(2)
        yield m.pack(np.zeros(100_000, dtype=np.uint8))
        yield m.end_packing()

    s.spawn(snd())
    s.sim.run()
    # the worker is wedged on the exhausted ring
    assert len(ring._waiters) == 1
    assert not worker.process.triggered
    worker.retire()
    s.sim.run()
    assert not ring._waiters          # no leaked waiter
    assert worker.process.triggered   # the worker exited
    for b in held:
        ring.release(b)               # no double-release errors
    assert ring.available == ring.count
