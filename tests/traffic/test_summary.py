"""Traffic summary honesty: zero-completion runs report NaN, not zeros."""

import json
import math

from repro.madeleine import Session
from repro.scenario import Scenario, Topology, TrafficSpec
from repro.traffic import TrafficEngine


def _engine():
    sc = Scenario(
        seed=5,
        topology=Topology(kind="torus", protocols=("myrinet",), dims=(3, 3)),
        traffic=TrafficSpec(pattern="uniform", flows=6,
                            mean_interarrival=100.0, size=16 << 10),
        gw_stall_timeout=None)
    session = Session.from_scenario(sc, telemetry=True)
    return session, TrafficEngine(session, sc)


def test_zero_completion_summary_reports_nan_fct_stats():
    # The engine never runs: zero completions.  The old code substituted a
    # [0.0] placeholder — p99 of nothing looked like a perfect network.
    _session, engine = _engine()
    summary = engine.summary()
    assert summary["completed"] == 0
    for key in ("p50_fct_us", "p99_fct_us", "mean_fct_us", "max_fct_us",
                "events_per_mb"):
        assert math.isnan(summary[key]), key
    assert summary["bytes"] == 0
    assert summary["goodput_mbs"] == 0.0


def test_zero_completion_summary_is_json_safe():
    from repro.bench.jsonio import json_safe
    _session, engine = _engine()
    text = json.dumps(json_safe(engine.summary()), allow_nan=False)
    parsed = json.loads(text)     # strict: would raise on bare NaN/Infinity
    assert parsed["p99_fct_us"] is None
    assert parsed["events_per_mb"] is None


def test_completed_run_summary_stays_finite():
    session, engine = _engine()
    engine.start()
    session.run()
    summary = engine.summary()
    assert summary["completed"] == summary["flows"] == 6
    for key in ("p50_fct_us", "p99_fct_us", "mean_fct_us", "max_fct_us",
                "events_per_mb"):
        assert math.isfinite(summary[key]), key

