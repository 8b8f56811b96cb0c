"""The benchmark-regression harness: comparison logic and a live quick run."""

import json

import pytest

from repro.bench import regress as rg


@pytest.fixture
def baseline():
    return {
        "tolerance": 0.10,
        "pre_pr3": {"fig5_events_per_mb": 500.0, "min_event_reduction": 0.20},
        "scenarios": {
            "fig5": {"elapsed_us": 1000.0, "events_per_mb": 400.0},
            "fig6": {"asymptote_64k_mbs": 50.0},
        },
    }


def test_identical_run_passes(baseline):
    current = {name: dict(m) for name, m in baseline["scenarios"].items()}
    assert rg.compare_to_baseline(current, baseline) == []


def test_drift_within_band_passes(baseline):
    current = {"fig5": {"elapsed_us": 1050.0, "events_per_mb": 395.0},
               "fig6": {"asymptote_64k_mbs": 52.0}}
    assert rg.compare_to_baseline(current, baseline) == []


def test_drift_outside_band_fails(baseline):
    current = {"fig5": {"elapsed_us": 1200.0, "events_per_mb": 400.0},
               "fig6": {"asymptote_64k_mbs": 50.0}}
    failures = rg.compare_to_baseline(current, baseline)
    assert len(failures) == 1
    assert "fig5.elapsed_us" in failures[0]


def test_missing_metric_fails(baseline):
    current = {"fig5": {"elapsed_us": 1000.0, "events_per_mb": 400.0},
               "fig6": {}}
    failures = rg.compare_to_baseline(current, baseline)
    assert any("fig6.asymptote_64k_mbs" in f and "missing" in f
               for f in failures)


def test_skipped_scenario_is_not_a_failure(baseline):
    # --quick runs omit the sweeps; only scenarios that ran are compared.
    current = {"fig5": {"elapsed_us": 1000.0, "events_per_mb": 400.0}}
    assert rg.compare_to_baseline(current, baseline) == []


def test_event_reduction_floor_enforced(baseline):
    # 450/500 is only a 10% cut — below the committed 20% floor, even
    # though no baseline metric drifted.
    current = {"fig5": {"elapsed_us": 1000.0, "events_per_mb": 450.0}}
    failures = rg.compare_to_baseline(current, baseline,
                                      tolerance=0.2)
    assert any("pre-optimisation" in f for f in failures)


def test_tolerance_override(baseline):
    current = {"fig5": {"elapsed_us": 1040.0, "events_per_mb": 400.0},
               "fig6": {"asymptote_64k_mbs": 50.0}}
    assert rg.compare_to_baseline(current, baseline, tolerance=0.05) == []
    assert rg.compare_to_baseline(current, baseline, tolerance=0.01)


def test_write_baseline_preserves_pre_pr3_reference(tmp_path):
    path = tmp_path / "baseline.json"
    rg.write_baseline({"fig5": {"x": 1.0}}, path,
                      pre_pr3={"fig5_events_per_mb": 500.0})
    rg.write_baseline({"fig5": {"x": 2.0}}, path)   # refresh without pre_pr3
    data = json.loads(path.read_text())
    assert data["pre_pr3"] == {"fig5_events_per_mb": 500.0}
    assert data["scenarios"]["fig5"]["x"] == 2.0


def test_quick_run_matches_committed_baseline(tmp_path):
    """The committed baseline must reproduce exactly on this checkout —
    the simulator is deterministic, so any difference is a real change."""
    current = rg.run_regress(quick=True)
    baseline = json.loads(rg.DEFAULT_BASELINE.read_text(encoding="utf-8"))
    failures = rg.compare_to_baseline(current, baseline)
    assert failures == []
    for name in rg._QUICK_SCENARIOS:
        for metric, value in current[name].items():
            assert value == baseline["scenarios"][name][metric], \
                f"{name}.{metric} not bit-identical to the committed baseline"
    out = tmp_path / "bench.json"
    rg.write_results(current, baseline, failures, out)
    payload = json.loads(out.read_text())
    assert payload["comparison"]["status"] == "pass"
    assert payload["kernel"]["event_reduction"] >= 0.20


def test_non_finite_current_metric_fails_explicitly(baseline):
    current = {"fig5": {"elapsed_us": float("nan"), "events_per_mb": 400.0},
               "fig6": {"asymptote_64k_mbs": 50.0}}
    failures = rg.compare_to_baseline(current, baseline)
    assert any("fig5.elapsed_us" in f and "non-finite" in f
               for f in failures)


def test_null_current_metric_fails_explicitly(baseline):
    # json_safe writes NaN as null; a null metric read back must fail,
    # not silently compare equal or crash.
    current = {"fig5": {"elapsed_us": None, "events_per_mb": 400.0},
               "fig6": {"asymptote_64k_mbs": 50.0}}
    failures = rg.compare_to_baseline(current, baseline)
    assert any("fig5.elapsed_us" in f and "missing" in f for f in failures)


def test_null_baseline_metric_fails_explicitly(baseline):
    baseline["scenarios"]["fig5"]["elapsed_us"] = None
    current = {"fig5": {"elapsed_us": 1000.0, "events_per_mb": 400.0},
               "fig6": {"asymptote_64k_mbs": 50.0}}
    failures = rg.compare_to_baseline(current, baseline)
    assert any("baseline" in f and "re-measure" in f for f in failures)


def test_write_results_is_strict_json(tmp_path, baseline):
    current = {"fig5": {"elapsed_us": float("inf"),
                        "events_per_mb": 400.0}}
    out = tmp_path / "bench.json"
    rg.write_results(current, baseline, [], out)
    text = out.read_text()
    assert "Infinity" not in text
    assert json.loads(text)["scenarios"]["fig5"]["elapsed_us"] is None


# -- feature floors -----------------------------------------------------------

def test_pipeline_gain_floor_enforced(baseline):
    baseline["floors"] = {"pipeline_depth4_gain": 0.10}
    current = {"pipeline": {"depth4_gain": 0.04}}
    failures = rg.compare_to_baseline(current, baseline)
    assert any("pipeline.depth4_gain" in f for f in failures)
    current = {"pipeline": {"depth4_gain": 0.12}}
    assert rg.compare_to_baseline(current, baseline) == []


def test_batching_reduction_floor_enforced(baseline):
    baseline["floors"] = {"batching_record_reduction": 0.25}
    current = {"batching": {"record_reduction": 0.10}}
    failures = rg.compare_to_baseline(current, baseline)
    assert any("batching.record_reduction" in f for f in failures)


def test_event_growth_ceiling_enforced(baseline):
    # A *maximum*-type floor: growth above the ceiling fails, below passes.
    baseline["floors"] = {"sweep_nodes_event_growth": 1.3}
    current = {"sweep_nodes": {"event_growth": 1.45}}
    failures = rg.compare_to_baseline(current, baseline)
    assert any("sweep_nodes.event_growth" in f and "sub-linear" in f
               for f in failures)
    current = {"sweep_nodes": {"event_growth": 0.9}}
    assert rg.compare_to_baseline(current, baseline) == []


def test_floors_ignored_when_scenario_skipped(baseline):
    # a --quick subset that omits the scenario must not trip its floor
    baseline["floors"] = {"pipeline_depth4_gain": 0.10,
                          "batching_record_reduction": 0.25}
    current = {"fig5": {"elapsed_us": 1000.0, "events_per_mb": 400.0}}
    assert rg.compare_to_baseline(current, baseline) == []


def test_write_baseline_preserves_floors(tmp_path):
    path = tmp_path / "baseline.json"
    rg.write_baseline({"fig5": {"x": 1.0}}, path)
    data = json.loads(path.read_text())
    data["floors"]["pipeline_depth4_gain"] = 0.42   # a raised commitment
    path.write_text(json.dumps(data))
    rg.write_baseline({"fig5": {"x": 2.0}}, path)   # refresh keeps it
    data = json.loads(path.read_text())
    assert data["floors"]["pipeline_depth4_gain"] == 0.42
    assert data["floors"]["batching_record_reduction"] == \
        rg.DEFAULT_FLOORS["batching_record_reduction"]


def test_recompute_fraction_ceiling_enforced(baseline):
    baseline["floors"] = {"incremental_recompute_fraction": 0.25}
    current = {"incremental_rates": {"des_recompute_fraction": 0.40}}
    failures = rg.compare_to_baseline(current, baseline)
    assert any("incremental_rates.des_recompute_fraction" in f
               and "ceiling" in f for f in failures)
    current = {"incremental_rates": {"des_recompute_fraction": 0.06}}
    assert rg.compare_to_baseline(current, baseline) == []


def test_fct_disagreement_always_fails(baseline):
    # agreement is a hard gate, not a band or a floor: any divergence of
    # the incremental solver from the full recompute or the oracle fails.
    baseline["floors"] = {}
    current = {"incremental_rates": {"fct_agreement_ok": 0.0}}
    failures = rg.compare_to_baseline(current, baseline)
    assert any("fct_agreement_ok" in f for f in failures)


# -- parallel-run determinism -------------------------------------------------

def test_scenario_seeding_is_independent_of_caller_state():
    """Each scenario reseeds from its own name, so results cannot depend on
    which worker process (or prior scenario) ran it."""
    import random
    random.seed(12345)
    first = rg._run_scenario("latency")
    random.seed(99999)
    for _ in range(17):
        random.random()
    second = rg._run_scenario("latency")
    assert first == second
