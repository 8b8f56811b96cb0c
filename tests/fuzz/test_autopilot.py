"""Campaign loop: coverage accounting, failure reporting, repro emission."""

import json

from repro.fuzz import run_campaign


def test_small_campaign_passes_and_accumulates_coverage():
    report = run_campaign(runs=6, seed_base=0, minimize=False)
    assert report.ok
    assert report.runs == 6
    assert report.interesting >= 1
    assert len(report.features) > 5
    assert "0 failure(s)" in report.summary()


def test_campaign_reports_and_saves_failures(tmp_path, leaky_gateway):
    report = run_campaign(runs=4, seed_base=0, minimize=False,
                          out_dir=tmp_path)
    assert not report.ok
    assert report.failures
    saved = list(tmp_path.glob("*.json"))
    assert saved, "failing scenarios should be written as repro files"
    doc = json.loads(saved[0].read_text())
    assert doc["version"] == 1
    assert doc["failures"]
    assert "FAILED" in report.summary()


def test_time_budget_stops_early():
    report = run_campaign(runs=10_000, seed_base=0, time_budget=0.0)
    assert report.runs <= 1
