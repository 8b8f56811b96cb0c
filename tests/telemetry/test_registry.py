"""MetricsRegistry semantics: thin declarers, label sets, snapshots."""

import pytest

from repro.telemetry import MetricsRegistry, format_metrics


@pytest.fixture
def registry():
    return MetricsRegistry(enabled=True)


def test_counter_increments(registry):
    c = registry.counter("xfers")
    c.inc()
    c.inc(4)
    assert c.value == 5
    assert registry.value("xfers") == 5


def test_counter_rejects_negative(registry):
    c = registry.counter("xfers")
    with pytest.raises(ValueError):
        c.inc(-1)


def test_gauge_tracks_high_water_mark(registry):
    g = registry.gauge("depth")
    g.set(3)
    g.inc(2)
    g.dec(4)
    assert g.value == 1
    assert g.hwm == 5


def test_histogram_lifetime_stats(registry):
    h = registry.histogram("lat", bounds=(10.0, 100.0))
    for v in (5.0, 50.0, 500.0):
        h.observe(v)
    assert h.count == 3
    assert h.total == 555.0
    assert h.mean == 185.0
    assert (h.min, h.max) == (5.0, 500.0)
    # the last bound doubles as the overflow bucket: [<=10, rest]
    assert h.buckets == [1, 2]
    assert h.data()["buckets"] == {"le_10": 1, "le_inf": 2}


def test_get_or_create_is_keyed_by_name_and_labels(registry):
    a = registry.counter("retries", rank=0)
    b = registry.counter("retries", rank=0)
    c = registry.counter("retries", rank=1)
    assert (a.family, a.slot) == (b.family, b.slot)  # one series
    assert a.family is c.family and a.slot != c.slot
    a.inc(2)
    assert (b.value, c.value) == (2, 0)
    assert len(registry) == 2


def test_kind_conflict_raises(registry):
    registry.counter("thing")
    with pytest.raises(ValueError):
        registry.gauge("thing")


def test_value_of_missing_series_is_zero(registry):
    assert registry.value("nope", rank=9) == 0


def test_total_sums_across_label_sets(registry):
    registry.counter("bytes", nic=0).inc(10)
    registry.counter("bytes", nic=1).inc(32)
    assert registry.total("bytes") == 42


def test_series_lists_every_label_set(registry):
    registry.gauge("occ", gw=1).set(2)
    registry.gauge("occ", gw=2).set(5)
    assert sorted(s.labels["gw"] for s in registry.series("occ")) == [1, 2]


def test_snapshot_shape_and_determinism(registry):
    registry.counter("b.count", rank=1).inc(3)
    registry.gauge("a.depth").set(2)
    snap = registry.snapshot()
    assert list(snap) == ["a.depth", "b.count"]     # sorted by name
    assert snap["b.count"]["kind"] == "counter"
    assert snap["b.count"]["series"] == [{"labels": {"rank": 1}, "value": 3}]
    assert snap["a.depth"]["series"][0]["hwm"] == 2
    assert snap == registry.snapshot()              # stable across calls


def test_reset_zeroes_but_handles_stay_live(registry):
    c = registry.counter("n")
    c.inc(7)
    registry.reset()
    assert c.value == 0
    c.inc()
    assert registry.value("n") == 1


def test_format_metrics_renders_table(registry):
    registry.counter("wire.bytes", nic=0).inc(128)
    registry.gauge("pool.in_use", pool="p").set(3)
    registry.histogram("swap_us").observe(12.5)
    text = format_metrics(registry.snapshot())
    assert "wire.bytes" in text
    assert "nic=0" in text and "128" in text
    assert "3 (hwm 3)" in text
    assert "n=1 mean=12.5" in text


def test_format_metrics_empty():
    assert format_metrics({}) == "(no metrics recorded)"
