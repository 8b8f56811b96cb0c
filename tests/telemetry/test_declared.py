"""Declared series: one family per name, one slot per owner.

Owners declare their label values in a :class:`SeriesTable` and update
every family of its :class:`Declaration` by slot.  The families bind to a
live or a no-op body, keep what they recorded across a disable and an
enable, and the thin declarers hand out views of the declared series.
"""

from __future__ import annotations

import pytest

from repro.telemetry import (NULL_REGISTRY, Declaration, MetricsRegistry,
                             Series)

DECL = Declaration(("gw", "channel"), counters=("c",), gauges=("g",),
                   histograms=(("h", (1.0, 10.0)),))


def _empty():
    pass


def _runs_nothing(method) -> bool:
    return method.__func__.__code__.co_code == _empty.__code__.co_code


def _touch(table, slot, n):
    c, g, h = table.families
    c.inc(slot, n)
    g.set(slot, g.values[slot] + n)
    g.inc(slot, n)
    g.dec(slot, n)
    h.observe(slot, float(n))


def _reading(registry):
    return (registry.value("c", gw=1, channel="x"),
            [(s.value, s.hwm) for s in registry.series("g")],
            [(h.count, h.total) for h in registry.series("h")])


def test_declared_off_then_on_then_off():
    registry = MetricsRegistry(enabled=False)
    table = registry.declared(DECL)
    slot = table.declare((1, "x"))
    start = _reading(registry)
    assert start == (0, [(0, 0)], [(0, 0.0)])
    _touch(table, slot, 3)
    assert _reading(registry) == start              # off: nothing recorded
    registry.enable()
    assert registry.declared(DECL) is table         # the same table
    _touch(table, slot, 4)
    on = _reading(registry)
    assert on == (4, [(4, 8)], [(1, 4.0)])
    registry.disable()
    _touch(table, slot, 5)
    assert _reading(registry) == on                 # kept, not recorded
    registry.enable()
    _touch(table, slot, 6)
    assert _reading(registry) == (10, [(10, 16)], [(2, 10.0)])
    registry.reset()
    assert _reading(registry) == (0, [(0, 0)], [(0, 0.0)])


def test_a_disabled_registry_runs_no_family_code():
    registry = MetricsRegistry(enabled=False)
    c, g, h = registry.declared(DECL).families
    methods = [c.inc, g.set, g.inc, g.dec, h.observe]
    assert all(_runs_nothing(m) for m in methods)
    registry.enable()
    c, g, h = registry.declared(DECL).families
    assert not any(_runs_nothing(m) for m in [c.inc, g.set, g.inc, g.dec,
                                              h.observe])


def test_owners_with_the_same_labels_share_their_series():
    registry = MetricsRegistry()
    table = registry.declared(DECL)
    first, other = table.declare((1, "x")), table.declare((2, "x"))
    again = table.declare((1, "x"))                 # a respawned owner
    assert first == again != other
    _c, g, _h = table.families
    g.inc(first, 2)
    g.inc(again, 3)
    g.dec(first)
    assert (g.values[first], g.hwms[first]) == (4, 5)
    assert len(registry) == 6                       # 2 series x 3 names
    assert registry.total("g") == 4
    views = registry.series("g")
    assert all(isinstance(v, Series) for v in views)
    assert [v.labels for v in views] == [{"channel": "x", "gw": 1},
                                         {"channel": "x", "gw": 2}]
    assert registry.snapshot()["g"]["series"][0] == {
        "labels": {"channel": "x", "gw": 1}, "value": 4, "hwm": 5}


def test_a_name_has_one_kind_and_one_way():
    registry = MetricsRegistry()
    table = registry.declared(DECL)
    slot = table.declare((1, "x"))
    c = registry.counter("c", channel="x", gw=1)    # the declared series
    assert (c.family, c.slot) == (table.families[0], slot)
    table.families[0].inc(slot, 2)
    assert c.value == 2
    with pytest.raises(ValueError, match="'c' is already a CounterFamily"):
        registry.gauge("c", gw=1, channel="x")      # another kind
    with pytest.raises(ValueError, match="'c' is already a CounterFamily"):
        registry.counter("c", gw=1)                 # other label names
    registry.counter("n")
    with pytest.raises(ValueError, match="Counter"):
        registry.declared(Declaration(("gw",), counters=("n",)))


def test_the_null_registry_keeps_nothing():
    table = NULL_REGISTRY.declared(DECL)
    assert table.declare((1, "x")) == table.declare((2, "y")) == 0
    c, g, h = table.families
    c.inc(0)
    g.set(0, 3)
    h.observe(0, 1.0)
    # a thin declarer's series: the null registry keeps neither
    NULL_REGISTRY.gauge("g", gw=1, channel="x").set(2)
    assert len(NULL_REGISTRY) == 0
    assert NULL_REGISTRY.snapshot() == {}
