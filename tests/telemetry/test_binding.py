"""Families bind to a live or a no-op body.

A disabled registry makes families whose update methods are empty;
enabling and disabling rebinds every existing family, and with it every
series view the thin declarers handed out.  Values survive the rebinding,
and a series records only while its registry is on.  Pulled counters read
a count their owner keeps and must equal what pushing would have counted.
"""

from __future__ import annotations

import math

import pytest

from repro.sim import DMA, FluidNetwork, FluidResource, Simulator
from repro.telemetry import Declaration, MetricsRegistry, PulledFamily


def _empty():
    pass


def _runs_nothing(method) -> bool:
    """True when ``method``'s body compiles to the empty body."""
    return method.__func__.__code__.co_code == _empty.__code__.co_code


# -- histogram buckets --------------------------------------------------------------
def _loop_bucket(bounds, value) -> int:
    """The linear scan the bisect replaced."""
    for i, bound in enumerate(bounds):
        if value <= bound:
            return i
    return len(bounds) - 1


BOUNDS = (1.0, 10.0, 100.0)


@pytest.mark.parametrize("value, bucket", [
    (-math.inf, 0), (-5.0, 0), (0.0, 0),
    (1.0, 0),                       # equal to a bound: that bucket
    (1.0000001, 1), (10, 1), (10.0, 1), (55.5, 2),
    (100.0, 2),
    (100.5, 2), (1e300, 2), (math.inf, 2),   # above the last: the last
    (math.nan, 2),                           # NaN: where the loop puts it
])
def test_bucket_edges(value, bucket):
    assert _loop_bucket(BOUNDS, value) == bucket
    h = MetricsRegistry().histogram("h", bounds=BOUNDS)
    h.observe(value)
    assert h.buckets == [int(i == bucket) for i in range(len(BOUNDS))]


def test_buckets_match_the_loop_on_every_bound_and_between():
    bounds = (0.5, 2.0, 2.0, 7.0, 64.0)          # a repeated bound too
    values = [b + d for b in bounds for d in (-1e-9, 0.0, 1e-9)]
    values += [-1.0, 1e9, 3, 8]
    h = MetricsRegistry().histogram("h", bounds=bounds)
    want = [0] * len(bounds)
    for v in values:
        h.observe(v)
        want[_loop_bucket(bounds, v)] += 1
    assert h.buckets == want


def test_min_and_max_follow_builtin_min_and_max():
    values = [3.0, math.nan, -1.0, 7.5, 7.5, -0.0, 0.0]
    h = MetricsRegistry().histogram("h")
    low = high = None
    for v in values:
        h.observe(v)
        low = v if low is None else min(low, v)
        high = v if high is None else max(high, v)
    assert (h.min, h.max) == (low, high)


# -- live and no-op bodies ------------------------------------------------------------
def _touch(series, n):
    if series.kind == "counter":
        series.inc(n)
    elif series.kind == "gauge":
        series.set(series.value + n)
        series.inc(n)
        series.dec(n)
    else:
        series.observe(float(n))


def _reading(series):
    if series.kind == "histogram":
        return (series.count, series.total, series.min, series.max,
                tuple(series.buckets))
    if series.kind == "gauge":
        return (series.value, series.hwm)
    return series.value


@pytest.mark.parametrize("make", [
    lambda r: r.counter("c", rank=1),
    lambda r: r.gauge("g", rank=1),
    lambda r: r.histogram("h", rank=1),
], ids=["counter", "gauge", "histogram"])
def test_created_off_then_on_then_off(make):
    registry = MetricsRegistry(enabled=False)
    inst = make(registry)
    start = _reading(inst)
    _touch(inst, 3)
    assert _reading(inst) == start                  # off: nothing recorded
    registry.enable()
    again = make(registry)                          # the same series
    assert (again.family, again.slot) == (inst.family, inst.slot)
    _touch(again, 4)
    on = _reading(inst)
    assert on != start
    registry.disable()
    _touch(inst, 5)
    assert _reading(inst) == on                     # kept, not recorded
    registry.enable()
    _touch(inst, 6)
    assert _reading(inst) != on                     # records again


@pytest.mark.parametrize("make, methods", [
    (lambda r: r.counter("c"), ("inc",)),
    (lambda r: r.gauge("g"), ("set", "inc", "dec")),
    (lambda r: r.histogram("h"), ("observe",)),
], ids=["counter", "gauge", "histogram"])
def test_a_disabled_registry_runs_no_instrument_code(make, methods):
    """The family behind a handle: a view only forwards to it."""
    registry = MetricsRegistry(enabled=False)
    family = make(registry).family
    assert all(_runs_nothing(getattr(family, m)) for m in methods)
    registry.enable()
    assert not any(_runs_nothing(getattr(family, m)) for m in methods)
    registry.disable()
    assert all(_runs_nothing(getattr(family, m)) for m in methods)


def test_a_disabled_counter_ignores_a_negative_step():
    registry = MetricsRegistry(enabled=False)
    c = registry.counter("c")
    c.inc(-1)                                       # no body, no check
    registry.enable()
    with pytest.raises(ValueError):
        c.inc(-1)


def test_an_instrument_keeps_its_labels_once_as_its_key():
    """A series view is its family and slot; the labels are kept once, as
    the slot's key in the family's table."""
    c = MetricsRegistry().counter("retries", rank=0, gw="a")
    assert c.family.table.keys[c.slot] == (0, "a")
    assert (c.name, c.labels) == ("retries", {"gw": "a", "rank": 0})
    assert not hasattr(c, "__dict__")


def _pulled(registry, name="n"):
    """A one-slot pulled counter ``name`` and its slot."""
    table = registry.declared(Declaration((), pulled=(name,)))
    return table.families[0], table.declare(())


def test_a_kind_conflict_names_the_kind():
    registry = MetricsRegistry()
    family, slot = _pulled(registry)
    family.pull(slot, lambda: 0)
    with pytest.raises(ValueError, match="PulledFamily"):
        registry.counter("n")
    with pytest.raises(ValueError, match="already has a reader"):
        family.pull(slot, lambda: 0)


# -- pulled counters ------------------------------------------------------------------
def test_pulled_counter_counts_only_while_on():
    owner = {"n": 5}
    registry = MetricsRegistry(enabled=False)
    family, slot = _pulled(registry)
    family.pull(slot, lambda: owner["n"])
    (c,) = registry.series("n")
    assert isinstance(c.family, PulledFamily)
    owner["n"] += 2
    assert c.value == 0
    registry.enable()
    owner["n"] += 3
    assert c.value == registry.value("n") == registry.total("n") == 3
    registry.disable()
    owner["n"] += 4
    assert c.value == 3
    registry.enable()
    owner["n"] += 1
    assert c.value == 4
    registry.reset()
    assert c.value == 0
    owner["n"] += 6
    assert c.value == 6
    assert registry.snapshot()["n"] == {
        "kind": "counter", "series": [{"labels": {}, "value": 6}]}


_FLUID = ("fluid.recomputes", "fluid.recompute_flows",
          "fluid.epoch_live_flows")


def _fluid_run():
    """Four staggered sources over two shared resources, with a registry
    created off; ``pushed.*`` counters count what the network used to push
    into the ``fluid.*`` ones at every epoch."""
    sim = Simulator()
    registry = MetricsRegistry(enabled=False)
    net = FluidNetwork(sim, metrics=registry)
    pushed = [registry.counter(f"pushed.{name}") for name in _FLUID]
    close = net._close_epoch

    def close_and_push(touched):
        pushed[0].inc()
        pushed[1].inc(touched)
        pushed[2].inc(len(net.flows))
        close(touched)

    net._close_epoch = close_and_push
    r1, r2 = FluidResource("r1", 100.0), FluidResource("r2", 50.0)

    def source(k):
        path = [(r1, DMA), (r2, DMA)] if k % 2 else [(r1, DMA)]
        for i in range(8):
            yield sim.timeout(3.0 * k + i)
            yield net.transfer(f"f{k}.{i}", 400.0 + 50.0 * k, path, peak=80.0)

    for k in range(4):
        sim.process(source(k))
    return sim, registry, net


def _pulled_equals_pushed(registry):
    got = [registry.value(name) for name in _FLUID]
    assert got == [registry.value(f"pushed.{name}") for name in _FLUID]
    return got


def test_pulled_fluid_counters_equal_the_pushed_counts():
    sim, registry, net = _fluid_run()
    sim.run(until=20.0)
    assert net.recompute_epochs > 0
    registry.enable()                               # late enable
    sim.run(until=60.0)
    first = _pulled_equals_pushed(registry)
    assert 0 < first[0] < net.recompute_epochs
    registry.reset()
    assert _pulled_equals_pushed(registry) == [0, 0, 0]
    sim.run(until=90.0)
    _pulled_equals_pushed(registry)
    registry.disable()
    frozen = [registry.series(name)[0].value for name in _FLUID]
    sim.run(until=120.0)
    assert [registry.series(name)[0].value for name in _FLUID] == frozen
    registry.enable()
    sim.run()
    assert _pulled_equals_pushed(registry)[0] > frozen[0]
