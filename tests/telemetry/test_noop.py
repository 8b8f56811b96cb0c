"""Disabled telemetry is a no-op: nothing recorded, nothing emitted."""

import pytest

from repro.hw import build_world
from repro.madeleine import Session
from repro.telemetry import NULL_REGISTRY, MetricsRegistry, NullRegistry
from tests.conftest import payload, transfer_once


def test_disabled_registry_records_nothing():
    registry = MetricsRegistry(enabled=False)
    c = registry.counter("n")
    g = registry.gauge("d")
    h = registry.histogram("lat")
    c.inc(5)
    g.set(9)
    h.observe(1.0)
    assert (c.value, g.value, g.hwm, h.count) == (0, 0, 0, 0)
    assert registry.snapshot() == {}


def test_a_forward_with_the_trace_off_records_no_interval():
    """Telemetry on, trace off (a world's default): the gateway counts the
    forwarded message but keeps no per-message record."""
    world = build_world({"m0": ["myrinet"], "gw": ["myrinet", "sci"],
                         "s0": ["sci"]})
    s = Session(world, telemetry=True, packet_size=16 << 10)
    vch = s.virtual_channel([s.channel("myrinet", ["m0", "gw"]),
                             s.channel("sci", ["gw", "s0"])])
    transfer_once(s, vch, 0, 2, payload(40_000))
    assert s.metrics.total("gateway.messages_forwarded") == 1
    assert len(world.trace) == 0


def test_late_enable_records_through_existing_handles():
    registry = MetricsRegistry(enabled=False)
    c = registry.counter("n")      # created while disabled, like a NIC's
    c.inc()                        # ignored
    registry.enable()
    c.inc(2)
    assert registry.value("n") == 2


def test_null_registry_cannot_be_enabled():
    with pytest.raises(RuntimeError):
        NullRegistry().enable()


def test_shared_null_registry_cannot_be_enabled():
    with pytest.raises(RuntimeError):
        NULL_REGISTRY.enable()
    assert not NULL_REGISTRY.enabled


def test_world_telemetry_is_one_registry_that_toggles():
    world = build_world({"a": ["myrinet"], "b": ["myrinet"]})
    registry = world.telemetry
    assert isinstance(registry, MetricsRegistry)
    assert world.fabric.metrics is registry
    registry.enable()
    assert registry.enabled
    registry.disable()
    assert not registry.enabled


def test_world_telemetry_off_by_default_and_silent():
    """An undisturbed world records no metrics — the zero-overhead default."""
    world = build_world({"a": ["myrinet"], "b": ["myrinet"]})
    assert not world.telemetry.enabled
    assert world.telemetry.snapshot() == {}
    # the series are declared, but none has recorded anything
    assert len(world.telemetry) > 0
    assert all(i.value == 0 for i in
               world.telemetry.series("wire.fragments"))
