"""A world builds no object per metric series.

Every NIC, forwarding worker and pool declares its series in one family
per metric name; counters and gauges are plain ints in the family and a
histogram's object is made on its first observation.  So building the
256-node torus of the wall-clock benchmark (1,536 NICs, 1,536 forwarding
workers) declares every series it always did and makes almost no series
object (:class:`Series` view or :class:`Histogram` record): neither
enabling the registry nor reading it makes one.
"""

from __future__ import annotations

import gc
from pathlib import Path

from repro.madeleine import Session
from repro.scenario import load_scenario
from repro.telemetry import Histogram, Series
from repro.traffic import TrafficEngine

TORUS = (Path(__file__).resolve().parents[2] / "benchmarks" / "perf"
         / "scenarios" / "torus_sparse.json")


def _instruments() -> int:
    return sum(isinstance(o, (Series, Histogram)) for o in gc.get_objects())


def test_a_torus_build_declares_every_series_and_makes_few_objects():
    scenario = load_scenario(TORUS)
    session = Session.from_scenario(scenario)       # registry on
    engine = TrafficEngine(session, scenario)
    metrics = session.metrics
    assert metrics.enabled
    assert len(metrics) == 14_869
    assert _instruments() < 100
    metrics.disable()
    metrics.enable()
    assert metrics.total("wire.fragments") == 0
    assert metrics.value("gateway.messages_forwarded", gw=0) == 0
    assert len(metrics.series("gateway.swap_us")) == 256
    assert len(metrics.snapshot()["gateway.occupancy"]["series"]) == 1_536
    assert _instruments() < 100
    del engine
