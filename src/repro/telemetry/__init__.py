"""Telemetry: the observability layer of the reproduction.

The paper's evaluation is built on ``rdtsc`` instrumentation of the gateway
pipeline; this package is the software equivalent for the simulated stack —
a :class:`MetricsRegistry` of counters/gauges/histograms plus a
:class:`SpanTracker` of structured intervals, both driven by the simulated
clock and both **off by default** (a disabled :class:`Telemetry` records
nothing and never creates simulation events, so benchmark numbers are
bit-identical with or without it).

Every :class:`~repro.hw.topology.World` owns one disabled ``Telemetry``;
``Session(world, telemetry=True)`` (or ``world.telemetry.enable()``) turns
it on.  The transport stack holds instrument handles either way: each is
bound to a live body or to a no-op one, and enabling or disabling the
registry rebinds them, which is what makes late enabling work and what
makes a disabled registry run no instrument code.  Counts a component keeps
as plain ints anyway are *pulled* (:class:`PulledCounter`) rather than
pushed.

Metrics and spans are bounded aggregates.  The raw
:class:`~repro.sim.trace.TraceRecorder` is not (one record per fragment),
so it has its own switch, ``world.trace.enable()``, and is off by default
too; spans are mirrored into it only while it is on.

See ``docs/telemetry.md`` for the metric catalog.
"""

from __future__ import annotations

from typing import Callable, Optional

from ..sim.trace import TraceRecorder
from .conservation import (ConservationLaw, LawViolation, FRAGMENT_LAW,
                           STRIPE_LAW, STANDARD_LAWS, check_laws)
from .registry import (Counter, Gauge, Histogram, MetricsRegistry,
                       NullRegistry, PulledCounter, format_metrics)
from .spans import Span, SpanTracker

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry",
           "NullRegistry", "PulledCounter", "format_metrics", "Span", "SpanTracker",
           "Telemetry", "NULL_TELEMETRY",
           "ConservationLaw", "LawViolation", "FRAGMENT_LAW", "STRIPE_LAW",
           "STANDARD_LAWS", "check_laws"]


class Telemetry:
    """One facade over the registry and the span tracker."""

    def __init__(self, clock: Optional[Callable[[], float]] = None,
                 trace: Optional[TraceRecorder] = None,
                 enabled: bool = True) -> None:
        self.metrics = MetricsRegistry(enabled=enabled)
        self.spans = SpanTracker(clock=clock, trace=trace, enabled=enabled)

    @property
    def enabled(self) -> bool:
        return self.metrics.enabled

    def enable(self) -> "Telemetry":
        self.metrics.enable()
        self.spans.enable()
        return self

    def disable(self) -> "Telemetry":
        self.metrics.disable()
        self.spans.disable()
        return self

    def reset(self) -> None:
        self.metrics.reset()
        self.spans.reset()


class _NullTelemetry(Telemetry):
    """Shared always-off telemetry for components constructed without one."""

    def __init__(self) -> None:
        super().__init__(enabled=False)
        self.metrics = NullRegistry()

    def enable(self) -> "Telemetry":
        raise RuntimeError("the shared null telemetry cannot be enabled; "
                           "construct a Telemetry() of your own")


#: default for optional ``telemetry=`` parameters across the codebase.
NULL_TELEMETRY = _NullTelemetry()
