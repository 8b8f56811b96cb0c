"""Telemetry: the observability layer of the reproduction.

The paper's evaluation is built on ``rdtsc`` instrumentation of the gateway
pipeline; this package is the software equivalent for the simulated stack.
What happened is recorded in two places, both driven by the simulated clock
and both **off by default**:

* the :class:`MetricsRegistry` of counters/gauges/histograms — bounded
  aggregates; a disabled registry records nothing and never creates
  simulation events, so benchmark numbers are bit-identical with or
  without it;
* the raw :class:`~repro.sim.trace.TraceRecorder` — one record per wire
  fragment and gateway step, so not bounded; it has its own switch,
  ``world.trace.enable()``.  Intervals such as a gateway's forwarding of
  one message are read off it as paired records (``message_start`` …
  ``message_end``/``message_abandoned``, see
  :func:`repro.analysis.export.to_chrome_trace`).

Every :class:`~repro.hw.topology.World` owns one disabled registry,
``world.telemetry``; ``Session(world, telemetry=True)`` (or
``world.telemetry.enable()``) turns it on.  The registry keeps one family
per metric name, and there is one way to make a series: each component
states its series as a module-level :class:`Declaration`, declares its
label values once for a slot, and updates the families by slot, so a
world's thousands of series cost no object each.  Each family is bound to
a live body or to a no-op one, and enabling or disabling the registry
rebinds them, which is what makes late enabling work and what makes a
disabled registry run no update code.  Counts a component keeps as plain
ints anyway are *pulled* (a :class:`PulledFamily` reads them) rather than
pushed.  ``registry.counter(name, **labels)`` and its siblings are thin
declarers for code outside the library: each returns a :class:`Series`
view of one declared series.  Components built without a world use
:data:`NULL_REGISTRY`, which keeps and records nothing.

See ``docs/telemetry.md`` for the metric catalog.
"""

from __future__ import annotations

from .conservation import (ConservationLaw, LawViolation, FRAGMENT_LAW,
                           STRIPE_LAW, STANDARD_LAWS, check_laws)
from .registry import (DEFAULT_BOUNDS, NULL_REGISTRY, CounterFamily,
                       Declaration, Family, GaugeFamily, Histogram,
                       HistogramFamily, MetricsRegistry, NullRegistry,
                       PulledFamily, Series, SeriesTable, format_metrics)

__all__ = ["MetricsRegistry", "NULL_REGISTRY", "NullRegistry",
           "format_metrics", "DEFAULT_BOUNDS", "Declaration", "SeriesTable",
           "Family", "CounterFamily", "GaugeFamily", "HistogramFamily",
           "PulledFamily", "Histogram", "Series",
           "ConservationLaw", "LawViolation", "FRAGMENT_LAW", "STRIPE_LAW",
           "STANDARD_LAWS", "check_laws"]
