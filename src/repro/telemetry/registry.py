"""Metrics registry: counters, gauges, and histograms.

The registry is the numeric half of the observability layer (the raw
:class:`~repro.sim.trace.TraceRecorder` is the other).  Components create
*instruments* once — ``registry.counter("reliable.retransmits", rank=3)`` —
and hit them on their hot paths; an instrument is identified by its name plus its label
set, so two endpoints incrementing the same metric name produce two series.

**A disabled registry runs no instrument code.**  Every instrument kind has
a live class and a no-op twin (same slots, empty bodies); an instrument is
created as the one that matches the registry, and
:meth:`MetricsRegistry.enable`/:meth:`~MetricsRegistry.disable` rebind the
existing instruments by switching their class.  So ``counter.inc()`` on a
disabled registry is one call of an empty method: no flag is read, no state
is touched, no simulation event is ever created, and
:meth:`MetricsRegistry.snapshot` returns an empty mapping.  Because
instruments are handles that survive the rebinding, a registry can be
enabled *after* the instruments were created (the
:class:`~repro.madeleine.session.Session` does exactly that: the world's
NICs and pools are built before the session turns telemetry on).  An
instrument keeps what it recorded across a disable and an enable.

**Pulled counters** (:meth:`MetricsRegistry.pulled_counter`) are for counts
their owner keeps as plain ints anyway (the fluid network's epoch counts):
the registry reads the int instead of being pushed every increment.  They
count only while the registry is on, like every other instrument: a base
is taken at enable and at :meth:`~MetricsRegistry.reset`, and the value is
frozen at disable.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Any, Callable

__all__ = ["Counter", "Gauge", "Histogram", "PulledCounter",
           "MetricsRegistry", "NullRegistry", "NULL_REGISTRY",
           "format_metrics"]

#: default histogram bucket upper bounds (µs-flavoured, powers of 10/2).
DEFAULT_BOUNDS = (10.0, 100.0, 1_000.0, 10_000.0, 100_000.0, 1_000_000.0)


def _label_key(labels: dict[str, Any]) -> tuple[tuple[str, Any], ...]:
    return tuple(sorted(labels.items()))


class Instrument:
    """Base of all instruments: the owning registry and the instrument's
    registry key ``(name, sorted label items)``.

    Each kind sets ``_live`` (itself) and ``_off`` (its no-op twin);
    :meth:`_bind` switches between them."""

    kind = "?"
    _live: type
    _off: type

    __slots__ = ("registry", "key")

    def __init__(self, registry: "MetricsRegistry",
                 key: tuple[str, tuple[tuple[str, Any], ...]]) -> None:
        self.registry = registry
        self.key = key

    @property
    def name(self) -> str:
        return self.key[0]

    @property
    def labels(self) -> dict[str, Any]:
        return dict(self.key[1])

    @property
    def enabled(self) -> bool:
        return self.registry.enabled

    def _bind(self, on: bool) -> None:
        """Run the live body (``on``) or the no-op one from now on."""
        self.__class__ = self._live if on else self._off

    def data(self) -> dict[str, Any]:
        raise NotImplementedError

    def reset(self) -> None:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover
        return f"<{type(self).__name__} {self.name} {self.labels}>"


class Counter(Instrument):
    """Monotonically increasing count (events, bytes, retries)."""

    kind = "counter"

    __slots__ = ("value",)

    def __init__(self, registry, key) -> None:
        super().__init__(registry, key)
        self.value = 0

    def inc(self, n: int = 1) -> None:
        if n < 0:
            raise ValueError("counters only go up")
        self.value += n

    def data(self) -> dict[str, Any]:
        return {"value": self.value}

    def reset(self) -> None:
        self.value = 0


class _OffCounter(Counter):
    __slots__ = ()

    def inc(self, n: int = 1) -> None:
        pass


class Gauge(Instrument):
    """Point-in-time level (queue depth, blocks in use) with a high-water
    mark — the ``hwm`` is what pool-sizing questions actually need."""

    kind = "gauge"

    __slots__ = ("value", "hwm")

    def __init__(self, registry, key) -> None:
        super().__init__(registry, key)
        self.value = 0
        self.hwm = 0

    def set(self, value) -> None:
        self.value = value
        if value > self.hwm:
            self.hwm = value

    def inc(self, n=1) -> None:
        self.set(self.value + n)

    def dec(self, n=1) -> None:
        self.value -= n

    def data(self) -> dict[str, Any]:
        return {"value": self.value, "hwm": self.hwm}

    def reset(self) -> None:
        self.value = 0
        self.hwm = 0


class _OffGauge(Gauge):
    __slots__ = ()

    def set(self, value) -> None:
        pass

    def inc(self, n=1) -> None:
        pass

    def dec(self, n=1) -> None:
        pass


class Histogram(Instrument):
    """Distribution of observed values: count/sum/min/max and cumulative
    buckets.  A value lands in the first bucket whose bound it does not
    exceed; values above the last bound, and NaN, land in the last bucket.
    """

    kind = "histogram"

    __slots__ = ("bounds", "_last", "buckets", "count", "total", "min", "max")

    def __init__(self, registry, key,
                 bounds: tuple[float, ...] = DEFAULT_BOUNDS) -> None:
        super().__init__(registry, key)
        self.bounds = tuple(sorted(bounds))
        self._last = len(self.bounds) - 1
        self.reset()

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        low = self.min
        if low is None:
            self.min = self.max = value
        else:
            if value < low:
                self.min = value
            if value > self.max:
                self.max = value
        if value != value:          # NaN: not below any bound
            self.buckets[self._last] += 1
        else:
            self.buckets[bisect_left(self.bounds, value, 0, self._last)] += 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def data(self) -> dict[str, Any]:
        return {
            "count": self.count, "sum": self.total, "mean": self.mean,
            "min": self.min, "max": self.max,
            "buckets": {f"le_{b:g}": n
                        for b, n in zip((*self.bounds[:-1], float("inf")),
                                        self.buckets)},
        }

    def reset(self) -> None:
        self.buckets = [0] * len(self.bounds)
        self.count = 0
        self.total = 0.0
        self.min = None
        self.max = None


class _OffHistogram(Histogram):
    __slots__ = ()

    def observe(self, value: float) -> None:
        pass


class PulledCounter(Instrument):
    """A counter whose count its owner keeps: ``read()`` returns the
    owner's running total, and the counter reports how much it grew while
    the registry was on (a ``counter`` in snapshots)."""

    kind = "counter"

    __slots__ = ("read", "base", "frozen")

    def __init__(self, registry, key, read: Callable[[], int]) -> None:
        super().__init__(registry, key)
        self.read = read
        self.base = read()
        self.frozen = 0

    @property
    def value(self) -> int:
        return self.read() - self.base

    def _bind(self, on: bool) -> None:
        if on:
            self.base = self.read() - self.frozen
        else:
            self.frozen = self.value
        super()._bind(on)

    def data(self) -> dict[str, Any]:
        return {"value": self.value}

    def reset(self) -> None:
        self.base = self.read()
        self.frozen = 0


class _OffPulledCounter(PulledCounter):
    __slots__ = ()

    @property
    def value(self) -> int:
        return self.frozen


Counter._live, Counter._off = Counter, _OffCounter
Gauge._live, Gauge._off = Gauge, _OffGauge
Histogram._live, Histogram._off = Histogram, _OffHistogram
PulledCounter._live, PulledCounter._off = PulledCounter, _OffPulledCounter


class MetricsRegistry:
    """Get-or-create instrument store keyed by ``(name, labels)``."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._instruments: dict[tuple[str, tuple], Instrument] = {}

    # -- lifecycle ---------------------------------------------------------------
    def enable(self) -> None:
        """Bind every instrument to its live body (a no-op when on)."""
        if not self.enabled:
            self.enabled = True
            for inst in self._instruments.values():
                inst._bind(True)

    def disable(self) -> None:
        """Bind every instrument to its no-op body; values are kept."""
        if self.enabled:
            self.enabled = False
            for inst in self._instruments.values():
                inst._bind(False)

    def reset(self) -> None:
        """Zero every instrument (the instrument handles stay valid)."""
        for inst in self._instruments.values():
            inst.reset()

    # -- instrument factories ------------------------------------------------------
    def _get(self, cls, name: str, labels: dict[str, Any], *args):
        key = (name, _label_key(labels))
        inst = self._instruments.get(key)
        if inst is None:
            inst = (cls if self.enabled else cls._off)(self, key, *args)
            self._instruments[key] = inst
        elif inst._live is not cls:
            raise ValueError(f"metric {name!r} already registered as a "
                             f"{inst._live.__name__}")
        return inst

    def counter(self, name: str, **labels: Any) -> Counter:
        return self._get(Counter, name, labels)

    def gauge(self, name: str, **labels: Any) -> Gauge:
        return self._get(Gauge, name, labels)

    def histogram(self, name: str, bounds: tuple[float, ...] = DEFAULT_BOUNDS,
                  **labels: Any) -> Histogram:
        return self._get(Histogram, name, labels, bounds)

    def pulled_counter(self, name: str, read: Callable[[], int],
                       **labels: Any) -> PulledCounter:
        """A counter read from ``read()``, a running total its owner keeps
        (see :class:`PulledCounter`); one reader per series."""
        inst = self._get(PulledCounter, name, labels, read)
        if inst.read is not read:
            raise ValueError(f"metric {name!r} {labels} already has a reader")
        return inst

    # -- queries ---------------------------------------------------------------
    def value(self, name: str, **labels: Any) -> Any:
        """Current value of one series (0 if it does not exist)."""
        inst = self._instruments.get((name, _label_key(labels)))
        if inst is None:
            return 0
        return inst.value if hasattr(inst, "value") else inst.count

    def total(self, name: str):
        """Sum of a counter/gauge metric across all of its label sets."""
        return sum(inst.value for (n, _k), inst in self._instruments.items()
                   if n == name and hasattr(inst, "value"))

    def series(self, name: str) -> list[Instrument]:
        return [inst for (n, _k), inst in self._instruments.items()
                if n == name]

    def snapshot(self) -> dict[str, Any]:
        """All metrics as one JSON-serializable mapping.

        ``{name: {"kind": ..., "series": [{"labels": {...}, ...data}]}}``,
        deterministically ordered.  Empty while the registry is disabled —
        a no-op registry emits nothing.
        """
        if not self.enabled:
            return {}
        out: dict[str, Any] = {}
        for (name, _key), inst in sorted(self._instruments.items(),
                                         key=lambda kv: kv[0]):
            entry = out.setdefault(name, {"kind": inst.kind, "series": []})
            entry["series"].append({"labels": inst.labels, **inst.data()})
        return out

    def __len__(self) -> int:
        return len(self._instruments)


class NullRegistry(MetricsRegistry):
    """A registry that can never record: for standalone components that want
    an always-valid ``metrics`` attribute with zero bookkeeping."""

    def __init__(self) -> None:
        super().__init__(enabled=False)

    def enable(self) -> None:
        raise RuntimeError("a NullRegistry cannot be enabled")


#: default for optional ``metrics=`` parameters across the codebase.
NULL_REGISTRY = NullRegistry()


def format_metrics(snapshot: dict[str, Any]) -> str:
    """Human-readable table of a :meth:`MetricsRegistry.snapshot`."""
    if not snapshot:
        return "(no metrics recorded)"
    lines = [f"{'metric':40s}{'labels':34s}{'value':>14s}"]
    lines.append("-" * len(lines[0]))
    for name, entry in snapshot.items():
        for series in entry["series"]:
            labels = ",".join(f"{k}={v}" for k, v in
                              sorted(series["labels"].items()))
            if entry["kind"] == "histogram":
                value = (f"n={series['count']} mean={series['mean']:.1f} "
                         f"max={series['max'] if series['max'] is not None else 0:.1f}")
                lines.append(f"{name:40s}{labels:34s}{value:>14s}")
            elif entry["kind"] == "gauge":
                value = f"{series['value']} (hwm {series['hwm']})"
                lines.append(f"{name:40s}{labels:34s}{value:>14s}")
            else:
                lines.append(f"{name:40s}{labels:34s}{series['value']:>14}")
    return "\n".join(lines)
