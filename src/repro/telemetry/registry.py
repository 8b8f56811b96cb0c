"""Metrics registry: counters, gauges, and histograms.

The registry is the numeric half of the observability layer (the raw
:class:`~repro.sim.trace.TraceRecorder` is the other).  It keeps one
*family* per metric name, and a family holds every *series* of that name:
one per label set, so two endpoints counting the same metric name produce
two series.  Series come in two ways.

**Declared series.**  Components built by the hundred (NICs, forwarding
workers, pools) state their series once, as a module constant
:class:`Declaration` — label names plus counter, gauge and histogram
names, e.g. ``Declaration(("proto", "nic"), counters=("wire.bytes",))``.
``table = registry.declared(WIRE)`` returns its :class:`SeriesTable`, whose
``families`` are made on the first call.  Each owner declares its label
values once, ``slot = table.declare(("sci", "gw.sci0"))``, and updates by
slot: ``family.inc(slot, nbytes)``.  No object exists per series: a
counter or a gauge is an int in its family's lists, and a histogram's
:class:`Histogram` is made on its first observation, so only owners that
observe pay for one.  Owners that declare the same label values share
their series.  Building a world thus costs a tuple of label values per
owner, and neither enabling nor reading the registry makes a per-series
object.

**Instruments.**  Components with a handful of series ask for *instrument*
objects — ``registry.counter("reliable.retransmits", rank=3)`` — and hit
them on their hot paths; asking again for the same name and labels returns
the same object.

**A disabled registry runs no instrument code.**  Every instrument kind and
every declared family has a live class and a no-op twin (same slots,
empty bodies); each is created as the one that matches the registry, and
:meth:`MetricsRegistry.enable`/:meth:`~MetricsRegistry.disable` rebind the
existing ones by switching their class (one switch per family, one per
instrument).  So ``counter.inc()`` or ``family.inc(slot)`` on a disabled
registry is one call of an empty method: no flag is read, no state is
touched, no simulation event is ever created, and
:meth:`MetricsRegistry.snapshot` returns an empty mapping.  Because handles
and slots survive the rebinding, a registry can be enabled *after* the
world was built (the :class:`~repro.madeleine.session.Session` does
exactly that).  A series keeps what it recorded across a disable and an
enable.

**Reading.**  :meth:`~MetricsRegistry.snapshot`,
:meth:`~MetricsRegistry.total`, :meth:`~MetricsRegistry.value`,
:meth:`~MetricsRegistry.series` and ``len(registry)`` report every series,
declared or not, updated or not; each reads the one family of its name.
``series()`` lists instruments as they are, a declared counter or gauge as
a :class:`Series` view (``.value``, ``.hwm``, ``.labels``), and a declared
histogram as its :class:`Histogram` (an empty, unkept one if it never
observed).

**Pulled counters** (:meth:`MetricsRegistry.pulled_counter`) are for counts
their owner keeps as plain ints anyway (the fluid network's epoch counts):
the registry reads the int instead of being pushed every increment.  They
count only while the registry is on, like every other instrument: a base
is taken at enable and at :meth:`~MetricsRegistry.reset`, and the value is
frozen at disable.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Any, Callable, Optional

__all__ = ["DEFAULT_BOUNDS", "Counter", "Gauge", "Histogram",
           "PulledCounter", "Declaration", "SeriesTable", "CounterFamily",
           "GaugeFamily", "HistogramFamily", "Series", "MetricsRegistry",
           "NullRegistry", "NULL_REGISTRY", "format_metrics"]

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


# -- families -----------------------------------------------------------------
class Family:
    """Every series of one metric name; the registry keeps one per name.

    A family answers ``len()``, ``entries()`` (the sorted label items and
    the data of each series), ``series()``, ``total()``, ``value(labels)``,
    ``reset()`` and ``_bind(on)``.  :class:`InstrumentFamily` holds its
    series as instrument objects; the :class:`DeclaredFamily` kinds hold
    them as plain numbers for the owners that declared them."""

    __slots__ = ("registry", "name")

    def __init__(self, registry: "MetricsRegistry", name: str) -> None:
        self.registry = registry
        self.name = name


class InstrumentFamily(Family):
    """Series made by :meth:`MetricsRegistry.counter` and its siblings: one
    instrument object per label set, handed to whoever asked for it."""

    __slots__ = ("cls", "instruments")

    def __init__(self, registry, name, cls: type) -> None:
        super().__init__(registry, name)
        #: the live instrument class every series of the name has.
        self.cls = cls
        self.instruments: dict[tuple, Instrument] = {}

    @property
    def kind(self) -> str:
        return self.cls.kind

    def get(self, labels: dict[str, Any], args: tuple) -> Instrument:
        key = _label_key(labels)
        inst = self.instruments.get(key)
        if inst is None:
            cls = self.cls if self.registry.enabled else self.cls._off
            inst = self.instruments[key] = cls(self.registry,
                                               (self.name, key), *args)
        return inst

    def __len__(self) -> int:
        return len(self.instruments)

    def entries(self):
        return [(key, inst.data()) for key, inst in self.instruments.items()]

    def series(self) -> list[Instrument]:
        return list(self.instruments.values())

    def total(self):
        return sum(inst.value for inst in self.instruments.values()
                   if hasattr(inst, "value"))

    def value(self, labels):
        inst = self.instruments.get(_label_key(labels))
        if inst is None:
            return 0
        return inst.value if hasattr(inst, "value") else inst.count

    def reset(self) -> None:
        for inst in self.instruments.values():
            inst.reset()

    def _bind(self, on: bool) -> None:
        for inst in self.instruments.values():
            inst._bind(on)


@dataclass(frozen=True, eq=False)
class Declaration:
    """The series one kind of owner declares: the label names every owner
    gives values for, and the names of its counters, gauges and histograms
    (with their bucket bounds).  A module keeps one as a constant; the
    registry makes its families once (:meth:`MetricsRegistry.declared`)."""

    label_names: tuple[str, ...]
    counters: tuple[str, ...] = ()
    gauges: tuple[str, ...] = ()
    histograms: tuple[tuple[str, tuple[float, ...]], ...] = ()


class SeriesTable:
    """The label values of every owner of one :class:`Declaration`, by
    slot, shared by its families (in declaration order: counters, gauges,
    histograms).

    An owner (a NIC, a forwarding worker, a pool) calls :meth:`declare`
    once with its label values, in ``label_names`` order, and passes the
    slot it gets back to every update of every family; owners that declare
    the same label values share their series."""

    __slots__ = ("label_names", "keys", "_slots", "families")

    def __init__(self, label_names: tuple[str, ...]) -> None:
        self.label_names = label_names
        #: label values of each series, by slot.
        self.keys: list[tuple] = []
        self._slots: dict[tuple, int] = {}
        self.families: list[DeclaredFamily] = []

    def declare(self, key: tuple) -> int:
        """The slot of the series labelled ``key``, added if new."""
        slot = self._slots.get(key)
        if slot is None:
            slot = self._slots[key] = len(self.keys)
            self.keys.append(key)
            for family in self.families:
                family._add()
        return slot

    def label_key(self, slot: int) -> tuple:
        return tuple(sorted(zip(self.label_names, self.keys[slot])))

    def slot(self, labels: dict[str, Any]) -> Optional[int]:
        """The slot labelled ``labels`` (None if there is none)."""
        if len(labels) != len(self.label_names):
            return None
        try:
            key = tuple(labels[name] for name in self.label_names)
        except KeyError:
            return None
        return self._slots.get(key)


class DeclaredFamily(Family):
    """The series of one metric name of a :class:`Declaration`, held as
    plain numbers by slot of its :class:`SeriesTable`.  No object exists
    per series: counters and gauges are ints in the family's lists, and a
    histogram's object is made on its first observation.  Like an
    instrument, a family has a live class and a no-op twin, switched by
    the registry."""

    #: the live class (``_off``: its no-op twin).
    cls: type
    _off: type

    __slots__ = ("table",)

    def __init__(self, registry, name, table: SeriesTable) -> None:
        super().__init__(registry, name)
        self.table = table

    def _bind(self, on: bool) -> None:
        self.__class__ = self.cls if on else self._off

    def __len__(self) -> int:
        return len(self.table.keys)

    def entries(self):
        return [(self.table.label_key(slot), self.data(slot))
                for slot in range(len(self))]

    def series(self) -> list:
        return [Series(self, slot) for slot in range(len(self))]

    def value(self, labels):
        slot = self.table.slot(labels)
        return 0 if slot is None else self.reading(slot)

    def reading(self, slot: int) -> Any:
        """What :meth:`MetricsRegistry.value` reports for one series."""
        return self.values[slot]


class Series:
    """One declared counter or gauge series as
    :meth:`MetricsRegistry.series` lists it: its name, labels and readings,
    read from the family when asked (``.value``, and ``.hwm`` for a
    gauge)."""

    __slots__ = ("family", "slot")

    def __init__(self, family: DeclaredFamily, slot: int) -> None:
        self.family = family
        self.slot = slot

    @property
    def kind(self) -> str:
        return self.family.kind

    @property
    def name(self) -> str:
        return self.family.name

    @property
    def labels(self) -> dict[str, Any]:
        return dict(self.family.table.label_key(self.slot))

    @property
    def value(self):
        return self.family.values[self.slot]

    @property
    def hwm(self):
        return self.family.hwms[self.slot]

    def data(self) -> dict[str, Any]:
        return self.family.data(self.slot)

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Series {self.name} {self.labels}>"


class CounterFamily(DeclaredFamily):
    """Counters, one int per declared series."""

    kind = "counter"

    __slots__ = ("values",)

    def __init__(self, registry, name, table) -> None:
        super().__init__(registry, name, table)
        self.values: list[int] = []

    def _add(self) -> None:
        self.values.append(0)

    def inc(self, slot: int, n: int = 1) -> None:
        if n < 0:
            raise ValueError("counters only go up")
        self.values[slot] += n

    def data(self, slot):
        return {"value": self.values[slot]}

    def total(self):
        return sum(self.values)

    def reset(self) -> None:
        self.values = [0] * len(self)


class _OffCounterFamily(CounterFamily):
    __slots__ = ()

    def inc(self, slot: int, n: int = 1) -> None:
        pass


class GaugeFamily(DeclaredFamily):
    """Gauges, a level and its high-water mark per declared series (the
    same semantics as :class:`Gauge`)."""

    kind = "gauge"

    __slots__ = ("values", "hwms")

    def __init__(self, registry, name, table) -> None:
        super().__init__(registry, name, table)
        self.values: list = []
        self.hwms: list = []

    def _add(self) -> None:
        self.values.append(0)
        self.hwms.append(0)

    def set(self, slot: int, value) -> None:
        self.values[slot] = value
        if value > self.hwms[slot]:
            self.hwms[slot] = value

    def inc(self, slot: int, n=1) -> None:
        self.set(slot, self.values[slot] + n)

    def dec(self, slot: int, n=1) -> None:
        self.values[slot] -= n

    def data(self, slot):
        return {"value": self.values[slot], "hwm": self.hwms[slot]}

    def total(self):
        return sum(self.values)

    def reset(self) -> None:
        self.values = [0] * len(self)
        self.hwms = [0] * len(self)


class _OffGaugeFamily(GaugeFamily):
    __slots__ = ()

    def set(self, slot: int, value) -> None:
        pass

    def inc(self, slot: int, n=1) -> None:
        pass

    def dec(self, slot: int, n=1) -> None:
        pass


class HistogramFamily(DeclaredFamily):
    """Histograms with one set of bounds; a series' :class:`Histogram` is
    made on its first observation, so only owners that observe pay for
    one.  :meth:`MetricsRegistry.series` lists the made ones and an empty
    stand-in for each of the others."""

    kind = "histogram"

    __slots__ = ("bounds", "hists")

    def __init__(self, registry, name, table,
                 bounds: tuple[float, ...]) -> None:
        super().__init__(registry, name, table)
        self.bounds = bounds
        self.hists: list[Optional[Histogram]] = []

    def _add(self) -> None:
        self.hists.append(None)

    def _new(self, slot: int) -> Histogram:
        return Histogram(self.registry,
                         (self.name, self.table.label_key(slot)), self.bounds)

    def observe(self, slot: int, value: float) -> None:
        hist = self.hists[slot]
        if hist is None:
            hist = self.hists[slot] = self._new(slot)
        hist.observe(value)

    def series(self) -> list[Histogram]:
        return [hist or self._new(slot)
                for slot, hist in enumerate(self.hists)]

    def data(self, slot):
        return (self.hists[slot] or self._new(slot)).data()

    def reading(self, slot):
        hist = self.hists[slot]
        return 0 if hist is None else hist.count

    def total(self):
        return 0

    def reset(self) -> None:
        for hist in self.hists:
            if hist is not None:
                hist.reset()


class _OffHistogramFamily(HistogramFamily):
    __slots__ = ()

    def observe(self, slot: int, value: float) -> None:
        pass


CounterFamily.cls, CounterFamily._off = CounterFamily, _OffCounterFamily
GaugeFamily.cls, GaugeFamily._off = GaugeFamily, _OffGaugeFamily
HistogramFamily.cls, HistogramFamily._off = (HistogramFamily,
                                             _OffHistogramFamily)


class MetricsRegistry:
    """One family of series per metric name (see :class:`Family`)."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._families: dict[str, Family] = {}
        self._tables: dict[Declaration, SeriesTable] = {}

    # -- lifecycle ---------------------------------------------------------------
    def enable(self) -> None:
        """Bind every family and instrument to its live body (a no-op when
        on); no series is made."""
        if not self.enabled:
            self.enabled = True
            for family in self._families.values():
                family._bind(True)

    def disable(self) -> None:
        """Bind every family and instrument to its no-op body; values are
        kept."""
        if self.enabled:
            self.enabled = False
            for family in self._families.values():
                family._bind(False)

    def reset(self) -> None:
        """Zero every series (handles and slots stay valid)."""
        for family in self._families.values():
            family.reset()

    # -- declared series ---------------------------------------------------------
    def declared(self, declaration: Declaration) -> SeriesTable:
        """The table owners of ``declaration`` declare their series in;
        its families are made on the first call."""
        table = self._tables.get(declaration)
        if table is None:
            table = self._tables[declaration] = self._table(declaration)
        return table

    def _table(self, declaration: Declaration) -> SeriesTable:
        table = SeriesTable(declaration.label_names)
        made = [(CounterFamily, name) for name in declaration.counters]
        made += [(GaugeFamily, name) for name in declaration.gauges]
        made += [(HistogramFamily, name, bounds)
                 for name, bounds in declaration.histograms]
        for cls, name, *args in made:
            if name in self._families:
                raise self._taken(name)
            family = self._families[name] = (
                cls if self.enabled else cls._off)(self, name, table, *args)
            table.families.append(family)
        return table

    def _taken(self, name: str) -> ValueError:
        return ValueError(f"metric {name!r} already registered as a "
                          f"{self._families[name].cls.__name__}")

    # -- instrument factories ------------------------------------------------------
    def _get(self, cls, name: str, labels: dict[str, Any], *args):
        family = self._families.get(name)
        if family is None:
            family = self._families[name] = InstrumentFamily(self, name, cls)
        elif family.cls is not cls:
            raise self._taken(name)
        return family.get(labels, args)

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
        """Current value of one series (0 if it does not exist; a
        histogram's count)."""
        family = self._families.get(name)
        return 0 if family is None else family.value(labels)

    def total(self, name: str):
        """Sum of a counter/gauge metric across all of its label sets."""
        family = self._families.get(name)
        return 0 if family is None else family.total()

    def series(self, name: str) -> list:
        """Every series of ``name`` in declaration order: its instruments,
        or read-only :class:`Series` views (histograms: the
        :class:`Histogram`) of a declared family."""
        family = self._families.get(name)
        return [] if family is None else family.series()

    def snapshot(self) -> dict[str, Any]:
        """All metrics as one JSON-serializable mapping.

        ``{name: {"kind": ..., "series": [{"labels": {...}, ...data}]}}``,
        ordered by name and then by sorted label items.  Empty while the
        registry is disabled — a no-op registry emits nothing.
        """
        if not self.enabled:
            return {}
        out: dict[str, Any] = {}
        for name in sorted(self._families):
            family = self._families[name]
            entries = sorted(family.entries(), key=lambda entry: entry[0])
            if entries:
                out[name] = {"kind": family.kind, "series": [
                    {"labels": dict(key), **data} for key, data in entries]}
        return out

    def __len__(self) -> int:
        return sum(len(family) for family in self._families.values())


class _NullFamily(DeclaredFamily):
    """The one family of a :class:`NullRegistry`: every update is a
    no-op."""

    __slots__ = ()

    def inc(self, slot: int, n=1) -> None:
        pass

    def dec(self, slot: int, n=1) -> None:
        pass

    def set(self, slot: int, value) -> None:
        pass

    def observe(self, slot: int, value: float) -> None:
        pass


class _NullTable(SeriesTable):
    """A :class:`NullRegistry`'s table: every declaration gets slot 0 and
    nothing is kept."""

    __slots__ = ()

    def declare(self, key: tuple) -> int:
        return 0


class NullRegistry(MetricsRegistry):
    """A registry that can never record: for standalone components that want
    an always-valid ``metrics`` attribute with zero bookkeeping.  It keeps
    no series: every instrument it hands out is a fresh no-op one, and
    every declared family is one shared no-op family."""

    def __init__(self) -> None:
        super().__init__(enabled=False)
        self._null = _NullFamily(self, "", _NullTable(()))

    def enable(self) -> None:
        raise RuntimeError("a NullRegistry cannot be enabled")

    def _table(self, declaration: Declaration) -> SeriesTable:
        table = _NullTable(declaration.label_names)
        table.families = [self._null] * (len(declaration.counters)
                                         + len(declaration.gauges)
                                         + len(declaration.histograms))
        return table

    def _get(self, cls, name, labels, *args):
        return cls._off(self, (name, _label_key(labels)), *args)


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
