"""Metrics registry: counters, gauges, histograms and pulled counters.

The registry is the numeric half of the observability layer (the raw
:class:`~repro.sim.trace.TraceRecorder` is the other).  It keeps one
*family* per metric name, and a family holds every *series* of that name,
one per label set.

**Every series is declared.**  A kind of owner (a NIC, a forwarding
worker, a reliable endpoint, the route table) states its series once, as
a module constant :class:`Declaration`: label names plus counter, gauge,
histogram and pulled-counter names.  ``table = registry.declared(WIRE)``
returns its :class:`SeriesTable`, whose ``families`` are made on the first
call.  Each owner declares its label values once, ``slot =
table.declare(("sci", "gw.sci0"))``, and updates by slot:
``family.inc(slot, nbytes)``; an owner with no labels declares the one
slot of a table with ``label_names=()``.  Owners that declare the same
label values share their series.  No object exists per series: a counter
or a gauge is an int in its family's lists, and a histogram's
:class:`Histogram` record is made on its first observation.

**Pulled counters** are counts their owner keeps as plain ints anyway
(the fluid network's epoch counts): ``family.pull(slot, read)`` hands the
family a reader, called when the series is read.

**A disabled registry runs no update code.**  Every family kind has a live
class and a no-op twin, and each update is one method of its family;
:meth:`MetricsRegistry.enable` and :meth:`~MetricsRegistry.disable` switch
the class of every family, so a registry can be enabled *after* the world
was built.  A series counts only while the registry is on and keeps what
it recorded across a disable and an enable.

**Reading.**  :meth:`~MetricsRegistry.snapshot` (empty while disabled),
:meth:`~MetricsRegistry.total`, :meth:`~MetricsRegistry.value`,
:meth:`~MetricsRegistry.series` (:class:`Series` views) and
``len(registry)`` report every series, updated or not.  Code outside the
library asks for one series by name with a thin declarer,
``registry.counter("n", rank=0)``, ``gauge`` or ``histogram``.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Any, Callable, Optional

__all__ = ["DEFAULT_BOUNDS", "Histogram", "Declaration", "SeriesTable",
           "Family", "CounterFamily", "GaugeFamily", "HistogramFamily",
           "PulledFamily", "Series", "MetricsRegistry", "NullRegistry",
           "NULL_REGISTRY", "format_metrics"]

#: default histogram bucket upper bounds (µs-flavoured, powers of 10/2).
DEFAULT_BOUNDS = (10.0, 100.0, 1_000.0, 10_000.0, 100_000.0, 1_000_000.0)


@dataclass(frozen=True, eq=False)
class Declaration:
    """The series one kind of owner declares, kept as a module constant:
    the label names every owner gives values for, and the names of its
    counters, gauges, histograms (with bucket bounds) and pulled counters."""

    label_names: tuple[str, ...]
    counters: tuple[str, ...] = ()
    gauges: tuple[str, ...] = ()
    histograms: tuple[tuple[str, tuple[float, ...]], ...] = ()
    pulled: tuple[str, ...] = ()


class SeriesTable:
    """The label values of every owner of one :class:`Declaration`, by
    slot, shared by its families (in declaration order: counters, gauges,
    histograms, pulled counters)."""

    __slots__ = ("label_names", "keys", "_slots", "families")

    def __init__(self, label_names: tuple[str, ...]) -> None:
        self.label_names = label_names
        #: label values of each series, by slot.
        self.keys: list[tuple] = []
        self._slots: dict[tuple, int] = {}
        self.families: list[Family] = []

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
        if sorted(labels) != sorted(self.label_names):
            return None
        return self._slots.get(tuple(labels[name]
                                     for name in self.label_names))


class Histogram:
    """The record of one histogram series: count/sum/min/max and buckets.
    A value lands in the first bucket whose bound it does not exceed;
    values above the last bound, and NaN, land in the last bucket."""

    __slots__ = ("bounds", "buckets", "count", "total", "min", "max")

    def __init__(self, bounds: tuple[float, ...]) -> None:
        self.bounds = bounds
        self.buckets = [0] * len(bounds)
        self.count = 0
        self.total = 0.0
        self.min = None
        self.max = None

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


# -- families -----------------------------------------------------------------
def _nothing(self, *args) -> None:
    pass                            # the one no-op body of every update


def _off_twin(*updates: str):
    """Class decorator: give a family kind ``_live`` (itself) and ``_off``,
    its no-op twin, with the same slots and the empty body for each of
    ``updates``."""
    def make(cls: type) -> type:
        cls._live = cls
        cls._off = type(f"_Off{cls.__name__}", (cls,), {
            "__slots__": (), **dict.fromkeys(updates, _nothing)})
        return cls
    return make


class Family:
    """Every series of one metric name, as plain numbers by slot of its
    :class:`SeriesTable`.  A kind has a live class and a no-op twin
    (``_live``, ``_off``); :meth:`_bind` switches between them."""

    kind = "?"

    __slots__ = ("registry", "name", "table")

    def __init__(self, registry: "MetricsRegistry", name: str,
                 table: SeriesTable) -> None:
        self.registry = registry
        self.name = name
        self.table = table

    def _bind(self, on: bool) -> None:
        """Run the live bodies (``on``) or the no-op ones from now on."""
        self.__class__ = self._live if on else self._off

    def __len__(self) -> int:
        return len(self.table.keys)

    def reading(self, slot: int) -> Any:
        """What :meth:`MetricsRegistry.value` reports for one series."""
        return self.values[slot]

    def data(self, slot: int) -> dict[str, Any]:
        return {"value": self.reading(slot)}

    def total(self):
        return sum(map(self.reading, range(len(self))))


@_off_twin("inc")
class CounterFamily(Family):
    """Counters, one int per series; a counter only goes up."""

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

    def reset(self) -> None:
        self.values = [0] * len(self)


@_off_twin("set", "inc", "dec")
class GaugeFamily(Family):
    """Gauges: a level per series (queue depth, blocks in use) and its
    high-water mark, which is what pool-sizing questions actually need."""

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
        value = self.values[slot] = self.values[slot] + n
        if value > self.hwms[slot]:
            self.hwms[slot] = value

    def dec(self, slot: int, n=1) -> None:
        self.values[slot] -= n

    def data(self, slot):
        return {"value": self.values[slot], "hwm": self.hwms[slot]}

    def reset(self) -> None:
        self.values = [0] * len(self)
        self.hwms = [0] * len(self)


@_off_twin("observe")
class HistogramFamily(Family):
    """Histograms with one set of bounds; a series' :class:`Histogram`
    record is made on its first observation (until then it reads as an
    empty record that is not kept)."""

    kind = "histogram"

    __slots__ = ("bounds", "_last", "hists")

    def __init__(self, registry, name, table,
                 bounds: tuple[float, ...]) -> None:
        super().__init__(registry, name, table)
        self.bounds = tuple(sorted(bounds))
        self._last = len(self.bounds) - 1
        self.hists: list[Optional[Histogram]] = []

    def _add(self) -> None:
        self.hists.append(None)

    def observe(self, slot: int, value: float) -> None:
        hist = self.hists[slot]
        if hist is None:
            hist = self.hists[slot] = Histogram(self.bounds)
        hist.count += 1
        hist.total += value
        low = hist.min
        if low is None:
            hist.min = hist.max = value
        else:
            if value < low:
                hist.min = value
            if value > hist.max:
                hist.max = value
        if value != value:          # NaN: not below any bound
            hist.buckets[self._last] += 1
        else:
            hist.buckets[bisect_left(self.bounds, value, 0, self._last)] += 1

    def record(self, slot: int) -> Histogram:
        return self.hists[slot] or Histogram(self.bounds)

    def data(self, slot):
        return self.record(slot).data()

    def reading(self, slot):
        hist = self.hists[slot]
        return 0 if hist is None else hist.count

    def total(self):
        return 0

    def reset(self) -> None:
        self.hists = [None] * len(self)


class PulledFamily(Family):
    """Pulled counters: each series reads a running total its owner keeps
    (``pull(slot, read)``) and reports how much it grew while the registry
    was on.  Nothing is pushed, so binding switches no body: it turns a
    series' base into its frozen value and back."""

    kind = "counter"

    __slots__ = ("readers", "marks")

    def __init__(self, registry, name, table) -> None:
        super().__init__(registry, name, table)
        self.readers: list[Optional[Callable[[], int]]] = []
        #: per series: the reader's base while the registry is on, the
        #: frozen value while it is off.
        self.marks: list[int] = []

    def _add(self) -> None:
        self.readers.append(None)
        self.marks.append(0)

    def pull(self, slot: int, read: Callable[[], int]) -> None:
        """Read series ``slot`` from ``read()`` from now on (one reader
        per series)."""
        if self.readers[slot] is not None:
            raise ValueError(f"metric {self.name!r} "
                             f"{dict(self.table.label_key(slot))} already "
                             f"has a reader")
        self.readers[slot] = read
        self.marks[slot] = read() if self.registry.enabled else 0

    def _bind(self, on: bool) -> None:
        # enable: base = total - frozen; disable: frozen = total - base
        for slot, read in enumerate(self.readers):
            if read is not None:
                self.marks[slot] = read() - self.marks[slot]

    def reading(self, slot: int) -> int:
        read = self.readers[slot]
        if read is None or not self.registry.enabled:
            return self.marks[slot]
        return read() - self.marks[slot]

    def reset(self) -> None:
        on = self.registry.enabled
        for slot, read in enumerate(self.readers):
            self.marks[slot] = read() if on and read is not None else 0


PulledFamily._live = PulledFamily._off = PulledFamily


class Series:
    """A view of one series, its family and slot: it reads the family when
    asked and forwards updates to it."""

    __slots__ = ("family", "slot")

    def __init__(self, family: Family, slot: int) -> None:
        self.family = family
        self.slot = slot

    kind = property(lambda self: self.family.kind)
    name = property(lambda self: self.family.name)
    labels = property(
        lambda self: dict(self.family.table.label_key(self.slot)))
    value = property(lambda self: self.family.reading(self.slot))
    hwm = property(lambda self: self.family.hwms[self.slot])
    # a histogram's record (an empty one if the series never observed)
    count = property(lambda self: self.family.record(self.slot).count)
    total = property(lambda self: self.family.record(self.slot).total)
    mean = property(lambda self: self.family.record(self.slot).mean)
    buckets = property(lambda self: self.family.record(self.slot).buckets)
    min = property(lambda self: self.family.record(self.slot).min)
    max = property(lambda self: self.family.record(self.slot).max)

    def data(self) -> dict[str, Any]:
        return self.family.data(self.slot)

    def inc(self, n=1) -> None:
        self.family.inc(self.slot, n)

    def set(self, value) -> None:
        self.family.set(self.slot, value)

    def dec(self, n=1) -> None:
        self.family.dec(self.slot, n)

    def observe(self, value: float) -> None:
        self.family.observe(self.slot, value)

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Series {self.name} {self.labels}>"


class MetricsRegistry:
    """One family of series per metric name (see :class:`Family`)."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._families: dict[str, Family] = {}
        self._tables: dict[Declaration, SeriesTable] = {}

    # -- lifecycle ---------------------------------------------------------------
    def enable(self) -> None:
        """Bind every family to its live bodies (a no-op when on); no
        series is made."""
        if not self.enabled:
            self.enabled = True
            for family in self._families.values():
                family._bind(True)

    def disable(self) -> None:
        """Bind every family to its no-op bodies; values are kept."""
        if self.enabled:
            self.enabled = False
            for family in self._families.values():
                family._bind(False)

    def reset(self) -> None:
        """Zero every series (families and slots stay valid)."""
        for family in self._families.values():
            family.reset()

    # -- declaring ---------------------------------------------------------------
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
        made += [(PulledFamily, name) for name in declaration.pulled]
        for cls, name, *args in made:
            self._family(cls, name, table, *args)
        return table

    def _family(self, cls: type, name: str, table: SeriesTable,
                *args) -> Family:
        if name in self._families:
            raise self._taken(name)
        family = self._families[name] = (
            cls if self.enabled else cls._off)(self, name, table, *args)
        table.families.append(family)
        return family

    def _taken(self, name: str) -> ValueError:
        family = self._families[name]
        return ValueError(f"metric {name!r} is already a "
                          f"{family._live.__name__} labelled "
                          f"{family.table.label_names}")

    # -- thin declarers ------------------------------------------------------------
    def counter(self, name: str, **labels: Any) -> Series:
        """The counter series ``labels`` of ``name``, declared if new."""
        return self._series(CounterFamily, name, labels)

    def gauge(self, name: str, **labels: Any) -> Series:
        """The gauge series ``labels`` of ``name``, declared if new."""
        return self._series(GaugeFamily, name, labels)

    def histogram(self, name: str, bounds: tuple[float, ...] = DEFAULT_BOUNDS,
                  **labels: Any) -> Series:
        """The histogram series ``labels`` of ``name``, declared if new
        (``bounds`` are those of a new family)."""
        return self._series(HistogramFamily, name, labels, bounds)

    def _series(self, cls: type, name: str, labels: dict[str, Any],
                *args) -> Series:
        family = self._families.get(name)
        if family is None:
            family = self._family(cls, name, SeriesTable(tuple(labels)),
                                  *args)
        elif (family._live is not cls
              or sorted(family.table.label_names) != sorted(labels)):
            raise self._taken(name)
        table = family.table
        return Series(family, table.declare(
            tuple(labels[label] for label in table.label_names)))

    # -- queries ---------------------------------------------------------------
    def value(self, name: str, **labels: Any) -> Any:
        """Current value of one series (0 if it does not exist; a
        histogram's count)."""
        family = self._families.get(name)
        slot = None if family is None else family.table.slot(labels)
        return 0 if slot is None else family.reading(slot)

    def total(self, name: str):
        """Sum of a counter/gauge metric across all of its label sets."""
        family = self._families.get(name)
        return 0 if family is None else family.total()

    def series(self, name: str) -> list[Series]:
        """A :class:`Series` view of every series of ``name``, in
        declaration order."""
        family = self._families.get(name)
        return [] if family is None else [Series(family, slot)
                                          for slot in range(len(family))]

    def snapshot(self) -> dict[str, Any]:
        """All metrics as one JSON-serializable mapping, ``{name: {"kind":
        ..., "series": [{"labels": {...}, ...data}]}}``, ordered by name and
        then by sorted label items; empty while the registry is disabled."""
        if not self.enabled:
            return {}
        out: dict[str, Any] = {}
        for name in sorted(self._families):
            family = self._families[name]
            label_key = family.table.label_key
            entries = sorted(((label_key(slot), family.data(slot))
                              for slot in range(len(family))),
                             key=lambda entry: entry[0])
            if entries:
                out[name] = {"kind": family.kind, "series": [
                    {"labels": dict(key), **data} for key, data in entries]}
        return out

    def __len__(self) -> int:
        return sum(len(family) for family in self._families.values())


class _NullFamily(Family):
    """The one family of a :class:`NullRegistry`: every update is a no-op
    and every series reads as zero."""

    values = hwms = (0,)

    __slots__ = ()

    inc = dec = set = observe = pull = _nothing

    def record(self, slot: int) -> Histogram:
        return Histogram(DEFAULT_BOUNDS)


class _NullTable(SeriesTable):
    """A :class:`NullRegistry`'s table: every declaration gets slot 0 and
    nothing is kept."""

    __slots__ = ()

    def declare(self, key: tuple) -> int:
        return 0


class NullRegistry(MetricsRegistry):
    """A registry that can never record: for standalone components that want
    an always-valid ``metrics`` attribute with zero bookkeeping.  It keeps
    no series: every family it hands out is one shared no-op family."""

    def __init__(self) -> None:
        super().__init__(enabled=False)
        self._null = _NullFamily(self, "", _NullTable(()))

    def enable(self) -> None:
        raise RuntimeError("a NullRegistry cannot be enabled")

    def _table(self, declaration: Declaration) -> SeriesTable:
        table = _NullTable(declaration.label_names)
        table.families = [self._null] * (
            len(declaration.counters) + len(declaration.gauges)
            + len(declaration.histograms) + len(declaration.pulled))
        return table

    def _series(self, cls, name, labels, *args) -> Series:
        return Series(self._null, 0)


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
                top = series["max"] if series["max"] is not None else 0
                value = (f"n={series['count']} mean={series['mean']:.1f} "
                         f"max={top:.1f}")
            elif entry["kind"] == "gauge":
                value = f"{series['value']} (hwm {series['hwm']})"
            else:
                value = series["value"]
            lines.append(f"{name:40s}{labels:34s}{value:>14}")
    return "\n".join(lines)
