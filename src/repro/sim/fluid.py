"""Fluid-flow modelling of shared transmission resources.

A data transfer (a *flow*) pushes ``size`` bytes along a *path* of shared
resources (PCI buses, network links).  At any instant every active flow has a
rate; rates are recomputed whenever the set of active flows changes, using
**max-min fair sharing with contention caps**:

* every hop of a flow's path carries a transaction *kind* — ``"dma"`` for
  bus-master transfers initiated by a NIC, ``"pio"`` for CPU-initiated
  programmed I/O;
* a flow whose hop on some resource is PIO, while any concurrent flow on
  that resource is DMA, has its standalone peak divided by the resource's
  ``preempt_slowdown`` — the paper measures ≈ 2× for SCI PIO writes while a
  Myrinet DMA receive is in flight (its Figure 8), because the PCI arbiter
  favours the NIC's DMA transactions;
* subject to those caps and to each resource's capacity, rates are assigned
  by classical progressive filling (max-min fairness).

Rates are piecewise constant between recomputations, so the completion time
of each flow is exact — no time-stepping error.  Bandwidths are bytes/µs,
numerically equal to MB/s.

**Incremental recomputation.**  Flows only contend through shared
resources, so the flow↔resource contention graph decomposes into connected
*components* whose max-min allocations are independent: the fixed point of
a component is a pure function of its member flows (ordered by arrival),
their effective caps, and its resource capacities.  The network exploits
this two ways:

* progressive filling always runs **per component** — the fill of an
  N-flow component costs O(N² · path) instead of the whole population's
  O(total²·path);
* on each arrival/completion only the component(s) reachable from the
  changed flow are re-solved (``incremental=True``, the default): flows in
  untouched components keep their rates — and, because the shared wake-up
  is reused when its firing time is unchanged, their scheduled wakeups —
  verbatim.  A full recompute (``incremental=False``) re-fills *every*
  component each epoch; both modes are bit-identical because re-filling an
  untouched component reproduces its previous rates exactly.

Finding a component (:func:`component`) reads each resource's member list
once, so the walk costs O(footprint entries of the component + members of
its resources): linear in the giant component of a dense fabric, where one
member scan per (flow, resource) crossing would be quadratic.

**One contract, two executions.**  :func:`fill` is the only filling
contract; below :data:`ARRAY_ENTRIES` footprint entries its rounds run as a
loop over dicts, at or above it the same rounds run as whole-array steps
over a :class:`Layout` (entries grouped by resource, flow order kept).  The
two return the same floats under ``==``: the array rounds reproduce every
per-resource left fold of the loop with ``np.subtract.reduceat`` (see
:func:`fill`), so which one ran is not observable in any result.

Work done is observable on the network (``recompute_epochs``,
``recomputed_flows``, ``live_flow_epochs``) and, when a metrics registry is
attached, as ``fluid.recomputes``/``fluid.recompute_flows``/
``fluid.epoch_live_flows`` counters plus the ``fluid.component_size``
histogram (docs/telemetry.md).
"""

from __future__ import annotations

import itertools
import operator
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .engine import Event, Simulator

__all__ = ["FluidResource", "Flow", "FluidNetwork", "DMA", "PIO", "fill",
           "component", "departure_seeds", "Layout", "ARRAY_ENTRIES"]

_EPS = 1e-9

#: footprint entries in one component from which :func:`fill` runs its
#: rounds on arrays.  Set from the per-size timings in docs/solver.md
#: ("What an epoch costs"): the loop wins below about 200 entries, the
#: arrays above, by 2-3x from 850 entries on.
ARRAY_ENTRIES = 256

#: transaction kinds
DMA = "dma"
PIO = "pio"

#: bucket bounds for the component-size histogram (flows per re-solve).
_COMPONENT_BOUNDS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0)

#: how the DES answers :func:`fill`/:func:`component` about a FluidResource.
_capacity = operator.attrgetter("capacity")
_members = operator.attrgetter("flows")
_arrival = operator.attrgetter("_seq")


class _OrderedSet:
    """Insertion-ordered set (dict-backed).

    Flow bookkeeping must iterate in *arrival* order, not address order: a
    plain ``set`` of identity-hashed flows completes same-instant flows in
    whatever order the allocator handed out addresses, which makes two runs
    of the same seeded scenario in one process schedule differently.
    """

    __slots__ = ("_items",)

    def __init__(self) -> None:
        self._items: dict = {}

    def add(self, item) -> None:
        self._items[item] = None

    def discard(self, item) -> None:
        self._items.pop(item, None)

    def __iter__(self):
        return iter(self._items)

    def __len__(self) -> int:
        return len(self._items)

    def __contains__(self, item) -> bool:
        return item in self._items


class FluidResource:
    """A shared capacity (bytes/µs) that concurrent flows divide."""

    __slots__ = ("name", "capacity", "preempt_slowdown", "flows",
                 "dma_flows")

    def __init__(self, name: str, capacity: float,
                 preempt_slowdown: float = 1.0) -> None:
        if capacity <= 0:
            raise ValueError(f"resource {name!r}: capacity must be > 0")
        if preempt_slowdown < 1.0:
            raise ValueError(f"resource {name!r}: preempt_slowdown must be >= 1")
        self.name = name
        self.capacity = capacity
        #: factor applied to a PIO flow's peak rate while any DMA flow
        #: shares this resource.
        self.preempt_slowdown = preempt_slowdown
        self.flows: _OrderedSet = _OrderedSet()
        #: attached flows whose (first) hop on this resource is DMA —
        #: maintained by the network so the PIO-under-DMA cap check is
        #: O(path) per flow instead of a scan of every co-member.
        self.dma_flows: int = 0

    def __repr__(self) -> str:  # pragma: no cover
        return f"<FluidResource {self.name} cap={self.capacity}B/µs>"


class Flow:
    """One transfer of ``size`` bytes along ``path``.

    ``path`` is a sequence of ``(resource, kind)`` hops; ``peak`` caps the
    flow's standalone rate (e.g. the slowest NIC engine on the path).
    """

    _ids = itertools.count()

    __slots__ = ("id", "name", "size", "remaining", "path", "footprint",
                 "peak", "rate", "done", "started_at", "finished_at",
                 "_last_update", "_seq")

    def __init__(self, name: str, size: float,
                 path: Sequence[tuple[FluidResource, str]], peak: float) -> None:
        if size < 0:
            raise ValueError("flow size must be >= 0")
        if peak <= 0:
            raise ValueError("flow peak rate must be > 0")
        for _res, kind in path:
            if kind not in (DMA, PIO):
                raise ValueError(f"unknown transaction kind {kind!r}")
        self.id = next(Flow._ids)
        self.name = name
        self.size = float(size)
        self.remaining = float(size)
        self.path = tuple(path)
        #: what :func:`fill` sees of the path: weight 1 per hop.
        self.footprint = tuple([(res, 1) for res, _kind in self.path])
        self.peak = float(peak)
        self.rate = 0.0
        self.done: Optional[Event] = None
        self.started_at: float = 0.0
        self.finished_at: Optional[float] = None
        self._last_update: float = 0.0
        #: network-local arrival sequence (assigned on attach); orders
        #: component members independently of the process-wide id counter.
        self._seq: int = -1

    def kind_on(self, resource: FluidResource) -> Optional[str]:
        for res, kind in self.path:
            if res is resource:
                return kind
        return None

    def resources(self) -> list[FluidResource]:
        return [res for res, _kind in self.path]

    def __repr__(self) -> str:  # pragma: no cover
        return (f"<Flow {self.name} {self.size - self.remaining:.0f}/"
                f"{self.size:.0f}B rate={self.rate:.2f}>")


def fill(ceilings: Sequence[float], footprints: Sequence[Sequence[tuple]],
         capacity_of: Callable) -> list[float]:
    """Max-min progressive filling of one contention component.

    Flow ``k`` (arrival order) may rise to ``ceilings[k]`` and consumes
    ``weight × rate`` of every ``(resource key, weight)`` entry of
    ``footprints[k]``; ``capacity_of(key)`` is that resource's capacity.  A
    resource crossed twice is two entries.  Returns the rates, aligned with
    the inputs.  This is the repo's only filling loop besides the
    brute-force oracle ``solver.core.max_min_rates``: the DES passes weight
    1 per path hop with the PIO-under-DMA cap already folded into
    ``ceilings``, the solver passes its pipeline ceilings and real-valued
    weights.

    The order of operations is a contract (golden fig5 and
    ``benchmarks/perf/expected.json`` compare exact floats): all active
    flows rise by the smallest headroom, applied only when it exceeds
    ``1e-9``; residuals drop entry by entry in flow order and are clamped
    at 0; a flow freezes within an *absolute* ``1e-9`` of its ceiling or of
    a saturated resource; filling stops when a round freezes nothing.

    One contract, two executions: from :data:`ARRAY_ENTRIES` entries up the
    rounds run on a :class:`Layout` instead of dicts, float for float.
    Each per-resource sum of the loop (``load += w``, ``residual -= w *
    delta``, ``load -= w``) is a left fold in flow order, which is what
    ``np.subtract.reduceat`` computes over ``[head, term, term, ...]`` when
    a resource's entries sit behind its head in that order; an entry that
    sits a round out contributes ``0.0`` (``x - 0.0 == x``), an addition is
    ``a - (-b)``, and "last entry retired" is decided on integer counts.
    """
    if sum(map(len, footprints)) < ARRAY_ENTRIES:
        return _rounds_scalar(ceilings, footprints, capacity_of)
    return _rounds_array(ceilings, footprints, capacity_of)


def _rounds_scalar(ceilings, footprints, capacity_of) -> list[float]:
    """:func:`fill`'s rounds as a loop over dicts keyed by resource."""
    alloc = [0.0] * len(ceilings)
    residual: dict = {}
    load: dict = {}               # key -> summed weight of active entries
    count: dict = {}              # key -> number of active entries
    for fp in footprints:
        for key, w in fp:
            if key in load:
                load[key] += w
                count[key] += 1
            else:
                load[key] = w
                count[key] = 1
                residual[key] = capacity_of(key)
    active = range(len(ceilings))
    while active:
        delta = min([ceilings[k] - alloc[k] for k in active])
        for key, demand in load.items():
            head = residual[key] / demand
            if head < delta:
                delta = head
        if delta > _EPS:
            for k in active:
                alloc[k] += delta
                for key, w in footprints[k]:
                    residual[key] -= w * delta
            for key, left in residual.items():
                if left < 0:  # numerical guard
                    residual[key] = 0.0
        still = []
        for k in active:
            fp = footprints[k]
            if alloc[k] < ceilings[k] - _EPS and not any(
                    [residual[key] <= _EPS for key, _w in fp]):
                still.append(k)
                continue
            for key, w in fp:     # frozen: retire its demand
                count[key] -= 1
                if count[key]:
                    load[key] -= w
                else:
                    del load[key]
        if len(still) == len(active):
            break  # no progress possible without a freeze: stop
        active = still
    return alloc


def _rounds_array(ceilings, footprints, capacity_of) -> list[float]:
    """:func:`fill`'s rounds on arrays, for any hashable resource keys:
    they are interned for this one call (a caller whose keys are already
    integers builds the :class:`Layout` itself and keeps its arrays)."""
    index: dict = {}
    ids = [index.setdefault(key, len(index))
           for fp in footprints for key, _w in fp]
    layout = Layout(np.array(ids),
                    np.array([w for fp in footprints for _key, w in fp],
                             dtype=float),
                    [len(fp) for fp in footprints])
    # every id 0..len(index)-1 occurs, so layout.keys is that range
    return layout.rounds(ceilings, [capacity_of(key) for key in index])


class Layout:
    """The footprint entries of one component as arrays, for the array
    execution of :func:`fill`'s rounds.

    Entries are grouped by resource with flow order kept inside a group (a
    stable sort), and every group starts with one *head* slot, so that
    ``np.subtract.reduceat(terms, heads)`` folds each resource's entries
    onto a value placed in its head — left to right, as the loop does.
    ``ids`` are integer resource keys and ``weights`` floats, one per entry,
    flow after flow; ``lengths[k]`` is the number of entries of flow ``k``.
    There must be at least one entry.
    """

    __slots__ = ("keys", "_flows", "_heads", "_flow", "_res", "_w")

    def __init__(self, ids: np.ndarray, weights: np.ndarray,
                 lengths: Sequence[int]) -> None:
        if ids.max() < 1 << 16:
            ids = ids.astype(np.uint16)     # sorted by radix: several x faster
        order = np.argsort(ids, kind="stable")
        grouped = ids[order]
        first = np.flatnonzero(np.concatenate(
            ([True], grouped[1:] != grouped[:-1])))   # starts of the groups
        #: the distinct resource ids, ascending; per-resource arrays
        #: (``capacities`` of :meth:`rounds`) align with it.
        self.keys = grouped[first]
        self._flows = len(lengths)
        self._heads = first + np.arange(len(first))
        size = len(grouped) + len(first)
        entry = np.ones(size, dtype=bool)
        entry[self._heads] = False
        # Per-slot columns.  A head slot belongs to flow ``_flows``, which
        # is never active and never frozen, so it only ever carries the
        # value :meth:`_fold` puts there.
        self._res = np.repeat(np.arange(len(first)),
                              np.diff(self._heads, append=size))
        self._flow = np.full(size, self._flows)
        self._flow[entry] = np.repeat(np.arange(self._flows), lengths)[order]
        self._w = np.zeros(size)
        self._w[entry] = weights[order]

    def _fold(self, head, terms: np.ndarray) -> np.ndarray:
        """Per resource ``((head - t1) - t2) - ...`` over its entries'
        ``terms`` in flow order; ``terms`` (one per slot) is overwritten."""
        terms[self._heads] = head
        return np.subtract.reduceat(terms, self._heads)

    def rounds(self, ceilings: Sequence[float],
               capacities: Sequence[float]) -> list[float]:
        """:func:`fill`'s rounds; ``capacities`` align with :attr:`keys`."""
        n, flow, w, heads = self._flows, self._flow, self._w, self._heads
        ceil = np.array(ceilings, dtype=float)
        limit = ceil - _EPS
        alloc = np.zeros(n)
        residual = np.array(capacities, dtype=float)
        active = flow < n                             # per slot
        load = self._fold(0.0, -w)
        count = np.add.reduceat(active, heads, dtype=np.intp)
        live = np.arange(n)                           # the active flows
        while live.size:
            room = np.full(len(load), np.inf)
            np.divide(residual, load, out=room, where=count > 0)
            delta = min((ceil[live] - alloc[live]).min(), room.min())
            if delta > _EPS:
                alloc[live] += delta
                residual = self._fold(residual,
                                      np.where(active, w * delta, 0.0))
                residual[residual < 0] = 0.0          # numerical guard
            blocked = np.zeros(n + 1, dtype=bool)     # on a full resource
            blocked[flow[(residual <= _EPS)[self._res]]] = True
            frozen = blocked[live] | ~(alloc[live] < limit[live])
            if not frozen.any():
                break  # no progress possible without a freeze: stop
            retired = np.zeros(n + 1, dtype=bool)
            retired[live[frozen]] = True
            gone = retired[flow]                      # their demand, per slot
            load = self._fold(load, np.where(gone, w, 0.0))
            count -= np.add.reduceat(gone, heads, dtype=np.intp)
            active &= ~gone
            live = live[~frozen]
        return alloc.tolist()


def component(seed, visited: set, members_of: Callable) -> list:
    """The flows reachable from ``seed`` over shared resources (discovery
    order), grown breadth-first; ``members_of(key)`` iterates the flows on
    a resource (keys are hashable) and every flow carries a ``footprint``.
    Marks them in ``visited``.

    Each resource's members are read once per walk: after that first scan
    they are all in ``visited``, so a later flow crossing the same
    resource has nothing to add."""
    visited.add(seed)
    comp = [seed]
    scanned: set = set()
    for f in comp:                # ``comp`` is the queue: it grows here
        for key, _w in f.footprint:
            if key not in scanned:
                scanned.add(key)
                for o in members_of(key):
                    if o not in visited:
                        visited.add(o)
                        comp.append(o)
    return comp


def departure_seeds(gone: Sequence, members_of: Callable) -> list:
    """Every remaining flow sharing a resource with a flow in ``gone``.
    Breadth-first closure from these covers the leavers' whole former
    component(s) — any flow whose allocation can change — and nothing
    else."""
    seen = set(gone)
    seeds = []
    for f in gone:
        for key, _w in f.footprint:
            for o in members_of(key):
                if o not in seen:
                    seen.add(o)
                    seeds.append(o)
    return seeds


class FluidNetwork:
    """Manages active flows, rate recomputation, and completion events."""

    def __init__(self, sim: Simulator, metrics=None,
                 incremental: bool = True) -> None:
        self.sim = sim
        self.flows: _OrderedSet = _OrderedSet()
        #: re-solve only dirty contention components (False: re-fill every
        #: component each epoch — same schedules, more work; kept for the
        #: full≡incremental identity matrix and as a debugging fallback).
        self.incremental = incremental
        self._wake_version = 0
        self._wake_ev: Optional[Event] = None
        self._wake_at: float = float("inf")
        self._seq = itertools.count()
        #: optional observers called as fn(t, flow, new_rate) on rate changes
        #: (used by the pipeline analyses behind Figures 5 and 8).
        self.rate_observers: list[Callable[[float, Flow, float], None]] = []
        # -- work accounting (always on; plain ints are ~free) --------------
        #: rate-recomputation epochs (arrivals + wake-ups with live flows).
        self.recompute_epochs = 0
        #: flows whose rates were actually re-solved, summed over epochs.
        self.recomputed_flows = 0
        #: live flows at each epoch, summed — ``recomputed_flows /
        #: live_flow_epochs`` is the mean fraction of the population each
        #: epoch had to touch.
        self.live_flow_epochs = 0
        if metrics is not None:
            self._m_recomputes = metrics.counter("fluid.recomputes")
            self._m_recompute_flows = metrics.counter("fluid.recompute_flows")
            self._m_epoch_live = metrics.counter("fluid.epoch_live_flows")
            self._m_component = metrics.histogram("fluid.component_size",
                                                  bounds=_COMPONENT_BOUNDS)
        else:
            self._m_recomputes = None
            self._m_recompute_flows = None
            self._m_epoch_live = None
            self._m_component = None

    # -- public API ---------------------------------------------------------
    def transfer(self, name: str, size: float,
                 path: Sequence[tuple[FluidResource, str]],
                 peak: float) -> Event:
        """Start a flow; returns an event that triggers (with the flow) when
        the last byte has moved."""
        flow = Flow(name, size, path, peak)
        flow.done = self.sim.event(name=f"flow:{name}")
        flow.started_at = self.sim.now
        flow._last_update = self.sim.now
        if flow.size <= _EPS:
            flow.finished_at = self.sim.now
            flow.done.succeed(flow)
            return flow.done
        self._advance()
        self._attach(flow)
        self._recompute([flow])
        return flow.done

    def utilization(self, resource: FluidResource) -> float:
        """Instantaneous total rate through ``resource``."""
        return sum(f.rate for f in resource.flows)

    # -- contention-graph bookkeeping -----------------------------------------
    def _attach(self, flow: Flow) -> None:
        flow._seq = next(self._seq)
        self.flows.add(flow)
        for res in dict.fromkeys(flow.resources()):
            res.flows.add(flow)
            if flow.kind_on(res) == DMA:
                res.dma_flows += 1

    def _detach(self, flow: Flow) -> None:
        self.flows.discard(flow)
        for res in dict.fromkeys(flow.resources()):
            res.flows.discard(flow)
            if flow.kind_on(res) == DMA:
                res.dma_flows -= 1

    def _effective_cap(self, flow: Flow) -> float:
        """Flow's standalone cap with PIO-under-DMA applied, from the
        maintained per-resource DMA membership counts (O(path))."""
        cap = flow.peak
        for res, kind in flow.path:
            if kind == PIO:
                others = res.dma_flows
                if flow.kind_on(res) == DMA:
                    others -= 1
                if others > 0:
                    cap = min(cap, flow.peak / res.preempt_slowdown)
        return cap

    # -- bookkeeping ----------------------------------------------------------
    def _advance(self) -> None:
        """Account progress made at current rates since the last update."""
        now = self.sim.now
        for flow in self.flows:
            dt = now - flow._last_update
            if dt > 0:
                flow.remaining = max(0.0, flow.remaining - flow.rate * dt)
            flow._last_update = now

    def _finish(self, flow: Flow) -> None:
        self._detach(flow)
        flow.rate = 0.0
        flow.remaining = 0.0
        flow.finished_at = self.sim.now
        for obs in self.rate_observers:
            obs(self.sim.now, flow, 0.0)
        flow.done.succeed(flow)

    def _recompute(self, seeds: Iterable[Flow]) -> None:
        """Re-solve the contention component(s) reachable from ``seeds``
        (every component when ``incremental`` is off) and re-arm the
        wake-up.  Components not reached keep their rates untouched."""
        if not self.incremental:
            seeds = self.flows
        visited: set = set()
        touched = 0
        for seed in seeds:
            if seed in visited or seed not in self.flows:
                continue
            comp = component(seed, visited, _members)
            comp.sort(key=_arrival)
            touched += len(comp)
            if self._m_component is not None:
                self._m_component.observe(float(len(comp)))
            rates = fill([self._effective_cap(f) for f in comp],
                         [f.footprint for f in comp], _capacity)
            for flow, rate in zip(comp, rates):
                changed = abs(rate - flow.rate) > _EPS
                flow.rate = rate
                if changed:
                    for obs in self.rate_observers:
                        obs(self.sim.now, flow, rate)
        self.recompute_epochs += 1
        self.recomputed_flows += touched
        self.live_flow_epochs += len(self.flows)
        if self._m_recomputes is not None:
            self._m_recomputes.inc()
            self._m_recompute_flows.inc(touched)
            self._m_epoch_live.inc(len(self.flows))
        self._schedule_wakeup()

    def _schedule_wakeup(self) -> None:
        """Arm a timeout for the earliest flow completion (if any).

        Recomputations happen far more often than wake-ups fire, so a naive
        new-timeout-per-recompute leaves a trail of dead events on the heap
        (every one popped and dispatched as a no-op).  Instead: if the
        pending wake-up already fires at exactly the recomputed instant it
        is kept; otherwise it is lazily cancelled (discarded off the heap
        without dispatch) and a pooled replacement is armed.  Firing times
        are identical to the naive scheme in both cases, so the event
        schedule observed by flows does not change.
        """
        horizon = float("inf")
        for flow in self.flows:
            if flow.rate > _EPS:
                horizon = min(horizon, flow.remaining / flow.rate)
        pending = self._wake_ev is not None and not self._wake_ev.processed
        if horizon == float("inf"):
            self._wake_version += 1
            if pending:
                self._wake_ev.cancel()
            self._wake_ev = None
            return
        wake_at = self.sim.now + max(0.0, horizon)
        if pending and wake_at == self._wake_at:
            return  # the armed wake-up is already exact — reuse it
        self._wake_version += 1
        version = self._wake_version
        if pending:
            self._wake_ev.cancel()
        ev = self.sim.timeout(max(0.0, horizon), name="fluid.wake",
                              pooled=True)
        ev.add_callback(lambda _ev: self._on_wake(version))
        self._wake_ev = ev
        self._wake_at = wake_at

    def _on_wake(self, version: int) -> None:
        if version != self._wake_version:
            return  # superseded by a more recent recomputation
        self._wake_ev = None
        self._advance()
        finished = [f for f in self.flows if f.remaining <= 1e-6 * max(1.0, f.size)]
        if not (self.flows or finished):
            return
        seeds = departure_seeds(finished, _members)
        for flow in finished:
            self._finish(flow)
        self._recompute(seeds)

    # -- the rate solver ------------------------------------------------------
    @staticmethod
    def solve_rates(flows: Iterable[Flow]) -> dict[Flow, float]:
        """Max-min progressive filling with PIO-under-DMA contention caps.

        Pure function of the flow set (membership is derived from the given
        flows alone, not from live network state); exercised directly by
        the property-based tests.  Filling runs per contention component —
        components are independent, so this changes no allocation, only
        the work done.
        """
        flows = list(flows)
        if not flows:
            return {}
        members: dict[FluidResource, list[Flow]] = {}
        for f in flows:
            for res in f.resources():
                members.setdefault(res, []).append(f)
        # Effective per-flow cap: standalone peak, divided by the resource
        # slowdown when this flow is PIO on a resource that also carries DMA.
        caps: dict[Flow, float] = {}
        for f in flows:
            cap = f.peak
            for res, kind in f.path:
                if kind == PIO and any(
                        o is not f and o.kind_on(res) == DMA
                        for o in members[res]):
                    cap = min(cap, f.peak / res.preempt_slowdown)
            caps[f] = cap
        # Fill each contention component (flows sharing no resource,
        # directly or transitively, never interact) in the given order.
        position = {f: i for i, f in enumerate(flows)}
        alloc: dict[Flow, float] = {}
        visited: set = set()
        for f in flows:
            if f in visited:
                continue
            group = component(f, visited, members.__getitem__)
            group.sort(key=position.__getitem__)
            alloc.update(zip(group, fill([caps[g] for g in group],
                                         [g.footprint for g in group],
                                         _capacity)))
        return alloc
