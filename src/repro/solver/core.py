"""The fluid fixed-point solver: per-flow rates and FCTs without the DES.

The paper already argues (§3.3.1) that the gateway pipeline's steady period
predicts forwarding bandwidth analytically; this module generalizes that
argument from one flow on one gateway to a whole scenario.  Each flow is a
*fluid* — a rate, not a fragment schedule — whose per-route ceiling comes
from the same ``_rail_period``/``fragment_time`` kernel the closed-form
predictions use, and whose share of every contended resource (end-host PCI
buses, gateway buses, NICs, wire segments) is settled by **max-min fair
allocation**: progressive filling raises all rates together, freezing a
flow when it hits its pipeline ceiling or when one of its resources
saturates, until every flow is frozen — the fixed point.

Flow completion times come from an event loop over the fluid system: the
allocation is recomputed at every flow arrival and completion (the only
instants it can change), rates are integrated in between, and each
application flow finishes when its last rail drains.  The flows are the
list :func:`~repro.traffic.flows.scenario_flows` expands the scenario
into, the very list the DES traffic engine drives.  A scenario with one
flow on the 3-node testbed collapses to exactly
:func:`~repro.analysis.model.predict_forwarding`; a single striped flow on
the multirail topology collapses to
:func:`~repro.analysis.model.predict_multirail`.
"""

from __future__ import annotations

import heapq
import math
import operator
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..scenario import Scenario
from ..sim.errors import SimError
from ..sim.fluid import (ARRAY_ENTRIES, Layout, component, departure_seeds,
                         fill)
from ..traffic.flows import scenario_flows
from .network import RoutedFlow, SolverNetwork

__all__ = ["FlowEstimate", "FlowStarved", "SolverResult", "max_min_rates",
           "solve", "solve_bandwidth"]

_REL_EPS = 1e-9
_arrival = operator.attrgetter("seq")      # sort key: rails in arrival order
#: the finish heap is rebuilt from its live entries (one per active rail)
#: once it holds more than this many times ``len(active)``: amortised O(1)
#: per push, and memory stays O(active) on a dense fabric, where every
#: epoch supersedes one prediction per rail of the giant component.
_HEAP_SLACK = 4


class FlowStarved(SimError):
    """The fill left a rail flow with rate 0: some resource on its route
    has no capacity to share, so the flow would never finish."""

    def __init__(self, rail_id: tuple) -> None:
        super().__init__(f"fluid flow {rail_id} starved (rate 0); resource "
                         f"capacities leave it no share")
        #: ``(application flow index, rail index)``
        self.rail_id = rail_id


def max_min_rates(flows: Sequence[RoutedFlow],
                  capacities: dict) -> dict:
    """Max-min fair rates (bytes/µs) for ``flows`` over ``capacities``.

    Progressive filling: every unfrozen flow's rate rises at the same pace;
    a flow freezes when it reaches its own ``ceiling`` (the §3.3.1 pipeline
    limit of its route) or when any resource in its footprint saturates.
    Each round freezes at least one flow, so the fixed point lands in at
    most ``len(flows)`` rounds.  A flow's ``footprint`` weights count how
    many times it crosses a resource (a gateway's PCI bus carries each
    forwarded byte twice), so ``rate × weight`` is what a flow consumes.
    """
    rate = {f.id: 0.0 for f in flows}
    used = {key: 0.0 for key in capacities}
    active = list(flows)
    while active:
        load: dict = {}
        for f in active:
            for key, w in f.footprint:
                load[key] = load.get(key, 0.0) + w
        inc = min(f.ceiling - rate[f.id] for f in active)
        for key, demand in load.items():
            inc = min(inc, (capacities[key] - used[key]) / demand)
        inc = max(inc, 0.0)
        for f in active:
            rate[f.id] += inc
            for key, w in f.footprint:
                used[key] += w * inc
        saturated = {
            key for key in load
            if capacities[key] - used[key] <= _REL_EPS * max(1.0,
                                                             capacities[key])
        }
        rest = [f for f in active
                if rate[f.id] < f.ceiling - _REL_EPS * max(1.0, f.ceiling)
                and not any(key in saturated for key, _w in f.footprint)]
        if len(rest) == len(active):   # numerical stall: nothing froze
            break                      # pragma: no cover
        active = rest
    return rate


@dataclass(frozen=True)
class FlowEstimate:
    """Solver estimate for one application flow (all its rails together)."""

    index: int
    src: str
    dst: str
    nbytes: int
    arrival: float        # open-loop arrival, µs
    setup_us: float       # route-aware pre-streaming setup (slowest rail)
    finish_us: float      # last rail drained
    rails: int

    @property
    def fct_us(self) -> float:
        """Flow completion time, µs."""
        return self.finish_us - self.arrival

    @property
    def bandwidth(self) -> float:
        """Delivered MB/s (== bytes/µs) over the flow's lifetime."""
        return self.nbytes / self.fct_us


@dataclass
class SolverResult:
    """Per-flow estimates plus per-resource utilization for one scenario."""

    scenario: Scenario
    flows: list[FlowEstimate]
    #: resource key -> mean utilization over the run (allocated ÷ capacity).
    utilization: dict
    duration_us: float
    #: fixed-point recomputations (one per arrival/completion epoch).
    recomputes: int
    #: rail flows actually re-solved, summed over epochs (the work done);
    #: with ``incremental=False`` this equals ``live_flow_epochs``.
    epoch_flows: int = 0
    #: live rail flows at each epoch, summed — ``epoch_flows /
    #: live_flow_epochs`` is the mean fraction of the population each
    #: epoch had to touch.
    live_flow_epochs: int = 0
    #: contention-component size -> number of times a component of that
    #: size was re-solved.
    component_sizes: dict = field(default_factory=dict)
    #: with ``crosscheck=True``: the largest relative deviation of any
    #: epoch's live rates from a from-scratch :func:`max_min_rates` oracle.
    crosscheck_max_dev: float = 0.0

    def link_utilization(self) -> dict[str, float]:
        """Wire-segment utilization only, keyed by channel id."""
        return {key[1]: u for key, u in self.utilization.items()
                if key[0] == "link"}

    def summary(self) -> dict:
        """Flow-level statistics in the traffic engine's summary shape, so
        sweep tables and regress comparisons can consume either engine."""
        fcts = np.array([f.fct_us for f in self.flows])
        total_bytes = sum(f.nbytes for f in self.flows)
        peak = 0
        live = 0
        marks = sorted([(f.arrival, 1) for f in self.flows]
                       + [(f.finish_us, -1) for f in self.flows],
                       key=lambda m: (m[0], -m[1]))
        for _t, d in marks:
            live += d
            peak = max(peak, live)
        mb = total_bytes / 1e6
        return {
            "mode": "solver",
            "flows": len(self.flows),
            "completed": len(self.flows),
            "peak_active": peak,
            "p50_fct_us": float(np.percentile(fcts, 50)),
            "p99_fct_us": float(np.percentile(fcts, 99)),
            "mean_fct_us": float(fcts.mean()),
            "max_fct_us": float(fcts.max()),
            "duration_us": self.duration_us,
            "bytes": total_bytes,
            "goodput_mbs": (total_bytes / self.duration_us
                            if self.duration_us else 0.0),
            "events": self.recomputes,
            "events_per_mb": (self.recomputes / mb) if mb else float("nan"),
            "epoch_flows": self.epoch_flows,
            "live_flow_epochs": self.live_flow_epochs,
            "recompute_fraction": (self.epoch_flows / self.live_flow_epochs
                                   if self.live_flow_epochs else 0.0),
        }


class _Rail:
    """Mutable epoch-loop state of one active rail flow.

    ``rem`` is the bytes left at ``t_last``; the pair is only *settled*
    (advanced to the current instant) when the rail's rate actually
    changes, so a rail in an untouched contention component carries its
    state — and its predicted finish — across epochs verbatim.
    """

    __slots__ = ("rf", "footprint", "rem", "t_last", "rate", "version",
                 "seq", "_packed")

    def __init__(self, rf: RoutedFlow, seq: int) -> None:
        self.rf = rf
        #: (resource id, weight) pairs — footprint with interned keys.
        self.footprint = tuple(zip(rf.res_ids,
                                   (w for _k, w in rf.footprint)))
        self.rem = float(rf.nbytes)
        self.t_last = rf.arrival + rf.setup_us
        self.rate = 0.0
        self.version = 0
        self.seq = seq
        self._packed = None

    def pack(self) -> tuple:
        """``footprint`` as (resource ids, weights) arrays, built the first
        time this rail sits in a component large enough for the fill's
        array rounds and kept for every later epoch."""
        if self._packed is None:
            self._packed = (np.array(self.rf.res_ids, dtype=np.intp),
                            np.array([w for _i, w in self.footprint],
                                     dtype=float))
        return self._packed


def solve(scenario: Scenario, node_params=None, gateway_params=None,
          incremental: bool = True,
          crosscheck: bool = False) -> SolverResult:
    """Solve ``scenario`` analytically: route every flow with the DES's own
    route table, allocate max-min fair rates at every arrival/completion
    epoch, and integrate the fluid rates into per-flow finish times and
    per-resource utilization.

    Rates only change inside the contention component(s) an epoch's
    arrivals/completions touch, so by default (``incremental=True``) only
    those components are re-filled; rails elsewhere keep their rates and
    predicted finish times verbatim.  ``incremental=False`` re-fills every
    component each epoch — identical results, more work (a rail whose
    re-filled rate is unchanged is left unsettled either way, which is what
    makes the two modes *bit*-identical, not merely close).
    ``crosscheck=True`` additionally re-solves every epoch from scratch
    with :func:`max_min_rates` and records the largest relative rate
    deviation in :attr:`SolverResult.crosscheck_max_dev`.
    """
    net = SolverNetwork(scenario, node_params=node_params,
                        gateway_params=gateway_params)
    res_keys = net.res_keys()
    caps = {key: net.resources[key].capacity for key in res_keys}
    capacities = [caps[key] for key in res_keys]      # dense, by resource id
    capacity_array = np.array(capacities)
    rails: list[RoutedFlow] = []
    meta = []           # (flow, setup, k), in flow-index order
    for f in scenario_flows(scenario):
        expanded = net.routed_flows(f.index, f.src, f.dst, f.nbytes,
                                    arrival=f.arrival)
        rails.extend(expanded)
        meta.append((f, max(r.setup_us for r in expanded), len(expanded)))

    # Streaming starts once the route's setup (announce, stripe record,
    # switch overheads, pipeline fill) has played out.  Arrivals are
    # sorted once and consumed through an index cursor — the historical
    # ``pending.pop(0)`` re-shuffled the whole list on every admission.
    arrivals = sorted(rails, key=lambda r: (r.arrival + r.setup_us, r.id))
    cursor = 0
    active: dict = {}                     # rail id -> _Rail
    members: list[dict] = [{} for _ in res_keys]   # res id -> {_Rail: None}
    finish: dict = {}                     # rail id -> finish time
    util = [0.0] * len(res_keys)          # integral of allocated load, bytes
    res_rate = [0.0] * len(res_keys)      # current total weighted rate
    res_last = [0.0] * len(res_keys)      # last settle time
    heap: list = []                       # (t_pred, seq, rail id, version)
    now = 0.0
    seq = 0
    recomputes = 0
    epoch_flows = 0
    live_flow_epochs = 0
    component_sizes: dict = {}
    crosscheck_dev = 0.0

    def settle_resource(i: int, t: float) -> None:
        dt = t - res_last[i]
        if dt > 0.0:
            util[i] += res_rate[i] * dt
        res_last[i] = t

    def next_finish() -> float:
        """Earliest predicted rail finish (lazy-dropping stale entries)."""
        while heap:
            t_pred, _s, rid, version = heap[0]
            rail = active.get(rid)
            if rail is None or rail.version != version:
                heapq.heappop(heap)
                continue
            return t_pred
        return math.inf

    def resolve(seeds: list) -> None:
        """Re-fill the contention component(s) reachable from ``seeds``."""
        nonlocal recomputes, epoch_flows, live_flow_epochs, crosscheck_dev
        if not incremental:
            seeds = list(active.values())
        visited: set = set()
        touched = 0
        for seed in seeds:
            if seed in visited:
                continue
            comp = component(seed, visited, members.__getitem__)
            comp.sort(key=_arrival)
            touched += len(comp)
            component_sizes[len(comp)] = component_sizes.get(len(comp), 0) + 1
            ceilings = [rail.rf.ceiling for rail in comp]
            if sum([len(rail.footprint) for rail in comp]) < ARRAY_ENTRIES:
                comp_res = {i for rail in comp for i, _w in rail.footprint}
                rates = fill(ceilings, [rail.footprint for rail in comp],
                             capacities.__getitem__)
            else:
                # the same fill on arrays; ids are integers already, so
                # each rail's columns are packed once, not per call
                ids, weights = zip(*[rail.pack() for rail in comp])
                layout = Layout(np.concatenate(ids), np.concatenate(weights),
                                [len(i) for i in ids])
                comp_res = layout.keys.tolist()
                rates = layout.rounds(ceilings, capacity_array[layout.keys])
            for i in comp_res:
                settle_resource(i, now)
            for rail, r in zip(comp, rates):
                if r <= 0.0:
                    raise FlowStarved(rail.rf.id)
                if r != rail.rate:
                    # settle progress at the old rate, then switch
                    dt = now - rail.t_last
                    if dt > 0.0:
                        rail.rem -= rail.rate * dt
                    rail.t_last = now
                    delta = r - rail.rate
                    for i, w in rail.footprint:
                        res_rate[i] += delta * w
                    rail.rate = r
                    rail.version += 1
                    heapq.heappush(heap, (now + rail.rem / r, rail.seq,
                                          rail.rf.id, rail.version))
        if len(heap) > _HEAP_SLACK * len(active):
            # entries are totally ordered (seq is unique per rail), so the
            # pop order of the live ones survives the rebuild
            heap[:] = [e for e in heap
                       if e[2] in active and active[e[2]].version == e[3]]
            heapq.heapify(heap)
        recomputes += 1
        epoch_flows += touched
        live_flow_epochs += len(active)
        if crosscheck and active:
            oracle = max_min_rates([rail.rf for rail in active.values()],
                                   caps)
            for rail in active.values():
                ref = oracle[rail.rf.id]
                dev = abs(rail.rate - ref) / max(1.0, abs(ref))
                crosscheck_dev = max(crosscheck_dev, dev)

    while cursor < len(arrivals) or active:
        if not active:
            nxt = arrivals[cursor]
            now = max(now, nxt.arrival + nxt.setup_us)
        else:
            horizon = next_finish()
            if cursor < len(arrivals):
                nxt = arrivals[cursor]
                horizon = min(horizon, nxt.arrival + nxt.setup_us)
            now = horizon
        # Completions: pop every rail whose residue at `now` is below the
        # sub-µbyte drain threshold (the heap is predicted-finish ordered,
        # so the qualifying prefix is contiguous up to the 1e-6 slack).
        done = []
        while heap:
            t_pred, _s, rid, version = heap[0]
            rail = active.get(rid)
            if rail is None or rail.version != version:
                heapq.heappop(heap)
                continue
            if t_pred <= now + 1e-6 / rail.rate:   # rem(now) <= 1e-6 bytes
                heapq.heappop(heap)
                done.append(rail)
            else:
                break
        seeds = departure_seeds(done, members.__getitem__)
        seeds.sort(key=_arrival)
        for rail in done:
            finish[rail.rf.id] = now
            del active[rail.rf.id]
            for i, w in rail.footprint:
                settle_resource(i, now)
                del members[i][rail]
                if members[i]:
                    res_rate[i] -= rail.rate * w
                else:
                    res_rate[i] = 0.0
        while cursor < len(arrivals) and \
                arrivals[cursor].arrival + arrivals[cursor].setup_us \
                <= now + _REL_EPS:
            rf = arrivals[cursor]
            cursor += 1
            if rf.nbytes <= 0:     # a rail the stripe split left empty
                finish[rf.id] = now
                continue
            rail = _Rail(rf, seq)
            seq += 1
            rail.t_last = now
            active[rf.id] = rail
            for i, _w in rail.footprint:
                members[i][rail] = None
            seeds.append(rail)
        resolve(seeds)

    duration = max(finish.values()) if finish else 0.0
    for i in range(len(res_keys)):
        settle_resource(i, duration)
    estimates = []
    for f, setup, k in meta:
        fin = max(finish[(f.index, r)] for r in range(k))
        estimates.append(FlowEstimate(index=f.index, src=f.src, dst=f.dst,
                                      nbytes=f.nbytes, arrival=f.arrival,
                                      setup_us=setup, finish_us=fin,
                                      rails=k))
    utilization = {key: (util[i] / (capacities[i] * duration)
                         if duration else 0.0)
                   for i, key in enumerate(res_keys)}
    return SolverResult(scenario=scenario, flows=estimates,
                        utilization=utilization, duration_us=duration,
                        recomputes=recomputes, epoch_flows=epoch_flows,
                        live_flow_epochs=live_flow_epochs,
                        component_sizes=component_sizes,
                        crosscheck_max_dev=crosscheck_dev)


def solve_bandwidth(scenario: Scenario, node_params=None,
                    gateway_params=None) -> float:
    """Single-message convenience: the solved bandwidth (MB/s) of a
    scenario's one transfer — the solver-side analogue of
    :meth:`PingHarness.measure(...).bandwidth`."""
    result = solve(scenario, node_params=node_params,
                   gateway_params=gateway_params)
    if len(result.flows) != 1:
        raise ValueError(f"expected a single-transfer scenario, got "
                         f"{len(result.flows)} flows")
    return result.flows[0].bandwidth
