"""Unit and property tests for the fluid-flow rate solver and scheduler."""

import math
import pathlib
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.solver.core as solver_core
from repro.scenario import load_scenario
from repro.sim import DMA, PIO, FluidNetwork, FluidResource, Simulator
from repro.sim.fluid import (ARRAY_ENTRIES, Flow, Layout, _rounds_array,
                             _rounds_scalar, component, fill)
from repro.solver import RoutedFlow, max_min_rates, solve


def make(sim=None):
    sim = sim or Simulator()
    return sim, FluidNetwork(sim)


# -- basic timing --------------------------------------------------------------

def test_single_flow_exact_completion_time():
    sim, net = make()
    r = FluidResource("r", 100.0)
    done = net.transfer("f", 1000.0, [(r, DMA)], peak=50.0)
    sim.run(until=done)
    assert sim.now == pytest.approx(20.0)   # 1000 / min(50, 100)


def test_zero_size_flow_completes_immediately():
    sim, net = make()
    r = FluidResource("r", 100.0)
    done = net.transfer("f", 0, [(r, DMA)], peak=50.0)
    assert done.triggered


def test_two_equal_flows_share_capacity():
    sim, net = make()
    r = FluidResource("r", 100.0)
    times = {}

    def proc(name):
        yield net.transfer(name, 500.0, [(r, DMA)], peak=100.0)
        times[name] = sim.now

    sim.process(proc("a"))
    sim.process(proc("b"))
    sim.run()
    assert times["a"] == pytest.approx(10.0)  # 50 each
    assert times["b"] == pytest.approx(10.0)


def test_peak_caps_rate_below_capacity():
    sim, net = make()
    r = FluidResource("r", 100.0)
    done = net.transfer("f", 300.0, [(r, DMA)], peak=30.0)
    sim.run(until=done)
    assert sim.now == pytest.approx(10.0)


def test_flow_departure_speeds_up_remaining():
    sim, net = make()
    r = FluidResource("r", 100.0)
    times = {}

    def proc(name, size):
        yield net.transfer(name, size, [(r, DMA)], peak=100.0)
        times[name] = sim.now

    sim.process(proc("short", 100.0))   # 50 B/µs until t=2
    sim.process(proc("long", 500.0))    # 100 at t=2, then 100 B/µs
    sim.run()
    assert times["short"] == pytest.approx(2.0)
    assert times["long"] == pytest.approx(6.0)   # 100@2 + 400/100


def test_late_arrival_slows_existing_flow():
    sim, net = make()
    r = FluidResource("r", 100.0)
    times = {}

    def first():
        yield net.transfer("first", 1000.0, [(r, DMA)], peak=100.0)
        times["first"] = sim.now

    def second():
        yield sim.timeout(5)
        yield net.transfer("second", 250.0, [(r, DMA)], peak=100.0)
        times["second"] = sim.now

    sim.process(first())
    sim.process(second())
    sim.run()
    # first: 500B by t=5, then 50 B/µs alongside second (250B -> t=10),
    # then 250B alone at 100 -> t=12.5
    assert times["second"] == pytest.approx(10.0)
    assert times["first"] == pytest.approx(12.5)


def test_multi_hop_flow_limited_by_tightest_resource():
    sim, net = make()
    wide = FluidResource("wide", 1000.0)
    narrow = FluidResource("narrow", 10.0)
    done = net.transfer("f", 100.0, [(wide, DMA), (narrow, DMA)], peak=500.0)
    sim.run(until=done)
    assert sim.now == pytest.approx(10.0)


# -- PIO-under-DMA preemption (§3.4.1) ----------------------------------------

def test_pio_slowed_while_dma_active():
    sim, net = make()
    pci = FluidResource("pci", 200.0, preempt_slowdown=2.0)
    times = {}

    def dma():
        yield net.transfer("dma", 660.0, [(pci, DMA)], peak=66.0)
        times["dma"] = sim.now

    def pio():
        yield net.transfer("pio", 660.0, [(pci, PIO)], peak=66.0)
        times["pio"] = sim.now

    sim.process(dma())
    sim.process(pio())
    sim.run()
    # DMA unaffected (10µs); PIO at 33 while DMA active (330B), then 66.
    assert times["dma"] == pytest.approx(10.0)
    assert times["pio"] == pytest.approx(15.0)


def test_pio_alone_runs_at_peak():
    sim, net = make()
    pci = FluidResource("pci", 200.0, preempt_slowdown=2.0)
    done = net.transfer("pio", 660.0, [(pci, PIO)], peak=66.0)
    sim.run(until=done)
    assert sim.now == pytest.approx(10.0)


def test_two_pios_share_without_slowdown():
    sim, net = make()
    pci = FluidResource("pci", 66.0, preempt_slowdown=2.0)
    times = {}

    def pio(name):
        yield net.transfer(name, 330.0, [(pci, PIO)], peak=66.0)
        times[name] = sim.now

    sim.process(pio("a"))
    sim.process(pio("b"))
    sim.run()
    assert times["a"] == pytest.approx(10.0)   # 33 each, no preemption


def test_preemption_only_on_shared_resource():
    sim, net = make()
    pci1 = FluidResource("pci1", 200.0, preempt_slowdown=2.0)
    pci2 = FluidResource("pci2", 200.0, preempt_slowdown=2.0)
    times = {}

    def dma():
        yield net.transfer("dma", 660.0, [(pci1, DMA)], peak=66.0)
        times["dma"] = sim.now

    def pio():
        yield net.transfer("pio", 660.0, [(pci2, PIO)], peak=66.0)
        times["pio"] = sim.now

    sim.process(dma())
    sim.process(pio())
    sim.run()
    assert times["pio"] == pytest.approx(10.0)   # different bus: unaffected


# -- validation -----------------------------------------------------------------

def test_resource_validation():
    with pytest.raises(ValueError):
        FluidResource("bad", 0)
    with pytest.raises(ValueError):
        FluidResource("bad", 10, preempt_slowdown=0.5)


def test_flow_validation():
    r = FluidResource("r", 10)
    with pytest.raises(ValueError):
        Flow("f", -1, [(r, DMA)], peak=1.0)
    with pytest.raises(ValueError):
        Flow("f", 1, [(r, DMA)], peak=0.0)
    with pytest.raises(ValueError):
        Flow("f", 1, [(r, "weird")], peak=1.0)


def test_utilization():
    sim, net = make()
    r = FluidResource("r", 100.0)
    net.transfer("a", 1000.0, [(r, DMA)], peak=30.0)
    net.transfer("b", 1000.0, [(r, DMA)], peak=30.0)
    assert net.utilization(r) == pytest.approx(60.0)


def test_rate_observers_called():
    sim, net = make()
    r = FluidResource("r", 100.0)
    events = []
    net.rate_observers.append(lambda t, f, rate: events.append((t, f.name, rate)))
    done = net.transfer("a", 100.0, [(r, DMA)], peak=50.0)
    sim.run(until=done)
    assert events[0] == (0.0, "a", 50.0)


# -- property-based: the solver itself -------------------------------------------

@st.composite
def flow_sets(draw):
    n_res = draw(st.integers(1, 4))
    resources = [
        FluidResource(f"r{i}", draw(st.floats(1.0, 500.0)),
                      preempt_slowdown=draw(st.floats(1.0, 4.0)))
        for i in range(n_res)
    ]
    n_flows = draw(st.integers(1, 8))
    flows = []
    for j in range(n_flows):
        hops = draw(st.lists(
            st.tuples(st.integers(0, n_res - 1), st.sampled_from([DMA, PIO])),
            min_size=1, max_size=n_res, unique_by=lambda h: h[0]))
        path = [(resources[i], kind) for i, kind in hops]
        flow = Flow(f"f{j}", draw(st.floats(1.0, 1e6)), path,
                    peak=draw(st.floats(0.5, 200.0)))
        flows.append(flow)
    for f in flows:
        for res in f.resources():
            res.flows.add(f)
    return resources, flows


@given(flow_sets())
@settings(max_examples=200, deadline=None)
def test_solver_conservation_and_caps(data):
    """Invariants: no resource over capacity, no flow over its peak, every
    rate non-negative, and work conservation (every flow is either at its
    effective cap or crosses a saturated resource)."""
    resources, flows = data
    rates = FluidNetwork.solve_rates(flows)
    eps = 1e-6
    for res in resources:
        total = sum(rates[f] for f in flows if res in f.resources())
        assert total <= res.capacity * (1 + eps)
    for f in flows:
        assert -eps <= rates[f] <= f.peak * (1 + eps)
    # work conservation
    for f in flows:
        cap = f.peak
        for res, kind in f.path:
            if kind == PIO and any(o is not f and o.kind_on(res) == DMA
                                   for o in res.flows):
                cap = min(cap, f.peak / res.preempt_slowdown)
        at_cap = rates[f] >= cap - 1e-5 * max(1.0, cap)
        saturated = any(
            sum(rates[o] for o in flows if res in o.resources())
            >= res.capacity - 1e-5 * max(1.0, res.capacity)
            for res in f.resources())
        assert at_cap or saturated, (f, rates[f], cap)


@given(st.lists(st.floats(1.0, 1e5), min_size=1, max_size=6),
       st.floats(1.0, 300.0))
@settings(max_examples=100, deadline=None)
def test_equal_flows_get_equal_rates(sizes, capacity):
    res = FluidResource("r", capacity)
    flows = [Flow(f"f{i}", s, [(res, DMA)], peak=1e9) for i, s in enumerate(sizes)]
    for f in flows:
        res.flows.add(f)
    rates = FluidNetwork.solve_rates(flows)
    vals = list(rates.values())
    assert max(vals) - min(vals) < 1e-6 * max(1.0, max(vals))
    assert sum(vals) == pytest.approx(capacity)


# -- the one filling kernel, called directly -----------------------------------

@st.composite
def weighted_components(draw):
    """(ceilings, footprints, capacities): 1-12 flows with fractional
    weights, a resource allowed twice in one footprint, and ceilings from
    far below to far above any fair share."""
    n_res = draw(st.integers(1, 5))
    capacities = {f"r{i}": draw(st.floats(5.0, 500.0)) for i in range(n_res)}
    entry = st.tuples(st.sampled_from(sorted(capacities)),
                      st.sampled_from((0.25, 1.0 / 3.0, 0.5, 1, 1.5, 2)))
    n_flows = draw(st.integers(1, 12))
    footprints = [tuple(draw(st.lists(entry, min_size=1, max_size=4)))
                  for _ in range(n_flows)]
    ceilings = [draw(st.floats(1.0, 2000.0)) for _ in range(n_flows)]
    return ceilings, footprints, capacities


@given(weighted_components())
@settings(max_examples=300, deadline=None)
def test_fill_matches_oracle_and_is_max_min(data):
    """``fill`` against the independent brute-force oracle on the same
    data, plus the max-min certificate.  1e-6 relative, not the 1e-9 of
    the committed solver cells: a random input may sit on a freeze
    threshold, where the oracle's relative slack and the kernel's absolute
    one part by design."""
    ceilings, footprints, capacities = data
    rates = fill(ceilings, footprints, capacities.__getitem__)
    oracle = max_min_rates(
        [RoutedFlow(id=k, nbytes=1.0, arrival=0.0, ceiling=c, setup_us=0.0,
                    footprint=fp)
         for k, (c, fp) in enumerate(zip(ceilings, footprints))], capacities)
    for k, rate in enumerate(rates):
        assert rate == pytest.approx(oracle[k], rel=1e-6, abs=1e-6)
    used = dict.fromkeys(capacities, 0.0)
    for rate, fp in zip(rates, footprints):
        for key, w in fp:
            used[key] += w * rate
    for key, cap in capacities.items():
        assert used[key] <= cap * (1 + 1e-6)
    for rate, ceiling, fp in zip(rates, ceilings, footprints):
        assert rate >= ceiling * (1 - 1e-6) or any(
            used[key] >= capacities[key] * (1 - 1e-6) for key, _w in fp)


#: (what, ceilings, resources per flow, capacities, rates at PR 11).  The
#: rates were recorded from the parent commit's DES fill and are compared
#: with ``==``: the kernel's order of operations is a contract (see
#: ``fill``), and golden fig5 should not be the only test that knows it.
_FROZEN = [
    ("one flow", [47.3], [("bus", "link")], {"bus": 132.7, "link": 60.1},
     [47.3]),
    ("two flows, one bus", [80.0, 90.0], [("bus",), ("bus",)],
     {"bus": 100.1}, [50.05, 50.05]),
    ("PIO capped under DMA", [120.0, 85.0 / 2.1],
     [("bus", "myri"), ("bus", "sci")],
     {"bus": 132.0, "myri": 160.0, "sci": 85.0},
     [91.52380952380952, 40.476190476190474]),
    ("a path crossing one resource twice", [1000.0, 1000.0],
     [("bus", "link", "bus"), ("bus",)], {"bus": 100.1, "link": 70.3},
     [33.36666666666667, 33.36666666666667]),
    ("three flows, second round", [1000.0, 1000.0, 1000.0],
     [("r1",), ("r1", "r2"), ("r2",)], {"r1": 30.7, "r2": 100.3},
     [15.35, 15.35, 84.95]),
    ("stall: headroom under 1e-9 is not handed out", [10.0, 1000.0, 1000.0],
     [("r1",), ("r1",), ("r1",)], {"r1": 30.0 + 1.5e-9},
     [10.0, 10.0, 10.0]),
]


@pytest.mark.parametrize("case", _FROZEN, ids=lambda case: case[0])
def test_fill_frozen_vectors(case):
    _what, ceilings, paths, capacities, expected = case
    footprints = [tuple((key, 1) for key in path) for path in paths]
    assert fill(ceilings, footprints, capacities.__getitem__) == expected


# -- one contract, two executions ------------------------------------------------

@st.composite
def fills(draw):
    """(ceilings, footprints, capacities) for 1-200 flows.  Hypothesis
    draws the shape — mixed, every flow on one resource, or disjoint flows
    in one call; integer or real weights; how often a ceiling is 0, under
    1e-9 or infinite and a capacity under 1e-9 — and a seed; the seed fills
    in the up to 1,000 entries, which would be too many single draws."""
    n_flows = draw(st.integers(1, 200))
    shape = draw(st.sampled_from(("mixed", "one resource", "disjoint")))
    n_res = 1 if shape == "one resource" else draw(st.integers(1, 40))
    integer = draw(st.booleans())
    odd = draw(st.sampled_from((0.0, 0.1, 0.5)))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    capacities: dict = {}
    footprints = []
    for k in range(n_flows):
        keys = [rng.randrange(n_res) for _ in range(rng.randint(1, 5))]
        if rng.random() < 0.3:
            keys.append(keys[0])          # one resource crossed twice
        if shape == "disjoint":
            keys = [(k, key) for key in keys]
        for key in keys:
            capacities.setdefault(key, rng.uniform(0.0, 1e-9)
                                  if rng.random() < odd / 4
                                  else rng.uniform(0.5, 2000.0))
        footprints.append(tuple(
            (key, rng.randint(1, 4) if integer else rng.uniform(0.05, 4.0))
            for key in keys))
    ceilings = [rng.choice((0.0, rng.uniform(0.0, 1e-9), math.inf))
                if rng.random() < odd else rng.uniform(0.01, 500.0)
                for _ in range(n_flows)]
    return ceilings, footprints, capacities


@given(fills())
@settings(max_examples=300, deadline=None)
def test_array_rounds_equal_scalar_rounds(data):
    """Whatever the crossover is set to, which execution ran is not
    observable: the same floats, compared with ``==``."""
    ceilings, footprints, capacities = data
    rates = _rounds_scalar(ceilings, footprints, capacities.__getitem__)
    assert _rounds_array(ceilings, footprints,
                         capacities.__getitem__) == rates
    assert fill(ceilings, footprints, capacities.__getitem__) == rates


_DENSE = (pathlib.Path(__file__).resolve().parents[2]
          / "benchmarks/perf/scenarios/solver_dense.json")


def test_dense_fabric_fills_replay_equal(monkeypatch):
    """Every fill ``solver_dense`` makes at seed 1, re-run both ways: as
    the DES would meet it (keys interned per call) and as the solver does
    (integer ids packed per rail), against the scalar rounds."""
    recorded = []

    def recording_fill(ceilings, footprints, capacity_of):
        recorded.append((ceilings, footprints, capacity_of))
        return _rounds_scalar(ceilings, footprints, capacity_of)

    scenario = load_scenario(_DENSE)
    with monkeypatch.context() as m:
        m.setattr(solver_core, "ARRAY_ENTRIES", math.inf)   # all via fill
        m.setattr(solver_core, "fill", recording_fill)
        scalar = solve(scenario)
    assert len(recorded) == 318
    assert sum(sum(map(len, fps)) >= ARRAY_ENTRIES
               for _c, fps, _cap in recorded) > 250
    for ceilings, footprints, capacity_of in recorded:
        rates = _rounds_scalar(ceilings, footprints, capacity_of)
        assert _rounds_array(ceilings, footprints, capacity_of) == rates
        ids = np.array([i for fp in footprints for i, _w in fp])
        layout = Layout(ids, np.array([w for fp in footprints
                                       for _i, w in fp], dtype=float),
                        [len(fp) for fp in footprints])
        assert layout.keys.tolist() == sorted(set(ids.tolist()))
        assert layout.rounds(ceilings, [capacity_of(i)
                                        for i in layout.keys]) == rates
    mixed = solve(scenario)         # the crossover as committed
    assert mixed.flows == scalar.flows
    assert mixed.utilization == scalar.utilization
    assert mixed.duration_us == scalar.duration_us


# -- the contention walk -------------------------------------------------------

class _Walker:
    """What :func:`component` needs of a flow: identity and a footprint."""

    def __init__(self, name, keys):
        self.name = name
        self.footprint = tuple((key, 1) for key in keys)

    def __repr__(self):  # pragma: no cover
        return f"<{self.name}>"


def _incidence(flows):
    """resource key -> its flows, one entry per footprint entry (a flow
    crossing a resource twice is listed twice, as ``solve_rates`` does)."""
    members = {}
    for f in flows:
        for key, _w in f.footprint:
            members.setdefault(key, []).append(f)
    return members


def _level_walk(seed, visited, members_of):
    """The walk as it stood before it learned to skip scanned resources:
    level by level, every member list re-read for every flow crossing it.
    Kept as the reference :func:`component` must reproduce exactly."""
    visited.add(seed)
    comp = [seed]
    frontier = [seed]
    while frontier:
        nxt = []
        for f in frontier:
            for key, _w in f.footprint:
                for o in members_of(key):
                    if o not in visited:
                        visited.add(o)
                        comp.append(o)
                        nxt.append(o)
        frontier = nxt
    return comp


_STAR = [_Walker(f"s{i}", ("hub", f"leaf{i}", "hub")) for i in range(64)]
_CHAIN = [_Walker(f"c{i}", (i, i + 1)) for i in range(64)]


@pytest.mark.parametrize("flows", [_STAR, _CHAIN], ids=["star", "chain"])
def test_component_reads_each_resource_once(flows):
    members = _incidence(flows)
    asked = []

    def members_of(key):
        asked.append(key)
        return members[key]

    comp = component(flows[0], set(), members_of)
    assert sorted(asked, key=str) == sorted(members, key=str)  # once each
    assert comp == _level_walk(flows[0], set(), members.__getitem__)
    assert len(comp) == len(flows)


@st.composite
def incidences(draw):
    """(flows, seed index, pre-visited indices): 1-40 flows over up to 30
    resources, so one draw holds several components; footprints may repeat
    a resource."""
    n_res = draw(st.integers(1, 30))
    n_flows = draw(st.integers(1, 40))
    flows = [_Walker(f"f{i}", draw(st.lists(st.integers(0, n_res - 1),
                                            min_size=1, max_size=4)))
             for i in range(n_flows)]
    seed = draw(st.integers(0, n_flows - 1))
    before = draw(st.sets(st.integers(0, n_flows - 1))) - {seed}
    return flows, seed, before


@given(incidences())
@settings(max_examples=300, deadline=None)
def test_component_matches_level_by_level_walk(data):
    flows, seed, before = data
    members = _incidence(flows)
    before = {flows[i] for i in before}
    visited = set(before)
    comp = component(flows[seed], visited, members.__getitem__)
    assert comp == _level_walk(flows[seed], set(before),
                               members.__getitem__)
    assert len(set(comp)) == len(comp) and not before & set(comp)
    assert visited == before | set(comp)
