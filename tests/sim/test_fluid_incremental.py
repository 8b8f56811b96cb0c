"""The incremental fluid-rate engine: equivalence, locality, determinism.

Three properties carry the engine:

* **equivalence** — after any add/remove sequence, and at every epoch of a
  running network, every live flow's rate equals the from-scratch
  :meth:`FluidNetwork.solve_rates` fixed point of all live flows exactly
  (``==``, not approx: refilling a component is a pure function of its
  membership);
* **locality** — an arrival/completion re-solves only its own contention
  component, observable through the work counters;
* **determinism** — two runs of one randomized workload in one process
  produce the same event schedule.
"""

import pathlib
import random

import pytest
from hypothesis import given, settings, strategies as st

import repro.hw.topology as topology
import repro.sim.fluid as fluid
from repro.madeleine import Session
from repro.scenario import load_scenario
from repro.sim import DMA, PIO, FluidNetwork, FluidResource, Simulator
from repro.sim.fluid import Flow, _OrderedSet, component
from repro.telemetry import MetricsRegistry
from repro.traffic import TrafficEngine


def _remove(net: FluidNetwork, flow: Flow) -> None:
    """Remove a live flow the way ``_on_wake`` does: seed the recompute
    with the remaining members of its former component."""
    seeds = []
    seen = set()
    for res in flow.resources():
        for o in res.flows:
            if o is not flow and o not in seen:
                seen.add(o)
                seeds.append(o)
    net._detach(flow)
    flow.rate = 0.0
    net._recompute(seeds)


class _Oracled(FluidNetwork):
    """A network that holds every epoch to the from-scratch oracle: when
    an epoch closes, each live flow's rate must equal
    :meth:`FluidNetwork.solve_rates` of all live flows, exactly."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.checked = 0

    def _close_epoch(self, touched: int) -> None:
        oracle = FluidNetwork.solve_rates(self.flows)
        for f in self.flows:
            assert f.rate == oracle[f], (f.name, f.rate, oracle[f])
        self.checked += 1
        super()._close_epoch(touched)


# -- equivalence ---------------------------------------------------------------

@st.composite
def _op_sequences(draw):
    """(resources, flow specs, op sequence) — mixed DMA/PIO paths over a
    pool with both shared and disjoint resources."""
    n_res = draw(st.integers(2, 6))
    caps = [draw(st.floats(10.0, 500.0)) for _ in range(n_res)]
    slow = [draw(st.floats(1.0, 4.0)) for _ in range(n_res)]
    n_flows = draw(st.integers(1, 10))
    specs = []
    for i in range(n_flows):
        hops = draw(st.lists(
            st.tuples(st.integers(0, n_res - 1),
                      st.sampled_from((DMA, PIO))),
            min_size=1, max_size=3, unique_by=lambda h: h[0]))
        peak = draw(st.floats(5.0, 400.0))
        specs.append((hops, peak))
    ops = draw(st.lists(st.integers(0, n_flows - 1),
                        min_size=1, max_size=20))
    return caps, slow, specs, ops


@settings(max_examples=60, deadline=None)
@given(_op_sequences())
def test_incremental_matches_solve_rates(seqdata):
    caps, slow, specs, ops = seqdata
    sim = Simulator()
    net = FluidNetwork(sim)
    res = [FluidResource(f"r{i}", c, preempt_slowdown=s)
           for i, (c, s) in enumerate(zip(caps, slow))]
    live: dict[int, Flow] = {}
    for which in ops:
        if which in live:
            _remove(net, live.pop(which))
        else:
            hops, peak = specs[which]
            flow = Flow(f"f{which}", 1e9, [(res[i], kind)
                                           for i, kind in hops], peak)
            flow.done = sim.event()
            live[which] = flow
            net._attach(flow)
            net._recompute([flow])
        oracle = FluidNetwork.solve_rates(net.flows)
        for f in net.flows:
            assert f.rate == oracle[f]   # exact, not approx


# -- locality ------------------------------------------------------------------

def test_untouched_component_not_resolved():
    sim = Simulator()
    metrics = MetricsRegistry()
    net = FluidNetwork(sim, metrics=metrics)
    r1 = FluidResource("r1", 100.0)
    r2 = FluidResource("r2", 100.0)
    net.transfer("a1", 1e9, [(r1, DMA)], peak=80.0)
    net.transfer("a2", 1e9, [(r1, DMA)], peak=80.0)
    before = net.recomputed_flows          # 1 (a1 alone) + 2 (a1+a2)
    assert before == 3
    # b1 lives on a disjoint resource: its arrival must re-solve only
    # itself, not the {a1, a2} component.
    net.transfer("b1", 1e9, [(r2, DMA)], peak=80.0)
    assert net.recomputed_flows - before == 1
    assert len(net.flows) == 3
    assert net.live_flow_epochs == 1 + 2 + 3
    # telemetry mirrors the plain counters
    assert metrics.total("fluid.recompute_flows") == 4
    assert metrics.total("fluid.recomputes") == 3
    hist = metrics.histogram("fluid.component_size")
    assert hist.count == 3                 # components of size 1, 2, 1
    assert hist.total == 4
    # and the disjoint arrival left the a-component's rates untouched
    rates = {f.name: f.rate for f in net.flows}
    assert rates["a1"] == pytest.approx(50.0)
    assert rates["b1"] == pytest.approx(80.0)


def test_pio_cap_tracks_dma_membership():
    # dma_flows bookkeeping: the PIO cap must appear when a DMA flow joins
    # a shared resource and disappear when it leaves.
    sim = Simulator()
    net = FluidNetwork(sim)
    r = FluidResource("r", 1000.0, preempt_slowdown=2.0)
    net.transfer("pio", 1e9, [(r, PIO)], peak=100.0)
    pio = next(iter(net.flows))
    assert pio.rate == pytest.approx(100.0)
    net.transfer("dma", 1e9, [(r, DMA)], peak=100.0)
    assert pio.rate == pytest.approx(50.0)     # peak / preempt_slowdown
    dma = [f for f in net.flows if f.name == "dma"][0]
    _remove(net, dma)
    assert pio.rate == pytest.approx(100.0)    # cap lifted again
    assert r.dma_flows == 0


# -- determinism matrix --------------------------------------------------------

def _drive(network, seed: int):
    """A randomized many-flow workload on a ``network`` class; returns the
    completion trace and the network."""
    rng = random.Random(seed)
    sim = Simulator()
    net = network(sim)
    res = [FluidResource(f"r{i}", rng.uniform(50.0, 200.0),
                         preempt_slowdown=rng.uniform(1.0, 3.0))
           for i in range(6)]
    trace: list = []

    def proc(pid: int):
        yield sim.timeout(rng.uniform(0.0, 300.0))
        for step in range(rng.randrange(1, 4)):
            hops = rng.sample(range(len(res)), rng.randrange(1, 4))
            path = [(res[i], rng.choice((DMA, PIO))) for i in hops]
            size = rng.uniform(100.0, 20000.0)
            yield net.transfer(f"f{pid}.{step}", size, path,
                               peak=rng.uniform(10.0, 150.0))
            trace.append((pid, step, sim.now))
            if rng.random() < 0.5:
                yield sim.timeout(rng.uniform(0.0, 50.0))

    for pid in range(rng.randrange(8, 16)):
        sim.process(proc(pid), name=f"p{pid}")
    sim.run()
    return (trace, sim.now, sim.events_processed, sim.events_cancelled), net


@pytest.mark.parametrize("seed", range(4))
def test_full_incremental_heap_calendar_matrix(seed):
    # (the name keeps the axes it had while there were two modes and two
    # schedulers; the full re-solve is now the oracle of every epoch)
    schedule, net = _drive(_Oracled, seed)
    assert net.checked == net.recompute_epochs > 0
    assert schedule == _drive(FluidNetwork, seed)[0]


# -- the lone arrival -----------------------------------------------------------

_EAGER = (pathlib.Path(__file__).resolve().parents[2]
          / "benchmarks/perf/scenarios/send_modes.eager.json")


def _eager_cell(monkeypatch, network=FluidNetwork, lone_path=True):
    """The ``send_modes`` eager cell at seed 1; what the fluid layer did."""
    walks = []

    def counting_component(*args):
        walks.append(args[0])
        return component(*args)

    scenario = load_scenario(_EAGER)
    with monkeypatch.context() as m:
        m.setattr(topology, "FluidNetwork", network)
        m.setattr(fluid, "component", counting_component)
        if not lone_path:           # every arrival walks its component
            attach = FluidNetwork._attach
            m.setattr(FluidNetwork, "_attach",
                      lambda net, flow: attach(net, flow) and False)
        session = Session.from_scenario(scenario)
        engine = TrafficEngine(session, scenario)
        engine.start()
        session.run()
    fnet = session.world.fnet
    return {
        "finish": [(r.flow.index, r.completed_at) for r in engine.records],
        "recompute_epochs": fnet.recompute_epochs,
        "recomputed_flows": fnet.recomputed_flows,
        "live_flow_epochs": fnet.live_flow_epochs,
        "component_size": session.world.telemetry.histogram(
            "fluid.component_size").data(),
        "walks": len(walks),
        "checked": getattr(fnet, "checked", 0),     # epochs held to oracle
    }


def test_lone_arrivals_change_no_finish_time_and_no_counter(monkeypatch):
    lone = _eager_cell(monkeypatch)
    walked = _eager_cell(monkeypatch, lone_path=False)
    oracled = _eager_cell(monkeypatch, network=_Oracled)
    assert len(lone["finish"]) == 600
    # against the same network with every arrival walking its component:
    # the same epochs, the same flows re-solved, the same component sizes
    # observed — only the walks are gone
    assert lone.pop("walks") < walked.pop("walks")
    assert lone == walked
    # every epoch's rates equal a full re-solve of all live flows, and
    # checking them moves nothing
    assert oracled.pop("checked") == oracled["recompute_epochs"]
    oracled.pop("walks")
    lone.pop("checked")
    assert oracled == lone


# -- determinism hygiene -------------------------------------------------------

def test_ordered_set_keeps_insertion_order():
    members = _OrderedSet()
    for item in ("a", "b", "c", "d"):
        members.add(item)
    members.add("b")                    # already in: keeps its place
    assert list(members) == ["a", "b", "c", "d"]
    members.discard("b")
    members.discard("zz")               # not a member: nothing happens
    assert list(members) == ["a", "c", "d"]
    assert "b" not in members and len(members) == 3
    members.add("b")                    # back in, at the end
    assert list(members) == ["a", "c", "d", "b"]
    assert "b" in members and len(members) == 4
