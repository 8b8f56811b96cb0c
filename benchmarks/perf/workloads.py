"""The six workloads: inputs from a seed, one pass through the program's
public entry points, and the correctness checks on what the pass returned.

Nothing here reaches below the entry points ``repro bench --scenario`` and
``repro solve`` users go through (``load_scenario``,
``Session.from_scenario``, ``TrafficEngine``, ``Session.run``,
``PingHarness``/``figure_sweep``, ``repro.solver.solve``); program defaults
everywhere, telemetry as ``run_traffic`` leaves it.  README.md says why each
workload is here.
"""

from __future__ import annotations

import importlib.util
import math
import statistics
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from layers import PERF_DIR, REPO_ROOT

SCENARIO_DIR = PERF_DIR / "scenarios"


@dataclass
class Pass:
    """What one pass of a workload returned, read after the clock stopped."""

    #: ``(cell, span, cpu seconds, wall seconds)``: consecutive stopwatch
    #: laps that partition the pass.  The same inputs give the same laps in
    #: the same order, each doing the same work, so a lap can be compared
    #: across passes (``fastest_laps``).
    laps: list
    #: flows or messages offered / not delivered intact.
    attempted: int
    failed: int
    #: payload bytes delivered intact (or solved).
    payload_bytes: int
    #: simulated microseconds the pass covered.
    sim_us: float
    #: completion time of every delivered flow or message, simulated us.
    fcts: list
    #: simulated statistics that must repeat exactly for a fixed seed.
    sim: dict
    #: per-layer counts read from public attributes and the registry
    #: (keys starting with "_" only feed derived ratios).
    counts: dict = field(default_factory=dict)
    #: simulated per-cell splits (``mode.*.sim_p50_us``, ``paper.*``).
    cells: dict = field(default_factory=dict)
    #: failed correctness checks, one line each.
    problems: list = field(default_factory=list)

    @property
    def cpu_s(self) -> float:
        return sum(lap[CPU] for lap in self.laps)

    @property
    def wall_s(self) -> float:
        return sum(lap[WALL] for lap in self.laps)


#: index of a lap's two clocks.
CPU, WALL = 2, 3


class Stopwatch:
    """Consecutive laps of one pass, labelled ``(cell, span)``, on two
    clocks: the process CPU clock and the wall clock.

    The program is single-threaded and never blocks, so on an idle machine
    the two read the same (within 1% here).  On a shared host they do not:
    the wall clock also counts the time the hypervisor gave the core to
    another tenant.  With 10-35% steal the fastest-lap wall composite of
    ``torus_sparse`` spread 33% over ten runs and the CPU one 11%
    (``solver_dense``: 24% and 8%), so the gated metrics use the CPU clock
    and the wall clock is reported beside them."""

    def __init__(self, cell: str = "") -> None:
        self.cell = cell
        self.laps: list = []
        self._cpu = time.process_time()
        self._wall = time.perf_counter()

    def lap(self, span: str) -> None:
        cpu, wall = time.process_time(), time.perf_counter()
        self.laps.append((self.cell, span, cpu - self._cpu,
                          wall - self._wall))
        self._cpu, self._wall = cpu, wall


def fastest_laps(passes) -> list:
    """One pass's laps with each lap at its fastest over ``passes`` (each
    clock on its own).

    The host slows down in bursts (another tenant, 50 ms to several
    seconds, +10-50%), so a whole 2-3 s pass almost never runs undisturbed
    and the best of four passes still moves by 10% between runs.  A lap is
    short enough to be hit or missed by a burst, and the work in it is
    identical in every pass, so the sum of per-lap minima estimates the
    undisturbed pass and repeats to 3-5% between runs.
    """
    shapes = {tuple(lap[:2] for lap in p.laps) for p in passes}
    if len(shapes) != 1:
        raise ValueError("passes of one input took different laps")
    return [(cell, span, min(p.laps[i][CPU] for p in passes),
             min(p.laps[i][WALL] for p in passes))
            for i, (cell, span, _c, _w) in enumerate(passes[0].laps)]


def laps_by(laps, label: int, clock: int = CPU) -> dict:
    """Lap seconds summed by cell (``label`` 0) or span (``label`` 1)."""
    out: dict = {}
    for lap in laps:
        out[lap[label]] = out.get(lap[label], 0.0) + lap[clock]
    return out


# -- statistics ---------------------------------------------------------------
#: the highest percentile the smallest FCT sample (256 flows) supports with
#: at least ten samples beyond it.
TAIL_PERCENTILE = 95


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


def _fct_stats(prefix: str, fcts) -> dict:
    if not len(fcts):
        return {}
    return {f"{prefix}p50_us": percentile(fcts, 50),
            f"{prefix}p{TAIL_PERCENTILE}_us": percentile(fcts,
                                                         TAIL_PERCENTILE),
            f"{prefix}mean_us": float(np.mean(fcts))}


# -- DES traffic cells ---------------------------------------------------------
def _registry_counts(session, engine=None) -> dict:
    """Per-layer counts of one finished session (zeros where the registry
    was off, as the program leaves it for that entry point)."""
    m = session.metrics
    sim = session.sim
    fnet = session.world.fnet
    events = sim.events_processed
    cancelled = sim.events_cancelled
    component = m.series("fluid.component_size")
    counts = {
        "sim.engine.events": events,
        "sim.engine.events_cancelled": cancelled,
        "sim.fluid.epochs": fnet.recompute_epochs,
        "sim.fluid.recomputed_flows": fnet.recomputed_flows,
        "_sim.fluid.live_flow_epochs": fnet.live_flow_epochs,
        "_sim.fluid.components": sum(h.count for h in component),
        "_sim.fluid.component_flows": sum(h.total for h in component),
        "hw.fabric.wire_fragments": m.total("wire.fragments"),
        "hw.fabric.wire_bytes": m.total("wire.bytes"),
        "memory.pool_acquire_waits": m.total("pool.acquire_waits"),
        "memory.pool_hwm": max((g.hwm for g in m.series("pool.in_use")),
                               default=0),
        "madeleine.gateway.messages_forwarded":
            m.total("gateway.messages_forwarded"),
        "madeleine.gateway.items_forwarded":
            m.total("gateway.items_forwarded"),
        "madeleine.gateway.credit_stalls": m.total("gateway.credit_stalls"),
        "madeleine.gateway.occupancy_hwm":
            max((g.hwm for g in m.series("gateway.occupancy")), default=0),
        "madeleine.gateway.messages_abandoned":
            m.total("gateway.messages_abandoned"),
        "madeleine.vchannel.eager_sends": m.total("vchannel.eager_sends"),
        "madeleine.vchannel.stripes_sent": m.total("vchannel.stripes_sent"),
        "madeleine.vchannel.balance_moves": m.total("gateway.balance_moves"),
        "routing.recomputes": m.total("routing.recomputes"),
    }
    if engine is not None:
        counts["traffic.flows_started"] = m.total("traffic.flows_started")
        counts["traffic.flows_completed"] = m.total("traffic.flows_completed")
        counts["traffic.peak_active"] = engine.peak_active
    return counts


#: counts that are high-water marks: merged by max, everything else by sum.
_HWM_COUNTS = ("memory.pool_hwm", "madeleine.gateway.occupancy_hwm",
               "traffic.peak_active")


def merge_counts(total: dict, part: dict) -> None:
    for key, value in part.items():
        if key in _HWM_COUNTS:
            total[key] = max(total.get(key, 0), value)
        else:
            total[key] = total.get(key, 0) + value


#: laps a DES run is cut into once its simulated duration is known.
SLICES = 16


def traffic_cell(scenario, telemetry: bool = True, cell: str = "",
                 duration_us: Optional[float] = None) -> Pass:
    """One scenario through the path ``repro bench --scenario`` takes
    (``run_traffic`` spelled out so each public call gets a lap).  With
    ``duration_us`` (the simulated length of an earlier pass of the same
    scenario) ``Session.run`` is called ``SLICES`` times over equal parts
    of it instead of once, so each part is a lap of its own; the events
    dispatched and their order do not change."""
    from repro.madeleine import Session, reset_global_ids
    from repro.traffic import TrafficEngine

    reset_global_ids()
    watch = Stopwatch(cell)
    session = Session.from_scenario(scenario, telemetry=telemetry)
    engine = TrafficEngine(session, scenario)
    watch.lap("build")
    engine.start()
    watch.lap("start")
    if duration_us:
        for k in range(1, SLICES):
            session.run(until=duration_us * k / SLICES)
            watch.lap("run")
    session.run()
    watch.lap("run")
    summary = engine.summary()
    watch.lap("summary")

    offered = sum(f.nbytes for f in engine.flows)
    delivered = sum(r.flow.nbytes for r in engine.records)
    fcts = [r.fct for r in engine.records]
    problems = []
    failed = len(engine.flows) - len(engine.records)
    if failed:
        problems.append(f"{failed} of {len(engine.flows)} flows never "
                        f"completed ({offered - delivered} bytes short)")
    if summary["completed"] != len(engine.records) or (
            summary["bytes"] != delivered):
        problems.append("engine.summary() disagrees with engine.records")
    sim = {"duration_us": session.now, "completed": len(engine.records),
           "bytes": delivered, "events": session.sim.events_processed,
           **_fct_stats("fct_", fcts)}
    return Pass(
        laps=watch.laps, attempted=len(engine.flows), failed=failed,
        payload_bytes=delivered, sim_us=session.now, fcts=fcts, sim=sim,
        counts=_registry_counts(session, engine), problems=problems)


def merge_passes(parts: dict) -> Pass:
    """Several cells run back to back as one pass (``{cell: Pass}``)."""
    counts: dict = {}
    sim: dict = {}
    problems: list = []
    for cell, p in parts.items():
        merge_counts(counts, p.counts)
        sim.update({f"{cell}.{key}": value for key, value in p.sim.items()})
        problems.extend(f"{cell}: {line}" for line in p.problems)
    return Pass(
        laps=[lap for p in parts.values() for lap in p.laps],
        attempted=sum(p.attempted for p in parts.values()),
        failed=sum(p.failed for p in parts.values()),
        payload_bytes=sum(p.payload_bytes for p in parts.values()),
        sim_us=sum(p.sim_us for p in parts.values()),
        fcts=[fct for p in parts.values() for fct in p.fcts],
        sim=sim, counts=counts, problems=problems)


def transfer_intact(scenario, src: str, dst: str, nbytes: int,
                    seed: int) -> tuple[bool, dict]:
    """One seeded random payload ``src`` -> ``dst`` over the scenario's
    stack through the public pack/unpack API, byte-compared on arrival.
    Returns ``(intact, registry counts)``."""
    from repro.madeleine import (RECV_CHEAPER, RECV_EXPRESS, SEND_CHEAPER,
                                 Session, reset_global_ids)

    reset_global_ids()
    session = Session.from_scenario(scenario)
    vch = session.virtual_channels[0]
    rng = np.random.default_rng((seed, nbytes))
    header = rng.integers(0, 256, 12, dtype=np.uint8)
    payload = rng.integers(0, 256, nbytes, dtype=np.uint8)
    got: dict = {}

    def sender():
        msg = vch.endpoint(session.rank(src)).begin_packing(session.rank(dst))
        yield msg.pack(header, SEND_CHEAPER, RECV_EXPRESS)
        yield msg.pack(payload, SEND_CHEAPER, RECV_CHEAPER)
        yield msg.end_packing()

    def receiver():
        inc = yield vch.endpoint(session.rank(dst)).begin_unpacking()
        ev, head = inc.unpack(len(header), SEND_CHEAPER, RECV_EXPRESS)
        yield ev
        got["header"] = head.tobytes()
        _ev, body = inc.unpack(nbytes, SEND_CHEAPER, RECV_CHEAPER)
        yield inc.end_unpacking()
        got["payload"] = body.tobytes()

    session.spawn(receiver(), "check-recv")
    session.spawn(sender(), "check-send")
    session.run()
    intact = (got.get("header") == header.tobytes()
              and got.get("payload") == payload.tobytes())
    return intact, _registry_counts(session)


# -- workloads -----------------------------------------------------------------
class Workload:
    """One benchmark workload.  ``loop`` is "open" or "closed"."""

    name = ""
    loop = "open"
    #: the state this entry point leaves the telemetry registry in, which
    #: ``run(telemetry=...)`` can flip; None where no registry is involved.
    registry: Optional[bool] = True
    #: what a run of this entry point imports (timed as ``span.import_s``).
    imports: tuple = ("repro.scenario", "repro.madeleine", "repro.traffic")

    def load(self, seed: int, scenario_file: Optional[str] = None):
        """Make the inputs from the seed (timed as ``span.scenario_load_s``)."""
        raise NotImplementedError

    def first_event(self, inputs) -> None:
        """Build up to the first event, for the set-up stopwatch."""
        raise NotImplementedError

    def run(self, inputs, telemetry: Optional[bool] = None,
            like: Optional[Pass] = None) -> Pass:
        """One pass.  ``telemetry=None`` is the program's default for this
        entry point.  ``like`` is an earlier pass of the same inputs: with
        it a DES run is cut into laps by simulated time."""
        raise NotImplementedError

    def check(self, inputs, seed: int) -> tuple[int, list]:
        """Untimed correctness checks: ``(transfers attempted, problems)``."""
        return 0, []

    def cell_metrics(self, cell_cpu: dict) -> dict:
        """Per-cell time metrics, from ``{cell: cpu seconds}``."""
        return {}

    def model_error(self, inputs, reference: Pass) -> Optional[float]:
        """``sim.model_err_pct`` for the workloads that carry one."""
        return None


def _load_scenario(path, seed: int):
    from repro.scenario import load_scenario
    return load_scenario(path).with_(seed=seed)


def _far_pair(scenario) -> tuple[str, str]:
    names = scenario.topology.endpoint_names()
    return names[0], names[-1]


def _first_traffic_event(scenario) -> None:
    from repro.madeleine import Session
    from repro.traffic import TrafficEngine
    session = Session.from_scenario(scenario)
    TrafficEngine(session, scenario).start()
    session.sim.step()


def _check_both_ways(scenario, seed: int, nbytes: int,
                     branch_counter: Optional[str] = None) -> list:
    """Byte-compare one transfer each way between the scenario's first and
    last endpoint; with ``branch_counter``, also require that registry
    count to be non-zero (the transfer took the send branch under test)."""
    problems = []
    a, b = _far_pair(scenario)
    for src, dst in ((a, b), (b, a)):
        intact, counts = transfer_intact(scenario, src, dst, nbytes, seed)
        if not intact:
            problems.append(f"payload {src}->{dst} arrived changed")
        if branch_counter and not counts[branch_counter]:
            problems.append(f"check transfer {src}->{dst} did not count in "
                            f"{branch_counter}")
    return problems


class ScenarioWorkload(Workload):
    """A workload whose input is one committed scenario file."""

    def __init__(self, name: str, filename: str) -> None:
        self.name = name
        self.filename = filename

    def load(self, seed, scenario_file=None):
        return _load_scenario(scenario_file or SCENARIO_DIR / self.filename,
                              seed)


class TrafficWorkload(ScenarioWorkload):
    """A scenario driven by the DES traffic engine."""

    def first_event(self, scenario) -> None:
        _first_traffic_event(scenario)

    def run(self, scenario, telemetry=None, like=None) -> Pass:
        return traffic_cell(
            scenario, telemetry is not False,
            duration_us=like.sim["duration_us"] if like else None)

    def check(self, scenario, seed):
        return 2, _check_both_ways(scenario, seed, scenario.traffic.size)


class SendModes(Workload):
    """The four ``gtm.py`` send branches, one scenario file each."""

    name = "send_modes"
    MODES = ("rendezvous", "batched", "eager", "striped")
    #: the registry counter that proves a cell took its branch.
    _BRANCH_COUNTER = {"eager": "madeleine.vchannel.eager_sends",
                       "striped": "madeleine.vchannel.stripes_sent"}

    def load(self, seed, scenario_file=None):
        if scenario_file:
            return {"file": _load_scenario(scenario_file, seed)}
        return {mode: _load_scenario(
            SCENARIO_DIR / f"send_modes.{mode}.json", seed)
            for mode in self.MODES}

    def first_event(self, scenarios) -> None:
        _first_traffic_event(next(iter(scenarios.values())))

    def run(self, scenarios, telemetry=None, like=None) -> Pass:
        parts = {mode: traffic_cell(
            sc, telemetry is not False, cell=mode,
            duration_us=like.sim[f"{mode}.duration_us"] if like else None)
            for mode, sc in scenarios.items()}
        merged = merge_passes(parts)
        for mode, p in parts.items():
            merged.cells[f"mode.{mode}.sim_p50_us"] = p.sim.get(
                "fct_p50_us", math.nan)
            counter = self._BRANCH_COUNTER.get(mode)
            if counter and telemetry is not False and not p.counts[counter]:
                merged.problems.append(
                    f"{mode}: no message took the {mode} branch")
        return merged

    def cell_metrics(self, cell_cpu):
        return {f"mode.{mode}.cpu_s": cpu for mode, cpu in cell_cpu.items()}

    def check(self, scenarios, seed):
        problems = []
        for mode, sc in scenarios.items():
            problems += [f"{mode}: {line}" for line in _check_both_ways(
                sc, seed, sc.traffic.size, self._BRANCH_COUNTER.get(mode))]
        return 2 * len(scenarios), problems


def _paper_reference() -> dict:
    """``benchmarks/common.PAPER``: the paper's Fig. 6/7 asymptotes."""
    spec = importlib.util.spec_from_file_location(
        "_bench_common", REPO_ROOT / "benchmarks" / "common.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.PAPER


class GatewayBulk(Workload):
    """The paper's experiment: the Fig. 6 and Fig. 7 sweeps on the 3-node
    SCI/gateway/Myrinet testbed (closed loop, one message in flight).

    The sweep is ``figure_sweep`` spelled out point by point over
    ``PingHarness.build`` and ``one_way_ping`` (which is all
    ``PingHarness.measure`` does), so every point is three laps of its own
    and the registry can be switched on for the counting pass; ``check``
    holds the result against ``figure_sweep`` itself.  The grid file fixes
    packet and message sizes; the seed only feeds the byte-compared check
    payloads, the sweep has no random input."""

    name = "gateway_bulk"
    loop = "closed"
    registry = False                # PingHarness sessions leave it off
    imports = ("repro.bench",)
    #: figure -> direction of ``figure_sweep``.
    FIGURES = {"fig6": "b0->a0", "fig7": "a0->b0"}

    def load(self, seed, scenario_file=None):
        import json
        path = scenario_file or SCENARIO_DIR / "gateway_bulk.json"
        with open(path, encoding="utf-8") as fh:
            grid = json.load(fh)
        return {"packets": tuple(grid["packet_sizes"]),
                "messages": tuple(grid["message_sizes"])}

    def first_event(self, grid) -> None:
        from repro.bench import PingHarness
        _world, session, _vch, _ack = PingHarness(
            packet_size=grid["packets"][0]).build()
        session.sim.step()

    def run(self, grid, telemetry=None, like=None) -> Pass:
        from repro.bench import PingHarness, Series, one_way_ping
        from repro.madeleine import reset_global_ids
        reset_global_ids()
        points: dict = {}
        counts: dict = {}
        cells: dict = {}
        laps: list = []
        for fig, direction in self.FIGURES.items():
            src_name, dst_name = direction.split("->")
            watch = Stopwatch(fig)
            for packet in grid["packets"]:
                harness = PingHarness(packet_size=packet)
                series = Series(label=f"{fig} {packet}")
                for size in (m for m in grid["messages"] if m >= packet):
                    world, session, vch, ack = harness.build()
                    if telemetry:
                        world.telemetry.enable()
                    watch.lap("build")
                    result = one_way_ping(
                        session, vch, ack, session.rank(src_name),
                        session.rank(dst_name), size)
                    watch.lap("run")
                    series.add(size, result.bandwidth)
                    points[(fig, packet, size)] = result.one_way_us
                    merge_counts(counts, _registry_counts(session))
                    watch.lap("summary")
                cells[f"paper.{fig}_asym_{packet >> 10}k_mbs"] = (
                    series.asymptote)
            laps += watch.laps
        problems = [f"{key}: one-way time {us!r}" for key, us in
                    points.items() if not (us > 0 and math.isfinite(us))]
        sim = {f"{fig}.{packet >> 10}k.{size >> 10}k.one_way_us": us
               for (fig, packet, size), us in points.items()}
        sim.update(cells)
        return Pass(laps=laps, attempted=len(points), failed=len(problems),
                    payload_bytes=sum(
                        size for (_f, _p, size), us in points.items()
                        if us > 0 and math.isfinite(us)),
                    sim_us=sum(points.values()), fcts=list(points.values()),
                    sim=sim, counts=counts, cells=cells, problems=problems)

    def check(self, grid, seed):
        from repro.bench import PingHarness, figure_sweep
        from repro.scenario import Scenario, Topology, TrafficSpec
        problems = []
        packet = grid["packets"][0]
        size = grid["messages"][len(grid["messages"]) // 2]
        for direction in self.FIGURES.values():
            r = PingHarness(packet_size=packet).measure(size, direction)
            if abs(r.one_way_us - r.direct_us) > 1e-6 * r.direct_us:
                problems.append(
                    f"ping {direction}: one_way_us {r.one_way_us!r} is not "
                    f"direct_us {r.direct_us!r}")
        # The library's own sweep must give what the spelled-out one gave
        # (largest packet: the cheapest curve).
        ours = self.run({**grid, "packets": grid["packets"][-1:]})
        for fig, direction in self.FIGURES.items():
            (curve,) = figure_sweep(direction,
                                    packet_sizes=grid["packets"][-1:],
                                    message_sizes=grid["messages"])
            key = f"paper.{fig}_asym_{grid['packets'][-1] >> 10}k_mbs"
            if curve.asymptote != ours.cells[key]:
                problems.append(f"figure_sweep({direction!r}) asymptote "
                                f"{curve.asymptote!r} != {ours.cells[key]!r}")
        # The same testbed as a scenario, for the byte-compared transfers.
        testbed = Scenario(
            seed=seed, packet_size=packet, gw_stall_timeout=None,
            topology=Topology(kind="chain", protocols=("myrinet", "sci"),
                              sizes=(1, 1), gateways=(1,)),
            traffic=TrafficSpec(flows=1, size=size))
        problems += _check_both_ways(testbed, seed, size)
        return 4, problems

    def model_error(self, grid, reference: Pass) -> float:
        """Largest relative error of the swept asymptotes against the
        paper's Fig. 6/7 values, percent."""
        paper = _paper_reference()
        errors = []
        for fig in self.FIGURES:
            for packet in grid["packets"]:
                want = paper[f"{fig}_asymptote"].get(packet)
                if want:
                    got = reference.cells[
                        f"paper.{fig}_asym_{packet >> 10}k_mbs"]
                    errors.append(abs(got - want) / want)
        return 100.0 * max(errors)


class SolverWorkload(ScenarioWorkload):
    """``repro.solver.solve`` on a scenario; no DES code runs.
    ``reference`` names the scenario file the untimed solver-vs-DES error
    is taken on (it must complete under the DES)."""

    registry = None
    imports = ("repro.scenario", "repro.solver")

    def __init__(self, name: str, filename: str, reference: str) -> None:
        super().__init__(name, filename)
        self.reference = reference

    def first_event(self, scenario) -> None:
        from repro.solver import SolverNetwork
        scenario.validate()
        SolverNetwork(scenario)

    def run(self, scenario, telemetry=None, like=None) -> Pass:
        from repro.solver import solve
        watch = Stopwatch()
        result = solve(scenario)
        watch.lap("run")
        summary = result.summary()
        watch.lap("summary")
        offered = scenario.traffic.flows
        fcts = [f.fct_us for f in result.flows]
        bad = {f.index for f in result.flows
               if not (math.isfinite(f.fct_us) and f.fct_us > 0)}
        problems = []
        if bad:
            problems.append(f"flows {sorted(bad)[:5]} have no positive "
                            f"finite FCT")
        if len(result.flows) != offered:
            problems.append(f"solved {len(result.flows)} of {offered} flows")
        sizes = result.component_sizes or {}
        counts = {
            "solver.recomputes": result.recomputes,
            "solver.epoch_flows": result.epoch_flows,
            "_solver.live_flow_epochs": result.live_flow_epochs,
            "_solver.components": sum(sizes.values()),
            "_solver.component_flows": sum(int(size) * n
                                           for size, n in sizes.items()),
        }
        sim = {"duration_us": result.duration_us,
               "completed": summary["completed"], "bytes": summary["bytes"],
               "recomputes": result.recomputes,
               "epoch_flows": result.epoch_flows, **_fct_stats("fct_", fcts)}
        return Pass(
            laps=watch.laps, attempted=offered,
            failed=len(bad) + max(0, offered - len(result.flows)),
            payload_bytes=sum(f.nbytes for f in result.flows
                              if f.index not in bad),
            sim_us=result.duration_us, fcts=fcts, sim=sim, counts=counts,
            problems=problems)

    def model_error(self, scenario, reference: Pass) -> Optional[float]:
        """Solver vs DES mean FCT on the reference scenario, percent."""
        ref = _load_scenario(SCENARIO_DIR / self.reference, scenario.seed)
        des = traffic_cell(ref)
        if des.failed:
            return None
        solved = (reference if self.reference == self.filename
                  else self.run(ref))
        return 100.0 * abs(solved.sim["fct_mean_us"]
                           - des.sim["fct_mean_us"]) / des.sim["fct_mean_us"]


WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    GatewayBulk(),
    SendModes(),
    TrafficWorkload("torus_sparse", "torus_sparse.json"),
    TrafficWorkload("fat_tree_dense", "fat_tree_dense.json"),
    SolverWorkload("solver_sparse", "solver_sparse.json",
                   reference="torus_sparse.json"),
    SolverWorkload("solver_dense", "solver_dense.json",
                   reference="solver_dense.json"),
)}


def adhoc_workload(scenario_file: str) -> Workload:
    """A scenario file run by hand (``--scenario-file`` without
    ``--workload``): the DES traffic path."""
    return TrafficWorkload("adhoc", scenario_file)


def median_iqr(values) -> tuple[float, float]:
    values = list(values)
    if len(values) < 2:
        return (values[0] if values else math.nan), 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q3 - q1
