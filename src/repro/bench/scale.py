"""Scale-out benches: ``repro bench --sweep-nodes`` and scenario runs.

Drives generated topologies (tori, fat-trees, hierarchies) with the
open-loop traffic engine and reports flow-level statistics per cell:
p50/p99 flow completion time, goodput, peak concurrency, gateway queue
high-water mark, and the kernel-cost figure of merit (dispatched events per
transferred MB).  The default grid ends at a 256-node 3D torus under 128
concurrent flows.

``event_growth`` (events/MB at high flow count over events/MB at low flow
count, same topology) is the committed scaling floor: growth must stay
sub-linear (≤ ``sweep_nodes_event_growth`` in the regress baseline) as
flows multiply 8×.
"""

from __future__ import annotations

from typing import Sequence

from ..madeleine import reset_global_ids
from ..scenario import Scenario, Topology, TrafficSpec

__all__ = ["DEFAULT_GRID", "sweep_nodes", "run_traffic_scenario",
           "solve_traffic_scenario", "format_sweep", "scaling_scenario",
           "incremental_rates_scenario"]

#: (kind, shape, flows) cells; shape is ``dims`` for torus.
DEFAULT_GRID: tuple = (
    ("torus", (4, 4), 16),
    ("torus", (8, 8), 64),
    ("torus", (8, 8, 4), 128),
)

_SWEEP_SEED = 7


def _topology(kind: str, shape: Sequence[int]) -> Topology:
    if kind == "torus":
        return Topology(kind="torus", protocols=("myrinet",),
                        dims=tuple(shape))
    if kind == "fat_tree":
        leaves, spines, hosts = shape
        return Topology(kind="fat_tree", protocols=("myrinet", "sci"),
                        sizes=(leaves, hosts), gateways=(spines,))
    if kind == "hierarchy":
        clusters, size, gws = shape
        return Topology(kind="hierarchy", protocols=("myrinet", "sci"),
                        sizes=(clusters, size), gateways=(gws,))
    raise ValueError(f"unknown sweep topology kind {kind!r}")


def _cell_scenario(topo: Topology, flows: int, *, pattern: str,
                   size: int, mean_interarrival: float,
                   seed: int) -> Scenario:
    return Scenario(
        seed=seed, topology=topo,
        traffic=TrafficSpec(pattern=pattern, flows=flows,
                            mean_interarrival=mean_interarrival, size=size),
        # Congestion is the point of these scenarios; the gateway stall
        # timeout is a crash heuristic and would abandon slow messages.
        gw_stall_timeout=None)


def run_traffic_scenario(scenario: Scenario) -> dict:
    """Run one traffic scenario and return its flow-level summary row."""
    from ..traffic import run_traffic
    reset_global_ids()
    session, engine = run_traffic(scenario)
    row = engine.summary()
    m = session.metrics
    gw_hwm = 0
    for inst in m.series("gateway.occupancy"):
        gw_hwm = max(gw_hwm, int(inst.hwm))
    row["gw_queue_hwm"] = gw_hwm
    row["forwarded"] = int(m.total("gateway.messages_forwarded"))
    return row


def solve_traffic_scenario(scenario: Scenario) -> dict:
    """The solver fast path of :func:`run_traffic_scenario`: the same
    summary row, estimated by the fluid fixed-point solver instead of the
    DES (no gateway-queue telemetry — the fluid model has no queues)."""
    from ..solver import solve
    return solve(scenario).summary()


def sweep_nodes(grid: Sequence = DEFAULT_GRID, *,
                pattern: str = "uniform", size: int = 32 << 10,
                mean_interarrival: float = 50.0,
                seed: int = _SWEEP_SEED,
                progress=None, mode: str = "des") -> list[dict]:
    """Run the node-scaling grid; one summary row per ``(kind, shape,
    flows)`` cell.  ``mode="solver"`` estimates every cell with the
    analytic solver instead of running the DES — the fast path for
    exploring grids far beyond what simulation wall-clock allows (flow-level
    accuracy bounds in docs/solver.md)."""
    if mode not in ("des", "solver"):
        raise ValueError(f"unknown sweep mode {mode!r}")
    rows = []
    for kind, shape, flows in grid:
        topo = _topology(kind, shape)
        if progress is not None:
            progress(f"{kind}{tuple(shape)} x {flows} flows "
                     f"({topo.n_nodes} nodes)")
        sc = _cell_scenario(topo, flows, pattern=pattern, size=size,
                            mean_interarrival=mean_interarrival, seed=seed)
        row = (solve_traffic_scenario(sc) if mode == "solver"
               else run_traffic_scenario(sc))
        row.update({"kind": kind, "shape": list(shape), "flows": flows,
                    "nodes": topo.n_nodes})
        rows.append(row)
    return rows


def format_sweep(rows: list[dict]) -> str:
    head = (f"{'topology':16s} {'nodes':>5s} {'flows':>5s} {'done':>5s} "
            f"{'p50 FCT':>9s} {'p99 FCT':>9s} {'goodput':>9s} "
            f"{'gwq':>4s} {'ev/MB':>8s}")
    lines = [head, "-" * len(head)]
    for r in rows:
        shape = "x".join(str(d) for d in r["shape"])
        gwq = r.get("gw_queue_hwm")
        lines.append(
            f"{r['kind'] + '(' + shape + ')':16s} {r['nodes']:5d} "
            f"{r['flows']:5d} {r['completed']:5d} "
            f"{r['p50_fct_us']:7.0f}us {r['p99_fct_us']:7.0f}us "
            f"{r['goodput_mbs']:6.1f}MBs "
            + (f"{gwq:4d} " if gwq is not None else f"{'-':>4s} ")
            + f"{r['events_per_mb']:8.0f}")
    return "\n".join(lines)


def scaling_scenario() -> dict:
    """The regress cell: events/MB growth 8 → 64 flows on a 4×4 torus.

    Sub-linear kernel cost is the commitment: with 8× the concurrent
    flows, dispatched events per MB must grow by at most the committed
    ``sweep_nodes_event_growth`` factor (< 1 in practice — fixed per-run
    costs amortize).
    """
    topo = _topology("torus", (4, 4))
    out = {}
    for flows in (8, 64):
        sc = _cell_scenario(topo, flows, pattern="uniform", size=32 << 10,
                            mean_interarrival=200.0, seed=11)
        row = run_traffic_scenario(sc)
        if row["completed"] < flows:
            # A partial run's FCT/event statistics describe only the flows
            # that happened to finish — comparing them against the baseline
            # would be meaningless, so refuse loudly instead.
            raise RuntimeError(
                f"scaling cell torus(4,4) x {flows} flows: only "
                f"{row['completed']}/{flows} flows completed; refusing to "
                f"report partial FCT statistics")
        out[f"events_per_mb_{flows}f"] = row["events_per_mb"]
        out[f"p99_fct_us_{flows}f"] = row["p99_fct_us"]
        out[f"completed_{flows}f"] = float(row["completed"])
    out["event_growth"] = (out["events_per_mb_64f"]
                           / out["events_per_mb_8f"])
    return out


def incremental_rates_scenario() -> dict:
    """The regress cell for the incremental fluid-rate engine (PR 9).

    Two committed guarantees:

    * **DES locality** — on the 256-node torus uniform-traffic cell, the
      mean fraction of live flows whose rates each epoch re-solves stays
      under the ``incremental_recompute_fraction`` floor (arrival/completion
      events only dirty their own contention component);
    * **solver agreement** (``fct_agreement_ok``) — on every cell of the
      ``--sweep-nodes`` grid the incremental solver's finish times are
      bit-identical to the full-recompute mode, and every epoch's rates
      stay within 1e-9 of the from-scratch ``max_min_rates`` oracle.

    Solver speed is held by ``cpu_s`` on the ``solver_sparse`` and
    ``solver_dense`` workloads of ``benchmarks/perf``, not here.
    """
    from ..solver import solve

    cells = [_cell_scenario(_topology(kind, shape), flows, pattern="uniform",
                            size=32 << 10, mean_interarrival=50.0,
                            seed=_SWEEP_SEED)
             for kind, shape, flows in DEFAULT_GRID]
    out = {}
    # -- DES locality on the big torus cell ---------------------------------
    kind, shape, flows = DEFAULT_GRID[-1]
    row = run_traffic_scenario(cells[-1])
    if row["completed"] < flows:
        raise RuntimeError(
            f"incremental_rates cell {kind}{tuple(shape)} x {flows}: only "
            f"{row['completed']}/{flows} flows completed")
    out["des_recompute_fraction"] = row["fluid_recompute_fraction"]
    out["des_epochs"] = float(row["fluid_epochs"])
    out["des_recompute_flows"] = float(row["fluid_recompute_flows"])

    # -- solver agreement over the sweep grid --------------------------------
    agree = 1.0
    for sc in cells:
        big = solve(sc, crosscheck=True)    # ends on the 256-node torus
        full = solve(sc, incremental=False)
        if big.crosscheck_max_dev > 1e-9 or any(
                est.finish_us != est_full.finish_us
                for est, est_full in zip(big.flows, full.flows)):
            agree = 0.0
    out["solver_recompute_fraction"] = (big.epoch_flows
                                        / big.live_flow_epochs)
    out["mean_component_flows"] = (
        sum(size * n for size, n in big.component_sizes.items())
        / max(1, sum(big.component_sizes.values())))
    out["solver_epochs"] = float(big.recomputes)
    out["fct_agreement_ok"] = agree
    return out
