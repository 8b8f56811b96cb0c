"""Scale-out benches: ``repro bench --sweep-nodes`` and ``repro run``.

Drives generated topologies (tori, fat-trees, hierarchies) with the
open-loop traffic engine and reports flow-level statistics per cell:
p50/p99 flow completion time, goodput, peak concurrency, gateway queue
high-water mark, and the kernel-cost figure of merit (dispatched events per
transferred MB).  The default grid ends at a 256-node 3D torus under 128
concurrent flows.

The ``sweep_nodes`` and ``incremental_rates`` paper cells
(``tests/bench/test_paper_cells.py``) build their tori with the same
:func:`_cell_scenario` and run them through :func:`run_traffic_scenario`.
"""

from __future__ import annotations

from typing import Sequence

from ..scenario import Scenario, Topology, TrafficSpec

__all__ = ["DEFAULT_GRID", "sweep_nodes", "run_traffic_scenario",
           "traffic_row", "format_sweep"]

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
    return traffic_row(*run_traffic(scenario))


def traffic_row(session, engine) -> dict:
    """The summary row of a finished :func:`~repro.traffic.run_traffic`:
    the engine's flow statistics plus the gateway queue high-water mark
    and the messages forwarded."""
    row = engine.summary()
    m = session.metrics
    gw_hwm = 0
    for inst in m.series("gateway.occupancy"):
        gw_hwm = max(gw_hwm, int(inst.hwm))
    row["gw_queue_hwm"] = gw_hwm
    row["forwarded"] = int(m.total("gateway.messages_forwarded"))
    return row


def sweep_nodes(grid: Sequence = DEFAULT_GRID, *,
                pattern: str = "uniform", size: int = 32 << 10,
                mean_interarrival: float = 50.0,
                seed: int = _SWEEP_SEED,
                progress=None) -> list[dict]:
    """Run the node-scaling grid; one summary row per ``(kind, shape,
    flows)`` cell."""
    rows = []
    for kind, shape, flows in grid:
        topo = _topology(kind, shape)
        if progress is not None:
            progress(f"{kind}{tuple(shape)} x {flows} flows "
                     f"({topo.n_nodes} nodes)")
        sc = _cell_scenario(topo, flows, pattern=pattern, size=size,
                            mean_interarrival=mean_interarrival, seed=seed)
        row = run_traffic_scenario(sc)
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
