"""Solver-vs-DES cross validation: ``repro solve --validate``.

The solver's claim is *equivalence within a committed floor*: on every
sampled cell of the paper's evaluation — the figure 5 transfer, the
figure 6/7 bandwidth grids, the figure 8 pipeline-shape ratios, and the
multirail striping grid — the analytic estimate must sit within the strict
limit (5%) of the discrete-event measurement, at a wall-clock speedup of
at least two orders of magnitude.  This module runs exactly that
cross-check, and :func:`compare_validate` enforces the floors committed in
``benchmarks/baselines/solver_validate.json`` so any kernel or solver
change that widens the gap fails CI.

Two sampling caveats are deliberate (measured, and documented in
docs/solver.md):

* the model error shrinks with *fragments per message* (the setup term the
  solver shares with :func:`~repro.analysis.model.route_setup_time`
  dominates short transfers), so grid cells are sampled at >= 32 fragments
  — the regime §3.3.1's asymptotic argument is about;
* the Myrinet→SCI direction carries the PIO-under-DMA approximation
  (§3.4.1) whose asymptotic error is ~3.5–4%, so its large-paquet cells
  are sampled at 128 fragments where the total stays within the limit.

The torus/fat-tree **traffic** family is different in kind: a fluid solver
provably smooths the queueing tail a message-serialized DES produces
(FIFO-per-destination receivers, gateway worker queues), so its cells are
validated against a *loose* committed floor instead of the strict limit —
the floor still pins the gap, it just does not pretend fluid == queued.
"""

from __future__ import annotations

import pathlib
import time
from typing import Callable, Optional

from ..analysis.model import _rail_period
from ..hw.params import DEFAULT_GATEWAY, DEFAULT_NODE, PROTOCOLS
from ..scenario import MessageSpec, Scenario, Topology, TrafficSpec
from .core import solve, solve_bandwidth

__all__ = ["ping_scenario", "multirail_scenario", "traffic_scenario",
           "run_validate", "compare_validate", "format_validate",
           "write_validate_baseline", "DEFAULT_VALIDATE_BASELINE",
           "STRICT_LIMIT", "MIN_SPEEDUP"]

_REPO_ROOT = pathlib.Path(__file__).resolve().parents[3]
DEFAULT_VALIDATE_BASELINE = (_REPO_ROOT / "benchmarks" / "baselines"
                             / "solver_validate.json")

#: the acceptance criterion: strict families must match the DES this well.
STRICT_LIMIT = 0.05
#: and the whole validation run must beat the DES by this wall-clock factor.
MIN_SPEEDUP = 100.0
#: absolute slack added to a committed per-family floor before failing: the
#: DES is deterministic but float summation order is not sacred across
#: refactors, so a hair of drift is not a regression.
FLOOR_SLACK = 0.005

_MESSAGE = 2 << 20


# -- scenario builders (shared with the bench solver modes) ------------------
def ping_scenario(packet: int, message: int,
                  direction: str = "b0->a0") -> Scenario:
    """The fig5/6/7 testbed as a scenario: a0 —myrinet— gw00 —sci— b0,
    one ``message``-byte transfer (matching ``PingHarness.measure``)."""
    topo = Topology(kind="chain", protocols=("myrinet", "sci"),
                    sizes=(1, 1), gateways=(1,))
    src, dst = ("b0", "a0") if direction == "b0->a0" else ("a0", "b0")
    return Scenario(seed=0, topology=topo, packet_size=packet,
                    messages=(MessageSpec(src=src, dst=dst, nbytes=message,
                                          kind="plain"),))


def multirail_scenario(packet: int, message: int, rails: int) -> Scenario:
    """The multirail testbed as a scenario: ``rails`` disjoint
    myrinet+gateway+sci rails a0 → b0 with striping on (the
    ``MultirailHarness`` measurement); ``rails=1`` degrades to the chain."""
    if rails == 1:
        return ping_scenario(packet, message, direction="a0->b0")
    topo = Topology(kind="multirail", protocols=("myrinet", "sci"),
                    gateways=(rails,))
    return Scenario(seed=0, topology=topo, packet_size=packet,
                    stripe=(rails, 4096),
                    messages=(MessageSpec(src="a0", dst="b0", nbytes=message,
                                          kind="plain"),))


def traffic_scenario(kind: str, flows: int, seed: int = 11) -> Scenario:
    """One open-loop traffic cell (the ``sweep-nodes`` shape): 32 KB flows,
    200 µs mean interarrival."""
    if kind == "torus":
        topo = Topology(kind="torus", protocols=("myrinet",), dims=(4, 4))
    else:
        topo = Topology(kind="fat_tree", protocols=("myrinet", "sci"),
                        sizes=(4, 2), gateways=(2,))
    return Scenario(seed=seed, topology=topo, packet_size=16 << 10,
                    traffic=TrafficSpec(flows=flows, mean_interarrival=200.0,
                                        size=32 << 10),
                    gw_stall_timeout=None)


# -- sampled cells -----------------------------------------------------------
#: (packet, fragments-per-message) grids; message = packet × fragments.
_FIG6_CELLS = tuple((p, f) for p in (8 << 10, 64 << 10, 128 << 10)
                    for f in (32, 128))
#: Myrinet→SCI carries the ~4% asymptotic PIO approximation, so the large
#: paquets are sampled deep into the asymptote (128 fragments).
_FIG7_CELLS = ((8 << 10, 32), (8 << 10, 64), (8 << 10, 128),
               (64 << 10, 128), (128 << 10, 128))
_MULTIRAIL_CELLS = tuple((r, p) for r in (1, 2, 3)
                         for p in (4 << 10, 8 << 10, 16 << 10))
_TRAFFIC_CELLS = (("torus", 16), ("torus", 64), ("fat_tree", 32))


def _rel(solver: float, des: float) -> float:
    return abs(solver - des) / abs(des)


def _des_ping(packet: int, message: int, direction: str) -> float:
    from ..bench.ping import PingHarness
    return PingHarness(packet_size=packet).measure(
        message, direction=direction).bandwidth


def _des_multirail(rails: int, packet: int, message: int) -> float:
    from ..bench.ping import MultirailHarness
    from ..routing import StripePolicy
    policy = StripePolicy(max_rails=rails) if rails > 1 else None
    return MultirailHarness(packet_size=packet, rails=rails,
                            stripe_policy=policy).measure(message).bandwidth


def _des_pipeline_stats(direction: str, packet: int):
    """Figure 8 shape: pipeline stats of one traced 2 MB transfer."""
    import numpy as np

    from ..analysis import extract_timeline, pipeline_stats
    from ..bench.ping import PingHarness
    harness = PingHarness(packet_size=packet)
    world, session, vch, _ack = harness.build()
    world.trace.enable()
    src, dst = (("a0", "b0") if direction == "myri->sci" else ("b0", "a0"))
    data = np.zeros(_MESSAGE, dtype=np.uint8)

    def snd():
        m = vch.endpoint(session.rank(src)).begin_packing(session.rank(dst))
        yield m.pack(data)
        yield m.end_packing()

    def rcv():
        inc = yield vch.endpoint(session.rank(dst)).begin_unpacking()
        _ev, _b = inc.unpack(_MESSAGE)
        yield inc.end_unpacking()

    session.spawn(snd())
    session.spawn(rcv())
    session.run()
    return pipeline_stats(extract_timeline(world.trace))


def _cell(name: str, des: float, solver: float) -> dict:
    return {"name": name, "des": des, "solver": solver,
            "rel_err": _rel(solver, des)}


def _des_specs() -> list[tuple]:
    """The flat DES work list: ``(key, kind, *args)`` per measured cell,
    in the order the families consume them."""
    specs: list[tuple] = [("fig5", "ping", 64 << 10, _MESSAGE, "b0->a0")]
    for name, cells_spec, direction in (("fig6", _FIG6_CELLS, "b0->a0"),
                                        ("fig7", _FIG7_CELLS, "a0->b0")):
        for packet, frags in cells_spec:
            specs.append((f"{name}:{packet}:{frags}", "ping", packet,
                          packet * frags, direction))
    for direction in ("myri->sci", "sci->myri"):
        specs.append((f"fig8:{direction}", "pipe", direction, 64 << 10))
    for rails, packet in _MULTIRAIL_CELLS:
        specs.append((f"multirail:{rails}:{packet}", "rail", rails, packet,
                      _MESSAGE))
    for kind, flows in _TRAFFIC_CELLS:
        specs.append((f"traffic:{kind}:{flows}", "traffic", kind, flows))
    return specs


def _des_cell(spec: tuple) -> tuple:
    """Module-level (picklable) pool worker: one DES cell.

    Returns ``(key, value, wall_seconds)``.  The wall clock is measured
    inside the worker, so a pooled run reports the same cumulative DES
    cost a serial run does and the committed speedup figure stays the sum
    of identical per-cell measurements.  Every cell builds its own
    pristine deterministic world, so the values match a serial run
    exactly.
    """
    key, kind = spec[0], spec[1]
    t0 = time.perf_counter()
    if kind == "ping":
        _key, _kind, packet, message, direction = spec
        value = _des_ping(packet, message, direction)
    elif kind == "pipe":
        _key, _kind, direction, packet = spec
        stats = _des_pipeline_stats(direction, packet)
        value = (stats.send_recv_ratio, stats.mean_period_us)
    elif kind == "rail":
        _key, _kind, rails, packet, message = spec
        value = _des_multirail(rails, packet, message)
    else:   # traffic
        from ..bench.scale import run_traffic_scenario
        _key, _kind, tkind, flows = spec
        value = run_traffic_scenario(traffic_scenario(tkind, flows))
    return key, value, time.perf_counter() - t0


def run_validate(progress: Optional[Callable[[str], None]] = None,
                 jobs: Optional[int] = None) -> dict:
    """Run every family; returns the full comparison result.

    Each cell runs the DES measurement and the solver estimate and records
    the relative error; DES and solver wall-clock are accumulated
    separately so the result carries the measured speedup.  ``jobs > 1``
    spreads the DES cells (which carry essentially all of the wall clock)
    over a ``multiprocessing`` pool; the solver side stays serial in the
    parent.  The numbers are identical either way — only elapsed time
    changes, and the speedup accounting uses per-cell wall clock measured
    inside the workers.
    """
    specs = _des_specs()
    des_results: dict[str, tuple] = {}
    if jobs and jobs > 1:
        import multiprocessing as mp
        with mp.Pool(min(jobs, len(specs))) as pool:
            for key, value, wall in pool.imap_unordered(_des_cell, specs):
                des_results[key] = (value, wall)
                if progress:
                    progress(f"des {key}")
    else:
        for spec in specs:
            key, value, wall = _des_cell(spec)
            des_results[key] = (value, wall)
            if progress:
                progress(f"des {key}")

    timer = {"des": 0.0, "solver": 0.0,
             "strict_des": 0.0, "strict_solver": 0.0}
    scope = {"strict": True}

    def timed(side: str, fn, *args):
        t0 = time.perf_counter()
        out = fn(*args)
        dt = time.perf_counter() - t0
        timer[side] += dt
        if scope["strict"]:
            timer[f"strict_{side}"] += dt
        return out

    def des_of(key: str):
        value, wall = des_results.pop(key)
        timer["des"] += wall
        if scope["strict"]:
            timer["strict_des"] += wall
        return value

    families: dict[str, dict] = {}

    def family(name: str, cells: list[dict], strict: bool) -> None:
        families[name] = {
            "strict": strict,
            "cells": cells,
            "max_rel_err": max(c["rel_err"] for c in cells),
        }

    # fig5: the paper's balanced configuration, one cell.
    des = des_of("fig5")
    sol = timed("solver", solve_bandwidth,
                ping_scenario(64 << 10, _MESSAGE, "b0->a0"))
    family("fig5", [_cell("64k_2m_b0_to_a0", des, sol)], strict=True)

    # fig6/fig7: bandwidth grids, sampled at >= 32 fragments per message.
    for name, cells_spec, direction in (("fig6", _FIG6_CELLS, "b0->a0"),
                                        ("fig7", _FIG7_CELLS, "a0->b0")):
        cells = []
        for packet, frags in cells_spec:
            message = packet * frags
            des = des_of(f"{name}:{packet}:{frags}")
            sol = timed("solver", solve_bandwidth,
                        ping_scenario(packet, message, direction))
            cells.append(_cell(f"{packet >> 10}k_x{frags}", des, sol))
        family(name, cells, strict=True)

    # fig8: pipeline shape — send/recv ratio and steady period, both
    # directions, solver side straight from the _rail_period kernel.
    cells = []
    pipe = DEFAULT_GATEWAY.pipeline
    for direction, p_in, p_out in (
            ("myri->sci", PROTOCOLS["myrinet"], PROTOCOLS["sci"]),
            ("sci->myri", PROTOCOLS["sci"], PROTOCOLS["myrinet"])):
        send_recv_ratio, mean_period_us = des_of(f"fig8:{direction}")
        t_recv, t_send, period = _rail_period(p_in, p_out, 64 << 10,
                                              DEFAULT_GATEWAY, DEFAULT_NODE,
                                              pipe)
        tag = direction.replace("->", "_to_")
        cells.append(_cell(f"{tag}_send_recv_ratio",
                           send_recv_ratio, t_send / t_recv))
        cells.append(_cell(f"{tag}_period_us",
                           mean_period_us, period))
    family("fig8", cells, strict=True)

    # multirail: striped bandwidth grid (rails=1 rides the chain).
    cells = []
    for rails, packet in _MULTIRAIL_CELLS:
        des = des_of(f"multirail:{rails}:{packet}")
        sol = timed("solver", solve_bandwidth,
                    multirail_scenario(packet, _MESSAGE, rails))
        cells.append(_cell(f"rails{rails}_{packet >> 10}k", des, sol))
    family("multirail", cells, strict=True)

    # traffic: fluid vs queued — loose floor, max error across the four
    # flow-level metrics per cell.  (Outside the strict wall-clock budget:
    # the committed >= 100x speedup is the fig/multirail grids' figure.)
    scope["strict"] = False
    cells = []
    for kind, flows in _TRAFFIC_CELLS:
        sc = traffic_scenario(kind, flows)
        des_row = des_of(f"traffic:{kind}:{flows}")
        sol_row = timed("solver", lambda s: solve(s).summary(), sc)
        worst = max(_rel(sol_row[k], des_row[k])
                    for k in ("goodput_mbs", "mean_fct_us", "p99_fct_us",
                              "duration_us"))
        cells.append({"name": f"{kind}_x{flows}",
                      "des": des_row["goodput_mbs"],
                      "solver": sol_row["goodput_mbs"],
                      "rel_err": worst})
    family("traffic", cells, strict=False)

    strict_max = max(f["max_rel_err"] for f in families.values()
                     if f["strict"])
    return {
        "suite": "solver-validate",
        "families": families,
        "max_strict_rel_err": strict_max,
        "des_seconds": timer["des"],
        "solver_seconds": timer["solver"],
        #: the committed figure: fig5–fig8 + multirail grids only.
        "speedup": (timer["strict_des"] / timer["strict_solver"]
                    if timer["strict_solver"] else float("inf")),
        "overall_speedup": (timer["des"] / timer["solver"]
                            if timer["solver"] else float("inf")),
    }


def compare_validate(result: dict, baseline: dict) -> list[str]:
    """Failure messages for ``result`` against the committed baseline.

    Strict families must stay within the strict limit *and* within their
    committed floor (+ absolute slack); loose families within their floor
    only; the run must keep the committed wall-clock speedup.
    """
    failures = []
    strict_limit = baseline.get("strict_limit", STRICT_LIMIT)
    slack = baseline.get("slack", FLOOR_SLACK)
    for name, committed in baseline.get("families", {}).items():
        fam = result["families"].get(name)
        if fam is None:
            failures.append(f"{name}: family missing from this run")
            continue
        err = fam["max_rel_err"]
        floor = committed["max_rel_err"]
        if committed.get("strict", True) and err > strict_limit:
            failures.append(
                f"{name}: max rel error {err:.2%} exceeds the strict "
                f"solver==DES limit ({strict_limit:.0%})")
        if err > floor + slack:
            failures.append(
                f"{name}: max rel error {err:.2%} exceeds the committed "
                f"floor {floor:.2%} (+{slack:.1%} slack) — the solver "
                f"drifted from the DES")
    min_speedup = baseline.get("min_speedup", MIN_SPEEDUP)
    if result["speedup"] < min_speedup:
        failures.append(
            f"speedup: solver is only {result['speedup']:.0f}x faster than "
            f"the DES (committed minimum {min_speedup:.0f}x)")
    return failures


def format_validate(result: dict, failures: list[str]) -> str:
    lines = [f"{'cell':28s} {'DES':>12s} {'solver':>12s} {'rel err':>9s}"]
    lines.append("-" * len(lines[0]))
    for name, fam in result["families"].items():
        tag = "strict" if fam["strict"] else "loose"
        lines.append(f"{name} ({tag}):")
        for c in fam["cells"]:
            lines.append(f"  {c['name']:26s} {c['des']:12.3f} "
                         f"{c['solver']:12.3f} {c['rel_err']:8.2%}")
        lines.append(f"  {'max':26s} {'':12s} {'':12s} "
                     f"{fam['max_rel_err']:8.2%}")
    lines.append(
        f"\nstrict max {result['max_strict_rel_err']:.2%}; wall clock "
        f"DES {result['des_seconds']:.2f}s vs solver "
        f"{result['solver_seconds']:.3f}s "
        f"({result['speedup']:.0f}x on the strict grids, "
        f"{result['overall_speedup']:.0f}x overall)")
    if failures:
        lines.append("\nFAILURES:")
        lines.extend(f"  - {f}" for f in failures)
    else:
        lines.append("\nsolver matches the DES within every committed floor")
    return "\n".join(lines)


def write_validate_baseline(result: dict, path: pathlib.Path) -> None:
    """Commit the measured per-family max errors (plus the strict limit,
    slack, and speedup commitments) as the new regression floor."""
    import json
    existing = {}
    if path.exists():
        existing = json.loads(path.read_text(encoding="utf-8"))
    payload = {
        "strict_limit": existing.get("strict_limit", STRICT_LIMIT),
        "slack": existing.get("slack", FLOOR_SLACK),
        "min_speedup": existing.get("min_speedup", MIN_SPEEDUP),
        "families": {
            name: {"max_rel_err": fam["max_rel_err"],
                   "strict": fam["strict"]}
            for name, fam in result["families"].items()
        },
    }
    from ..bench.jsonio import dump_json
    path.parent.mkdir(parents=True, exist_ok=True)
    dump_json(payload, path)
