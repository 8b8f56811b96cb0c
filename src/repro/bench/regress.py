"""Continuous benchmark regression: ``repro bench --regress``.

Runs compact, deterministic versions of the paper's evaluation scenarios
(the figure 5 gateway pipeline, the figure 6/7 bandwidth sweeps, the
figure 8 PCI-conflict ratios and the §3.1 latency points), writes every
measured number to ``BENCH_PR3.json`` at the repository root, and compares
each metric against the committed baseline
(``benchmarks/baselines/bench_regress.json``) within a tolerance band.

The simulator is deterministic, so on unchanged code every metric matches
the baseline exactly; the tolerance band exists so that *intentional*
re-calibrations fail loudly (outside the band) while numerically benign
refactors (e.g. a different but equivalent float summation order) do not.
Two classes of check:

* **figure metrics** — latency, bandwidth, pipeline shape: drifting outside
  the band means the modelled hardware behaviour changed;
* **kernel-cost metrics** — dispatched simulator events per transferred MB:
  the hot-path optimisations must keep this at least ``min_event_reduction``
  below the pre-optimisation kernel (the committed ``pre_pr3`` reference),
  so an accidental de-optimisation fails CI even though it would not move
  any simulated timestamp;
* **feature floors** (the baseline's ``floors``) — minimum improvements a
  feature must keep delivering: the depth-4 tuned pipeline's bandwidth gain
  over the depth-2/static-MTU paper configuration, and header batching's
  wire-record reduction on a many-small-buffers message.

Refresh the baseline after an intentional change with
``repro bench --regress --update-baseline`` and commit the result.
"""

from __future__ import annotations

import json
import math
import pathlib
import zlib
from typing import Optional

import numpy as np

from .jsonio import dump_json
from .ping import PingHarness
from .sweep import figure_sweep

__all__ = ["run_regress", "compare_to_baseline", "format_report",
           "DEFAULT_BASELINE", "DEFAULT_OUT", "DEFAULT_TOLERANCE",
           "DEFAULT_FLOORS"]

_REPO_ROOT = pathlib.Path(__file__).resolve().parents[3]
DEFAULT_BASELINE = _REPO_ROOT / "benchmarks" / "baselines" / "bench_regress.json"
DEFAULT_OUT = _REPO_ROOT / "BENCH_PR3.json"
DEFAULT_TOLERANCE = 0.10

#: feature floors enforced by :func:`compare_to_baseline` (overridable by
#: the committed baseline's ``floors`` mapping).
DEFAULT_FLOORS = {
    # depth-4 + tuned fragments must beat depth-2/static by >= 10% where
    # the swap overhead dominates (the tentpole acceptance criterion).
    "pipeline_depth4_gain": 0.10,
    # header batching must keep cutting wire records on a message of many
    # sub-MTU buffers (its real benefit; invisible on fig5, see docs).
    "batching_record_reduction": 0.25,
    # dual-rail striping must keep aggregating bandwidth: >= 1.5x the
    # single-rail figure at 8 KB paquets on the dual-gateway topology.
    "multirail_dual_gain": 1.5,
    # scale-out kernel cost must stay sub-linear in flow count: events/MB
    # may grow by at most this factor from 8 to 64 concurrent flows on the
    # 4x4 torus (a *maximum*, unlike the gain floors above).
    "sweep_nodes_event_growth": 1.3,
    # the incremental fluid-rate engine must keep epochs local: on the
    # 256-node torus uniform-traffic cell, each DES rate epoch may re-solve
    # at most this mean fraction of the live flows (a *maximum*).
    "incremental_recompute_fraction": 0.25,
    # the adaptive transport policy (docs/adaptive.md) must keep beating
    # the static round-robin configuration on the mixed small-heavy
    # workload by >= 15% aggregate bandwidth ...
    "adaptive_mixed_gain": 1.15,
    # ... while sharing it fairly: Jain index of the per-flow bandwidths.
    "adaptive_jain_fairness": 0.9,
    # and after a permanent rail loss, fail-fast re-striping must hold the
    # striped-transfer bandwidth at >= 70% of the surviving-rail optimum.
    "adaptive_recovery_fraction": 0.7,
}

#: how each floor is checked: ``(floor key, scenario, metric, "min" |
#: "max", failure message)`` — the metric must not fall below (``min``) or
#: rise above (``max``) the committed floor.
_FLOOR_CHECKS = (
    ("pipeline_depth4_gain", "pipeline", "depth4_gain", "min",
     "{cur:.1%} is below the committed floor ({floor:.0%}) — the depth-4 "
     "tuned pipeline stopped beating depth-2/static-MTU"),
    ("batching_record_reduction", "batching", "record_reduction", "min",
     "{cur:.1%} is below the committed floor ({floor:.0%}) — header "
     "batching stopped removing wire records"),
    ("multirail_dual_gain", "multirail", "multirail_dual_gain", "min",
     "{cur:.2f}x is below the committed floor ({floor:.1f}x) — dual-rail "
     "striping stopped aggregating bandwidth"),
    ("sweep_nodes_event_growth", "sweep_nodes", "event_growth", "max",
     "{cur:.2f}x exceeds the committed ceiling ({floor:.1f}x) — kernel "
     "cost per MB is no longer sub-linear in concurrent flow count"),
    ("incremental_recompute_fraction", "incremental_rates",
     "des_recompute_fraction", "max",
     "{cur:.1%} exceeds the committed ceiling ({floor:.0%}) — rate epochs "
     "are no longer local to their contention component"),
    ("adaptive_mixed_gain", "adaptive", "adaptive_mixed_gain", "min",
     "{cur:.2f}x is below the committed floor ({floor:.2f}x) — the "
     "adaptive transport stopped beating the static configuration on the "
     "mixed workload"),
    ("adaptive_jain_fairness", "adaptive", "adaptive_jain_fairness", "min",
     "{cur:.3f} is below the committed floor ({floor:.2f}) — the adaptive "
     "policy is starving some flows to win its aggregate gain"),
    ("adaptive_recovery_fraction", "adaptive", "adaptive_recovery_fraction",
     "min",
     "{cur:.2f} is below the committed floor ({floor:.2f}) — post-rail-loss "
     "bandwidth fell away from the surviving-rail optimum"),
)

#: fig5/fig8 use the paper's balanced configuration: 2 MB over 64 KB paquets.
_PACKET = 64 << 10
_MESSAGE = 2 << 20

#: reduced fig6/fig7 grid — enough points to pin the curve and the plateau
#: without the full 5×12 sweep of the figure reproductions.
_SWEEP_PACKETS = (8 << 10, 64 << 10, 128 << 10)
_SWEEP_SIZES = ((1 << k) << 10 for k in (5, 7, 9, 11, 13))
_SWEEP_SIZES = tuple(_SWEEP_SIZES)

_LATENCY_SIZES = (8 << 10, 4 << 20)


def _one_message(session, vch, src: str, dst: str, buffers) -> float:
    """Send ``buffers`` as one message ``src`` -> ``dst`` and run the
    session dry; returns the instant the receiver had it all."""
    done = {}

    def snd():
        m = vch.endpoint(session.rank(src)).begin_packing(session.rank(dst))
        for b in buffers:
            yield m.pack(b)
        yield m.end_packing()

    def rcv():
        inc = yield vch.endpoint(session.rank(dst)).begin_unpacking()
        for b in buffers:
            inc.unpack(len(b))
        yield inc.end_unpacking()
        done["t"] = session.now

    session.spawn(snd())
    session.spawn(rcv())
    session.run()
    return done["t"]


def _scenario_fig5() -> dict:
    """The figure 5 scenario: 2 MB from b0 (SCI) to a0 (Myrinet)."""
    from ..analysis import extract_timeline, pipeline_stats
    from ..hw.fabric import FRAGMENT_HEADER_BYTES

    harness = PingHarness(packet_size=_PACKET)
    world, session, vch, _ack = harness.build()
    # Metrics create no simulator events, so enabling them is
    # schedule-preserving; they expose the wire-record count header
    # batching is actually about.
    world.telemetry.metrics.enable()
    elapsed = _one_message(session, vch, "b0", "a0",
                           [np.zeros(_MESSAGE, dtype=np.uint8)])
    stats = pipeline_stats(extract_timeline(world.trace))
    sim = session.sim
    mb = _MESSAGE / (1 << 20)
    records = world.telemetry.metrics.total("wire.fragments")
    return {
        "elapsed_us": elapsed,
        "bandwidth_mbs": _MESSAGE / elapsed,
        "events_processed": float(sim.events_processed),
        "events_cancelled": float(sim.events_cancelled),
        "events_per_mb": sim.events_processed / mb,
        "fragments": float(stats.fragments),
        "mean_period_us": stats.mean_period_us,
        "overlap_fraction": stats.overlap_fraction,
        # Wire records over both hops (announces, descriptors/gtmh,
        # fragments, terminators) and the 16-byte header cost they carry.
        "wire_records": float(records),
        "wire_header_bytes": float(records * FRAGMENT_HEADER_BYTES),
    }


def _scenario_latency() -> dict:
    out = {}
    for direction in ("b0->a0", "a0->b0"):
        for size in _LATENCY_SIZES:
            harness = PingHarness(packet_size=_PACKET)
            r = harness.measure(size, direction=direction)
            key = f"{direction.replace('->', '_to_')}_{size >> 10}k"
            out[f"{key}_us"] = r.one_way_us
            out[f"{key}_mbs"] = r.bandwidth
    return out


def _scenario_sweep(direction: str) -> dict:
    curves = figure_sweep(direction, packet_sizes=_SWEEP_PACKETS,
                          message_sizes=_SWEEP_SIZES)
    out = {}
    for c in curves:
        out[f"asymptote_{c.meta['packet_size'] >> 10}k_mbs"] = c.asymptote
    return out


def _scenario_fig6() -> dict:
    return _scenario_sweep("b0->a0")


def _scenario_fig7() -> dict:
    return _scenario_sweep("a0->b0")


def _scenario_fig8() -> dict:
    from ..analysis import extract_timeline, pipeline_stats
    from ..hw import SCI

    def ratios(direction: str):
        harness = PingHarness(packet_size=_PACKET)
        world, session, vch, _ack = harness.build()
        src, dst = (("a0", "b0") if direction == "myri->sci"
                    else ("b0", "a0"))
        _one_message(session, vch, src, dst,
                     [np.zeros(_MESSAGE, dtype=np.uint8)])
        return pipeline_stats(extract_timeline(world.trace))

    stats_ms = ratios("myri->sci")
    stats_sm = ratios("sci->myri")
    nominal_send = (SCI.tx_overhead + SCI.latency
                    + (_PACKET + 16) / SCI.host_peak)
    return {
        "myri_to_sci_send_recv_ratio": stats_ms.send_recv_ratio,
        "sci_to_myri_send_recv_ratio": stats_sm.send_recv_ratio,
        "sci_send_slowdown": stats_ms.mean_send_us / nominal_send,
    }


#: the pipeline scenario runs where the swap overhead dominates: 8 KB
#: paquets make the 40 µs buffer switch ≈ 20% of the lockstep period.
_PIPELINE_PACKET = 8 << 10


def _pipeline_point(pipeline) -> float:
    harness = PingHarness(packet_size=_PIPELINE_PACKET, pipeline=pipeline)
    return harness.measure(_MESSAGE, direction="b0->a0").bandwidth


def _scenario_pipeline() -> dict:
    """Depth-4 credit pipeline + adaptive fragment tuner vs the paper's
    depth-2 lockstep with static MTU, on the fig5 topology."""
    from ..hw.params import PipelineConfig

    depth2 = _pipeline_point(None)   # paper default: depth-2 lockstep
    depth4 = _pipeline_point(PipelineConfig(depth=4))
    tuned_cfg = PipelineConfig(depth=4, adaptive_mtu=True)
    depth4_tuned = _pipeline_point(tuned_cfg)
    harness = PingHarness(packet_size=_PIPELINE_PACKET, pipeline=tuned_cfg)
    world, session, vch, _ack = harness.build()
    route = vch.routes.route(session.rank("b0"), session.rank("a0"))
    return {
        "depth2_static_mbs": depth2,
        "depth4_static_mbs": depth4,
        "depth4_tuned_mbs": depth4_tuned,
        "tuned_fragment_kb": float(vch.effective_mtu(route) >> 10),
        "depth4_gain": depth4_tuned / depth2 - 1.0,
    }


def _many_buffer_transfer(header_batching: bool):
    """One message of many sub-MTU buffers b0 -> a0 (the traffic shape
    where header batching actually removes wire records; on fig5's single
    2 MB buffer the shortened head fragment pushes a tail fragment and the
    record count is unchanged)."""
    harness = PingHarness(packet_size=_PACKET,
                          header_batching=header_batching)
    world, session, vch, _ack = harness.build()
    world.telemetry.metrics.enable()
    elapsed = _one_message(
        session, vch, "b0", "a0",
        [np.zeros(8 << 10, dtype=np.uint8) for _ in range(32)])
    records = world.telemetry.metrics.total("wire.fragments")
    return elapsed, float(records)


def _scenario_batching() -> dict:
    """Header batching's measurable benefit: wire records saved on a
    32 × 8 KB-buffer message, asserted via the ``floors`` guard."""
    from ..hw.fabric import FRAGMENT_HEADER_BYTES

    plain_us, plain_records = _many_buffer_transfer(False)
    batched_us, batched_records = _many_buffer_transfer(True)
    return {
        "plain_elapsed_us": plain_us,
        "batched_elapsed_us": batched_us,
        "plain_wire_records": plain_records,
        "batched_wire_records": batched_records,
        "plain_header_bytes": plain_records * FRAGMENT_HEADER_BYTES,
        "batched_header_bytes": batched_records * FRAGMENT_HEADER_BYTES,
        "record_reduction": 1.0 - batched_records / plain_records,
    }


#: multirail runs at the gain-demonstration point: 8 KB paquets, where the
#: per-fragment latency keeps single-rail far from the wire peak.
_MULTIRAIL_PACKET = 8 << 10


def _scenario_multirail() -> dict:
    """Dual-rail striping vs single rail on the dual-gateway/dual-NIC
    topology, with the closed-form model's figure for the same point."""
    from ..analysis.model import predict_multirail
    from ..hw.params import PROTOCOLS
    from ..routing import StripePolicy
    from .ping import MultirailHarness

    single = MultirailHarness(packet_size=_MULTIRAIL_PACKET,
                              rails=1).measure(_MESSAGE)
    dual = MultirailHarness(packet_size=_MULTIRAIL_PACKET, rails=2,
                            stripe_policy=StripePolicy(max_rails=2),
                            ).measure(_MESSAGE)
    model = predict_multirail(PROTOCOLS["myrinet"], PROTOCOLS["sci"],
                              _MULTIRAIL_PACKET, rails=2, message=_MESSAGE)
    return {
        "single_rail_mbs": single.bandwidth,
        "dual_rail_mbs": dual.bandwidth,
        "model_dual_mbs": model.bandwidth,
        "multirail_dual_gain": dual.bandwidth / single.bandwidth,
    }


def _scenario_sweep_nodes() -> dict:
    """Traffic-engine scaling cell: events/MB growth from 8 to 64 open-loop
    flows on a 4x4 torus; ``event_growth`` is held
    under the ``sweep_nodes_event_growth`` ceiling."""
    from .scale import scaling_scenario
    return scaling_scenario()


def _scenario_incremental_rates() -> dict:
    """Incremental fluid-rate engine cell: DES recompute locality on the
    256-node torus (the ``incremental_recompute_fraction`` floor) and the
    solver's ``fct_agreement_ok`` gate (docs/performance.md)."""
    from .scale import incremental_rates_scenario
    return incremental_rates_scenario()


def _scenario_adaptive() -> dict:
    """Congestion-aware adaptive transport cell: eager/rendezvous gain +
    fairness on the mixed workload, and fail-fast re-striping recovery
    after a permanent rail loss, all held by the ``adaptive_*`` floors
    (docs/adaptive.md)."""
    from .adaptive import adaptive_scenario
    return adaptive_scenario()


_SCENARIOS = {
    "fig5": _scenario_fig5,
    "fig8": _scenario_fig8,
    "latency": _scenario_latency,
    "pipeline": _scenario_pipeline,
    "batching": _scenario_batching,
    "multirail": _scenario_multirail,
    "sweep_nodes": _scenario_sweep_nodes,
    "incremental_rates": _scenario_incremental_rates,
    "adaptive": _scenario_adaptive,
    "fig6": _scenario_fig6,
    "fig7": _scenario_fig7,
}

#: --quick keeps the cheap single-transfer scenarios (the sweeps dominate
#: the runtime); comparison then covers only the scenarios that ran.
_QUICK_SCENARIOS = ("fig5", "fig8", "latency", "pipeline", "batching",
                    "multirail", "sweep_nodes", "incremental_rates",
                    "adaptive")


def _run_scenario(name: str):
    """Module-level (and picklable) scenario runner with a deterministic
    per-scenario seed, so ``--jobs`` pools reproduce serial runs exactly."""
    import random
    seed = zlib.crc32(name.encode())
    random.seed(seed)
    np.random.seed(seed & 0xFFFFFFFF)
    return name, _SCENARIOS[name]()


def run_regress(quick: bool = False, progress=None,
                jobs: Optional[int] = None) -> dict:
    """Run the suite; returns ``{scenario: {metric: value}}``.

    ``jobs > 1`` spreads the scenarios over a ``multiprocessing`` pool;
    every scenario builds its own pristine world and seeds its RNGs from
    its name, so the results are identical to a serial run.
    """
    names = _QUICK_SCENARIOS if quick else tuple(_SCENARIOS)
    results = {}
    if jobs and jobs > 1:
        import multiprocessing as mp
        with mp.Pool(min(jobs, len(names))) as pool:
            for name, result in pool.imap_unordered(_run_scenario, names):
                if progress is not None:
                    progress(name)
                results[name] = result
        return {name: results[name] for name in names}
    for name in names:
        if progress is not None:
            progress(name)
        results[name] = _run_scenario(name)[1]
    return results


def compare_to_baseline(current: dict, baseline: dict,
                        tolerance: Optional[float] = None) -> list[str]:
    """Return a list of failure messages (empty means the run passes).

    Every metric of every scenario present in *both* the baseline and the
    current run must sit within the tolerance band; the fig5 event cost
    must additionally honour the committed ``min_event_reduction`` against
    the ``pre_pr3`` kernel reference.
    """
    tol = baseline.get("tolerance", DEFAULT_TOLERANCE) \
        if tolerance is None else tolerance
    failures = []
    base_scen = baseline.get("scenarios", {})
    for name, metrics in base_scen.items():
        if name not in current:
            continue   # e.g. a --quick run skipped the sweeps
        for metric, base in metrics.items():
            cur = current[name].get(metric)
            # Non-finite metrics serialize as null (see bench.jsonio);
            # neither side of a comparison may be null/NaN — that means a
            # scenario produced no measurable value, which is itself a
            # failure, never a silent pass.
            if base is None or (isinstance(base, float)
                                and not math.isfinite(base)):
                failures.append(
                    f"{name}.{metric}: committed baseline value is "
                    f"{base!r}; re-measure and update the baseline")
                continue
            if cur is None:
                failures.append(f"{name}.{metric}: missing from this run")
                continue
            if isinstance(cur, float) and not math.isfinite(cur):
                failures.append(
                    f"{name}.{metric}: non-finite ({cur!r}) — the scenario "
                    f"produced no measurable value")
                continue
            band = tol * max(abs(base), 1e-9)
            if abs(cur - base) > band:
                failures.append(
                    f"{name}.{metric}: {cur:.6g} drifted from baseline "
                    f"{base:.6g} (>{tol:.0%})")
    pre = baseline.get("pre_pr3", {})
    ref = pre.get("fig5_events_per_mb")
    floor = pre.get("min_event_reduction", 0.0)
    if ref and "fig5" in current:
        cur = current["fig5"]["events_per_mb"]
        reduction = 1.0 - cur / ref
        if reduction < floor - 1e-9:
            failures.append(
                f"fig5.events_per_mb: {cur:.1f} is only {reduction:.1%} "
                f"below the pre-optimisation kernel ({ref:.1f}); the "
                f"hot-path pass guarantees >= {floor:.0%}")
    floors = baseline.get("floors", {})
    for key, scenario, metric, bound, message in _FLOOR_CHECKS:
        floor = floors.get(key)
        if floor is None or scenario not in current:
            continue   # floor not committed, or a --quick run skipped it
        # A metric the scenario failed to report counts as its worst value.
        if bound == "min":
            cur = current[scenario].get(metric, 0.0)
            broken = cur < floor - 1e-9
        else:
            cur = current[scenario].get(metric, float("inf"))
            broken = cur > floor + 1e-9
        if broken:
            failures.append(f"{scenario}.{metric}: "
                            + message.format(cur=cur, floor=floor))
    if current.get("incremental_rates", {}).get("fct_agreement_ok",
                                                1.0) < 1.0:
        failures.append(
            "incremental_rates.fct_agreement_ok: the incremental solver's "
            "completion times diverged from the full recomputation, or its "
            "rates from the max_min_rates oracle")
    return failures


def kernel_summary(current: dict, baseline: dict) -> dict:
    """The headline kernel-cost numbers for the report/JSON."""
    out = {}
    ref = baseline.get("pre_pr3", {}).get("fig5_events_per_mb")
    if ref and "fig5" in current:
        cur = current["fig5"]["events_per_mb"]
        out = {"fig5_events_per_mb": cur,
               "pre_pr3_events_per_mb": ref,
               "event_reduction": 1.0 - cur / ref}
    return out


def format_report(current: dict, baseline: dict,
                  failures: list[str]) -> str:
    lines = []
    base_scen = baseline.get("scenarios", {})
    for name in current:
        lines.append(f"{name}:")
        for metric, cur in sorted(current[name].items()):
            base = base_scen.get(name, {}).get(metric)
            if base is None:
                lines.append(f"  {metric:32s}{cur:14.3f}  (no baseline)")
            else:
                delta = (cur - base) / max(abs(base), 1e-9)
                lines.append(f"  {metric:32s}{cur:14.3f}  "
                             f"baseline {base:12.3f}  {delta:+8.2%}")
    ks = kernel_summary(current, baseline)
    if ks:
        lines.append(
            f"\nkernel cost: {ks['fig5_events_per_mb']:.1f} dispatched "
            f"events/MB vs {ks['pre_pr3_events_per_mb']:.1f} pre-PR3 "
            f"({ks['event_reduction']:.1%} reduction)")
    if failures:
        lines.append("\nREGRESSIONS:")
        lines.extend(f"  - {f}" for f in failures)
    else:
        lines.append("\nall metrics within tolerance")
    return "\n".join(lines)


def write_results(current: dict, baseline: dict, failures: list[str],
                  path: pathlib.Path) -> None:
    payload = {
        "suite": "bench-regress",
        "kernel": kernel_summary(current, baseline),
        "scenarios": current,
        "comparison": {
            "status": "fail" if failures else "pass",
            "tolerance": baseline.get("tolerance", DEFAULT_TOLERANCE),
            "failures": failures,
        },
    }
    dump_json(payload, path)


def write_baseline(current: dict, path: pathlib.Path,
                   tolerance: float = DEFAULT_TOLERANCE,
                   pre_pr3: Optional[dict] = None) -> None:
    existing = {}
    if path.exists():
        existing = json.loads(path.read_text(encoding="utf-8"))
    payload = {
        "tolerance": tolerance,
        # The pre-optimisation kernel reference survives baseline refreshes:
        # it is a historical measurement, not something a rerun can produce.
        "pre_pr3": pre_pr3 if pre_pr3 is not None
        else existing.get("pre_pr3", {}),
        # Feature floors survive refreshes too; they encode commitments, not
        # measurements.
        "floors": {**DEFAULT_FLOORS, **existing.get("floors", {})},
        "scenarios": {**existing.get("scenarios", {}), **current},
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    dump_json(payload, path)
