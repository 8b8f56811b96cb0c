#!/usr/bin/env python3
"""The repo's performance benchmark: one command, six workloads.

    python3 benchmarks/perf/run.py                      # all six, 2 rounds
    python3 benchmarks/perf/run.py --trace              # + per-layer table
    python3 benchmarks/perf/run.py --workload torus_sparse --seed 2
    python3 benchmarks/perf/run.py --compare A.json B.json
    python3 benchmarks/perf/run.py --selftest

Every run makes its inputs from ``--seed``, measures the program from
outside through its public entry points, checks what came back, prints
every metric by name with its unit, and ends with one JSON line.  With
``--workload`` the process *is* that workload's measurement (so
``ru_maxrss`` is its own); without it each workload runs in a fresh child
process, round-robin.  README.md has the protocol and the metric tables;
``BENCHMARK.json`` at the repo root is the list of names, units and bounds.
"""

import argparse
import cProfile
import gc
import json
import pathlib
import resource
import statistics
import subprocess
import sys
import tempfile
import time

PERF_DIR = pathlib.Path(__file__).resolve().parent
REPO_ROOT = PERF_DIR.parents[1]
SPEC_FILE = REPO_ROOT / "BENCHMARK.json"
EXPECTED_FILE = PERF_DIR / "expected.json"

_clock = time.perf_counter

#: fresh processes timed for ``setup_s`` in one untraced run (the median is
#: reported); a traced run takes one, for its import and load spans.
SETUP_SAMPLES = 5
#: rounds an all-workloads run spreads each workload's passes over.
ROUNDS = 2
#: calibration-loop spread above which a run is flagged ``noisy``.
NOISY_SPREAD = 0.10


def _use_checkout_source() -> None:
    """Measure this checkout's ``src/repro``, nothing installed elsewhere."""
    if not (REPO_ROOT / "src" / "repro").is_dir():
        sys.exit(f"{REPO_ROOT / 'src' / 'repro'}: the program under test is "
                 f"not in this checkout")
    sys.path.insert(0, str(REPO_ROOT / "src"))


def load_spec() -> dict:
    with open(SPEC_FILE, encoding="utf-8") as fh:
        return json.load(fh)


def calibrate() -> float:
    """A fixed pure-Python loop: its wall time moves only with the machine,
    so its spread over a run says how much to trust that run's timings."""
    t0 = _clock()
    acc = 0
    for i in range(1_000_000):
        acc += i * i
    return _clock() - t0


def _spread(values) -> float:
    """Inter-quartile range as a share of the median (0 for < 2 values)."""
    from workloads import median_iqr
    median, iqr = median_iqr(values)
    return iqr / median if len(values) > 1 and median else 0.0


# -- set-up probe (a fresh child process per sample) ---------------------------
def setup_probe(args) -> int:
    """Child mode: import, load the inputs, build up to the first event;
    print the three spans (process CPU seconds since the interpreter
    started) as one JSON line."""
    _use_checkout_source()
    import importlib
    from workloads import WORKLOADS, adhoc_workload
    wl = WORKLOADS.get(args.workload) or adhoc_workload(args.scenario_file)
    for module in wl.imports:
        importlib.import_module(module)
    t1 = time.process_time()
    inputs = wl.load(args.seed, args.scenario_file)
    t2 = time.process_time()
    wl.first_event(inputs)
    t3 = time.process_time()
    print(json.dumps({"import_s": t1, "scenario_load_s": t2 - t1,
                      "first_event_s": t3 - t2}))
    return 0


def _child_command(args, *extra) -> list:
    cmd = [sys.executable, str(PERF_DIR / "run.py"),
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.scenario_file:
        cmd += ["--scenario-file", args.scenario_file]
    return cmd + list(extra)


def sample_setup(args, samples: int) -> list:
    out = []
    for _ in range(samples):
        done = subprocess.run(_child_command(args, "--setup-probe"),
                              check=True, capture_output=True, text=True)
        out.append(json.loads(done.stdout.strip().splitlines()[-1]))
    return out


# -- one workload, in this process ----------------------------------------------
def _expected_drift(name: str, seed: int, sim: dict):
    """Keys of ``sim`` that differ from the committed statistics for this
    workload and seed (None when that seed is not committed)."""
    if not EXPECTED_FILE.exists():
        return None
    with open(EXPECTED_FILE, encoding="utf-8") as fh:
        want = json.load(fh).get(name, {}).get(str(seed))
    if want is None:
        return None
    return sorted(key for key in set(want) | set(sim)
                  if want.get(key) != sim.get(key))


def timing_values(wl, laps, payload_bytes: int) -> dict:
    """The time metrics of one composite pass (``fastest_laps``)."""
    from workloads import WALL, laps_by
    spans = laps_by(laps, 1)
    cpu = sum(spans.values())
    return {"cpu_s": cpu,
            "sim_mb_per_cpu_s": payload_bytes / 1e6 / cpu,
            "harness.wall_s": sum(laps_by(laps, 1, WALL).values()),
            **{f"span.{span}_s": spans.get(span, 0.0)
               for span in ("build", "start", "run", "summary")},
            **wl.cell_metrics(laps_by(laps, 0))}


def measure(args, setup_samples=None) -> dict:
    """Run one workload here and return its detailed result."""
    from layers import LAYERS, bucket_profile
    from workloads import (TAIL_PERCENTILE, WORKLOADS, adhoc_workload,
                           fastest_laps, median_iqr, percentile)

    wl = WORKLOADS.get(args.workload) or adhoc_workload(args.scenario_file)
    probes = sample_setup(args, setup_samples or (
        1 if args.trace else SETUP_SAMPLES))
    setup_totals = [sum(p.values()) for p in probes]

    inputs = wl.load(args.seed, args.scenario_file)
    warm = wl.run(inputs)                   # untimed: caches, lazy imports
    # Memory as a single run of the program pays it: set-up plus one pass.
    # (Later passes add allocator noise that depends on how many there were.)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    problems = list(warm.problems)
    transfers, check_problems = wl.check(inputs, args.seed)
    problems += check_problems

    passes = []
    calib = [calibrate()]
    started = _clock()
    budget = 0.0 if args.trace else args.seconds
    while not passes or _clock() - started < budget:
        gc.collect()
        p = wl.run(inputs, like=warm)
        passes.append(p)
        calib.append(calibrate())
        if p.sim != warm.sim:
            problems.append("simulated statistics differ between two passes "
                            "of the same inputs")
    ref = passes[0]                     # everything but time is the same
    laps = fastest_laps(passes)
    walls = [p.wall_s for p in passes]
    wall_median, wall_iqr = median_iqr(walls)
    calib_median, calib_iqr = median_iqr(calib)
    calib_spread = calib_iqr / calib_median

    mb = ref.payload_bytes / 1e6
    values = {
        **timing_values(wl, laps, ref.payload_bytes),
        "setup_s": statistics.median(setup_totals),
        "sim.goodput_mbs": (ref.payload_bytes / ref.sim_us
                            if ref.sim_us else 0.0),
        "sim.samples": len(ref.fcts),
        "harness.passes": len(passes),
        "harness.wall_median_s": wall_median,
        "harness.wall_iqr_s": wall_iqr,
        "harness.calib_s": min(calib),
        "harness.calib_spread": calib_spread,
        "span.import_s": statistics.median(p["import_s"] for p in probes),
        "span.scenario_load_s": statistics.median(
            p["scenario_load_s"] for p in probes),
        **ref.cells,
    }
    if ref.fcts:
        values["sim.p50_us"] = percentile(ref.fcts, 50)
        values[f"sim.p{TAIL_PERCENTILE}_us"] = percentile(ref.fcts,
                                                          TAIL_PERCENTILE)

    counted = ref
    if args.trace:
        gc.collect()
        profile = cProfile.Profile()
        profile.enable()
        traced = wl.run(inputs, like=warm)
        profile.disable()
        for layer, row in bucket_profile(profile).items():
            for key, value in row.items():
                values[f"{layer}.{key}"] = value
        values["trace.overhead_x"] = traced.cpu_s / ref.cpu_s
        values["telemetry.overhead_x"] = 1.0
        if wl.registry is not None:
            gc.collect()
            flipped = wl.run(inputs, telemetry=not wl.registry, like=warm)
            on, off = (ref, flipped) if wl.registry else (flipped, ref)
            values["telemetry.overhead_x"] = on.cpu_s / off.cpu_s
            counted = on
        err = wl.model_error(inputs, ref)
        if err is not None:
            values["sim.model_err_pct"] = err
        import micro
        values.update(micro.run_all())
    else:
        # cProfile inflates the heap; memory is an untraced-run metric.
        values["peak_rss_mb"] = peak_rss_mb

    counts = counted.counts
    values.update({key: value for key, value in counts.items()
                   if not key.startswith("_")})
    events = counts.get("sim.engine.events", 0)
    if events:
        cancelled = counts["sim.engine.events_cancelled"]
        values["sim.engine.cancel_ratio"] = cancelled / (events + cancelled)
        values["sim.engine.events_per_mb"] = events / mb if mb else 0.0
        values["sim.engine.events_per_s"] = events / counted.cpu_s
    for engine, work in (("sim.fluid", "sim.fluid.recomputed_flows"),
                         ("solver", "solver.epoch_flows")):
        if counts.get(f"_{engine}.live_flow_epochs"):
            values[f"{engine}.recompute_fraction"] = (
                counts[work] / counts[f"_{engine}.live_flow_epochs"])
        if counts.get(f"_{engine}.components"):
            values[f"{engine}.mean_component_flows"] = (
                counts[f"_{engine}.component_flows"]
                / counts[f"_{engine}.components"])

    attempted = ref.attempted + transfers
    failed = ref.failed + len(check_problems)
    values["harness.failed_share"] = failed / attempted
    drift = (None if args.scenario_file
             else _expected_drift(wl.name, args.seed, ref.sim))
    values["harness.sim_drift_keys"] = len(drift or ())

    return {
        "workload": wl.name, "seed": args.seed, "trace": bool(args.trace),
        "loop": wl.loop,
        "correct": not problems, "attempted": attempted, "failed": failed,
        "problems": problems,
        "noisy": calib_spread > NOISY_SPREAD,
        "values": values,
        "passes": walls, "laps": [list(lap) for lap in laps],
        "payload_bytes": ref.payload_bytes,
        "setup_samples": setup_totals,
        "sim": ref.sim, "sim_drift": drift,
        "layers": list(LAYERS),
    }


# -- reporting -------------------------------------------------------------------
def spec_metrics(spec: dict, trace: bool) -> list:
    return spec["per_layer" if trace else "end_to_end"]


def contract_metrics(spec: dict, result: dict) -> dict:
    """The metrics of the final line: every end-to-end metric of an
    untraced run, every per-layer metric of a traced one (0 where a layer
    has nothing to say about this workload)."""
    return {m["name"]: {"value": result["values"].get(m["name"], 0.0),
                        "unit": m["unit"]}
            for m in spec_metrics(spec, result["trace"])}


def format_result(spec: dict, result: dict) -> str:
    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}
    lines = [f"== {result['workload']}  seed={result['seed']}  "
             f"{result['loop']} loop  "
             f"{'traced' if result['trace'] else 'untraced'}"
             f"{'  NOISY' if result['noisy'] else ''}"]
    for name, unit in units.items():
        if name in result["values"]:
            value = result["values"][name]
            shown = f"{value:.6g}" if isinstance(value, float) else str(value)
            lines.append(f"  {name:42s} {shown:>14s} {unit}")
    lines.append(f"  attempted {result['attempted']}  failed "
                 f"{result['failed']}  correct {result['correct']}")
    for line in result["problems"]:
        lines.append(f"  PROBLEM {line}")
    if result["sim_drift"]:
        lines.append(f"  sim_drift {' '.join(result['sim_drift'])}")
    elif result["sim_drift"] is None:
        lines.append("  sim_drift not checked: no committed statistics for "
                     "this seed")
    return "\n".join(lines)


def final_line(spec: dict, result: dict) -> str:
    from repro.bench.jsonio import json_safe
    return json.dumps(json_safe({
        "correct": result["correct"], "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": contract_metrics(spec, result)}), allow_nan=False)


def run_one(args) -> int:
    _use_checkout_source()
    from repro.bench.jsonio import dump_json
    spec = load_spec()
    result = measure(args)
    if args.out:
        dump_json(result, args.out)
    print(format_result(spec, result))
    print(final_line(spec, result))
    return 0


# -- all workloads, one fresh child each, round-robin ------------------------------
def merge_rounds(rounds: list) -> dict:
    """One workload's rounds as one result: every lap at its fastest over
    all of them, set-up as the median of every sample."""
    from workloads import WORKLOADS
    merged = dict(rounds[-1])
    merged["passes"] = [w for r in rounds for w in r["passes"]]
    merged["setup_samples"] = [s for r in rounds for s in r["setup_samples"]]
    merged["correct"] = all(r["correct"] for r in rounds)
    merged["noisy"] = any(r["noisy"] for r in rounds)
    merged["problems"] = [line for r in rounds for line in r["problems"]]
    merged["laps"] = [
        [cell, span, min(r["laps"][i][2] for r in rounds),
         min(r["laps"][i][3] for r in rounds)]
        for i, (cell, span, _c, _w) in enumerate(rounds[0]["laps"])]
    values = dict(merged["values"])
    values.update(timing_values(WORKLOADS[merged["workload"]],
                                merged["laps"], merged["payload_bytes"]))
    values["setup_s"] = statistics.median(merged["setup_samples"])
    if all("peak_rss_mb" in r["values"] for r in rounds):
        values["peak_rss_mb"] = max(r["values"]["peak_rss_mb"]
                                    for r in rounds)
    values["harness.passes"] = len(merged["passes"])
    values["harness.wall_median_s"] = statistics.median(merged["passes"])
    merged["values"] = values
    # How far one round's composite sits from the other's: the run's own
    # measure of how well it resolves time.
    cpus = [r["values"]["cpu_s"] for r in rounds]
    apart = (max(cpus) - min(cpus)) / min(cpus)
    merged["spread"] = {"cpu_s": apart, "sim_mb_per_cpu_s": apart,
                        "setup_s": _spread(merged["setup_samples"])}
    return merged


def run_all(args) -> int:
    _use_checkout_source()
    from repro.bench.jsonio import dump_json, load_json
    from workloads import WORKLOADS
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if set(names) != set(WORKLOADS):
        sys.exit(f"BENCHMARK.json names {sorted(names)}, workloads.py has "
                 f"{sorted(WORKLOADS)}")
    rounds = 1 if args.trace else ROUNDS
    per_workload: dict = {name: [] for name in names}
    calib = [calibrate()]
    with tempfile.TemporaryDirectory(dir=PERF_DIR, prefix=".run-") as tmp:
        for rnd in range(rounds):
            for name in names:
                out = pathlib.Path(tmp) / f"{name}.{rnd}.json"
                args.workload = name
                cmd = _child_command(
                    args, "--seconds", str(args.seconds / rounds),
                    "--trace", str(int(args.trace)), "--out", str(out))
                done = subprocess.run(cmd, capture_output=True, text=True)
                if done.returncode:
                    # Keep the other workloads' numbers: report and go on.
                    print(f"== {name}: child exited {done.returncode}\n"
                          f"{done.stderr}", file=sys.stderr)
                    continue
                per_workload[name].append(load_json(out))
                calib.append(calibrate())
    merged = {name: merge_rounds(results)
              for name, results in per_workload.items() if results}
    calib_spread = _spread(calib)
    report = {
        "schema": 1, "seed": args.seed, "trace": bool(args.trace),
        "run_seconds": args.seconds, "rounds": rounds,
        "python": sys.version.split()[0],
        "calib_s": statistics.median(calib), "calib_spread": calib_spread,
        "noisy": calib_spread > NOISY_SPREAD or any(
            r["noisy"] for r in merged.values()),
        "workloads": merged,
    }
    for name in names:
        if name in merged:
            print(format_result(spec, merged[name]))
    missing = [name for name in names if name not in merged]
    ok = not missing and all(r["correct"] for r in merged.values())
    print(f"== {len(merged)}/{len(names)} workloads ran, "
          f"{'all correct' if ok else 'NOT all correct'}"
          f"{', NOISY machine' if report['noisy'] else ''}")
    if args.out:
        dump_json(report, args.out)
    if args.update_expected:
        expected = (load_json(EXPECTED_FILE) if EXPECTED_FILE.exists()
                    else {})
        for name, result in merged.items():
            expected.setdefault(name, {})[str(args.seed)] = result["sim"]
        dump_json(expected, EXPECTED_FILE)
    return 0 if ok else 1


# -- self-test -------------------------------------------------------------------
def selftest(args) -> int:
    """Quick structural checks of the harness itself (tiny inputs)."""
    _use_checkout_source()
    from repro.bench.jsonio import dump_json, load_json
    from layers import unmapped_sources
    spec = load_spec()
    failures = []

    unmapped = unmapped_sources()
    if unmapped:
        failures.append(f"source files outside every layer: {unmapped}")
    collected = [p.name for p in PERF_DIR.rglob("*.py")
                 if p.name.startswith(("bench_", "test_"))]
    if collected:
        failures.append(f"pytest would collect harness files: {collected}")

    args.workload = "torus_sparse"
    args.scenario_file = str(PERF_DIR / "scenarios" / "selftest_tiny.json")
    args.seconds = 0.2
    with tempfile.TemporaryDirectory(dir=PERF_DIR, prefix=".selftest-") as tmp:
        for trace in (0, 1):
            args.trace = trace
            result = measure(args, setup_samples=1)
            path = pathlib.Path(tmp) / f"trace{trace}.json"
            dump_json(result, path)
            load_json(path)                 # strict JSON or it raises
            line = json.loads(final_line(spec, result))
            if set(line) != {"correct", "attempted", "failed", "metrics"}:
                failures.append(f"final line keys: {sorted(line)}")
            if not result["correct"]:
                failures.append(f"trace={trace}: {result['problems']}")
            want = {m["name"] for m in spec_metrics(spec, bool(trace))}
            have = set(result["values"])
            # Names only the other workloads produce (a tiny torus run has
            # no send modes, paper figures, solver or model reference).
            elsewhere = {n for n in want if n == "sim.model_err_pct"
                         or n.startswith(("mode.", "paper.", "solver."))}
            if want - have - elsewhere:
                failures.append(f"trace={trace}: BENCHMARK.json names never "
                                f"produced: {sorted(want - have - elsewhere)}")
            if trace:
                every = {m["name"] for m in
                         spec["end_to_end"] + spec["per_layer"]}
                if have - every:
                    failures.append(f"produced but not in BENCHMARK.json: "
                                    f"{sorted(have - every)}")
                share = sum(result["values"][f"{layer}.share"]
                            for layer in result["layers"])
                if abs(share - 1.0) > 0.01:
                    failures.append(f"layer shares sum to {share}")
    for line in failures:
        print(f"SELFTEST FAIL {line}")
    print(f"selftest: {'FAILED' if failures else 'ok'}")
    return 1 if failures else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", help="run this one workload in this "
                    "process (default: all, one child process each)")
    ap.add_argument("--seed", type=int, default=1,
                    help="becomes the scenario seed (default 1)")
    ap.add_argument("--seconds", type=float, default=None,
                    help="measure this long per workload (default: "
                         "run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", nargs="?", type=int, choices=(0, 1), const=1,
                    default=0, help="traced run: per-layer metrics")
    ap.add_argument("--scenario-file", metavar="F",
                    help="run this scenario file instead of the committed "
                         "one (by hand; the DES traffic path unless "
                         "--workload names another)")
    ap.add_argument("--out", metavar="FILE", help="write the detailed JSON")
    ap.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"),
                    help="apply every end-to-end bound to two --out files")
    ap.add_argument("--selftest", action="store_true")
    ap.add_argument("--update-expected", action="store_true",
                    help="all-workloads run: commit this seed's simulated "
                         "statistics to expected.json")
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if args.compare:
        from compare import compare_files
        return compare_files(load_spec(), *args.compare)
    if args.seconds is None:
        args.seconds = float(load_spec()["run_seconds"])
    if args.selftest:
        return selftest(args)
    if args.setup_probe:
        return setup_probe(args)
    if args.workload or args.scenario_file:
        args.workload = args.workload or "adhoc"
        known = [w["name"] for w in load_spec()["workloads"]]
        if args.workload not in known and not args.scenario_file:
            ap.error(f"unknown workload {args.workload!r}; one of {known}")
        return run_one(args)
    return run_all(args)


if __name__ == "__main__":
    sys.exit(main())
