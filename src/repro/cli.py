"""Command-line interface: quick experiments without writing a script.

Examples::

    python -m repro info
    python -m repro ping --direction sci-to-myri --size 4M --packet 64K
    python -m repro raw --protocol myrinet
    python -m repro fig6
    python -m repro fig7 --packets 8K,128K
    python -m repro run benchmarks/scenarios/testbed.json --metrics m.csv
    python -m repro run benchmarks/scenarios/testbed.json --trace t.json
    python -m repro run benchmarks/scenarios/torus_uniform.yaml --solver
    python -m repro run tests/faults/scenarios/acceptance.json --check
    python -m repro bench --sweep-nodes

``repro run FILE`` is the one way to run a scenario file (bare or a fuzz
repro): the DES by default, the analytic solver with ``--solver``, the
invariant catalog of docs/robustness.md with ``--check``.
"""

from __future__ import annotations

import argparse
import re
import sys

from .analysis import plot_series
from .bench import (PAPER_MESSAGE_SIZES, PAPER_PACKET_SIZES, PingHarness,
                    Series, figure_sweep, format_series_table,
                    probe_protocol_rates)
from .hw import PROTOCOLS

__all__ = ["main"]

_SIZE_RE = re.compile(r"(\d+(?:\.\d+)?)([KMG]?)B?", re.IGNORECASE)
_SIZE_MULT = {"": 1, "K": 1 << 10, "M": 1 << 20, "G": 1 << 30}


def _parse_size(text: str) -> int:
    m = _SIZE_RE.fullmatch(text.strip())
    if m is None:
        raise argparse.ArgumentTypeError(
            f"bad size {text!r} (expected e.g. 512, 64K, 4M, 1G)")
    return int(float(m.group(1)) * _SIZE_MULT[m.group(2).upper()])


def _parse_sizes(text: str) -> list[int]:
    return [_parse_size(part) for part in text.split(",") if part]


def cmd_info(_args) -> int:
    print("Calibrated protocols (bandwidths in MB/s, times in µs):\n")
    header = (f"{'protocol':14s}{'peak':>6s}{'link':>6s}{'latency':>8s}"
              f"{'tx':>5s}{'rx':>5s}{'static':>8s}{'mtu':>9s}")
    print(header)
    print("-" * len(header))
    for p in PROTOCOLS.values():
        static = ("tx+rx" if p.tx_static and p.rx_static
                  else "tx" if p.tx_static else "rx" if p.rx_static else "-")
        print(f"{p.name:14s}{p.host_peak:6.0f}{p.link_bandwidth:6.0f}"
              f"{p.latency:8.1f}{p.tx_kind:>5s}{p.rx_kind:>5s}"
              f"{static:>8s}{p.max_mtu >> 10:8d}K")
    return 0


def cmd_ping(args) -> int:
    direction = {"sci-to-myri": "b0->a0", "myri-to-sci": "a0->b0"}[args.direction]
    harness = PingHarness(packet_size=args.packet)
    try:
        harness.scenario(args.size, direction).validate()
    except ValueError as exc:
        print(f"repro ping: {exc}", file=sys.stderr)
        return 2
    res = harness.measure(args.size, direction)
    print(f"{args.direction}, {args.size} B message, "
          f"{args.packet >> 10} KB paquets:")
    print(f"  one-way time : {res.one_way_us:10.1f} µs "
          f"(RTT {res.rtt_us:.1f} − ack {res.ack_us:.1f})")
    print(f"  bandwidth    : {res.bandwidth:10.1f} MB/s")
    return 0


def cmd_raw(args) -> int:
    proto = args.protocol
    if proto not in PROTOCOLS:
        print(f"unknown protocol {proto!r}; try: {', '.join(PROTOCOLS)}",
              file=sys.stderr)
        return 2
    series = Series(label=proto)
    for size in args.sizes:
        series.add(size, probe_protocol_rates((proto,), size)[proto])
    print(format_series_table([series],
                              title=f"raw one-way bandwidth, {proto}"))
    return 0


_FIGURES = {
    "fig6": ("b0->a0", "Figure 6: forwarding bandwidth, SCI -> Myrinet"),
    "fig7": ("a0->b0", "Figure 7: forwarding bandwidth, Myrinet -> SCI"),
}


def cmd_figure(args) -> int:
    direction, title = _FIGURES[args.command]
    curves = figure_sweep(direction, packet_sizes=args.packets,
                          message_sizes=args.sizes)
    print(format_series_table(curves, title=title))
    print()
    print(plot_series(curves, title=title))
    return 0


def _sweep_pipeline(args) -> dict:
    from .bench import pipeline_sweep

    result = pipeline_sweep(probe=args.probe)
    frag_keys = sorted({k for row in result["grid"].values() for k in row},
                       key=lambda k: int(k[:-1]))
    print(f"forwarded bandwidth (MB/s), {result['direction']}, "
          f"{result['message'] >> 20} MB message"
          + (", probed rates" if result["probe"] else "") + ":\n")
    header = f"{'depth':>8s}" + "".join(f"{k:>9s}" for k in frag_keys) \
        + f"{'tuned':>14s}"
    print(header)
    print("-" * len(header))
    for dkey in sorted(result["grid"], key=lambda k: int(k[5:])):
        row = result["grid"][dkey]
        cells = "".join(f"{row[k]:9.1f}" for k in frag_keys)
        t = result["tuned"].get(dkey)
        tuned = (f"{t['mbs']:8.1f}@{t['fragment_kb']:.0f}k" if t else "")
        print(f"{dkey:>8s}{cells}{tuned:>14s}")
    print("\nthe knee: where a column stops growing down a row, extra depth "
          "stops paying; 'tuned' is the fragment size the adaptive tuner "
          "picked for that depth (see docs/performance.md)")
    return {"suite": "sweep-pipeline", **result}


def _sweep_rails(args) -> dict:
    from .bench import rails_sweep

    result = rails_sweep()
    pkt_keys = sorted({k for row in result["grid"].values() for k in row},
                      key=lambda k: int(k[:-1]))
    print(f"striped bandwidth (MB/s), a0->b0, "
          f"{result['message'] >> 20} MB message, "
          "measured | model per cell:\n")
    header = f"{'rails':>8s}" + "".join(f"{k:>16s}" for k in pkt_keys) \
        + f"{'mean gain':>12s}"
    print(header)
    print("-" * len(header))
    for rkey in sorted(result["grid"], key=lambda k: int(k[5:])):
        row, mrow = result["grid"][rkey], result["model"][rkey]
        cells = "".join(f"{row[k]:8.1f}|{mrow[k]:<7.1f}" for k in pkt_keys)
        gain = result["mean_gain"].get(rkey)
        print(f"{rkey:>8s}{cells}"
              + (f"{gain:11.2f}x" if gain is not None else ""))
    print("\neach rail adds its own sender NIC, gateway, and receiver NIC; "
          "the aggregate bends below linear once the end hosts' PCI buses "
          "saturate (see docs/performance.md)")
    return {"suite": "sweep-rails", **result}


def _sweep_nodes(args) -> dict:
    from .bench.scale import format_sweep, sweep_nodes

    rows = sweep_nodes(progress=lambda msg: print(f"  running {msg} ...",
                                                  flush=True))
    print()
    print(format_sweep(rows))
    print("\nopen-loop Poisson traffic on generated tori; 'gwq' is "
          "the gateway queue high-water mark and "
          "'ev/MB' the kernel cost per transferred MB "
          "(see docs/scaling.md)")
    return {"suite": "sweep-nodes", "rows": rows}


def cmd_bench(args) -> int:
    """Run the one sweep asked for; ``--sweep-out`` gets its JSON."""
    for wanted, sweep in ((args.sweep_pipeline, _sweep_pipeline),
                          (args.sweep_rails, _sweep_rails),
                          (args.sweep_nodes, _sweep_nodes)):
        if wanted:
            doc = sweep(args)
            if args.sweep_out:
                from .bench.jsonio import dump_json
                dump_json(doc, args.sweep_out)
                print(f"\nwrote {args.sweep_out}")
            return 0
    print("nothing to do: pass one of --sweep-pipeline/--sweep-rails/"
          "--sweep-nodes", file=sys.stderr)
    return 2


def _print_row(row: dict, keys) -> None:
    for key in keys:
        if key not in row:
            continue
        value = row[key]
        text = f"{value:.1f}" if isinstance(value, float) else str(value)
        print(f"  {key:16s} {text}")


def _run_des(args, scenario) -> int:
    """The DES: the summary row, one stderr line per failed flow."""
    from .bench.scale import traffic_row
    from .traffic import run_traffic

    session, engine = run_traffic(scenario, trace=bool(args.trace))
    _print_row(traffic_row(session, engine), (
        "flows", "completed", "failed", "peak_active", "p50_fct_us",
        "p99_fct_us", "mean_fct_us", "duration_us", "goodput_mbs",
        "gw_queue_hwm", "events", "events_per_mb"))
    if args.metrics:
        from .analysis import write_metrics_csv, write_metrics_json
        write = (write_metrics_csv if args.metrics.lower().endswith(".csv")
                 else write_metrics_json)
        write(session.metrics, args.metrics)
        print(f"\nwrote {args.metrics}")
    if args.trace:
        from .analysis import write_chrome_trace
        n = write_chrome_trace(session.trace, args.trace)
        print(f"wrote {args.trace}: {n} trace events")
    for flow, error in engine.failed:
        print(f"repro run: flow {flow.index} {flow.src}->{flow.dst} "
              f"({flow.nbytes} B) failed: {error}", file=sys.stderr)
    return 1 if engine.failed else 0


def _run_solver(args, scenario) -> int:
    from .bench.jsonio import dump_json
    from .solver import solve

    result = solve(scenario)
    print(f"\n{'flow':>6s} {'route':24s} {'bytes':>10s} {'arrival':>10s} "
          f"{'FCT':>10s} {'MB/s':>8s}")
    for f in result.flows:
        print(f"{f.index:6d} {f.src + ' -> ' + f.dst:24s} {f.nbytes:10d} "
              f"{f.arrival:9.1f}u {f.fct_us:9.1f}u {f.bandwidth:8.2f}")
    summary = result.summary()
    print()
    _print_row(summary, ("flows", "completed", "peak_active", "p50_fct_us",
                         "p99_fct_us", "mean_fct_us", "duration_us",
                         "goodput_mbs", "events"))
    links = sorted(result.link_utilization().items(),
                   key=lambda kv: -kv[1])[:8]
    if links:
        print("\n  busiest links (mean utilization over the run):")
        for name, u in links:
            print(f"    {name:12s} {u:7.1%}")
    if args.metrics:
        dump_json({
            "suite": "solve",
            "scenario": scenario.describe(),
            "summary": summary,
            "flows": [{"index": f.index, "src": f.src, "dst": f.dst,
                       "nbytes": f.nbytes, "arrival_us": f.arrival,
                       "fct_us": f.fct_us, "bandwidth_mbs": f.bandwidth,
                       "rails": f.rails} for f in result.flows],
            "link_utilization": result.link_utilization(),
        }, args.metrics)
        print(f"\nwrote {args.metrics}")
    return 0


def _report(result) -> int:
    """Print an invariant-catalog verdict; 1 on a violation."""
    for key, value in sorted(result.stats.items()):
        print(f"  {key:12s} {value}")
    if result.ok:
        print("  PASS: no invariant violated")
        return 0
    for f in result.failures:
        print(f"  {f}")
    return 1


def cmd_run(args) -> int:
    from .fuzz import run_scenario
    from .scenario import load_scenario

    if args.trace and (args.solver or args.check) or (
            args.metrics and (args.check or args.solver
                              and args.metrics.lower().endswith(".csv"))):
        print("repro run: --trace needs the DES run, --metrics the DES or "
              "--solver run, and --solver writes JSON", file=sys.stderr)
        return 2
    try:
        scenario = load_scenario(args.file)
    except (OSError, ValueError) as exc:
        print(f"repro run: {args.file}: {exc}", file=sys.stderr)
        return 2
    print(f"scenario {args.file}: {scenario.describe()}")
    if args.check:
        return _report(run_scenario(scenario))
    if args.solver:
        return _run_solver(args, scenario)
    return _run_des(args, scenario)


def cmd_fuzz(args) -> int:
    from .fuzz import minimize_scenario, run_campaign, run_scenario
    from .scenario import load_scenario

    if args.minimize:
        scenario = load_scenario(args.minimize)
        result = run_scenario(scenario)
        if not result.ok:
            result = run_scenario(minimize_scenario(
                scenario, result.failures[0].invariant,
                progress=lambda msg: print(msg, flush=True)))
        print(f"minimized {args.minimize}: {result.scenario.describe()}")
        return _report(result)

    report = run_campaign(
        runs=args.runs, seed_base=args.seed,
        time_budget=args.time_budget,
        minimize=not args.no_minimize,
        out_dir=args.out_dir,
        progress=lambda msg: print(msg, flush=True),
        jobs=args.jobs)
    print(report.summary())
    return 0 if report.ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Madeleine inter-device forwarding reproduction (IPPS'01)")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("info", help="print the calibrated protocol table") \
        .set_defaults(fn=cmd_info)

    p = sub.add_parser("ping", help="one forwarding measurement (§3.1 method)")
    p.add_argument("--direction", choices=["sci-to-myri", "myri-to-sci"],
                   default="sci-to-myri")
    p.add_argument("--size", type=_parse_size, default=4 << 20)
    p.add_argument("--packet", type=_parse_size, default=64 << 10)
    p.set_defaults(fn=cmd_ping)

    p = sub.add_parser("raw", help="raw single-network bandwidth curve")
    p.add_argument("--protocol", default="myrinet")
    p.add_argument("--sizes", type=_parse_sizes,
                   default=[(1 << k) << 10 for k in range(0, 13, 2)])
    p.set_defaults(fn=cmd_raw)

    for name in _FIGURES:
        p = sub.add_parser(name, help=f"regenerate {name} of the paper")
        p.add_argument("--packets", type=_parse_sizes,
                       default=list(PAPER_PACKET_SIZES))
        p.add_argument("--sizes", type=_parse_sizes,
                       default=list(PAPER_MESSAGE_SIZES))
        p.set_defaults(fn=cmd_figure)

    p = sub.add_parser(
        "bench",
        help="parameter sweeps")
    p.add_argument("--sweep-pipeline", action="store_true",
                   help="sweep gateway pipeline depth x fragment size on "
                        "the fig5 topology (plus the adaptive tuner)")
    p.add_argument("--probe", action="store_true",
                   help="with --sweep-pipeline: run the online rate probe "
                        "and feed measured rates to the tuner")
    p.add_argument("--sweep-rails", action="store_true",
                   help="sweep stripe rail count x paquet size on the "
                        "multirail dual-NIC topology (measured vs model)")
    p.add_argument("--sweep-nodes", action="store_true",
                   help="scale-out grid: generated tori up to 256 nodes "
                        "under open-loop traffic (p50/p99 FCT, events/MB)")
    p.add_argument("--sweep-out", default="",
                   help="with a --sweep-* flag: also write the sweep table "
                        "as JSON to this path")
    p.set_defaults(fn=cmd_bench)

    p = sub.add_parser(
        "run", help="run one scenario file (YAML or JSON, bare or "
                    "fuzz-repro wrapped): the DES, the solver, or the "
                    "invariant catalog")
    p.add_argument("file", metavar="FILE")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--solver", action="store_true",
                      help="price the flows with the analytic solver "
                           "instead of the DES")
    mode.add_argument("--check", action="store_true",
                      help="judge the run by the invariant catalog "
                           "(docs/robustness.md); exit 1 on a violation")
    p.add_argument("--metrics", metavar="FILE",
                   help="write the telemetry snapshot (CSV if FILE ends "
                        "in .csv, else JSON); with --solver, the solver's "
                        "flows and link utilization (JSON only)")
    p.add_argument("--trace", metavar="FILE",
                   help="write the wire events and gateway forward "
                        "intervals as one Chrome trace-event file")
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser(
        "fuzz",
        help="coverage-guided scenario fuzzer (invariants of "
             "docs/robustness.md)")
    p.add_argument("--runs", type=int, default=100,
                   help="number of scenarios to execute")
    p.add_argument("--seed", type=int, default=0,
                   help="base seed: run i uses seed+i")
    p.add_argument("--time-budget", type=float, default=None, metavar="S",
                   help="stop after S wall-clock seconds even if --runs "
                        "remain")
    p.add_argument("--minimize", metavar="FILE",
                   help="shrink one scenario file while it still fails "
                        "the same invariant, instead of a campaign")
    p.add_argument("--no-minimize", action="store_true",
                   help="campaign mode: save failures unminimized")
    p.add_argument("--out-dir", default="fuzz-corpus", metavar="DIR",
                   help="directory for repro files of failing scenarios")
    p.add_argument("--jobs", type=int, default=None, metavar="N",
                   help="campaign mode: run scenarios in a multiprocessing "
                        "pool of N workers (independent random draws per "
                        "seed; disables corpus-guided mutation)")
    p.set_defaults(fn=cmd_fuzz)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
