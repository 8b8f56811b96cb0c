"""Command-line interface: quick experiments without writing a script.

Examples::

    python -m repro info
    python -m repro ping --direction sci-to-myri --size 4M --packet 64K
    python -m repro raw --protocol myrinet
    python -m repro fig6
    python -m repro fig7 --packets 8K,128K
    python -m repro stats --direction sci-to-myri --size 4M
    python -m repro trace --size 1M --out trace.json
    python -m repro bench --sweep-nodes
    python -m repro solve --scenario scenario.yaml
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
from .sim.errors import ProcessCrashed, RetryExhausted

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


def _parse_payload(text: str) -> int:
    size = _parse_size(text)
    if size < 1:
        raise argparse.ArgumentTypeError(
            f"bad size {text!r} (a transfer needs at least 1 byte)")
    return size


def _parse_probability(text: str) -> float:
    try:
        p = float(text)
        ok = 0.0 <= p <= 1.0
    except ValueError:
        ok = False
    if not ok:
        raise argparse.ArgumentTypeError(
            f"bad probability {text!r} (expected a number in [0, 1])")
    return p


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
    res = harness.measure(args.size, direction=direction)
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


def _figure(args, direction: str, title: str) -> int:
    curves = figure_sweep(direction, packet_sizes=args.packets,
                          message_sizes=args.sizes)
    print(format_series_table(curves, title=title))
    print()
    print(plot_series(curves, title=title))
    return 0


def cmd_fig6(args) -> int:
    return _figure(args, "b0->a0",
                   "Figure 6: forwarding bandwidth, SCI -> Myrinet")


def cmd_fig7(args) -> int:
    return _figure(args, "a0->b0",
                   "Figure 7: forwarding bandwidth, Myrinet -> SCI")


_DIRECTIONS = {"sci-to-myri": ("s0", "m0"), "myri-to-sci": ("m0", "s0")}


def _forwarded_run(args):
    """One telemetry-enabled, traced reliable transfer across the canonical
    two-gateway testbed (m0 —myrinet— {gwA,gwB} —sci— s0).

    Returns ``(session, elapsed_us, attempts)``.
    """
    import numpy as np

    from .faults import ChannelFaults, FaultPlan
    from .hw import build_world
    from .hw.params import GatewayParams
    from .madeleine import ReliableEndpoint, RetryPolicy, Session

    src_name, dst_name = _DIRECTIONS[args.direction]
    plan = None
    if args.drop > 0:
        plan = FaultPlan(seed=args.seed,
                         default=ChannelFaults(drop_p=args.drop))
    world = build_world({"m0": ["myrinet"], "gwA": ["myrinet", "sci"],
                         "gwB": ["myrinet", "sci"], "s0": ["sci"]})
    session = Session(world, packet_size=args.packet, telemetry=True,
                      fault_plan=plan)
    session.trace.enable()
    myri = session.channel("myrinet", ["m0", "gwA", "gwB"])
    sci = session.channel("sci", ["gwA", "gwB", "s0"])
    # The bounded gateway stall keeps an abandoned attempt (chaos mode)
    # from wedging a forwarding worker while it holds the outgoing
    # connection lock.
    vch = session.virtual_channel(
        [myri, sci], gateway_params=GatewayParams(stall_timeout=5_000.0))
    src, dst = session.rank(src_name), session.rank(dst_name)
    # The recovery clocks must cover one whole attempt (~size / bandwidth):
    # an RTO shorter than the transfer would retransmit mid-flight on a
    # healthy fabric, and a re-ACK period shorter than the attempt makes
    # the sender mistake a progress report for an abandoned attempt.
    rto = 50_000.0 + args.size * 0.2
    policy = RetryPolicy(rto=rto, rto_max=2 * rto,
                         reack_interval=rto, reack_ttl=4 * rto)
    rel_src = ReliableEndpoint(vch.endpoint(src), policy)
    rel_dst = ReliableEndpoint(vch.endpoint(dst), policy)
    payload = np.zeros(args.size, dtype=np.uint8)
    result = {}

    def sender():
        result["attempts"] = yield from rel_src.send(dst, payload)

    def receiver():
        _src, data, _tid = yield from rel_dst.recv()
        result["t"] = session.now
        result["nbytes"] = len(data)

    session.spawn(sender(), name="stats:send")
    session.spawn(receiver(), name="stats:recv")
    session.run()
    session.close()
    return session, result["t"], result.get("attempts", 0)


def cmd_stats(args) -> int:
    from .telemetry import format_metrics

    session, elapsed, attempts = _forwarded_run(args)
    print(f"{args.direction}, {args.size} B message, "
          f"{args.packet >> 10} KB packets, drop_p={args.drop}:")
    print(f"  delivered in {elapsed:.1f} µs "
          f"({args.size / elapsed:.1f} MB/s), {attempts} attempt(s)\n")
    snapshot = session.metrics.snapshot()
    print(format_metrics(snapshot))
    if args.json:
        from .analysis import write_metrics_json
        write_metrics_json(snapshot, args.json)
        print(f"\nwrote {args.json}")
    if args.csv:
        from .analysis import write_metrics_csv
        write_metrics_csv(snapshot, args.csv)
        print(f"wrote {args.csv}")
    return 0


def _sweep_pipeline(args) -> int:
    import pathlib

    from .bench import pipeline_sweep
    from .bench.jsonio import dump_json

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
    if args.sweep_out:
        path = pathlib.Path(args.sweep_out)
        dump_json({"suite": "sweep-pipeline", **result}, path)
        print(f"\nwrote {path}")
    return 0


def _sweep_rails(args) -> int:
    import pathlib

    from .bench import rails_sweep
    from .bench.jsonio import dump_json

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
    if args.sweep_out:
        path = pathlib.Path(args.sweep_out)
        dump_json({"suite": "sweep-rails", **result}, path)
        print(f"\nwrote {path}")
    return 0


def _sweep_nodes(args) -> int:
    import pathlib

    from .bench.jsonio import dump_json
    from .bench.scale import format_sweep, sweep_nodes

    rows = sweep_nodes(progress=lambda msg: print(f"  running {msg} ...",
                                                  flush=True))
    print()
    print(format_sweep(rows))
    print("\nopen-loop Poisson traffic on generated tori; 'gwq' is "
          "the gateway queue high-water mark and "
          "'ev/MB' the kernel cost per transferred MB "
          "(see docs/scaling.md)")
    if args.sweep_out:
        path = pathlib.Path(args.sweep_out)
        dump_json({"suite": "sweep-nodes", "rows": rows}, path)
        print(f"\nwrote {path}")
    return 0


def _bench_scenario(args) -> int:
    from .bench.scale import run_traffic_scenario
    from .scenario import load_scenario

    scenario = load_scenario(args.scenario)
    print(f"scenario {args.scenario}: {scenario.describe()}")
    row = run_traffic_scenario(scenario)
    for key in ("flows", "completed", "failed", "peak_active", "p50_fct_us",
                "p99_fct_us", "mean_fct_us", "duration_us", "goodput_mbs",
                "gw_queue_hwm", "events", "events_per_mb"):
        if key not in row:
            continue
        value = row[key]
        text = f"{value:.1f}" if isinstance(value, float) else str(value)
        print(f"  {key:16s} {text}")
    return 0


def cmd_bench(args) -> int:
    if args.sweep_pipeline:
        return _sweep_pipeline(args)
    if args.sweep_rails:
        return _sweep_rails(args)
    if args.sweep_nodes:
        return _sweep_nodes(args)
    if args.scenario:
        return _bench_scenario(args)
    print("nothing to do: pass --scenario or one of --sweep-pipeline/"
          "--sweep-rails/--sweep-nodes", file=sys.stderr)
    return 2


def cmd_solve(args) -> int:
    from .bench.jsonio import dump_json
    from .scenario import load_scenario
    from .solver import solve

    scenario = load_scenario(args.scenario)
    print(f"scenario {args.scenario}: {scenario.describe()}")
    result = solve(scenario)
    print(f"\n{'flow':>6s} {'route':24s} {'bytes':>10s} {'arrival':>10s} "
          f"{'FCT':>10s} {'MB/s':>8s}")
    for f in result.flows:
        print(f"{f.index:6d} {f.src + ' -> ' + f.dst:24s} {f.nbytes:10d} "
              f"{f.arrival:9.1f}u {f.fct_us:9.1f}u {f.bandwidth:8.2f}")
    summary = result.summary()
    print()
    for key in ("flows", "completed", "peak_active", "p50_fct_us",
                "p99_fct_us", "mean_fct_us", "duration_us", "goodput_mbs",
                "events"):
        value = summary[key]
        text = f"{value:.1f}" if isinstance(value, float) else str(value)
        print(f"  {key:16s} {text}")
    links = sorted(result.link_utilization().items(),
                   key=lambda kv: -kv[1])[:8]
    if links:
        print("\n  busiest links (mean utilization over the run):")
        for name, u in links:
            print(f"    {name:12s} {u:7.1%}")
    if args.out:
        dump_json({
            "suite": "solve",
            "scenario": scenario.describe(),
            "summary": summary,
            "flows": [{"index": f.index, "src": f.src, "dst": f.dst,
                       "nbytes": f.nbytes, "arrival_us": f.arrival,
                       "fct_us": f.fct_us, "bandwidth_mbs": f.bandwidth,
                       "rails": f.rails} for f in result.flows],
            "link_utilization": result.link_utilization(),
        }, args.out)
        print(f"\nwrote {args.out}")
    return 0


def cmd_fuzz(args) -> int:
    from .fuzz import load_repro, minimize_scenario, run_campaign, run_scenario

    if args.replay:
        scenario = load_repro(args.replay)
        if args.minimize:
            result = run_scenario(scenario)
            if not result.ok:
                scenario = minimize_scenario(
                    scenario, result.failures[0].invariant,
                    progress=lambda msg: print(msg, flush=True))
        result = run_scenario(scenario)
        print(f"replay {args.replay}: {scenario.describe()}")
        for key, value in sorted(result.stats.items()):
            print(f"  {key:12s} {value}")
        if result.ok:
            print("  PASS: no invariant violated")
            return 0
        for f in result.failures:
            print(f"  {f}")
        return 1

    report = run_campaign(
        runs=args.runs, seed_base=args.seed,
        time_budget=args.time_budget,
        minimize=not args.no_minimize,
        out_dir=args.out_dir,
        progress=lambda msg: print(msg, flush=True),
        jobs=args.jobs)
    print(report.summary())
    return 0 if report.ok else 1


def cmd_trace(args) -> int:
    from .analysis import write_chrome_trace, write_spans_chrome

    session, elapsed, _attempts = _forwarded_run(args)
    n = write_chrome_trace(session.trace, args.out)
    print(f"wrote {args.out}: {n} trace events "
          f"(run took {elapsed:.1f} µs simulated)")
    if args.spans_out:
        n = write_spans_chrome(session.spans, args.spans_out)
        print(f"wrote {args.spans_out}: {n} span events")
    return 0


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

    for name, fn in (("fig6", cmd_fig6), ("fig7", cmd_fig7)):
        p = sub.add_parser(name, help=f"regenerate {name} of the paper")
        p.add_argument("--packets", type=_parse_sizes,
                       default=list(PAPER_PACKET_SIZES))
        p.add_argument("--sizes", type=_parse_sizes,
                       default=list(PAPER_MESSAGE_SIZES))
        p.set_defaults(fn=fn)

    def _forward_args(p) -> None:
        p.add_argument("--direction", choices=sorted(_DIRECTIONS),
                       default="sci-to-myri")
        p.add_argument("--size", type=_parse_payload, default=4 << 20)
        p.add_argument("--packet", type=_parse_size, default=64 << 10)
        p.add_argument("--drop", type=_parse_probability, default=0.0,
                       help="per-fragment drop probability in [0, 1] "
                            "(chaos)")
        p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser(
        "stats", help="telemetry snapshot of one forwarded transfer")
    _forward_args(p)
    p.add_argument("--json", metavar="PATH",
                   help="also write the snapshot as JSON")
    p.add_argument("--csv", metavar="PATH",
                   help="also write the snapshot as CSV")
    p.set_defaults(fn=cmd_stats)

    p = sub.add_parser(
        "bench",
        help="parameter sweeps and traffic-scenario runs")
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
    p.add_argument("--scenario", metavar="FILE",
                   help="run one declarative traffic scenario "
                        "(YAML or JSON, see docs/scaling.md)")
    p.set_defaults(fn=cmd_bench)

    p = sub.add_parser(
        "solve",
        help="analytic fast-path solver: flow rates/FCTs without the DES")
    p.add_argument("--scenario", metavar="FILE", required=True,
                   help="solve one declarative scenario (YAML or JSON)")
    p.add_argument("--out", default="",
                   help="also write the result as JSON to this path")
    p.set_defaults(fn=cmd_solve)

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
    p.add_argument("--replay", metavar="FILE",
                   help="re-execute one repro or scenario file (YAML or "
                        "JSON, bare or fuzz-repro wrapped) instead of a "
                        "campaign")
    p.add_argument("--minimize", action="store_true",
                   help="with --replay: shrink the scenario first if it "
                        "still fails")
    p.add_argument("--no-minimize", action="store_true",
                   help="campaign mode: save failures unminimized")
    p.add_argument("--out-dir", default="fuzz-corpus", metavar="DIR",
                   help="directory for repro files of failing scenarios")
    p.add_argument("--jobs", type=int, default=None, metavar="N",
                   help="campaign mode: run scenarios in a multiprocessing "
                        "pool of N workers (independent random draws per "
                        "seed; disables corpus-guided mutation)")
    p.set_defaults(fn=cmd_fuzz)

    p = sub.add_parser(
        "trace", help="Chrome about:tracing export of one forwarded transfer")
    _forward_args(p)
    p.add_argument("--out", default="trace.json",
                   help="trace-event JSON output path")
    p.add_argument("--spans-out", default="",
                   help="also export telemetry spans to this path")
    p.set_defaults(fn=cmd_trace)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ProcessCrashed as exc:
        # A reliable transfer that gives up is a typed outcome, not a crash.
        if not isinstance(exc.__cause__, RetryExhausted):
            raise
        print(f"repro {args.command}: RetryExhausted: {exc.__cause__}",
              file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
