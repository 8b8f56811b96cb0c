"""Chaos harness: reliable forwarding under a randomized fault schedule.

Describes the canonical cluster-of-clusters testbed (a Myrinet sender, two
Myrinet+SCI gateways, an SCI receiver) as a :class:`~repro.scenario.Scenario`
with a seeded :class:`~repro.faults.FaultPlan`, pushes a batch of reliable
transfers through it with the traffic engine every scenario runs on, and
verifies every payload arrives intact.
The schedule is a pure function of ``--seed``, so a failing run is a
reproducible bug report: re-run with the same arguments and the same
fragment is dropped at the same simulated microsecond.

Two ways to drive it:

* explicit knobs — ``--drop``, ``--corrupt``, ``--crash``, ``--flap``
  pin the fault schedule directly;
* ``--random`` — draw the whole schedule (rates, crash time, flap
  windows) from the seed, within sane bounds.

Exit status is 0 iff every message was delivered byte-identical.
"""

from __future__ import annotations

import argparse
import pathlib
import sys
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

import numpy as np

from repro.faults import ChannelFaults, FaultPlan, LinkEvent, NodeEvent
from repro.madeleine import Session
from repro.scenario import MessageSpec, Scenario, Topology
from repro.sim.errors import ProcessCrashed
from repro.traffic.engine import TrafficEngine, _payload

__all__ = ["ChaosConfig", "ChaosReport", "run_chaos", "replay_command",
           "main"]


@dataclass
class ChaosConfig:
    """One chaos run, fully determined by its fields."""

    seed: int = 0
    messages: int = 4
    nbytes: int = 120_000
    drop_p: float = 0.03
    corrupt_p: float = 0.015
    delay_p: float = 0.0
    delay_us: float = 0.0
    #: crash gwA at this simulated time (µs); None = no crash.
    crash_at: Optional[float] = None
    #: restart the crashed gateway this long after the crash; None = stays down.
    restart_after: Optional[float] = None
    #: (down_at, up_at) windows during which the SCI rail is down.
    flaps: Sequence[Tuple[float, float]] = ()
    packet_size: int = 16 << 10
    gw_stall_timeout: float = 5_000.0
    max_attempts: int = 8


@dataclass
class ChaosReport:
    """What happened: integrity verdict plus recovery statistics."""

    ok: bool
    delivered: int
    expected: int
    corrupt: List[int] = field(default_factory=list)
    attempts: List[int] = field(default_factory=list)
    retransmits: int = 0
    fragments_dropped: int = 0
    fragments_corrupted: int = 0
    messages_abandoned: int = 0
    failovers: int = 0
    error: Optional[str] = None

    def summary(self) -> str:
        lines = [
            f"delivered {self.delivered}/{self.expected} messages "
            f"({'all intact' if self.ok else 'FAILED'})",
            f"attempts per message : {self.attempts}",
            f"retransmissions      : {self.retransmits}",
            f"fragments dropped    : {self.fragments_dropped}",
            f"fragments corrupted  : {self.fragments_corrupted}",
            f"gateway msgs abandoned: {self.messages_abandoned}",
            f"route failovers      : {self.failovers}",
        ]
        if self.corrupt:
            lines.append(f"corrupted payloads   : {self.corrupt}")
        if self.error:
            lines.append(f"error                : {self.error}")
        return "\n".join(lines)


def random_config(seed: int, messages: int = 4,
                  nbytes: int = 120_000) -> ChaosConfig:
    """Draw a whole fault schedule from ``seed`` (bounded severity)."""
    rng = np.random.default_rng(seed)
    cfg = ChaosConfig(
        seed=seed, messages=messages, nbytes=nbytes,
        drop_p=float(rng.uniform(0.0, 0.05)),
        corrupt_p=float(rng.uniform(0.0, 0.025)),
        delay_p=float(rng.uniform(0.0, 0.1)),
        delay_us=float(rng.uniform(0.0, 200.0)),
    )
    if rng.random() < 0.5:
        cfg.crash_at = float(rng.uniform(1_000.0, 20_000.0))
        if rng.random() < 0.5:
            cfg.restart_after = float(rng.uniform(10_000.0, 100_000.0))
    if rng.random() < 0.3:
        down = float(rng.uniform(5_000.0, 50_000.0))
        cfg.flaps = ((down, down + float(rng.uniform(5_000.0, 30_000.0))),)
    return cfg


def run_chaos(cfg: ChaosConfig) -> ChaosReport:
    """Execute one chaos run; never raises on injected faults."""
    # a0 -myrinet (c0)- {gw00, gw01} -sci (c1)- b0; "gwA" is gw00.
    topo = Topology("chain", ("myrinet", "sci"), sizes=(1, 1), gateways=(2,))
    faults = ChannelFaults(drop_p=cfg.drop_p, corrupt_p=cfg.corrupt_p,
                           delay_p=cfg.delay_p, delay_us=cfg.delay_us)
    node_events = []
    if cfg.crash_at is not None:
        node_events.append(NodeEvent(time=cfg.crash_at, node="gw00"))
        if cfg.restart_after is not None:
            node_events.append(NodeEvent(time=cfg.crash_at + cfg.restart_after,
                                         node="gw00", up=True))
    link_events = []
    for down_at, up_at in cfg.flaps:
        # Flap the Myrinet rail: the link driver takes the channel down and
        # back up; in-flight fragments during the window are dropped.
        link_events.append(LinkEvent(time=down_at, channel="c0"))
        link_events.append(LinkEvent(time=up_at, channel="c0", up=True))
    scenario = Scenario(
        seed=cfg.seed, topology=topo, packet_size=cfg.packet_size,
        messages=(MessageSpec("a0", "b0", cfg.nbytes),) * cfg.messages,
        faults=FaultPlan(seed=cfg.seed, channels={"c0": faults, "c1": faults},
                         link_events=tuple(link_events),
                         node_events=tuple(node_events)),
        max_attempts=cfg.max_attempts, gw_stall_timeout=cfg.gw_stall_timeout)
    s = Session.from_scenario(scenario)
    engine = TrafficEngine(s, scenario)
    engine.start()
    report = ChaosReport(ok=False, delivered=0, expected=cfg.messages)
    try:
        s.run()
    except ProcessCrashed as exc:
        report.error = f"{type(exc.__cause__ or exc).__name__}: {exc}"
    if engine.failed:
        report.error = "; ".join(f"{error}: message {flow.index}"
                                 for flow, error in engine.failed)

    sent = {_payload(cfg.seed, f.index, f.nbytes) for f in engine.flows}
    got = []
    deliveries = engine.reliable[s.rank("b0")].deliveries
    while len(deliveries):
        _ok, (_src, data, _transfer) = deliveries.try_get()
        got.append(data)
    report.attempts = [r.attempts for r in engine.records]
    report.delivered = len(got)
    report.corrupt = [i for i, data in enumerate(got) if data not in sent]
    report.ok = (report.delivered == cfg.messages and not report.corrupt
                 and report.error is None)
    # Recovery statistics come from the telemetry registry — the same
    # numbers `python -m repro stats` prints.
    m = s.metrics
    report.retransmits = m.value("reliable.retransmits",
                                 vchannel=engine.vch.name, rank=s.rank("a0"))
    report.fragments_dropped = m.total("faults.fragments_dropped")
    report.fragments_corrupted = m.total("faults.fragments_corrupted")
    report.messages_abandoned = m.total("gateway.messages_abandoned")
    report.failovers = m.total("vchannel.failovers")
    return report


def _describe(cfg: ChaosConfig) -> str:
    bits = [f"seed={cfg.seed}", f"messages={cfg.messages}",
            f"nbytes={cfg.nbytes}", f"drop={cfg.drop_p:.3f}",
            f"corrupt={cfg.corrupt_p:.3f}"]
    if cfg.delay_p:
        bits.append(f"delay={cfg.delay_p:.3f}x{cfg.delay_us:.0f}us")
    if cfg.crash_at is not None:
        bits.append(f"crash gwA@{cfg.crash_at:.0f}us")
        if cfg.restart_after is not None:
            bits.append(f"restart +{cfg.restart_after:.0f}us")
    for down_at, up_at in cfg.flaps:
        bits.append(f"flap myrinet {down_at:.0f}-{up_at:.0f}us")
    return " ".join(bits)


def replay_command(cfg: ChaosConfig, random_schedule: bool) -> str:
    """The one-liner that reproduces this exact run."""
    bits = [f"python tools/chaos.py --seed {cfg.seed}",
            f"--messages {cfg.messages}", f"--bytes {cfg.nbytes}"]
    if random_schedule:
        bits.append("--random")
    else:
        bits += [f"--drop {cfg.drop_p}", f"--corrupt {cfg.corrupt_p}"]
        if cfg.delay_p:
            bits += [f"--delay-p {cfg.delay_p}", f"--delay-us {cfg.delay_us}"]
        if cfg.crash_at is not None:
            bits.append(f"--crash {cfg.crash_at}")
            if cfg.restart_after is not None:
                bits.append(f"--restart {cfg.restart_after}")
        for down_at, up_at in cfg.flaps:
            bits.append(f"--flap {down_at} {up_at}")
    return " ".join(bits)


def main(argv: Optional[Sequence[str]] = None) -> int:
    ap = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--messages", type=int, default=4)
    ap.add_argument("--bytes", type=int, default=120_000, dest="nbytes")
    ap.add_argument("--drop", type=float, default=0.03,
                    help="per-fragment drop probability")
    ap.add_argument("--corrupt", type=float, default=0.015,
                    help="per-fragment corruption probability")
    ap.add_argument("--delay-p", type=float, default=0.0)
    ap.add_argument("--delay-us", type=float, default=0.0)
    ap.add_argument("--crash", type=float, default=None, metavar="T",
                    help="crash gateway gwA at simulated time T (µs)")
    ap.add_argument("--restart", type=float, default=None, metavar="DT",
                    help="restart gwA DT µs after the crash")
    ap.add_argument("--flap", type=float, nargs=2, action="append",
                    default=[], metavar=("DOWN", "UP"),
                    help="take the Myrinet rail down between DOWN and UP µs")
    ap.add_argument("--random", action="store_true",
                    help="draw the whole fault schedule from --seed")
    ap.add_argument("--runs", type=int, default=1,
                    help="consecutive runs (seed, seed+1, ...)")
    args = ap.parse_args(argv)

    failures = 0
    for i in range(args.runs):
        seed = args.seed + i
        if args.random:
            cfg = random_config(seed, messages=args.messages,
                                nbytes=args.nbytes)
        else:
            cfg = ChaosConfig(
                seed=seed, messages=args.messages, nbytes=args.nbytes,
                drop_p=args.drop, corrupt_p=args.corrupt,
                delay_p=args.delay_p, delay_us=args.delay_us,
                crash_at=args.crash, restart_after=args.restart,
                flaps=tuple(tuple(f) for f in args.flap))
        print(f"--- chaos run: {_describe(cfg)}")
        # Any escape from the harness — an unexpected exception as much as
        # a failed integrity verdict — must fail the whole invocation, or
        # CI smoke silently passes over real bugs.
        try:
            report = run_chaos(cfg)
        except Exception as exc:  # noqa: BLE001 — report, then fail the run
            print(f"run raised {type(exc).__name__}: {exc}")
            report = None
        else:
            print(report.summary())
        if report is None or not report.ok:
            failures += 1
            print(f"FAILING SEED: {seed}")
            print(f"replay: {replay_command(cfg, args.random)}")
    if failures:
        print(f"\n{failures}/{args.runs} chaos runs FAILED")
        return 1
    print(f"\nall {args.runs} chaos run(s) passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
