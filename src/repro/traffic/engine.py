"""The traffic engine: the one driver of a scenario's flows over a session.

The engine takes the flow list :func:`~repro.traffic.flows.scenario_flows`
expands a scenario into — the explicit messages at t=0, then the generated
traffic — and is the only code that sends and receives it: the benches and
the fuzz executor (every fault run included) run this driver, and the analytic
solver prices the same list.  Flows are driven open-loop: every flow starts
at its arrival time regardless of whether earlier flows finished, so
offered load — not completion rate — shapes the arrival process, and
congestion shows up as flow-completion-time (FCT) inflation instead of
silently throttling the workload.

Plain flows carry a 12-byte self-describing header (flow id + length) so
per-destination receivers can demultiplex arrivals in any order; reliable
flows ride :class:`~repro.madeleine.ReliableEndpoint` and complete at the
sender's delivery ack — or, on a lossy enough path, *fail* with the typed
error the reliable layer gave up with (:attr:`TrafficEngine.failed`), after
which the source goes on to its next flow.  Flow-level results are recorded
twice: exact per-flow records on the engine (:attr:`TrafficEngine.records`,
feeding the p50/p99 summary) and aggregate metrics through the telemetry
registry (``traffic.*`` — see docs/telemetry.md).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

import numpy as np

from ..hw import PROTOCOLS
from ..routing import NoRouteError, route_rate
from ..scenario import Scenario
from ..sim import RetryExhausted
from ..telemetry import DEFAULT_BOUNDS, Declaration
from .flows import Flow, scenario_flows

if TYPE_CHECKING:  # pragma: no cover
    from ..madeleine import Session

__all__ = ["FlowRecord", "TrafficEngine", "run_traffic"]

#: plain-flow framing: little-endian (flow_id: u32, nbytes: u64).
_FRAME = struct.Struct("<IQ")

#: the series of a session's traffic (one slot, no labels): flows started
#: and completed, bytes they delivered, flows in flight, and each
#: completed flow's completion time.
TRAFFIC = Declaration(
    (), counters=("traffic.flows_started", "traffic.flows_completed",
                  "traffic.bytes_delivered"),
    gauges=("traffic.active_flows",),
    histograms=(("traffic.fct_us", DEFAULT_BOUNDS),))


@dataclass(frozen=True)
class FlowRecord:
    """One finished flow: completion time minus open-loop arrival time."""

    flow: Flow
    completed_at: float
    #: send attempts the reliable layer needed (1 for a plain flow).
    attempts: int = 1

    @property
    def fct(self) -> float:
        """Flow completion time, µs."""
        return self.completed_at - self.flow.arrival


class TrafficEngine:
    """Drive every flow of ``scenario`` over ``session``.

    Usage::

        session = Session.from_scenario(scenario)
        engine = TrafficEngine(session, scenario)
        engine.start()
        session.run()
        print(engine.summary())
    """

    def __init__(self, session: "Session", scenario: Scenario) -> None:
        if not session.virtual_channels:
            raise ValueError("session has no virtual channel")
        self.session = session
        self.scenario = scenario
        self.vch = session.virtual_channels[0]
        #: ``flows[i].index == i``: the messages, then the generated flows.
        self.flows = scenario_flows(scenario)
        self.records: list[FlowRecord] = []
        #: flows the reliable layer gave up on, as ``(flow, error type
        #: name)`` — ``RetryExhausted`` or ``NoRouteError``.
        self.failed: list[tuple[Flow, str]] = []
        #: rank -> the :class:`ReliableEndpoint` of every party to a
        #: reliable scenario (filled by :meth:`start`).
        self.reliable: dict = {}
        self._active = 0
        self.peak_active = 0
        self._started = False
        table = session.metrics.declared(TRAFFIC)
        (self._m_started, self._m_completed, self._m_bytes, self._m_active,
         self._m_fct) = table.families
        self._m_slot = table.declare(())

    # -- flow lifecycle bookkeeping -----------------------------------------
    def _flow_started(self) -> None:
        self._m_started.inc(self._m_slot)
        self._active += 1
        if self._active > self.peak_active:
            self.peak_active = self._active
        self._m_active.inc(self._m_slot)

    def _flow_ended(self) -> None:
        self._active -= 1
        self._m_active.dec(self._m_slot)

    def _flow_completed(self, flow: Flow, attempts: int = 1,
                        origin=None, buf=None) -> None:
        """Record one finished flow.  A plain flow comes with what its
        receiver unpacked (``origin`` rank, landed ``buf``); a reliable
        flow's payload sits on its destination endpoint's ``deliveries``."""
        self._flow_ended()
        self._m_completed.inc(self._m_slot)
        self._m_bytes.inc(self._m_slot, flow.nbytes)
        record = FlowRecord(flow, self.session.now, attempts)
        self._m_fct.observe(self._m_slot, record.fct)
        self.records.append(record)

    # -- the one sender and the one receiver --------------------------------
    def _sender(self, flows: list[Flow], rel=None):
        """Send ``flows`` in order from one process: wait for the arrival,
        send, record.  Over ``rel`` (the source's reliable endpoint) a flow
        completes or fails here; a plain flow completes at its receiver."""
        from ..madeleine import RecvMode, SendMode
        s = self.session
        sim = s.sim
        for flow in flows:
            if flow.arrival > sim.now:
                yield sim.timeout(flow.arrival - sim.now)
            self._flow_started()
            payload = _payload(self.scenario.seed, flow.index, flow.nbytes)
            if rel is None:
                ep = self.vch.endpoint(s.rank(flow.src))
                msg = ep.begin_packing(s.rank(flow.dst))
                yield msg.pack(_FRAME.pack(flow.index, flow.nbytes),
                               SendMode.CHEAPER, RecvMode.EXPRESS)
                yield msg.pack(payload, SendMode.CHEAPER, RecvMode.CHEAPER)
                yield msg.end_packing()
                continue
            try:
                attempts = yield from rel.send(s.rank(flow.dst), payload)
            except (RetryExhausted, NoRouteError) as exc:
                # The typed end of a transfer (invariant I1), not a crash:
                # record it and serve the source's next flow.
                self._flow_ended()
                self.failed.append((flow, type(exc).__name__))
            else:
                self._flow_completed(flow, attempts)

    def _plain_receiver(self, dst: str, count: int):
        from ..madeleine import RecvMode, SendMode
        ep = self.vch.endpoint(self.session.rank(dst))
        for _ in range(count):
            inc = yield ep.begin_unpacking()
            ev, head = inc.unpack(_FRAME.size, SendMode.CHEAPER,
                                  RecvMode.EXPRESS)
            yield ev
            flow_id, nbytes = _FRAME.unpack(head.tobytes())
            _ev, buf = inc.unpack(int(nbytes), SendMode.CHEAPER,
                                  RecvMode.CHEAPER)
            yield inc.end_unpacking()
            self._flow_completed(self.flows[flow_id], 1, inc.origin, buf)

    # -- entry points --------------------------------------------------------
    def start(self) -> None:
        """Spawn every traffic process; drive with ``session.run()``.

        Reliable flows are serialized per source, the explicit messages
        first — the go-back-N window is per endpoint pair — with queueing
        delay counted into FCT.  Plain traffic gets one receiver process
        per destination; explicit plain messages go out from one process
        per source in list order, generated plain flows from one process
        each (arrivals are open-loop; concurrent sends to one destination
        queue on the connection locks, which is the congestion under test).
        """
        if self._started:
            raise RuntimeError("traffic already started")
        self._started = True
        s = self.session
        sc = self.scenario
        # one kind per scenario (Scenario.validate)
        reliable = (sc.messages[0].kind if sc.messages
                    else sc.traffic.kind) == "reliable"
        if reliable:
            from ..madeleine import ReliableEndpoint
            # each endpoint's longest attempt, µs at its route's line rate
            longest: dict[str, float] = {}
            for f in self.flows:
                t = f.nbytes / route_rate(self.vch.routes.route(
                    s.rank(f.src), s.rank(f.dst)))
                for end in (f.src, f.dst):
                    longest[end] = max(longest.get(end, 0.0), t)
            for name in sorted(longest):
                rank = s.rank(name)
                self.reliable[rank] = ReliableEndpoint(
                    self.vch.endpoint(rank),
                    _retry_policy(sc.max_attempts, longest[name]))
        else:
            by_dst: dict[str, int] = {}
            for f in self.flows:
                by_dst[f.dst] = by_dst.get(f.dst, 0) + 1
            for dst in sorted(by_dst):
                s.spawn(self._plain_receiver(dst, by_dst[dst]),
                        name=f"traffic-recv:{dst}")
        # what must leave its source in order shares that source's one
        # process; every other flow gets a process of its own
        serial = self.flows if reliable else self.flows[:len(sc.messages)]
        by_src: dict[str, list[Flow]] = {}
        for f in serial:
            by_src.setdefault(f.src, []).append(f)
        for src in sorted(by_src):
            s.spawn(self._sender(by_src[src],
                                 self.reliable.get(s.rank(src))),
                    name=f"traffic-send:{src}")
        for f in self.flows[len(serial):]:
            s.spawn(self._sender([f]), name=f"traffic-flow:{f.index}")

    def summary(self) -> dict:
        """Flow-level statistics after the run (times in µs).

        FCT statistics exist only for flows that actually completed: a run
        with zero completions reports them as NaN (there is no honest
        number — certainly not 0), and ``events_per_mb`` is NaN when no
        bytes were delivered.  Consumers that need hard numbers must check
        ``completed`` (the scaling paper cells assert it equals
        ``flows``), and anything serializing a summary must route it through
        :func:`repro.bench.jsonio.json_safe` — ``json.dumps`` would other-
        wise emit bare ``NaN``/``Infinity``, which is not JSON.
        """
        nan = float("nan")
        fcts = np.array([r.fct for r in self.records])
        total_bytes = sum(r.flow.nbytes for r in self.records)
        duration = self.session.now
        events = self.session.sim.events_processed
        fnet = self.session.world.fnet
        mb = total_bytes / 1e6
        return {
            "flows": len(self.flows),
            "completed": len(self.records),
            "failed": len(self.failed),
            "peak_active": self.peak_active,
            "p50_fct_us": float(np.percentile(fcts, 50)) if len(fcts) else nan,
            "p99_fct_us": float(np.percentile(fcts, 99)) if len(fcts) else nan,
            "mean_fct_us": float(fcts.mean()) if len(fcts) else nan,
            "max_fct_us": float(fcts.max()) if len(fcts) else nan,
            "duration_us": duration,
            "bytes": total_bytes,
            "goodput_mbs": (total_bytes / duration) if duration else 0.0,
            "events": events,
            "events_per_mb": (events / mb) if mb else nan,
            # work done by the incremental fluid-rate engine (see
            # docs/performance.md): flows re-solved vs flows live, summed
            # over rate-recomputation epochs.
            "fluid_epochs": fnet.recompute_epochs,
            "fluid_recompute_flows": fnet.recomputed_flows,
            "fluid_recompute_fraction": (
                fnet.recomputed_flows / fnet.live_flow_epochs
                if fnet.live_flow_epochs else 0.0),
        }


#: the longest attempt, timed at its route's slowest line rate, that the
#: default recovery clocks cover: 256 KB at SCI's 62 MB/s (4.2 ms), which
#: takes ~16 ms across the paper's testbed and its store-and-forward
#: gateways, inside the 20 ms re-ACK period.
_CLOCK_US = (256 << 10) / PROTOCOLS["sci"].host_peak


def _retry_policy(max_attempts: int, line_us: float):
    """The go-back-N policy of an endpoint whose longest flow takes
    ``line_us`` at its route's line rate.

    The recovery clocks must cover one whole attempt: an RTO shorter than
    the transfer retransmits mid-flight on a healthy fabric, and a re-ACK
    period shorter than the attempt makes the sender mistake a progress
    report for an abandoned attempt.  Above :data:`_CLOCK_US` every clock
    grows with the attempt; the per-fragment stall bound does not.
    """
    from ..madeleine import RetryPolicy
    policy = RetryPolicy(max_attempts=max_attempts)
    scale = max(1.0, line_us / _CLOCK_US)
    return replace(policy, rto=policy.rto * scale,
                   rto_max=policy.rto_max * scale,
                   reack_interval=policy.reack_interval * scale,
                   reack_ttl=policy.reack_ttl * scale)


def _payload(seed: int, index: int, nbytes: int) -> bytes:
    rng = np.random.default_rng((seed, index))
    return rng.integers(0, 256, nbytes, dtype=np.uint8).tobytes()


def run_traffic(scenario: Scenario, *, telemetry: bool = True,
                trace: bool = False):
    """Build the scenario's stack, drive its traffic to completion, and
    return ``(session, engine)`` — the one-call entry the benches use.
    ``trace=True`` records the raw trace (off by default)."""
    from ..madeleine import Session
    session = Session.from_scenario(scenario, telemetry=telemetry)
    if trace:
        session.trace.enable()
    engine = TrafficEngine(session, scenario)
    engine.start()
    session.run()
    return session, engine
