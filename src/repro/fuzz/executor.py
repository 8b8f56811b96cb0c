"""Run one scenario and check the invariant catalog.

The executor is the fuzzer's oracle.  It sends and receives nothing
itself: it builds the scenario's stack (:meth:`Session.from_scenario`),
starts the one driver every scenario runs through
(:class:`~repro.traffic.TrafficEngine`), steps the simulation to completion
under an **event-budget watchdog** (the deadlock/livelock detector: a
simulation that keeps scheduling events without finishing its transfers is
as broken as one that hangs), then reads the engine's records and checks
every invariant of ``docs/robustness.md``:

I1  delivery-or-typed-error — every reliable send returns, either
    delivered or with :class:`~repro.sim.RetryExhausted` /
    :class:`~repro.routing.NoRouteError`; plain sends always deliver.
I2  exactly-once, bit-identical — delivered payload multisets match what
    was sent; a typed-error transfer may or may not have landed (the
    sender gave up, the receiver may have finished), but nothing is ever
    delivered twice or corrupted.
I3  no deadlock — every flow is recorded finished or failed before the
    event heap drains, and the heap drains within the budget.
I4  no credit leak — every live worker with no abandoned messages holds
    zero credits after the drain.
I5  no buffer-pool leak — protocol pools and staging rings are empty
    after a drain with no node crashes.
I6  conservation laws — the exact identities of
    :mod:`repro.telemetry.conservation`.
I7  pipeline drained — gateway occupancy gauges back at zero.
I8  no stripe-reassembly leak — an aborted stripe group's executor
    process has exited (rails that never attach must not strand it).

Structural invariants (I4/I5/I7) are skipped when the scenario crashes
nodes or a worker abandoned messages: those paths legitimately strand
state that only a node restart reclaims.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import inf
from typing import Optional

from ..madeleine import Session
from ..sim import ProcessCrashed
from ..scenario import Scenario
from ..telemetry.conservation import FRAGMENT_LAW, STRIPE_LAW
from ..traffic.engine import TrafficEngine, _payload

__all__ = ["FuzzFailure", "FuzzResult", "run_scenario"]

#: watchdog floor plus a per-byte allowance (each payload KB costs a
#: bounded number of fragment events even across go-back-N retries).
_BUDGET_FLOOR = 300_000
_BUDGET_PER_KB = 60

#: counters whose magnitude buckets form the coverage signature.
_FEATURE_COUNTERS = (
    "wire.fragments", "wire.fragments_blackholed", "wire.fragments_failed",
    "faults.fragments_dropped", "faults.fragments_corrupted",
    "faults.fragments_delayed", "faults.link_transitions",
    "faults.node_transitions",
    "gateway.messages_forwarded", "gateway.messages_abandoned",
    "gateway.credit_stalls", "gateway.items_forwarded",
    "reliable.retransmits", "reliable.deliveries", "reliable.acks_received",
    "vchannel.failovers", "vchannel.stripes_sent",
    "vchannel.stripes_reassembled", "vchannel.eager_sends",
    "vchannel.restripe_events", "gateway.balance_moves",
    "pool.acquire_waits",
)


@dataclass(frozen=True)
class FuzzFailure:
    """One violated invariant."""

    invariant: str
    detail: str

    def __str__(self) -> str:
        return f"[{self.invariant}] {self.detail}"


@dataclass
class FuzzResult:
    scenario: Scenario
    failures: list[FuzzFailure] = field(default_factory=list)
    #: coverage signature — behaviours this run exhibited.
    features: frozenset = frozenset()
    stats: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.failures


class _Engine(TrafficEngine):
    """The engine, keeping what every plain receiver unpacked (for I2)."""

    def __init__(self, session: Session, scenario: Scenario) -> None:
        super().__init__(session, scenario)
        self.delivered: list[tuple[int, bytes]] = []   # (src_rank, payload)

    def _flow_completed(self, flow, attempts=1, origin=None, buf=None):
        super()._flow_completed(flow, attempts, origin, buf)
        if buf is not None:
            self.delivered.append((origin, buf.tobytes()))


class _Run:
    """All mutable state of one scenario execution."""

    def __init__(self, scenario: Scenario) -> None:
        self.scenario = scenario
        self.session = Session.from_scenario(scenario)
        self.world = self.session.world
        self.vch = self.session.virtual_channels[0]
        self.engine = _Engine(self.session, scenario)
        self.engine.start()
        #: flow index -> "delivered" | "typed:<Error>" | None (stuck)
        self.outcomes: dict[int, Optional[str]] = {}
        self.failures: list[FuzzFailure] = []
        self.crashed: Optional[str] = None

    # -- the watchdog loop -------------------------------------------------------
    def drive(self) -> None:
        sim = self.session.sim
        budget = (_BUDGET_FLOOR + _BUDGET_PER_KB
                  * (sum(f.nbytes for f in self.engine.flows) // 1024)
                  * self.scenario.max_attempts)
        start = sim.events_processed
        try:
            while sim.peek() != inf:
                sim.step()
                if sim.events_processed - start > budget:
                    self.failures.append(FuzzFailure(
                        "deadlock",
                        f"no completion within {budget} events "
                        f"(livelock watchdog) at t={sim.now:.0f}us"))
                    return
        except Exception as exc:
            # ProcessCrashed for a dead process; anything else is an
            # undefused event failure escaping through step().  Both are
            # bugs in the stack under test, not in the fuzzer.
            cause = (exc.__cause__ or exc) if isinstance(
                exc, ProcessCrashed) else exc
            self.crashed = f"{type(cause).__name__}: {cause}"
            self.failures.append(FuzzFailure(
                "crash", f"simulation died at t={sim.now:.0f}us — "
                         f"{self.crashed}"))

    # -- invariants --------------------------------------------------------------
    def check(self) -> None:
        scenario = self.scenario
        s = self.session
        eng = self.engine
        for ep in eng.reliable.values():
            while True:
                got, item = ep.deliveries.try_get()
                if not got:
                    break
                src_rank, data, _transfer = item
                eng.delivered.append((src_rank, data))
        self.outcomes = {f.index: None for f in eng.flows}
        for record in eng.records:
            self.outcomes[record.flow.index] = "delivered"
        for flow, error in eng.failed:
            self.outcomes[flow.index] = f"typed:{error}"
        if self.crashed is not None:
            return      # everything below would be noise on a dead world

        # I1/I3: every flow ended, and on a quiet plan ended delivered.
        for f in eng.flows:
            outcome = self.outcomes[f.index]
            if outcome is None:
                self.failures.append(FuzzFailure(
                    "deadlock",
                    f"flow {f.index} ({f.src}->{f.dst}, {f.nbytes}B) never "
                    f"completed: still in flight at heap drain"))
            elif scenario.quiet and outcome != "delivered":
                self.failures.append(FuzzFailure(
                    "delivery", f"flow {f.index} failed with {outcome} on "
                                f"a fault-free scenario"))

        # I2: exactly-once, bit-identical, against the sent multiset.
        delivered = {}
        for key in eng.delivered:
            delivered[key] = delivered.get(key, 0) + 1
        confirmed: dict[tuple[int, bytes], int] = {}
        possible: dict[tuple[int, bytes], int] = {}
        for f in eng.flows:
            key = (s.rank(f.src), _payload(scenario.seed, f.index, f.nbytes))
            possible[key] = possible.get(key, 0) + 1
            if self.outcomes[f.index] == "delivered":
                confirmed[key] = confirmed.get(key, 0) + 1
        for key, n in delivered.items():
            if n > possible.get(key, 0):
                self.failures.append(FuzzFailure(
                    "exactly-once",
                    f"payload from rank {key[0]} ({len(key[1])}B) delivered "
                    f"{n}x but sent {possible.get(key, 0)}x (duplicate or "
                    f"corrupted delivery)"))
        for key, n in confirmed.items():
            if delivered.get(key, 0) < n:
                self.failures.append(FuzzFailure(
                    "delivery",
                    f"rank {key[0]} confirmed {n} transfer(s) of a "
                    f"{len(key[1])}B payload but only "
                    f"{delivered.get(key, 0)} arrived bit-identical"))

        crashes = bool(scenario.faults.node_events)
        # I4: credits all returned (live workers, nothing abandoned).
        for w in self.vch.workers:
            if w.retired or w.messages_abandoned or crashes:
                continue
            if w.credits_outstanding != 0:
                self.failures.append(FuzzFailure(
                    "credit-leak",
                    f"worker gw{w.gw_rank}:{w.in_channel.id} still holds "
                    f"{w.credits_outstanding} credit(s) after drain "
                    f"({w.messages_forwarded} messages forwarded)"))

        # I5: pools empty after a crash-free drain.
        abandoned = any(w.messages_abandoned for w in self.vch.workers)
        if not crashes and not abandoned:
            pools = []
            for node in self.world.nodes.values():
                for nic in node.nics.values():
                    pools += [p for p in (nic.tx_pool, nic.rx_pool)
                              if p is not None]
            pools += [w._ring for w in self.vch.workers
                      if w._ring is not None]
            for pool in pools:
                if pool.outstanding or pool.waiting:
                    self.failures.append(FuzzFailure(
                        "pool-leak",
                        f"pool {pool.name!r}: {pool.outstanding} block(s) "
                        f"out, {pool.waiting} waiter(s) after drain"))

        # I6: conservation laws (always exact, faults or not).
        m = s.metrics
        v = FRAGMENT_LAW.evaluate(
            m, {"pending_sends": self.world.fabric.pending_send_count()})
        if v is not None:
            self.failures.append(FuzzFailure("conservation", str(v)))
        if scenario.quiet:
            v = STRIPE_LAW.evaluate(m, {"stripes_abandoned": 0})
            if v is not None:
                self.failures.append(FuzzFailure("conservation", str(v)))

        # I7: pipeline occupancy gauges back at zero.
        if not crashes and not abandoned:
            for inst in m.series("gateway.occupancy"):
                if inst.value != 0:
                    self.failures.append(FuzzFailure(
                        "occupancy",
                        f"gateway.occupancy{inst.labels} = {inst.value} "
                        f"after drain"))

        # I8: no stripe-reassembly executor leak — an aborted group must
        # have drained its executor process (abort() force-triggers the
        # pending rail-attach events precisely so it can exit).
        for ep in self.vch._endpoints.values():
            for (origin, stripe_id), group in ep._stripe_groups.items():
                if group.aborted and not getattr(group, "_exec_done", False):
                    self.failures.append(FuzzFailure(
                        "stripe-leak",
                        f"stripe group (origin={origin}, id={stripe_id}) "
                        f"was aborted but its reassembly executor is still "
                        f"blocked after drain"))

    # -- coverage ----------------------------------------------------------------
    def signature(self) -> frozenset:
        scenario = self.scenario
        m = self.session.metrics
        feats = {f"topo:{scenario.topology.kind}",
                 f"batch:{scenario.header_batching}",
                 f"stripe:{scenario.stripe is not None}",
                 f"multirail:{scenario.multirail}",
                 f"adaptive:{scenario.adaptive is not None}"}
        if scenario.traffic is not None:
            feats.add(f"traffic:{scenario.traffic.pattern}")
        if scenario.pipeline is not None:
            depth, _credits, lockstep = scenario.pipeline
            feats.add("pipe:lockstep" if lockstep else f"pipe:depth{depth}")
        for name in _FEATURE_COUNTERS:
            total = int(m.total(name))
            if total > 0:
                feats.add(f"{name}:{total.bit_length()}")
        for outcome in self.outcomes.values():
            if outcome and outcome != "delivered":
                feats.add(outcome)
        for f in self.failures:
            feats.add(f"fail:{f.invariant}")
        return frozenset(feats)


def run_scenario(scenario: Scenario) -> FuzzResult:
    """Execute ``scenario`` and evaluate the invariant catalog."""
    run = _Run(scenario)
    run.drive()
    run.check()
    m = run.session.metrics
    stats = {
        "sim_us": run.session.now,
        "events": run.session.sim.events_processed,
        "delivered": len(run.engine.delivered),
        "fragments": int(m.total("wire.fragments")),
        "dropped": int(m.total("faults.fragments_dropped")),
        "forwarded": int(m.total("gateway.messages_forwarded")),
        "abandoned": int(m.total("gateway.messages_abandoned")),
    }
    if scenario.traffic is not None:
        stats["flows"] = len(run.engine.flows)
        stats["flows_done"] = len(run.engine.records)
    return FuzzResult(scenario=scenario, failures=run.failures,
                      features=run.signature(), stats=stats)
