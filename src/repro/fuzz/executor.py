"""Run one scenario and check the invariant catalog.

The executor is the fuzzer's oracle.  It builds the scenario's world,
drives the traffic mix to completion under an **event-budget watchdog**
(the deadlock/livelock detector: a simulation that keeps scheduling events
without finishing its transfers is as broken as one that hangs), then
checks every invariant of ``docs/robustness.md``:

I1  delivery-or-typed-error — every reliable send returns, either
    delivered or with :class:`~repro.sim.RetryExhausted` /
    :class:`~repro.routing.NoRouteError`; plain sends always deliver.
I2  exactly-once, bit-identical — delivered payload multisets match what
    was sent; a typed-error transfer may or may not have landed (the
    sender gave up, the receiver may have finished), but nothing is ever
    delivered twice or corrupted.
I3  no deadlock — every traffic process finishes before the event heap
    drains, and the heap drains within the budget.
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

import struct
from dataclasses import dataclass, field
from math import inf
from typing import Optional

import numpy as np

from ..madeleine import (RecvMode, ReliableEndpoint, RetryPolicy, SendMode,
                         Session, reset_global_ids)
from ..routing import NoRouteError
from ..sim import ProcessCrashed, RetryExhausted
from ..scenario import Scenario
from ..telemetry.conservation import FRAGMENT_LAW, STRIPE_LAW

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


def _payload(scenario_seed: int, index: int, nbytes: int) -> bytes:
    rng = np.random.default_rng((scenario_seed, index))
    return rng.integers(0, 256, nbytes, dtype=np.uint8).tobytes()


class _Run:
    """All mutable state of one scenario execution."""

    def __init__(self, scenario: Scenario) -> None:
        # Bit-identical replays: fault-recovery branches on wire content
        # that embeds the process-wide id counters, so every run starts
        # from the same id space.
        reset_global_ids()
        self.scenario = scenario
        self.session = Session.from_scenario(scenario)
        self.world = self.session.world
        self.vch = self.session.virtual_channels[0]
        #: message index -> "delivered" | "typed:<Error>" | None (stuck)
        self.outcomes: dict[int, Optional[str]] = {
            i: None for i in range(len(scenario.messages))}
        self.payloads = {i: _payload(scenario.seed, i, m.nbytes)
                         for i, m in enumerate(scenario.messages)}
        self.delivered: list[tuple[int, bytes]] = []   # (src_rank, payload)
        self.failures: list[FuzzFailure] = []
        self.crashed: Optional[str] = None
        self._receivers_done: list[bool] = []
        self.traffic_engine = None

    # -- traffic processes -------------------------------------------------------
    def _reliable_sender(self, src: str, indices: list[int],
                         rel: ReliableEndpoint):
        s = self.session
        for i in indices:
            m = self.scenario.messages[i]
            try:
                yield from rel.send(s.rank(m.dst), self.payloads[i])
            except (RetryExhausted, NoRouteError) as exc:
                self.outcomes[i] = f"typed:{type(exc).__name__}"
            else:
                self.outcomes[i] = "delivered"

    def _plain_sender(self, src: str, indices: list[int]):
        s = self.session
        ep = self.vch.endpoint(s.rank(src))
        for i in indices:
            m = self.scenario.messages[i]
            msg = ep.begin_packing(s.rank(m.dst))
            # Self-describing framing: the receiver cannot know which
            # message arrives first once multirail relaxes ordering.
            yield msg.pack(struct.pack("<Q", m.nbytes),
                           SendMode.CHEAPER, RecvMode.EXPRESS)
            yield msg.pack(self.payloads[i], SendMode.CHEAPER,
                           RecvMode.CHEAPER)
            yield msg.end_packing()
            self.outcomes[i] = "delivered"

    def _plain_receiver(self, dst: str, count: int, done_slot: int):
        s = self.session
        ep = self.vch.endpoint(s.rank(dst))
        for _ in range(count):
            inc = yield ep.begin_unpacking()
            ev, lenbuf = inc.unpack(8, SendMode.CHEAPER, RecvMode.EXPRESS)
            yield ev
            (nbytes,) = struct.unpack("<Q", lenbuf.tobytes())
            _ev, buf = inc.unpack(int(nbytes), SendMode.CHEAPER,
                                  RecvMode.CHEAPER)
            yield inc.end_unpacking()
            self.delivered.append((inc.origin, buf.tobytes()))
        self._receivers_done[done_slot] = True

    def spawn_traffic(self) -> dict[int, ReliableEndpoint]:
        scenario = self.scenario
        s = self.session
        by_src: dict[str, list[int]] = {}
        for i, m in enumerate(scenario.messages):
            by_src.setdefault(m.src, []).append(i)
        kinds = {m.kind for m in scenario.messages}
        rel: dict[int, ReliableEndpoint] = {}
        if "reliable" in kinds:
            policy = RetryPolicy(max_attempts=scenario.max_attempts)
            parties = ({m.src for m in scenario.messages}
                       | {m.dst for m in scenario.messages})
            for name in sorted(parties):
                rank = s.rank(name)
                rel[rank] = ReliableEndpoint(self.vch.endpoint(rank), policy)
            for src, indices in sorted(by_src.items()):
                s.spawn(self._reliable_sender(src, indices,
                                              rel[s.rank(src)]),
                        name=f"fuzz-send:{src}")
        else:
            by_dst: dict[str, int] = {}
            for m in scenario.messages:
                by_dst[m.dst] = by_dst.get(m.dst, 0) + 1
            for src, indices in sorted(by_src.items()):
                s.spawn(self._plain_sender(src, indices),
                        name=f"fuzz-send:{src}")
            for dst, count in sorted(by_dst.items()):
                slot = len(self._receivers_done)
                self._receivers_done.append(False)
                s.spawn(self._plain_receiver(dst, count, slot),
                        name=f"fuzz-recv:{dst}")
        if scenario.traffic is not None:
            from ..traffic import TrafficEngine
            self.traffic_engine = TrafficEngine(s, scenario)
            self.traffic_engine.start()
        return rel

    # -- the watchdog loop -------------------------------------------------------
    def drive(self) -> None:
        sim = self.session.sim
        traffic_bytes = (sum(f.nbytes for f in self.traffic_engine.flows)
                         if self.traffic_engine is not None else 0)
        budget = (_BUDGET_FLOOR + _BUDGET_PER_KB
                  * ((sum(m.nbytes for m in self.scenario.messages)
                      + traffic_bytes) // 1024)
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
    def check(self, rel: dict[int, ReliableEndpoint]) -> None:
        scenario = self.scenario
        s = self.session
        for ep in rel.values():
            while True:
                got, item = ep.deliveries.try_get()
                if not got:
                    break
                src_rank, data, _transfer = item
                self.delivered.append((src_rank, data))
        if self.crashed is not None:
            return      # everything below would be noise on a dead world

        # I1/I3: every sender finished; plain receivers consumed everything.
        for i, outcome in self.outcomes.items():
            if outcome is None:
                m = scenario.messages[i]
                self.failures.append(FuzzFailure(
                    "deadlock",
                    f"message {i} ({m.src}->{m.dst}, {m.nbytes}B) never "
                    f"completed: sender stuck at heap drain"))
        for slot, done in enumerate(self._receivers_done):
            if not done:
                self.failures.append(FuzzFailure(
                    "deadlock", f"plain receiver {slot} still waiting at "
                                f"heap drain"))
        if self.traffic_engine is not None:
            eng = self.traffic_engine
            if len(eng.records) + len(eng.failed) != len(eng.flows):
                self.failures.append(FuzzFailure(
                    "deadlock",
                    f"traffic: {len(eng.records)}/{len(eng.flows)} flows "
                    f"completed at heap drain"))
            if scenario.quiet and eng.failed:
                self.failures.append(FuzzFailure(
                    "delivery", f"traffic: {len(eng.failed)} flow(s) failed "
                                f"on a fault-free scenario"))
        if scenario.quiet:
            for i, outcome in self.outcomes.items():
                if outcome is not None and outcome != "delivered":
                    self.failures.append(FuzzFailure(
                        "delivery", f"message {i} failed with {outcome} on "
                                    f"a fault-free scenario"))

        # I2: exactly-once, bit-identical, against the sent multiset.
        delivered = {}
        for src_rank, data in self.delivered:
            key = (src_rank, data)
            delivered[key] = delivered.get(key, 0) + 1
        confirmed: dict[tuple[int, bytes], int] = {}
        possible: dict[tuple[int, bytes], int] = {}
        for i, m in enumerate(scenario.messages):
            key = (s.rank(m.src), self.payloads[i])
            possible[key] = possible.get(key, 0) + 1
            if self.outcomes[i] == "delivered":
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
        pipe = scenario.pipeline_config
        if pipe is not None:
            feats.add("pipe:lockstep" if pipe.lockstep
                      else f"pipe:depth{pipe.depth}")
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
    rel = run.spawn_traffic()
    run.drive()
    run.check(rel)
    m = run.session.metrics
    stats = {
        "sim_us": run.session.now,
        "events": run.session.sim.events_processed,
        "delivered": len(run.delivered),
        "fragments": int(m.total("wire.fragments")),
        "dropped": int(m.total("faults.fragments_dropped")),
        "forwarded": int(m.total("gateway.messages_forwarded")),
        "abandoned": int(m.total("gateway.messages_abandoned")),
    }
    if run.traffic_engine is not None:
        stats["flows"] = len(run.traffic_engine.flows)
        stats["flows_done"] = len(run.traffic_engine.records)
    return FuzzResult(scenario=scenario, failures=run.failures,
                      features=run.signature(), stats=stats)
