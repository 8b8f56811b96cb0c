"""The live side of an armed :class:`~repro.faults.plan.FaultPlan`.

The injector sits on ``fabric.injector`` and is consulted once per fragment
by the NIC transmit engines (:meth:`FaultInjector.fragment_verdict`); it
also owns the dynamic health state — which channels and nodes are currently
down — and the driver processes that replay the plan's scheduled events.

Recovery code (the virtual channel's fault listener, tests) can
:meth:`subscribe` to health transitions, and may also trigger
them directly (``link_down`` / ``crash_node`` / …) for targeted scenarios.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Union

from ..sim import GatewayCrashed
from ..telemetry import Declaration

if TYPE_CHECKING:  # pragma: no cover
    from ..hw.fabric import NIC, _SendRequest
    from ..hw.topology import World
    from .plan import FaultPlan

__all__ = ["Verdict", "FaultInjector", "base_channel_id"]


def base_channel_id(cid: str) -> str:
    """Map a forwarding twin's id back to its physical channel's id."""
    return cid[:-4] if isinstance(cid, str) and cid.endswith("!fwd") else cid


@dataclass(frozen=True)
class Verdict:
    """What happens to one fragment."""

    drop: bool = False
    corrupt: bool = False
    corrupt_offset: int = 0
    delay_us: float = 0.0


#: listener signature: ``fn(kind, subject)`` with kind one of
#: "link_down"/"link_up" (subject: channel id) or "node_down"/"node_up"
#: (subject: rank).
Listener = Callable[[str, Union[str, int]], None]

#: the series of a world's fault injector (one slot, no labels): fragment
#: verdicts, and link and node transitions.
FAULTS = Declaration((), counters=(
    "faults.fragments_dropped", "faults.fragments_corrupted",
    "faults.fragments_delayed", "faults.link_transitions",
    "faults.node_transitions"))


class FaultInjector:
    """Holds fault state and decides the fate of each fragment."""

    def __init__(self, world: "World", plan: "FaultPlan") -> None:
        self.world = world
        self.plan = plan
        self.rng = random.Random(plan.seed)
        self.down_channels: set[str] = set()
        self.down_nodes: set[int] = set()
        self._listeners: list[Listener] = []
        self.dropped = 0
        self.corrupted = 0
        self.delayed = 0
        table = world.telemetry.declared(FAULTS)
        (self._m_dropped, self._m_corrupted, self._m_delayed,
         self._m_link_events, self._m_node_events) = table.families
        self._m_slot = table.declare(())
        sim = world.sim
        for i, ev in enumerate(plan.link_events):
            sim.process(self._link_driver(ev), name=f"fault:link{i}")
        for i, ev in enumerate(plan.node_events):
            sim.process(self._node_driver(ev), name=f"fault:node{i}")

    # -- subscriptions -----------------------------------------------------------
    def subscribe(self, fn: Listener) -> None:
        self._listeners.append(fn)

    def _notify(self, kind: str, subject: Union[str, int]) -> None:
        for fn in list(self._listeners):
            fn(kind, subject)

    # -- scheduled drivers -------------------------------------------------------
    def _link_driver(self, ev):
        yield self.world.sim.timeout(max(0.0, ev.time - self.world.sim.now))
        if ev.up:
            self.link_up(ev.channel)
        else:
            self.link_down(ev.channel)

    def _node_driver(self, ev):
        yield self.world.sim.timeout(max(0.0, ev.time - self.world.sim.now))
        if ev.up:
            self.restart_node(ev.node)
        else:
            self.crash_node(ev.node)

    # -- health transitions (also callable directly) ------------------------------
    def link_down(self, channel: str) -> None:
        cid = base_channel_id(channel)
        if cid in self.down_channels:
            return
        self.down_channels.add(cid)
        self._m_link_events.inc(self._m_slot)
        self.world.trace.emit(self.world.sim.now, "fault", "link_down",
                              channel=cid)
        self._notify("link_down", cid)

    def link_up(self, channel: str) -> None:
        cid = base_channel_id(channel)
        if cid not in self.down_channels:
            return
        self.down_channels.discard(cid)
        self._m_link_events.inc(self._m_slot)
        self.world.trace.emit(self.world.sim.now, "fault", "link_up",
                              channel=cid)
        self._notify("link_up", cid)

    def crash_node(self, key: Union[str, int]) -> None:
        node = self.world.node(key)
        if node.rank in self.down_nodes:
            return
        self.down_nodes.add(node.rank)
        self._m_node_events.inc(self._m_slot)
        exc = GatewayCrashed(node.name)
        self.world.fabric.crash_node(node, exc)
        for nic in node.nics.values():
            for pool in (nic.tx_pool, nic.rx_pool):
                if pool is not None:
                    pool.fail_waiters(GatewayCrashed(node.name))
        self.world.trace.emit(self.world.sim.now, "fault", "node_down",
                              node=node.name, rank=node.rank)
        self._notify("node_down", node.rank)

    def restart_node(self, key: Union[str, int]) -> None:
        node = self.world.node(key)
        if node.rank not in self.down_nodes:
            return
        self.down_nodes.discard(node.rank)
        self._m_node_events.inc(self._m_slot)
        for nic in node.nics.values():
            for pool in (nic.tx_pool, nic.rx_pool):
                if pool is not None:
                    pool.reset()
        self.world.trace.emit(self.world.sim.now, "fault", "node_up",
                              node=node.name, rank=node.rank)
        self._notify("node_up", node.rank)

    def is_node_down(self, rank: int) -> bool:
        return rank in self.down_nodes

    def is_link_down(self, channel: str) -> bool:
        return base_channel_id(channel) in self.down_channels

    # -- the per-fragment hook ----------------------------------------------------
    def fragment_verdict(self, nic: "NIC",
                         req: "_SendRequest") -> Verdict | None:
        """Called by the transmit engine once per fragment; ``None`` = clean."""
        if (nic.node.rank in self.down_nodes
                or req.dst.node.rank in self.down_nodes):
            self.dropped += 1
            self._m_dropped.inc(self._m_slot)
            return Verdict(drop=True)
        tag = req.tag
        if not (isinstance(tag, tuple) and len(tag) >= 2):
            return None
        cid = base_channel_id(tag[1])
        if cid in self.down_channels:
            self.dropped += 1
            self._m_dropped.inc(self._m_slot)
            return Verdict(drop=True)
        cf = self.plan.channels.get(cid, self.plan.default)
        if cf is None or cf.quiet:
            return None
        rng = self.rng
        if cf.drop_p > 0 and rng.random() < cf.drop_p:
            self.dropped += 1
            self._m_dropped.inc(self._m_slot)
            return Verdict(drop=True)
        corrupt = cf.corrupt_p > 0 and rng.random() < cf.corrupt_p
        delayed = cf.delay_p > 0 and rng.random() < cf.delay_p
        if not corrupt and not delayed:
            return None
        offset = rng.randrange(1 << 30) if corrupt else 0
        delay = rng.uniform(0.0, cf.delay_us) if delayed else 0.0
        self.corrupted += int(corrupt)
        self.delayed += int(delayed)
        if corrupt:
            self._m_corrupted.inc(self._m_slot)
        if delayed:
            self._m_delayed.inc(self._m_slot)
        return Verdict(corrupt=corrupt, corrupt_offset=offset,
                       delay_us=delay)
