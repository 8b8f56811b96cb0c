"""Congestion-aware adaptive transport policy (ROADMAP item 4).

The paper's forwarding scheme is static: rail choice, fragment size, and
the rendezvous-style announce/descriptor handshake are fixed per message.
A :class:`TransportPolicy` attached to a virtual channel adds three
runtime adaptations, all driven by signals the simulator already tracks:

* **eager/rendezvous switching** — messages whose packed bytes fit under
  ``eager_threshold`` skip the per-buffer descriptor stream entirely: the
  sender withholds the announce until ``end_packing``, then emits one
  self-describing wire record (entry table + payloads) negotiated through
  the announce's *eager* mode bit.  Gateways forward it like any other
  item.  Large messages keep the rendezvous path unchanged.  This is the
  eager/rendezvous protocol split of the MPICH2-over-InfiniBand work
  (PAPERS.md) grafted onto Madeleine's GTM.
* **dynamic re-striping** — before each striped paquet is split, the
  scheduler's per-rail drain-time estimates are compared; a rail whose
  predicted drain exceeds the healthiest rail's by ``restripe_high``
  (plus a slack floor, so idle channels never flap) is suspended — its
  weight drops to zero and it only carries zero-length lockstep stripes —
  and readmitted once it recovers under ``restripe_low``.  A rail whose
  route lost a link or an interior gateway is suspended outright.
* **gateway load balancing** — round-robin multirail rail choice is
  replaced by least-staged-items-first over the parallel gateways'
  forwarding workers (ties keep the round-robin order, so an idle system
  behaves exactly like plain round-robin).

Everything here is synchronous bookkeeping: no simulator events are
created, so a policy that never fires leaves the event schedule
bit-identical to an unconfigured run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from ..routing import StripeScheduler
    from .vchannel import VirtualChannel

__all__ = ["TransportPolicy", "apply_restripe", "rail_is_healthy",
           "RESTRIPE_SLACK_US"]

#: drain-time floor (µs) under which a rail is never suspended, so
#: microscopic backlogs on an otherwise idle system cannot trigger moves.
RESTRIPE_SLACK_US = 500.0


@dataclass(frozen=True)
class TransportPolicy:
    """Per-vchannel adaptive-transport configuration.

    ``eager_threshold`` — messages whose eager record (4-byte header,
    8 bytes per buffer, plus payloads) stays within this many bytes are
    sent eagerly; 0 disables the eager path.  The effective budget is
    additionally clamped to the route's MTU so the record always fits one
    gateway staging block.

    ``restripe_high`` / ``restripe_low`` — hysteresis band on the ratio of
    a rail's predicted drain time to the healthiest rail's: suspend above
    ``high``, readmit below ``low``; a rail whose drain time is under
    :data:`RESTRIPE_SLACK_US` is never suspended.

    ``gateway_balance`` — replace round-robin multirail rail choice with
    occupancy-driven selection across parallel gateways.
    """

    eager_threshold: int = 4 << 10
    restripe_high: float = 4.0
    restripe_low: float = 2.0
    gateway_balance: bool = True

    def __post_init__(self) -> None:
        if self.eager_threshold < 0:
            raise ValueError(
                f"eager_threshold must be >= 0, got {self.eager_threshold}")
        if self.restripe_low < 1.0:
            raise ValueError(
                f"restripe_low must be >= 1, got {self.restripe_low}")
        if self.restripe_high <= self.restripe_low:
            raise ValueError(
                f"restripe_high ({self.restripe_high}) must exceed "
                f"restripe_low ({self.restripe_low}) — the hysteresis band "
                f"would be empty or inverted")


def rail_is_healthy(route, routes) -> bool:
    """True when no hop of ``route`` crosses a down link or a down
    interior node (the final destination's health is the message's
    problem, not the rail set's)."""
    down_channels = routes.down_channels
    down_nodes = routes.down_nodes
    for hop in route:
        if hop.channel.id in down_channels:
            return False
    for hop in route[:-1]:
        if hop.dst in down_nodes:
            return False
    return True


def apply_restripe(policy: TransportPolicy, scheduler: "StripeScheduler",
                   vchannel: "VirtualChannel") -> int:
    """Re-weight ``scheduler``'s rails from current health and backlog.

    Returns the number of weight moves (suspensions plus readmissions)
    applied; the caller counts them into ``vchannel.restripe_events``.
    Pure synchronous bookkeeping — no simulator events.
    """
    routes = vchannel.routes
    n = len(scheduler.rails)
    healthy = [rail_is_healthy(scheduler.rails[i], routes) for i in range(n)]
    moves = 0
    # Health first: a dead rail is suspended regardless of load, a revived
    # one rejoins at full weight (its backlog estimate still drains).
    for i in range(n):
        if not healthy[i] and scheduler.weights[i] > 0.0:
            if sum(1 for j in range(n)
                   if healthy[j] and scheduler.weights[j] > 0.0) == 0:
                continue        # never suspend the last usable rail
            scheduler.set_weight(i, 0.0)
            moves += 1
    candidates = [i for i in range(n) if healthy[i]]
    if len(candidates) < 2:
        # Readmission of revived rails still counts as moves above; with
        # fewer than two healthy rails there is no load to balance.
        for i in candidates:
            if scheduler.weights[i] == 0.0:
                scheduler.set_weight(i, 1.0)
                moves += 1
        return moves
    # Drain-time hysteresis among the healthy rails.  The reference is the
    # fastest currently-admitted healthy rail; with everything suspended
    # (first call after a mass fault) fall back to the fastest healthy one.
    def drain(i: int) -> float:
        return scheduler._backlog[i] / scheduler.rates[i]

    admitted = [i for i in candidates if scheduler.weights[i] > 0.0]
    ref = min(drain(i) for i in (admitted or candidates))
    for i in candidates:
        d = drain(i)
        if scheduler.weights[i] > 0.0:
            if (d > policy.restripe_high * ref + RESTRIPE_SLACK_US
                    and len([j for j in candidates
                             if scheduler.weights[j] > 0.0]) > 1):
                scheduler.set_weight(i, 0.0)
                moves += 1
        else:
            if d <= policy.restripe_low * ref + RESTRIPE_SLACK_US:
                scheduler.set_weight(i, 1.0)
                moves += 1
    return moves
