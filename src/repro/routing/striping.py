"""Multirail striping policy: disjoint rails and the stripe scheduler.

When a topology offers several minimum-hop routes between two ranks (two
gateways between the clouds, or dual NICs per node), a virtual channel
configured with a :class:`StripePolicy` splits each large paquet into
*stripes* and sends them concurrently, one stripe per rail.  This module
holds the routing-side half of the feature:

* :func:`disjoint_routes` — greedy selection of pairwise-disjoint rails
  from the deterministically ordered candidate list of
  :meth:`~repro.routing.routes.RouteTable.all_routes`;
* :class:`StripeScheduler` — load-aware stripe sizing: each paquet is
  split by *water-filling* so all rails, weighted by their calibrated
  per-protocol rates and current backlog, are predicted to finish
  together.

Everything here is deterministic: candidate order is stable, ties break on
the lowest rail index, and stripe boundaries are alignment-quantized —
reruns produce bit-identical schedules.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence

if TYPE_CHECKING:  # pragma: no cover
    from .routes import Hop

__all__ = ["StripePolicy", "StripeScheduler", "disjoint_routes",
           "route_rate", "STRIPE_ALIGN"]

#: stripe boundaries are multiples of this, so fragment grids stay KB-sized.
STRIPE_ALIGN = 1 << 10


@dataclass(frozen=True)
class StripePolicy:
    """Configuration of transparent multirail striping.

    ``max_rails`` bounds the disjoint routes used per (src, dst) pair;
    paquets shorter than ``2 * min_stripe`` are not split at all (the
    per-rail record overhead would outweigh the overlap), and stripe
    boundaries are multiples of :data:`STRIPE_ALIGN`.
    """

    max_rails: int = 2
    min_stripe: int = 4 << 10

    def __post_init__(self) -> None:
        if self.max_rails < 1:
            raise ValueError(f"max_rails must be >= 1, got {self.max_rails}")
        if self.min_stripe < STRIPE_ALIGN or self.min_stripe % STRIPE_ALIGN:
            raise ValueError(
                f"min_stripe ({self.min_stripe}) must be a positive "
                f"multiple of {STRIPE_ALIGN}")


def disjoint_routes(routes: Sequence[list["Hop"]],
                    max_rails: int) -> list[list["Hop"]]:
    """Greedily pick up to ``max_rails`` pairwise-disjoint rails.

    ``routes`` must already be deterministically ordered (the contract of
    :meth:`RouteTable.all_routes`), so the selection is stable too.  Two
    rails conflict when they share an interior (forwarding) node — stripes
    through distinct gateways may share the endpoint networks, that is the
    whole point of a switched cloud — and two *direct* rails conflict when
    they use the same channel (dual-NIC rails must differ in NIC).
    """
    picked: list[list["Hop"]] = []
    used_nodes: set[int] = set()
    used_channels: set[str] = set()
    for route in routes:
        if len(picked) >= max_rails:
            break
        interior = {h.dst for h in route[:-1]}
        if interior:
            if interior & used_nodes:
                continue
            used_nodes |= interior
        else:
            cid = route[0].channel.id
            if cid in used_channels:
                continue
            used_channels.add(cid)
        picked.append(route)
    return picked


def route_rate(route: Sequence["Hop"],
               rate_overrides: Optional[dict[str, float]] = None) -> float:
    """Calibrated bottleneck rate of one rail (bytes/µs): the slowest
    per-protocol host rate along its hops, with probe-measured overrides
    taking precedence (the same overrides the adaptive fragment tuner
    uses)."""
    overrides = rate_overrides or {}
    return min(overrides.get(h.channel.protocol.name,
                             h.channel.protocol.host_peak)
               for h in route)


class StripeScheduler:
    """Splits paquets across a fixed rail set, weighted by rate and load.

    The scheduler keeps a per-rail *backlog* of bytes handed to the rail
    but not yet emitted.  :meth:`plan` water-fills: it finds the finish
    horizon at which all (not hopelessly backlogged) rails drain together
    and sizes each stripe as ``rate * horizon - backlog``, quantized to
    :data:`STRIPE_ALIGN`.  Ties and remainders go to the lowest-index rail
    among the least loaded — deterministic by construction.
    """

    def __init__(self, rails: Sequence[list["Hop"]], policy: StripePolicy,
                 rate_overrides: Optional[dict[str, float]] = None) -> None:
        if not rails:
            raise ValueError("a stripe scheduler needs at least one rail")
        self.rails = [list(r) for r in rails]
        self.policy = policy
        self.rates = [route_rate(r, rate_overrides) for r in self.rails]
        self._backlog = [0] * len(self.rails)
        #: adaptive re-striping: per-rail multiplier on the calibrated rate.
        #: All-1.0 (the default) leaves every plan bit-identical to the
        #: unweighted scheduler; 0.0 suspends a rail — it only carries
        #: zero-length lockstep stripes until readmitted.
        self.weights = [1.0] * len(self.rails)

    @property
    def backlog(self) -> tuple[int, ...]:
        return tuple(self._backlog)

    def set_weight(self, rail: int, weight: float) -> None:
        if weight < 0.0:
            raise ValueError(f"rail weight must be >= 0, got {weight}")
        self.weights[rail] = weight

    def _rate(self, i: int) -> float:
        w = self.weights[i]
        # Weight 0 only reaches here through the all-suspended fallback,
        # where the uniform zero cancels: use the raw calibrated rate.
        return self.rates[i] * w if w > 0.0 else self.rates[i]

    def _live(self) -> list[int]:
        live = [i for i in range(len(self.rails)) if self.weights[i] > 0.0]
        # All rails suspended is a policy mistake, not a schedule: fall
        # back to the full set rather than dividing by zero.
        return live or list(range(len(self.rails)))

    def note_sent(self, rail: int, nbytes: int) -> None:
        """A stripe of ``nbytes`` was handed to ``rail``."""
        self._backlog[rail] += nbytes

    def note_done(self, rail: int, nbytes: int) -> None:
        """``rail`` finished emitting ``nbytes`` of its backlog."""
        self._backlog[rail] -= nbytes

    def _drain_time(self, i: int) -> float:
        return self._backlog[i] / self._rate(i)

    def _least_loaded(self) -> int:
        return min(self._live(), key=lambda i: (self._drain_time(i), i))

    def plan(self, length: int) -> list[int]:
        """Stripe sizes per rail for one ``length``-byte paquet.

        Returns one entry per rail summing exactly to ``length``; a zero
        means the rail sits this paquet out (it still carries the paquet's
        empty descriptor so the reassembly stays in lockstep).
        """
        n = len(self.rails)
        chunks = [0] * n
        live = self._live()
        if len(live) == 1 or length < 2 * self.policy.min_stripe:
            # Too small to split: the whole paquet goes to the rail
            # predicted to drain first.
            chunks[self._least_loaded()] = length
            return chunks
        # Water-fill: rails sorted by drain time; drop (from the most
        # loaded end) any rail whose existing backlog already exceeds the
        # common finish horizon of the remaining set.
        active = sorted(live, key=lambda i: (self._drain_time(i), i))
        while len(active) > 1:
            horizon = ((length + sum(self._backlog[i] for i in active))
                       / sum(self._rate(i) for i in active))
            worst = active[-1]
            if self._backlog[worst] > self._rate(worst) * horizon:
                active.pop()
            else:
                break
        horizon = ((length + sum(self._backlog[i] for i in active))
                   / sum(self._rate(i) for i in active))
        shares = {i: self._rate(i) * horizon - self._backlog[i]
                  for i in active}
        total = sum(shares.values())
        assigned = 0
        for i in sorted(active):
            c = (int(length * shares[i] / total)
                 // STRIPE_ALIGN * STRIPE_ALIGN)
            chunks[i] = c
            assigned += c
        primary = active[0]     # least loaded: absorbs remainder and runts
        chunks[primary] += length - assigned
        for i in sorted(active):
            if i != primary and 0 < chunks[i] < self.policy.min_stripe:
                chunks[primary] += chunks[i]
                chunks[i] = 0
        return chunks
