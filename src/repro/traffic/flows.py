"""What a :class:`~repro.scenario.Scenario` offers, as one list of flows.

:func:`scenario_flows` is the repo's one expansion of a scenario: the DES
traffic engine drives the list it returns and the analytic solver routes
the same list, so both see identical sources, sizes and arrivals.
Everything is a pure function of the scenario (for generated traffic, of
``(spec, seed, endpoints)``): the same inputs always yield the same flow
list, which is what makes large traffic scenarios replayable and lets
property tests pin the schedule.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..scenario import Scenario, TrafficSpec

__all__ = ["Flow", "generate_flows", "scenario_flows"]

#: domain-separation constant mixed into the flow rng seed so traffic draws
#: never correlate with payload or fault rngs derived from the same seed.
_FLOW_STREAM = 0x7AF19C


@dataclass(frozen=True)
class Flow:
    """One transfer: ``src`` → ``dst``, ``nbytes``, arriving at ``arrival``
    µs (open-loop: arrivals do not wait for earlier flows).  ``index`` is
    the flow's position in its scenario's flow list."""

    index: int
    src: str
    dst: str
    nbytes: int
    arrival: float


def scenario_flows(scenario: Scenario) -> list[Flow]:
    """Every flow ``scenario`` offers: the explicit message list as flows
    ``0..n-1`` arriving at t=0, then the generated traffic from index
    ``n``."""
    flows = [Flow(index=i, src=m.src, dst=m.dst, nbytes=m.nbytes, arrival=0.0)
             for i, m in enumerate(scenario.messages)]
    if scenario.traffic is not None:
        flows += generate_flows(scenario.traffic, scenario.seed,
                                scenario.topology.endpoint_names(),
                                base=len(flows))
    if not flows:
        raise ValueError("scenario has no traffic")
    return flows


def generate_flows(spec: TrafficSpec, seed: int, endpoints: Sequence[str],
                   base: int = 0) -> list[Flow]:
    """Expand ``spec`` into concrete flows over ``endpoints``, indexed from
    ``base``."""
    endpoints = list(endpoints)
    n = len(endpoints)
    if n < 2:
        raise ValueError(f"traffic needs >= 2 endpoints, got {n}")
    rng = np.random.default_rng((int(seed), _FLOW_STREAM))

    gaps = rng.exponential(spec.mean_interarrival, spec.flows)
    arrivals = np.cumsum(gaps)
    if spec.size_jitter > 0.0:
        lo = spec.size * (1.0 - spec.size_jitter)
        hi = spec.size * (1.0 + spec.size_jitter)
        sizes = np.maximum(rng.uniform(lo, hi, spec.flows), 1.0).astype(
            np.int64)
    else:
        sizes = np.full(spec.flows, spec.size, dtype=np.int64)

    def uniform_pair() -> tuple[str, str]:
        si = int(rng.integers(n))
        dj = int(rng.integers(n - 1))
        if dj >= si:
            dj += 1
        return endpoints[si], endpoints[dj]

    pairs: list[tuple[str, str]] = []
    if spec.pattern == "uniform":
        for _ in range(spec.flows):
            pairs.append(uniform_pair())
    elif spec.pattern == "permutation":
        perm = list(rng.permutation(n))
        for i in range(n):
            if perm[i] == i:        # no endpoint talks to itself
                j = (i + 1) % n
                perm[i], perm[j] = perm[j], perm[i]
        for k in range(spec.flows):
            src = k % n
            pairs.append((endpoints[src], endpoints[int(perm[src])]))
    elif spec.pattern == "hotspot":
        hot = int(rng.integers(n))
        for _ in range(spec.flows):
            if float(rng.random()) < spec.hotspot_fraction:
                si = int(rng.integers(n - 1))
                if si >= hot:
                    si += 1
                pairs.append((endpoints[si], endpoints[hot]))
            else:
                pairs.append(uniform_pair())
    elif spec.pattern == "incast":
        sink = int(rng.integers(n))
        for _ in range(spec.flows):
            si = int(rng.integers(n - 1))
            if si >= sink:
                si += 1
            pairs.append((endpoints[si], endpoints[sink]))
    else:  # pragma: no cover - TrafficSpec validates the pattern
        raise ValueError(f"unknown pattern {spec.pattern!r}")

    return [Flow(index=base + i, src=s, dst=d, nbytes=int(sizes[i]),
                 arrival=float(arrivals[i]))
            for i, (s, d) in enumerate(pairs)]
