"""Layer micro-timings, taken from outside through public functions only.

Run once in the traced run.  Each isolates the fixed cost of one layer so
a change to that layer has a number that moves before any workload does;
README.md says which end-to-end metric each one should move.  Every timing
is the best of a few repetitions of a loop long enough to dwarf the clock.
"""

from __future__ import annotations

import time

import numpy as np

_clock = time.perf_counter
_REPEATS = 3


def _best(fn) -> float:
    """Best wall seconds of ``fn()`` over ``_REPEATS`` runs."""
    best = float("inf")
    for _ in range(_REPEATS):
        t0 = _clock()
        fn()
        best = min(best, _clock() - t0)
    return best


def engine_timeout_events_per_s(n: int = 40_000) -> float:
    """Bare ``Simulator.timeout``/``run`` ping-pong between two processes."""
    from repro.sim import Simulator
    events = 0

    def once():
        nonlocal events
        sim = Simulator()

        def ticker():
            for _ in range(n // 2):
                yield sim.timeout(1.0)

        sim.process(ticker())
        sim.process(ticker())
        sim.run()
        events = sim.events_processed

    best = _best(once)
    return events / best


def _fluid_world(n_flows: int = 256, n_resources: int = 64, hops: int = 3):
    """256 flows over 64 resources, three hops each, seeded."""
    from repro.sim import DMA, PIO, Flow, FluidResource
    rng = np.random.default_rng(256)
    resources = [FluidResource(f"r{i}", 100.0 + i) for i in range(n_resources)]
    flows = []
    for i in range(n_flows):
        picks = rng.choice(n_resources, size=hops, replace=False)
        path = [(resources[int(r)], DMA if k % 2 == 0 else PIO)
                for k, r in enumerate(picks)]
        flows.append(Flow(f"f{i}", 1 << 20, path, peak=60.0))
    return flows


def fluid_fill_256_ms() -> float:
    """``FluidNetwork.solve_rates`` on 256 flows over 64 resources."""
    from repro.sim import FluidNetwork
    flows = _fluid_world()
    return 1e3 * _best(lambda: FluidNetwork.solve_rates(flows))


def fluid_transfer_us(n: int = 4_000) -> float:
    """A lone ``FluidNetwork.transfer`` at a time: the per-fragment fixed
    cost (attach, one-flow fill, wake-up, completion)."""
    from repro.sim import DMA, FluidNetwork, FluidResource, Simulator

    def once():
        sim = Simulator()
        fnet = FluidNetwork(sim)
        path = [(FluidResource("bus", 100.0), DMA),
                (FluidResource("link", 60.0), DMA)]

        def fragments():
            for i in range(n):
                yield fnet.transfer(f"frag{i}", 16 << 10, path, peak=60.0)

        sim.process(fragments())
        sim.run()

    return 1e6 * _best(once) / n


def solver_max_min_256_ms() -> float:
    """``solver.core.max_min_rates`` on the shape of ``fluid_fill_256_ms``."""
    from repro.solver import RoutedFlow, max_min_rates
    rng = np.random.default_rng(256)
    capacities = {("link", f"r{i}"): 100.0 + i for i in range(64)}
    keys = list(capacities)
    flows = []
    for i in range(256):
        picks = rng.choice(len(keys), size=3, replace=False)
        flows.append(RoutedFlow(
            id=(i, 0), nbytes=float(1 << 20), arrival=0.0, ceiling=60.0,
            setup_us=0.0,
            footprint=tuple((keys[int(r)], 1) for r in picks)))
    return 1e3 * _best(lambda: max_min_rates(flows, capacities))


def wire_roundtrips_per_s(n: int = 2_000) -> float:
    """Announce, descriptor, stripe and eager records, encode + decode."""
    from repro.madeleine import wire
    announce = wire.Announce(mode=wire.MODE_GTM, origin=3, final_dst=9,
                             mtu=16 << 10, msg_id=77, hops_left=1)
    descriptor = wire.Descriptor(length=2048)
    stripe = wire.StripeRecord(stripe_id=5, seq=1, total=2)
    eager = wire.EagerRecord(entries=(wire.EagerEntry(b"h" * 12),
                                      wire.EagerEntry(b"p" * 2048)))

    def once():
        for _ in range(n):
            wire.decode_announce(wire.encode_announce(announce))
            wire.decode_descriptor(wire.encode_descriptor(descriptor))
            wire.decode_stripe(wire.encode_stripe(stripe))
            wire.decode_eager(wire.encode_eager(eager))

    return 4 * n / _best(once)


def routes_cold_route_us(pairs: int = 24) -> float:
    """``RouteTable.route`` on the 256-node torus right after
    ``invalidate()``: the cost a topology change makes every pair pay."""
    from repro.madeleine import Session
    from repro.scenario import Scenario, Topology, TrafficSpec
    scenario = Scenario(
        seed=1, gw_stall_timeout=None, traffic=TrafficSpec(flows=1),
        topology=Topology(kind="torus", protocols=("myrinet",),
                          dims=(8, 8, 4)))
    session = Session.from_scenario(scenario)
    routes = session.virtual_channels[0].routes
    members = routes.members()
    rng = np.random.default_rng(8)
    chosen = [tuple(int(m) for m in rng.choice(members, 2, replace=False))
              for _ in range(pairs)]

    def once():
        for src, dst in chosen:
            routes.invalidate()
            routes.route(src, dst)

    return 1e6 * _best(once) / pairs


def telemetry_inc_ns(n: int = 200_000) -> float:
    """``Counter.inc`` on an enabled registry, per call (a ``NullRegistry``
    counter pays the same call and flag test without the add)."""
    from repro.telemetry import MetricsRegistry

    counter = MetricsRegistry().counter("micro.inc")

    def once():
        inc = counter.inc
        for _ in range(n):
            inc()

    return 1e9 * _best(once) / n


def run_all() -> dict[str, float]:
    return {
        "micro.engine.timeout_events_per_s": engine_timeout_events_per_s(),
        "micro.fluid.transfer_us": fluid_transfer_us(),
        "micro.fluid.fill_256_ms": fluid_fill_256_ms(),
        "micro.solver.max_min_256_ms": solver_max_min_256_ms(),
        "micro.wire.roundtrips_per_s": wire_roundtrips_per_s(),
        "micro.routes.cold_route_us": routes_cold_route_us(),
        "micro.telemetry.inc_ns": telemetry_inc_ns(),
    }
