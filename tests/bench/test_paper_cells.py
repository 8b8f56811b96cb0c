"""The paper's evaluation cells, computed and asserted exactly.

Each cell is a compact, deterministic version of one piece of the paper's
evaluation (the figure 5 gateway pipeline, the figure 6/7 asymptotes, the
figure 8 PCI-conflict ratios, the §3.1 latency points) or of a feature
built on it (pipeline depth, header batching, multirail striping, traffic
scaling, the incremental rate engine, the adaptive transport).  The
simulator is deterministic, so every number must equal the committed
``tests/data/paper_cells_golden.json`` with no tolerance, and each feature
floor is a plain ``assert`` in its cell.

The golden is re-recorded only on purpose, with the reason stated next to
the change: a drift here means the modelled behaviour moved.
"""

from __future__ import annotations

import json
import pathlib
import random

import numpy as np
import pytest

from repro.bench import MultirailHarness, PingHarness, figure_sweep

GOLDEN = json.loads((pathlib.Path(__file__).parent.parent / "data"
                     / "paper_cells_golden.json").read_text(encoding="utf-8"))

#: fig5/fig8 use the paper's balanced configuration: 2 MB over 64 KB paquets.
_PACKET = 64 << 10
_MESSAGE = 2 << 20


def _one_message(session, vch, src: str, dst: str, buffers) -> float:
    """Send ``buffers`` as one message ``src`` -> ``dst`` and run the
    session dry; returns the instant the receiver had it all."""
    done = {}

    def snd():
        m = vch.endpoint(session.rank(src)).begin_packing(session.rank(dst))
        for b in buffers:
            yield m.pack(b)
        yield m.end_packing()

    def rcv():
        inc = yield vch.endpoint(session.rank(dst)).begin_unpacking()
        for b in buffers:
            inc.unpack(len(b))
        yield inc.end_unpacking()
        done["t"] = session.now

    session.spawn(snd())
    session.spawn(rcv())
    session.run()
    return done["t"]


# -- figures 5-8 and the §3.1 latency points ----------------------------------

def cell_fig5() -> dict:
    """The figure 5 scenario: 2 MB from b0 (SCI) to a0 (Myrinet)."""
    from repro.analysis import extract_timeline, pipeline_stats
    from repro.hw.fabric import FRAGMENT_HEADER_BYTES

    harness = PingHarness(packet_size=_PACKET)
    world, session, vch, _ack = harness.build()
    # Metrics and the trace create no simulator events, so enabling them is
    # schedule-preserving; the metrics expose the wire-record count header
    # batching is actually about, the trace the pipeline timeline.
    world.telemetry.enable()
    world.trace.enable()
    elapsed = _one_message(session, vch, "b0", "a0",
                           [np.zeros(_MESSAGE, dtype=np.uint8)])
    stats = pipeline_stats(extract_timeline(world.trace))
    sim = session.sim
    mb = _MESSAGE / (1 << 20)
    records = world.telemetry.total("wire.fragments")
    assert stats.overlap_fraction > 0.5, (
        f"fig5.overlap_fraction: {stats.overlap_fraction:.1%} — the gateway "
        f"no longer receives one paquet while it sends the previous one")
    return {
        "elapsed_us": elapsed,
        "bandwidth_mbs": _MESSAGE / elapsed,
        "events_processed": float(sim.events_processed),
        "events_cancelled": float(sim.events_cancelled),
        "events_per_mb": sim.events_processed / mb,
        "fragments": float(stats.fragments),
        "mean_period_us": stats.mean_period_us,
        "overlap_fraction": stats.overlap_fraction,
        # Wire records over both hops (announces, descriptors/gtmh,
        # fragments, terminators) and the 16-byte header cost they carry.
        "wire_records": float(records),
        "wire_header_bytes": float(records * FRAGMENT_HEADER_BYTES),
    }


def cell_latency() -> dict:
    out = {}
    for direction in ("b0->a0", "a0->b0"):
        for size in (8 << 10, 4 << 20):
            r = PingHarness(packet_size=_PACKET).measure(size,
                                                         direction=direction)
            key = f"{direction.replace('->', '_to_')}_{size >> 10}k"
            out[f"{key}_us"] = r.one_way_us
            out[f"{key}_mbs"] = r.bandwidth
    return out


def _sweep(direction: str):
    """A reduced fig6/fig7 grid: enough points to pin the curve and the
    plateau without the full 5×12 sweep of ``repro fig6``/``repro fig7``.
    Returns the curves and their asymptotes (8, 64, 128 KB paquets)."""
    curves = figure_sweep(direction, packet_sizes=(8 << 10, 64 << 10,
                                                   128 << 10),
                          message_sizes=tuple((1 << k) << 10
                                              for k in (5, 7, 9, 11, 13)))
    return curves, {f"asymptote_{c.meta['packet_size'] >> 10}k_mbs":
                    c.asymptote for c in curves}


def cell_fig6() -> dict:
    curves, out = _sweep("b0->a0")
    asymptotes = list(out.values())
    small, large = asymptotes[0], asymptotes[-1]
    assert asymptotes == sorted(asymptotes), (
        f"fig6: asymptotes {asymptotes} do not grow with paquet size")
    assert 50.0 < large < 66.0, (
        f"fig6.asymptote_128k_mbs: {large:.1f} MB/s is not close to, and "
        f"below, the 66 MB/s practical one-way PCI ceiling")
    assert small < 0.65 * large, (
        f"fig6: 8 KB paquets keep {small / large:.0%} of the 128 KB "
        f"asymptote — the per-paquet cost stopped halving the bandwidth")
    for c in curves:
        bws = [bw for _size, bw in sorted(c.as_rows())]
        assert all(b2 >= 0.98 * b1 for b1, b2 in zip(bws, bws[1:])), (
            f"fig6, {c.label}: bandwidth falls with message size {bws}")
    return out


def cell_fig7() -> dict:
    _curves, out = _sweep("a0->b0")
    asymptotes = list(out.values())
    small, large = asymptotes[0], asymptotes[-1]
    # Against the committed figure 6 cell, which test_cell_matches_golden
    # holds to the same values.
    fig6_large = GOLDEN["fig6"]["asymptote_128k_mbs"]
    assert large < 0.8 * fig6_large, (
        f"fig7.asymptote_128k_mbs: {large:.1f} MB/s is not far below the "
        f"SCI -> Myrinet direction ({fig6_large:.1f} MB/s) — the PCI "
        f"conflict of §3.4.1 stopped costing bandwidth")
    assert large < 1.8 * small, (
        f"fig7: 8 KB -> 128 KB paquets gains {large / small:.2f}x — larger "
        f"paquets should help far less than in figure 6")
    assert large < 50.0, (
        f"fig7.asymptote_128k_mbs: {large:.1f} MB/s is near the PCI ceiling")
    return out


def cell_fig8() -> dict:
    from repro.analysis import extract_timeline, pipeline_stats
    from repro.hw import MYRINET, SCI

    def ratios(src: str, dst: str):
        harness = PingHarness(packet_size=_PACKET)
        world, session, vch, _ack = harness.build()
        world.trace.enable()
        _one_message(session, vch, src, dst,
                     [np.zeros(_MESSAGE, dtype=np.uint8)])
        return pipeline_stats(extract_timeline(world.trace))

    stats_ms = ratios("a0", "b0")
    stats_sm = ratios("b0", "a0")
    nominal_send = (SCI.tx_overhead + SCI.latency
                    + (_PACKET + 16) / SCI.host_peak)
    nominal_recv = (MYRINET.tx_overhead + MYRINET.latency
                    + (_PACKET + 16) / MYRINET.host_peak)
    out = {
        "myri_to_sci_send_recv_ratio": stats_ms.send_recv_ratio,
        "sci_to_myri_send_recv_ratio": stats_sm.send_recv_ratio,
        "sci_send_slowdown": stats_ms.mean_send_us / nominal_send,
    }
    assert out["myri_to_sci_send_recv_ratio"] > 1.3, (
        f"fig8.myri_to_sci_send_recv_ratio: "
        f"{out['myri_to_sci_send_recv_ratio']:.2f} — the gateway's SCI sends "
        f"no longer dominate the Myrinet -> SCI pipeline")
    assert 0.8 < out["sci_to_myri_send_recv_ratio"] < 1.25, (
        f"fig8.sci_to_myri_send_recv_ratio: "
        f"{out['sci_to_myri_send_recv_ratio']:.2f} — the SCI -> Myrinet "
        f"pipeline (figure 5) is no longer balanced")
    assert out["sci_send_slowdown"] > 1.2, (
        f"fig8.sci_send_slowdown: {out['sci_send_slowdown']:.2f}x — PIO sends "
        f"under a DMA receive stopped running slower than nominal")
    assert stats_ms.mean_recv_us < 1.15 * nominal_recv, (
        f"fig8: the Myrinet DMA receive takes {stats_ms.mean_recv_us:.0f} µs, "
        f"over 1.15x its nominal {nominal_recv:.0f} µs — the receive should "
        f"keep nominal speed")
    return out


# -- gateway pipeline, header batching, multirail -----------------------------

#: 8 KB paquets make the 40 µs buffer switch ≈ 20% of the lockstep period,
#: where the swap overhead dominates; multirail runs there too, where the
#: per-fragment latency keeps single-rail far from the wire peak.
_SMALL_PACKET = 8 << 10


def cell_pipeline() -> dict:
    """Depth-4 credit pipeline + adaptive fragment tuner vs the paper's
    depth-2 lockstep with static MTU, on the fig5 topology."""
    from repro.hw.params import GatewayParams, PipelineConfig

    def harness(**pipeline) -> PingHarness:
        return PingHarness(packet_size=_SMALL_PACKET,
                           gateway_params=GatewayParams(
                               pipeline=PipelineConfig(**pipeline)))

    def bandwidth(**pipeline) -> float:
        return harness(**pipeline).measure(
            _MESSAGE, direction="b0->a0").bandwidth

    depth2 = bandwidth()   # paper default: depth-2 lockstep
    depth4 = bandwidth(depth=4)
    depth4_tuned = bandwidth(depth=4, adaptive_mtu=True)
    _world, session, vch, _ack = harness(depth=4, adaptive_mtu=True).build()
    route = vch.routes.route(session.rank("b0"), session.rank("a0"))
    out = {
        "depth2_static_mbs": depth2,
        "depth4_static_mbs": depth4,
        "depth4_tuned_mbs": depth4_tuned,
        "tuned_fragment_kb": float(vch.effective_mtu(route) >> 10),
        "depth4_gain": depth4_tuned / depth2 - 1.0,
    }
    assert depth4 >= 0.99 * depth2, (
        f"pipeline.depth4_static_mbs: {depth4:.1f} MB/s is below depth 2's "
        f"{depth2:.1f} MB/s — a deeper pipeline must not regress")
    assert out["depth4_gain"] >= 0.10, (
        f"pipeline.depth4_gain: {out['depth4_gain']:.1%} is below the "
        f"committed floor (10%) — the depth-4 tuned pipeline stopped beating "
        f"depth-2/static-MTU")
    return out


def cell_batching() -> dict:
    """Header batching's measurable benefit: wire records saved on one
    message of 32 × 8 KB buffers b0 -> a0 (on fig5's single 2 MB buffer
    the shortened head fragment pushes a tail fragment and the record
    count is unchanged)."""
    from repro.hw.fabric import FRAGMENT_HEADER_BYTES

    def transfer(header_batching: bool):
        harness = PingHarness(packet_size=_PACKET,
                              header_batching=header_batching)
        world, session, vch, _ack = harness.build()
        world.telemetry.enable()
        elapsed = _one_message(
            session, vch, "b0", "a0",
            [np.zeros(8 << 10, dtype=np.uint8) for _ in range(32)])
        return elapsed, float(world.telemetry.total("wire.fragments"))

    plain_us, plain_records = transfer(False)
    batched_us, batched_records = transfer(True)
    out = {
        "plain_elapsed_us": plain_us,
        "batched_elapsed_us": batched_us,
        "plain_wire_records": plain_records,
        "batched_wire_records": batched_records,
        "plain_header_bytes": plain_records * FRAGMENT_HEADER_BYTES,
        "batched_header_bytes": batched_records * FRAGMENT_HEADER_BYTES,
        "record_reduction": 1.0 - batched_records / plain_records,
    }
    assert out["record_reduction"] >= 0.25, (
        f"batching.record_reduction: {out['record_reduction']:.1%} is below "
        f"the committed floor (25%) — header batching stopped removing wire "
        f"records")
    return out


def cell_multirail() -> dict:
    """Dual-rail striping vs single rail on the dual-gateway/dual-NIC
    topology, with the closed-form model's figure for the same point."""
    from repro.analysis.model import predict_multirail
    from repro.hw.params import PROTOCOLS
    from repro.routing import StripePolicy

    single = MultirailHarness(packet_size=_SMALL_PACKET,
                              rails=1).measure(_MESSAGE)
    dual = MultirailHarness(packet_size=_SMALL_PACKET, rails=2,
                            stripe_policy=StripePolicy(max_rails=2),
                            ).measure(_MESSAGE)
    model = predict_multirail(PROTOCOLS["myrinet"], PROTOCOLS["sci"],
                              _SMALL_PACKET, rails=2, message=_MESSAGE)
    out = {
        "single_rail_mbs": single.bandwidth,
        "dual_rail_mbs": dual.bandwidth,
        "model_dual_mbs": model.bandwidth,
        "multirail_dual_gain": dual.bandwidth / single.bandwidth,
    }
    assert out["multirail_dual_gain"] >= 1.5, (
        f"multirail.multirail_dual_gain: {out['multirail_dual_gain']:.2f}x "
        f"is below the committed floor (1.5x) — dual-rail striping stopped "
        f"aggregating bandwidth")
    return out


# -- traffic scaling and the incremental rate engine --------------------------

def _torus_cell(dims, flows: int, *, mean_interarrival: float, seed: int):
    """Uniform open-loop traffic of 32 KB flows on a Myrinet torus, built
    the way ``repro bench --sweep-nodes`` builds its cells."""
    from repro.bench.scale import _cell_scenario, _topology
    return _cell_scenario(_topology("torus", dims), flows, pattern="uniform",
                          size=32 << 10, mean_interarrival=mean_interarrival,
                          seed=seed)


def cell_sweep_nodes() -> dict:
    """Events/MB growth from 8 to 64 open-loop flows on a 4×4 torus: with
    8× the concurrent flows the kernel cost per MB must stay sub-linear
    (< 1 in practice — fixed per-run costs amortize)."""
    from repro.bench.scale import run_traffic_scenario

    out = {}
    for flows in (8, 64):
        row = run_traffic_scenario(
            _torus_cell((4, 4), flows, mean_interarrival=200.0, seed=11))
        # A partial run's statistics describe only the flows that finished.
        assert row["completed"] == flows, row
        out[f"events_per_mb_{flows}f"] = row["events_per_mb"]
        out[f"p99_fct_us_{flows}f"] = row["p99_fct_us"]
        out[f"completed_{flows}f"] = float(row["completed"])
    out["event_growth"] = (out["events_per_mb_64f"]
                           / out["events_per_mb_8f"])
    assert out["event_growth"] <= 1.3, (
        f"sweep_nodes.event_growth: {out['event_growth']:.2f}x exceeds the "
        f"committed ceiling (1.3x) — kernel cost per MB is no longer "
        f"sub-linear in concurrent flow count")
    return out


def cell_incremental_rates() -> dict:
    """The incremental fluid-rate engine on the ``--sweep-nodes`` grid.

    * DES locality: on the 256-node torus each rate epoch re-solves at most
      25% of the live flows (arrivals and completions dirty only their own
      contention component);
    * solver agreement (``fct_agreement_ok``): on every cell the
      incremental solver's finish times stay within 1e-9 (relative) of
      :mod:`tests.solver.reference_solve`, which re-solves every epoch with
      the global ``max_min_rates`` oracle.

    Solver speed is ``cpu_s`` on the ``solver_*`` workloads of
    ``benchmarks/perf``, not a number here.
    """
    from repro.bench.scale import DEFAULT_GRID, run_traffic_scenario
    from repro.solver import solve
    from tests.solver.reference_solve import reference_solve

    cells = [_torus_cell(shape, flows, mean_interarrival=50.0, seed=7)
             for _kind, shape, flows in DEFAULT_GRID]
    row = run_traffic_scenario(cells[-1])
    assert row["completed"] == DEFAULT_GRID[-1][2], row
    out = {
        "des_recompute_fraction": row["fluid_recompute_fraction"],
        "des_epochs": float(row["fluid_epochs"]),
        "des_recompute_flows": float(row["fluid_recompute_flows"]),
    }
    assert out["des_recompute_fraction"] <= 0.25, (
        f"incremental_rates.des_recompute_fraction: "
        f"{out['des_recompute_fraction']:.1%} exceeds the committed ceiling "
        f"(25%) — rate epochs are no longer local to their contention "
        f"component")

    agree = 1.0
    for sc in cells:
        big = solve(sc)                     # ends on the 256-node torus
        ref, _utilization = reference_solve(sc)
        if any(abs(est.finish_us - ref[est.index]) > 1e-9 * ref[est.index]
               for est in big.flows):
            agree = 0.0
    assert agree == 1.0, (
        "incremental_rates.fct_agreement_ok: the incremental solver's "
        "completion times diverged from the global max_min_rates oracle "
        "re-solved every epoch")
    out["solver_recompute_fraction"] = big.epoch_flows / big.live_flow_epochs
    out["mean_component_flows"] = (
        sum(size * n for size, n in big.component_sizes.items())
        / max(1, sum(big.component_sizes.values())))
    out["solver_epochs"] = float(big.recomputes)
    out["fct_agreement_ok"] = agree
    return out


# -- the adaptive transport (docs/adaptive.md) --------------------------------
#
# Every run builds a pristine world and resets the process-wide id
# counters: the rail-loss run's recovery path branches on wire content
# that embeds them.

#: each mixed-workload flow: many handshake-bound small messages and one
#: bulk buffer.  Equal bytes per flow, but half the flows lead with the
#: bulk buffer and half trail with it — the skew keeps gateway occupancy
#: lumpy, which is what the balanced rail pick feeds on (a symmetric mix
#: never makes round-robin suboptimal).
_SMALLS = (2 << 10,) * 24
_LARGE = (128 << 10,)
_MIXED_FLOWS = (
    (("a0", "b0"), _LARGE + _SMALLS),
    (("a1", "b1"), _SMALLS + _LARGE),
    (("b0", "a0"), _LARGE + _SMALLS),
    (("b1", "a1"), _SMALLS + _LARGE),
)


def _mixed_workload(policy):
    """Four flows across a dual-gateway bridge between two 2-endpoint
    clusters (multirail on, so every pair sees one route per gateway).
    Returns (aggregate MB/s, per-flow MB/s in pair order, the session)."""
    from repro.hw import build_world
    from repro.madeleine import Session

    world = build_world({
        "a0": ["myrinet"], "a1": ["myrinet"],
        "gw0": ["myrinet", "sci"], "gw1": ["myrinet", "sci"],
        "b0": ["sci"], "b1": ["sci"],
    })
    session = Session(world, packet_size=32 << 10, telemetry=True)
    ch_a = session.channel("myrinet", ["a0", "a1", "gw0", "gw1"], name="ca")
    ch_b = session.channel("sci", ["gw0", "gw1", "b0", "b1"], name="cb")
    vch = session.virtual_channel([ch_a, ch_b], multirail=True,
                                  transport_policy=policy)
    done: dict[tuple[str, str], float] = {}

    def sender(src: str, dst: str, sizes):
        ep = vch.endpoint(session.rank(src))
        dst_rank = session.rank(dst)
        for n in sizes:
            msg = ep.begin_packing(dst_rank)
            yield msg.pack(np.zeros(n, dtype=np.uint8))
            yield msg.end_packing()

    def receiver(src: str, dst: str, sizes):
        ep = vch.endpoint(session.rank(dst))
        for n in sizes:
            inc = yield ep.begin_unpacking()
            _ev, _b = inc.unpack(n)
            yield inc.end_unpacking()
        done[(src, dst)] = session.now

    for (src, dst), sizes in _MIXED_FLOWS:
        session.spawn(sender(src, dst, sizes), name=f"mix-snd:{src}")
        session.spawn(receiver(src, dst, sizes), name=f"mix-rcv:{dst}")
    session.run()
    flow_bytes = float(sum(_MIXED_FLOWS[0][1]))
    per_flow = [flow_bytes / done[pair] for pair, _sizes in _MIXED_FLOWS]
    aggregate = len(_MIXED_FLOWS) * flow_bytes / max(done.values())
    return aggregate, per_flow, session


#: eight reliable 256 KB transfers; bandwidth is measured over transfers
#: 5..8, fully after the loss and its recovery.
_XFER = 256 << 10
_N_XFER = 8
_MEASURE_FROM = 4


def _rail_loss(rails: int, policy, fault_at=None):
    """The reliable transfer sequence a0 -> b0 over ``rails`` disjoint
    a0 -> gw{i} -> b0 rails (striped when more than one), optionally losing
    rail 1's SCI hop for good at ``fault_at``.  Returns the measurement
    window's bandwidth (MB/s) and the session."""
    from repro.faults import FaultPlan, LinkEvent
    from repro.hw import build_world
    from repro.hw.params import GatewayParams
    from repro.madeleine import ReliableEndpoint, RetryPolicy, Session
    from repro.routing import StripePolicy

    gws = [f"gw{i}" for i in range(rails)]
    world = build_world({
        "a0": ["myrinet"] * rails,
        **{gw: ["myrinet", "sci"] for gw in gws},
        "b0": ["sci"] * rails,
    })
    session = Session(world, packet_size=16 << 10, telemetry=True)
    channels = []
    for i, gw in enumerate(gws):
        channels.append(session.channel("myrinet", ["a0", gw], name=f"ca{i}",
                                        adapter_index={"a0": i}))
        channels.append(session.channel("sci", [gw, "b0"], name=f"cb{i}",
                                        adapter_index={"b0": i}))
    # Armed after the channels exist so its link target validates.
    if fault_at is not None:
        FaultPlan(seed=0, link_events=(LinkEvent(time=fault_at,
                                                 channel="cb1"),)).arm(world)
    # The bounded gateway stall is what lets a forwarding worker walk away
    # from the aborted stripe of a dead rail (it never sees a terminating
    # descriptor) instead of wedging the whole connection behind it.
    vch = session.virtual_channel(
        channels, gateway_params=GatewayParams(stall_timeout=5_000.0),
        stripe_policy=StripePolicy(max_rails=rails) if rails > 1 else None,
        transport_policy=policy)
    # Snappy recovery clocks sized to the ~2.6 ms single-rail attempt, so
    # the one interrupted transfer retries quickly instead of idling out a
    # 50 ms default RTO.
    retry = RetryPolicy(rto=8_000.0, rto_max=32_000.0, stall_timeout=3_000.0,
                        reack_interval=8_000.0, reack_ttl=80_000.0)
    src, dst = session.rank("a0"), session.rank("b0")
    rel_src = ReliableEndpoint(vch.endpoint(src), retry)
    rel_dst = ReliableEndpoint(vch.endpoint(dst), retry)
    payload = bytes(_XFER)
    times: list[float] = []

    def snd():
        for _ in range(_N_XFER):
            yield from rel_src.send(dst, payload)

    def rcv():
        for _ in range(_N_XFER):
            yield from rel_dst.recv()
            times.append(session.now)

    session.spawn(snd(), name="rail-snd")
    session.spawn(rcv(), name="rail-rcv")
    session.run()
    window = times[-1] - times[_MEASURE_FROM - 1]
    return (_N_XFER - _MEASURE_FROM) * _XFER / window, session


def cell_adaptive() -> dict:
    """The :class:`~repro.madeleine.adaptive.TransportPolicy` (documented
    defaults) against the static configuration: eager small messages and
    occupancy-balanced gateways on the mixed workload, and fail-fast
    re-striping after a permanent rail loss during transfer 2 (clean
    dual-rail transfers take ~4.4 ms each), measured against the same
    sequence on a single-rail world."""
    from repro.madeleine import TransportPolicy

    policy = TransportPolicy()
    static_agg, _static_flows, _s = _mixed_workload(None)
    adaptive_agg, flows, mixed = _mixed_workload(policy)
    post_loss, lossy = _rail_loss(2, policy, fault_at=6_000.0)
    survivor, _s2 = _rail_loss(1, policy)
    m = mixed.metrics
    out = {
        "static_aggregate_mbs": static_agg,
        "adaptive_aggregate_mbs": adaptive_agg,
        "adaptive_mixed_gain": adaptive_agg / static_agg,
        "adaptive_jain_fairness": (sum(flows) ** 2
                                   / (len(flows) * sum(x * x for x in flows))),
        "post_loss_mbs": post_loss,
        "survivor_optimum_mbs": survivor,
        "adaptive_recovery_fraction": post_loss / survivor,
        "eager_sends": float(m.total("vchannel.eager_sends")),
        "balance_moves": float(m.total("gateway.balance_moves")),
        "restripe_events": float(
            lossy.metrics.total("vchannel.restripe_events")),
    }
    assert out["adaptive_mixed_gain"] >= 1.15, (
        f"adaptive.adaptive_mixed_gain: {out['adaptive_mixed_gain']:.2f}x is "
        f"below the committed floor (1.15x) — the adaptive transport stopped "
        f"beating the static configuration on the mixed workload")
    assert out["adaptive_jain_fairness"] >= 0.9, (
        f"adaptive.adaptive_jain_fairness: "
        f"{out['adaptive_jain_fairness']:.3f} is below the committed floor "
        f"(0.90) — the adaptive policy is starving some flows to win its "
        f"aggregate gain")
    assert out["adaptive_recovery_fraction"] >= 0.7, (
        f"adaptive.adaptive_recovery_fraction: "
        f"{out['adaptive_recovery_fraction']:.2f} is below the committed "
        f"floor (0.70) — post-rail-loss bandwidth fell away from the "
        f"surviving-rail optimum")
    return out

# -- raw networks, forwarding alternatives, design ablations ------------------

def cell_raw_networks() -> dict:
    """§3.2 raw Madeleine one-way bandwidth per network, 1 KB - 4 MB: SCI
    wins small messages and Myrinet large ones (§3.2.2), Myrinet tops out
    under the practical PCI ceiling, and the Fast-Ethernet ack network is
    an order of magnitude below both."""
    from repro.bench import Series, probe_protocol_rates

    sizes = [(1 << k) << 10 for k in range(13)]
    curves = {p: Series(p) for p in ("myrinet", "sci", "fast_ethernet")}
    for size in sizes:
        for proto, rate in probe_protocol_rates(tuple(curves), size).items():
            curves[proto].add(size, rate)
    myri, sci = curves["myrinet"], curves["sci"]
    crossover = next(size for size, s_bw, m_bw
                     in zip(sizes, sci.bandwidths, myri.bandwidths)
                     if m_bw >= s_bw)
    out = {
        "myrinet_1k_mbs": myri.bandwidths[0],
        "sci_1k_mbs": sci.bandwidths[0],
        "myrinet_asymptote_mbs": myri.asymptote,
        "sci_asymptote_mbs": sci.asymptote,
        "fast_ethernet_asymptote_mbs": curves["fast_ethernet"].asymptote,
        "crossover_kb": float(crossover >> 10),
    }
    assert out["sci_1k_mbs"] > out["myrinet_1k_mbs"], (
        "raw_networks: Myrinet beats SCI on 1 KB messages — SCI should win "
        "small messages (§3.2.2)")
    assert out["myrinet_asymptote_mbs"] > out["sci_asymptote_mbs"], (
        "raw_networks: SCI's asymptote beats Myrinet's — Myrinet should "
        "win large messages (§3.2.2)")
    assert 4 <= out["crossover_kb"] <= 128, (
        f"raw_networks.crossover_kb: Myrinet overtakes SCI at "
        f"{out['crossover_kb']:.0f} KB, outside the 4-128 KB range")
    assert 60.0 < out["myrinet_asymptote_mbs"] <= 66.0, (
        f"raw_networks.myrinet_asymptote_mbs: "
        f"{out['myrinet_asymptote_mbs']:.1f} MB/s is not between 60 MB/s "
        f"and the 66 MB/s practical one-way PCI ceiling")
    assert out["fast_ethernet_asymptote_mbs"] < 12.0, (
        f"raw_networks.fast_ethernet_asymptote_mbs: "
        f"{out['fast_ethernet_asymptote_mbs']:.1f} MB/s — Fast-Ethernet "
        f"should be an order of magnitude below the fast networks")
    return out


def _forwarded_us(size: int) -> float:
    """One ``size``-byte message SCI -> Myrinet through the GTM gateway
    (64 KB paquets)."""
    _world, session, vch, _ack = PingHarness(packet_size=_PACKET).build()
    return _one_message(session, vch, "b0", "a0",
                        [np.zeros(size, dtype=np.uint8)])


def _relay_us(size: int, pacx: bool = False) -> float:
    """One ``size``-byte message s0 (SCI) -> m0 (Myrinet) relayed by an
    application: a store-and-forward process on the gateway (Nexus-style),
    or with ``pacx`` a PACX-style pair of daemons coupled over TCP."""
    from repro.baselines import (AppLevelForwarder, app_recv, app_send,
                                 build_pacx_coupling)
    from repro.hw import build_world
    from repro.madeleine import Session
    from repro.routing import RouteTable

    if pacx:
        session = Session(build_world({
            "m0": ["myrinet"], "md": ["myrinet", "gigabit_tcp"],
            "sd": ["sci", "gigabit_tcp"], "s0": ["sci"]}))
        coupling = build_pacx_coupling(session, ["m0", "md"], "myrinet",
                                       ["s0", "sd"], "sci")
        routes, last_hop = coupling.routes, coupling.intra_a
    else:
        session = Session(build_world({
            "m0": ["myrinet"], "gw": ["myrinet", "sci"], "s0": ["sci"]}))
        myri = session.channel("myrinet", ["m0", "gw"])
        sci = session.channel("sci", ["gw", "s0"])
        AppLevelForwarder([myri, sci], gw_rank=session.rank("gw"))
        routes, last_hop = RouteTable([myri, sci]), myri
    done = {}

    def snd():
        yield app_send(routes, session.rank("s0"), session.rank("m0"),
                       np.zeros(size, dtype=np.uint8))

    def rcv():
        yield from app_recv(last_hop, session.rank("m0"))
        done["t"] = session.now

    session.spawn(snd())
    session.spawn(rcv())
    session.run()
    return done["t"]


#: the §3.2.1 small-message sizes (bytes).
_SMALL_SIZES = (4, 64, 1 << 10, 8 << 10)


def cell_small_messages() -> dict:
    """§3.2.1 "bandwidth vs latency": one-way times of 4 B - 8 KB messages
    direct on each network, forwarded by the GTM (SCI -> Myrinet) and
    relayed by an application on the gateway.  The paper does not optimise
    latency: forwarding pays both native latencies plus software overhead,
    and below one paquet the relay is even faster than the GTM."""
    from repro.bench import probe_protocol_rates

    out = {}
    for size in _SMALL_SIZES:
        rates = probe_protocol_rates(("myrinet", "sci"), size)
        out[f"myrinet_{size}b_us"] = size / rates["myrinet"]
        out[f"sci_{size}b_us"] = size / rates["sci"]
        out[f"gtm_{size}b_us"] = _forwarded_us(size)
        out[f"app_relay_{size}b_us"] = _relay_us(size)
    for size in _SMALL_SIZES:
        direct = out[f"myrinet_{size}b_us"] + out[f"sci_{size}b_us"]
        assert out[f"gtm_{size}b_us"] > direct, (
            f"small_messages.gtm_{size}b_us: {out[f'gtm_{size}b_us']:.1f} µs "
            f"is not above the two native latencies ({direct:.1f} µs)")
    assert out["sci_4b_us"] < out["myrinet_4b_us"], (
        "small_messages: Myrinet's native small-message latency beats SCI's")
    gap = [out[f"gtm_{size}b_us"] - out[f"app_relay_{size}b_us"]
           for size in _SMALL_SIZES]
    assert gap[-1] < 0.6 * gap[0], (
        f"small_messages: the GTM's latency penalty over the relay went from "
        f"{gap[0]:.1f} µs at 4 B to {gap[-1]:.1f} µs at 8 KB — it should "
        f"shrink as the pipeline amortizes")
    return out


def cell_baselines() -> dict:
    """§1/§2.2.2: the integrated GTM forwarding against the alternatives the
    paper rejects, on one 1 MB message SCI -> Myrinet: a store-and-forward
    relay application on the gateway (an extra copy, no pipelining) and
    PACX-style coupling through a TCP daemon pair."""
    size = 1 << 20
    out = {
        "gtm_mbs": size / _forwarded_us(size),
        "app_relay_mbs": size / _relay_us(size),
        "pacx_mbs": size / _relay_us(size, pacx=True),
    }
    assert out["gtm_mbs"] > 1.3 * out["app_relay_mbs"], (
        f"baselines: the GTM ({out['gtm_mbs']:.1f} MB/s) is not 1.3x the "
        f"store-and-forward relay ({out['app_relay_mbs']:.1f} MB/s)")
    assert out["gtm_mbs"] > 1.8 * out["pacx_mbs"], (
        f"baselines: the GTM ({out['gtm_mbs']:.1f} MB/s) is not 1.8x the "
        f"PACX-style TCP coupling ({out['pacx_mbs']:.1f} MB/s)")
    assert out["app_relay_mbs"] > out["pacx_mbs"], (
        "baselines: the TCP coupling beats the relay that uses the fast "
        "links")
    return out


def cell_ablations() -> dict:
    """One design knob at a time on one 4 MB message, everything else at
    paper values (64 KB paquets): paquet size and buffer-switch overhead
    SCI -> Myrinet; gateway ingress regulation (§4) and the PIO-under-DMA
    slowdown (§3.4.1) Myrinet -> SCI.  Pipeline depth and the swap
    discipline are asserted in tests/madeleine/test_gateway.py and
    test_gateway_modes.py."""
    from repro.hw import GatewayParams, NodeParams, PCIParams

    def bandwidth(direction="b0->a0", packet=_PACKET, gateway_params=None,
                  node_params=None) -> float:
        harness = PingHarness(packet_size=packet,
                              gateway_params=gateway_params,
                              node_params=node_params)
        return harness.measure(4 << 20, direction=direction).bandwidth

    out = {}
    for kb in (8, 16, 32, 64, 128):
        out[f"paquet_{kb}k_mbs"] = bandwidth(packet=kb << 10)
    for us in (0.0, 20.0, 40.0, 80.0, 160.0):
        out[f"switch_{us:.0f}us_mbs"] = bandwidth(
            gateway_params=GatewayParams(switch_overhead=us))
    for limit in (None, 60.0, 45.0, 30.0):
        out[f"ingress_{limit or 0:.0f}_mbs"] = bandwidth(
            "a0->b0", gateway_params=GatewayParams(ingress_limit=limit))
    for factor in (1.0, 1.5, 2.0, 3.0, 4.0):
        out[f"pio_slowdown_{factor}x_mbs"] = bandwidth(
            "a0->b0", node_params=NodeParams(
                pci=PCIParams(pio_preempt_slowdown=factor)))

    def knob(prefix: str) -> list:
        return [bw for key, bw in out.items() if key.startswith(prefix)]

    assert knob("paquet") == sorted(knob("paquet")), (
        f"ablations: bandwidth {knob('paquet')} does not grow with paquet "
        f"size 8-128 KB")
    for prefix, what in (("switch", "the buffer-switch overhead"),
                         ("ingress", "a tighter ingress limit"),
                         ("pio", "a harsher PIO-under-DMA slowdown")):
        assert knob(prefix) == sorted(knob(prefix), reverse=True), (
            f"ablations: bandwidth {knob(prefix)} does not fall with {what}")
    assert out["pio_slowdown_1.0x_mbs"] > 45.0, (
        f"ablations.pio_slowdown_1.0x_mbs: "
        f"{out['pio_slowdown_1.0x_mbs']:.1f} MB/s — without the PIO penalty "
        f"Myrinet -> SCI should recover the symmetric level")
    return out


def cell_sci_dma() -> dict:
    """§4 future work: send over SCI with the card's DMA engine instead of
    PIO.  ``sci_dma`` is SCI with bus-master sends (no PIO preemption
    penalty) and a 25 µs DMA setup cost per fragment; Myrinet -> SCI
    forwarding at 64 KB paquets, 64 KB - 8 MB messages.  The protocol is
    registered for the cell's duration only."""
    from repro.hw import PROTOCOLS, SCI, register_protocol, scaled
    from repro.sim.fluid import DMA

    register_protocol(scaled(SCI, name="sci_dma", tx_kind=DMA,
                             latency=SCI.latency + 25.0))
    try:
        out = {}
        for proto in ("sci", "sci_dma"):
            (curve,) = figure_sweep(
                "a0->b0", packet_sizes=(_PACKET,),
                message_sizes=tuple((1 << k) << 10 for k in range(6, 14)),
                protocols=("myrinet", proto))
            out[f"{proto}_asymptote_mbs"] = curve.asymptote
    finally:
        del PROTOCOLS["sci_dma"]
    out["dma_gain"] = out["sci_dma_asymptote_mbs"] / out["sci_asymptote_mbs"]
    assert out["dma_gain"] > 1.15, (
        f"sci_dma.dma_gain: {out['dma_gain']:.2f}x — DMA-engine sends no "
        f"longer recover the bandwidth PIO loses to the PCI conflict")
    assert out["sci_dma_asymptote_mbs"] > 45.0, (
        f"sci_dma.sci_dma_asymptote_mbs: {out['sci_dma_asymptote_mbs']:.1f} "
        f"MB/s is far from the SCI -> Myrinet level")
    return out


def cell_protocol_matrix() -> dict:
    """The gateway between every ordered pair of protocols (one 1 MB message,
    32 KB paquets): bandwidth and gateway copies per forwarded byte.  The
    §2.3 zero-copy rules: the gateway copies only when it must receive into
    static buffers of the incoming protocol and send from static buffers of
    the outgoing one, and then exactly once."""
    from repro.hw import PROTOCOLS

    size = 1 << 20
    protocols = ("myrinet", "sci", "sbp", "gigabit_tcp")
    out = {}
    for p_in in protocols:
        for p_out in protocols:
            if p_in == p_out:
                continue
            harness = PingHarness(packet_size=32 << 10,
                                  protocols=(p_in, p_out))
            world, session, vch, _ack = harness.build()
            elapsed = _one_message(session, vch, "a0", "b0",
                                   [np.zeros(size, dtype=np.uint8)])
            _n, copied = world.accounting.by_label().get(
                "gateway.static_copy", (0, 0))
            pair = f"{p_in}_to_{p_out}"
            out[f"{pair}_mbs"] = size / elapsed
            out[f"{pair}_copies_per_byte"] = copied / size
            if PROTOCOLS[p_in].rx_static and PROTOCOLS[p_out].tx_static:
                assert 0.999 < copied / size < 1.01, (
                    f"protocol_matrix.{pair}: {copied / size:.3f} gateway "
                    f"copies per byte — static x static must copy once")
            else:
                assert copied == 0, (
                    f"protocol_matrix.{pair}: the gateway copied {copied} B "
                    f"on a path the zero-copy rules keep copy-free")
            assert out[f"{pair}_mbs"] > 5.0, (
                f"protocol_matrix.{pair}: {out[f'{pair}_mbs']:.1f} MB/s — a "
                f"pathological stall")
    assert out["sci_to_myrinet_mbs"] > out["myrinet_to_sci_mbs"], (
        "protocol_matrix: Myrinet -> SCI beats SCI -> Myrinet, against "
        "figures 6 and 7")
    assert out["sbp_to_sci_mbs"] < out["myrinet_to_sci_mbs"], (
        "protocol_matrix: the static x static copy into SCI costs no "
        "bandwidth against the borrowed-buffer path Myrinet -> SCI")
    return out


def cell_collectives() -> dict:
    """Allreduce of 2 MB (341 KB per rank) over six ranks, binomial tree
    and bandwidth-optimal ring, inside one Myrinet cluster and split 3+3
    across a Myrinet/SCI gateway: what crossing the gateway costs each."""
    from repro.hw import (ClusterSpec, GatewayLink, build_cluster_of_clusters,
                          build_world)
    from repro.madeleine import Session
    from repro.minimpi import Communicator, allreduce, ring_allreduce
    from tests.minimpi.test_collectives import run_spmd

    def single():
        names = {f"n{i}": ["myrinet"] for i in range(6)}
        session = Session(build_world(names))
        return (session, [session.channel("myrinet", list(names))],
                list(range(6)))

    def split():
        world, members, gws = build_cluster_of_clusters(
            clusters=[ClusterSpec("m", "myrinet", 4),
                      ClusterSpec("s", "sci", 3)],
            gateways=[GatewayLink("m", "s")])
        session = Session(world, packet_size=_PACKET)
        channels = [session.channel("myrinet", members["m"]),
                    session.channel("sci", members["s"] + gws)]
        return session, channels, [session.rank(n) for n in
                                   members["m"][:3] + members["s"]]

    out = {}
    for topology, build in (("single", single), ("split", split)):
        for name, algorithm in (("tree", allreduce), ("ring", ring_allreduce)):
            session, channels, workers = build()
            vch = session.virtual_channel(channels)
            finish = {}

            def body(comm, i, results, algorithm=algorithm, session=session):
                got = yield from algorithm(
                    comm, np.full((1 << 18) // 6, float(i)), op=np.add)
                assert np.allclose(got, 15.0)    # 0 + 1 + ... + 5
                results[i] = session.now

            run_spmd(session, {r: Communicator(vch, r) for r in workers},
                     workers, body, finish)
            out[f"{topology}_{name}_us"] = max(finish.values())
    for name in ("tree", "ring"):
        penalty = out[f"split_{name}_us"] / out[f"single_{name}_us"]
        out[f"{name}_gateway_penalty"] = penalty
        assert penalty > 1.0, (
            f"collectives.{name}_gateway_penalty: {penalty:.2f}x — crossing "
            f"the gateway costs the {name} allreduce nothing")
    return out


def cell_failover() -> dict:
    """The reliable layer on the two-gateway testbed (2 × 240 kB Myrinet ->
    SCI, 16 KB paquets): a clean run, 5% fragment drop with 2.5%
    corruption, and the active gateway crashing 2 ms in.  Loss costs
    goodput; the crash costs time but ends by failover onto the surviving
    gateway, well inside the retry budget."""
    from repro.faults import ChannelFaults, FaultPlan, NodeEvent
    from repro.madeleine import RetryPolicy
    from tests.faults.conftest import (payloads, reliable_pair, run_transfer,
                                       two_gateway_world)

    policy = RetryPolicy()
    msgs = payloads(11, 2, 240_000)

    def completion(drop_p=0.0, crash=False) -> float:
        world, session, myri, sci = two_gateway_world()
        faults = ChannelFaults(drop_p=drop_p, corrupt_p=drop_p / 2)
        FaultPlan(seed=11, channels={myri.id: faults, sci.id: faults},
                  node_events=((NodeEvent(time=2_000.0, node="gwA"),)
                               if crash else ())).arm(world)
        _vch, rel_src, rel_dst = reliable_pair(session, myri, sci, policy)
        delivered = []
        _attempts, got, errors = run_transfer(session, rel_src, rel_dst,
                                              msgs, delivered=delivered)
        assert not errors and got == msgs, errors
        return delivered[-1]

    out = {"clean_us": completion(), "lossy_us": completion(drop_p=0.05),
           "crash_us": completion(crash=True)}
    out["recovery_us"] = out["crash_us"] - out["clean_us"]
    budget = 2 * policy.max_attempts * policy.rto_max
    assert out["lossy_us"] > out["clean_us"], (
        "failover: 5% fragment loss costs no goodput")
    assert 0.0 < out["recovery_us"] < budget, (
        f"failover.recovery_us: {out['recovery_us']:.0f} µs is not a "
        f"positive delay under the retry budget ({budget:.0f} µs) — the "
        f"crash is no longer survived by failover")
    return out


CELLS = {
    "fig5": cell_fig5,
    "fig8": cell_fig8,
    "latency": cell_latency,
    "pipeline": cell_pipeline,
    "batching": cell_batching,
    "multirail": cell_multirail,
    "sweep_nodes": cell_sweep_nodes,
    "incremental_rates": cell_incremental_rates,
    "adaptive": cell_adaptive,
    "fig6": cell_fig6,
    "fig7": cell_fig7,
    "raw_networks": cell_raw_networks,
    "small_messages": cell_small_messages,
    "baselines": cell_baselines,
    "ablations": cell_ablations,
    "sci_dma": cell_sci_dma,
    "protocol_matrix": cell_protocol_matrix,
    "collectives": cell_collectives,
    "failover": cell_failover,
}


def test_golden_names_every_cell():
    assert sorted(GOLDEN) == sorted(CELLS)


@pytest.mark.parametrize("name", list(CELLS))
def test_cell_matches_golden(name):
    # A cell must not depend on the global RNGs: seed both with a value
    # that differs per cell and draw from them before it runs.
    seed = 1 + list(CELLS).index(name)
    random.seed(seed)
    random.random()
    np.random.seed(seed)
    np.random.random()
    assert CELLS[name]() == GOLDEN[name]    # exact floats, no tolerance


def test_the_sci_dma_cell_leaves_the_protocol_registry_as_it_found_it():
    from repro.hw import PROTOCOLS
    before = list(PROTOCOLS)
    cell_sci_dma()
    assert list(PROTOCOLS) == before
