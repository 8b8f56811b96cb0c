"""Ablations of the design choices DESIGN.md calls out:

* paquet size (pipeline startup vs steady state, §3.2.2);
* buffer-switch software overhead (measured ≈ 40 µs, §3.3.1);
* pipeline depth (1 = store-and-forward per fragment, 2 = the paper, 4);
* PIO-under-DMA slowdown factor (measured ≈ 2×, §3.4.1).

Each sweeps one knob on the SCI->Myrinet (or, for the PIO knob, the
Myrinet->SCI) forwarding path while everything else stays at paper values.
"""

import numpy as np

from repro.bench import PingHarness
from repro.hw import GatewayParams, NodeParams, PCIParams, PipelineConfig

from common import emit, once

MESSAGE = 4 << 20


def forward_bw(direction="b0->a0", packet=64 << 10, gateway_params=None,
               node_params=None):
    harness = PingHarness(packet_size=packet, gateway_params=gateway_params,
                          node_params=node_params)
    return harness.measure(MESSAGE, direction=direction).bandwidth


def run_all():
    out = {}
    out["packet"] = [(p >> 10, forward_bw(packet=p))
                     for p in [8 << 10, 16 << 10, 32 << 10, 64 << 10,
                               128 << 10]]
    out["overhead"] = [
        (ov, forward_bw(gateway_params=GatewayParams(switch_overhead=ov)))
        for ov in (0.0, 20.0, 40.0, 80.0, 160.0)]
    out["depth"] = [
        (d, forward_bw(gateway_params=GatewayParams(
            pipeline=PipelineConfig(depth=d, lockstep=False))))
        for d in (1, 2, 4)]
    out["discipline"] = [
        ("lockstep (paper)", forward_bw(gateway_params=GatewayParams())),
        ("decoupled queue", forward_bw(gateway_params=GatewayParams(
            pipeline=PipelineConfig(lockstep=False)))),
    ]
    out["ingress"] = [
        (lim, forward_bw(direction="a0->b0",
                         gateway_params=GatewayParams(ingress_limit=lim)))
        for lim in (None, 60.0, 45.0, 30.0)]
    out["pio_slowdown"] = [
        (f, forward_bw(direction="a0->b0",
                       node_params=NodeParams(
                           pci=PCIParams(pio_preempt_slowdown=f))))
        for f in (1.0, 1.5, 2.0, 3.0, 4.0)]
    return out


def bench_ablations(benchmark):
    res = once(benchmark, run_all)
    lines = [f"Design-choice ablations ({MESSAGE >> 20} MB messages)"]
    lines.append("\npaquet size (SCI->Myrinet, KB -> MB/s):")
    lines += [f"  {p:5d} KB  {bw:6.1f}" for p, bw in res["packet"]]
    lines.append("\nbuffer-switch overhead (µs -> MB/s):")
    lines += [f"  {ov:5.0f} µs  {bw:6.1f}" for ov, bw in res["overhead"]]
    lines.append("\npipeline depth (buffers -> MB/s):")
    lines += [f"  {d:5d}     {bw:6.1f}" for d, bw in res["depth"]]
    lines.append("\nswap discipline at depth 2 (-> MB/s):")
    lines += [f"  {name:18s}{bw:6.1f}" for name, bw in res["discipline"]]
    lines.append("\ningress regulation, Myrinet->SCI (§4 future work; limit -> MB/s):")
    lines += [f"  {('none' if lim is None else f'{lim:.0f} MB/s'):>9s} {bw:6.1f}"
              for lim, bw in res["ingress"]]
    lines.append("\nPIO-under-DMA slowdown (factor -> Myrinet->SCI MB/s):")
    lines += [f"  {f:5.1f}x    {bw:6.1f}" for f, bw in res["pio_slowdown"]]
    emit("ablations", "\n".join(lines))
    benchmark.extra_info["depth2_vs_1"] = round(
        res["depth"][1][1] / res["depth"][0][1], 2)

    # Shape assertions:
    pkt_bw = [bw for _p, bw in res["packet"]]
    assert pkt_bw == sorted(pkt_bw)              # bigger paquets help
    ov_bw = [bw for _o, bw in res["overhead"]]
    assert ov_bw == sorted(ov_bw, reverse=True)  # overhead hurts, monotone
    d_bw = dict(res["depth"])
    assert d_bw[2] > d_bw[1] * 1.2               # double buffering pays
    assert d_bw[4] >= d_bw[2] * 0.99             # deeper: no regression
    ing = [bw for _l, bw in res["ingress"]]
    # with rendezvous flow control already built in, extra regulation can
    # only throttle — measured and reported as a (negative) finding
    assert ing == sorted(ing, reverse=True)
    disc = dict(res["discipline"])
    # the decoupled queue can only help (it may hide the swap overhead)
    assert disc["decoupled queue"] >= disc["lockstep (paper)"] * 0.999
    pio_bw = [bw for _f, bw in res["pio_slowdown"]]
    assert pio_bw == sorted(pio_bw, reverse=True)  # harsher arbiter, worse
    # slowdown 1.0 recovers the symmetric level
    assert res["pio_slowdown"][0][1] > 45.0
