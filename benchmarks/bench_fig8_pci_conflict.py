"""Figure 8 — PCI bus conflicts stretch the gateway's SCI sends.

The paper instrumented the gateway with rdtsc and found that during a
Myrinet (DMA) receive, the concurrent SCI (PIO) send runs about 2× slower,
while the receive proceeds at nominal speed — so the send steps last far
longer than the receive steps and dominate the pipeline period.  We
reproduce the instrumented timeline from simulation traces and quantify the
slowdown.
"""

import numpy as np

from repro.analysis import extract_timeline, pipeline_stats, render_timeline
from repro.bench import PingHarness
from repro.hw import MYRINET, SCI

from common import PAPER, emit, once

PACKET = 64 << 10
MESSAGE = 2 << 20


def run(direction):
    from repro.analysis import BusMonitor
    harness = PingHarness(packet_size=PACKET)
    world, session, vch, ack = harness.build()
    world.trace.enable()
    monitor = BusMonitor(world.fnet)
    data = np.zeros(MESSAGE, dtype=np.uint8)
    src, dst = (("a0", "b0") if direction == "myri->sci" else ("b0", "a0"))

    def snd():
        m = vch.endpoint(session.rank(src)).begin_packing(session.rank(dst))
        yield m.pack(data)
        yield m.end_packing()

    def rcv():
        inc = yield vch.endpoint(session.rank(dst)).begin_unpacking()
        _ev, _b = inc.unpack(MESSAGE)
        yield inc.end_unpacking()

    session.spawn(snd()); session.spawn(rcv())
    session.run()
    steps = extract_timeline(world.trace)
    gw_pci = world.node("gw").pci
    bus = {
        "mean": monitor.mean_utilization(gw_pci),
        "spark": monitor.sparkline(gw_pci),
        "capacity": gw_pci.capacity,
    }
    return steps, pipeline_stats(steps), bus


def bench_fig8_pci_conflict(benchmark):
    (steps_ms, stats_ms, bus_ms), (steps_sm, stats_sm, bus_sm) = once(
        benchmark, lambda: (run("myri->sci"), run("sci->myri")))

    # Nominal (unconflicted) SCI send time for one paquet:
    nominal_send = (SCI.tx_overhead + SCI.latency
                    + (PACKET + 16) / SCI.host_peak)
    slowdown = stats_ms.mean_send_us / nominal_send

    window = [s for s in steps_ms if 3 <= s.seq <= 12]
    text = (
        f"Figure 8: PCI conflicts in the Myrinet -> SCI direction "
        f"({PACKET >> 10} KB paquets)\n\n"
        f"{render_timeline(window)}\n\n"
        f"{'':28s}{'Myrinet->SCI':>14s}{'SCI->Myrinet':>14s}\n"
        f"{'mean recv step (µs)':28s}{stats_ms.mean_recv_us:14.1f}"
        f"{stats_sm.mean_recv_us:14.1f}\n"
        f"{'mean send step (µs)':28s}{stats_ms.mean_send_us:14.1f}"
        f"{stats_sm.mean_send_us:14.1f}\n"
        f"{'send/recv ratio':28s}{stats_ms.send_recv_ratio:14.2f}"
        f"{stats_sm.send_recv_ratio:14.2f}\n\n"
        f"nominal SCI send for one paquet: {nominal_send:7.1f} µs\n"
        f"observed mean SCI send         : {stats_ms.mean_send_us:7.1f} µs\n"
        f"effective send slowdown        : {slowdown:7.2f}x "
        f"(paper: ~2x while the DMA receive is active)\n\n"
        f"gateway PCI occupancy (capacity {bus_ms['capacity']:.0f} MB/s):\n"
        f"  Myrinet->SCI  mean {bus_ms['mean']:5.1f} MB/s "
        f"|{bus_ms['spark']}|\n"
        f"  SCI->Myrinet  mean {bus_sm['mean']:5.1f} MB/s "
        f"|{bus_sm['spark']}|\n"
    )
    emit("fig8_pci_conflict", text)
    benchmark.extra_info["send_slowdown"] = round(slowdown, 2)

    # Shape assertions:
    # 1. in Myrinet->SCI, sends dominate (Figure 8); opposite is balanced
    assert stats_ms.send_recv_ratio > 1.3
    assert stats_sm.send_recv_ratio < 1.25
    # 2. the observed send is substantially slower than nominal, but the
    #    receive is not (DMA keeps nominal speed)
    assert slowdown > 1.2
    nominal_recv = (MYRINET.tx_overhead + MYRINET.latency
                    + (PACKET + 16) / MYRINET.host_peak)
    assert stats_ms.mean_recv_us < nominal_recv * 1.15
