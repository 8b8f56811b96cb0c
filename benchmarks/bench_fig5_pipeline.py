"""Figure 5 — the double-buffer paquet-forwarding pipeline (balanced case).

The paper's Figure 5 sketches the ideal gateway pipeline: while one thread
sends buffer 1, the other receives buffer 2, so steady-state throughput is
one paquet per max(recv, send) + switch overhead.  We reproduce the timeline
from gateway traces on the SCI -> Myrinet direction (the balanced one) and
verify its defining properties.
"""

from repro.analysis import extract_timeline, pipeline_stats, render_timeline
from repro.bench import PingHarness

from common import PAPER, emit, once

PACKET = 64 << 10
MESSAGE = 2 << 20


def run():
    harness = PingHarness(packet_size=PACKET)
    world, session, vch, ack = harness.build()
    world.trace.enable()
    import numpy as np
    data = np.zeros(MESSAGE, dtype=np.uint8)
    done = {}

    def snd():
        m = vch.endpoint(session.rank("b0")).begin_packing(session.rank("a0"))
        yield m.pack(data)
        yield m.end_packing()

    def rcv():
        inc = yield vch.endpoint(session.rank("a0")).begin_unpacking()
        _ev, _b = inc.unpack(MESSAGE)
        yield inc.end_unpacking()
        done["t"] = session.now

    session.spawn(snd()); session.spawn(rcv())
    session.run()
    steps = extract_timeline(world.trace)
    return steps, pipeline_stats(steps), done["t"]


def bench_fig5_pipeline(benchmark):
    steps, stats, elapsed = once(benchmark, run)

    timeline = render_timeline(
        [s for s in steps if 3 <= s.seq <= 12])   # a steady-state window
    text = (
        f"Figure 5: the paquet-forwarding pipeline on the gateway "
        f"(SCI -> Myrinet, {PACKET >> 10} KB paquets)\n\n"
        f"{timeline}\n\n"
        f"fragments forwarded : {stats.fragments}\n"
        f"mean recv step      : {stats.mean_recv_us:8.1f} µs\n"
        f"mean send step      : {stats.mean_send_us:8.1f} µs\n"
        f"mean pipeline period: {stats.mean_period_us:8.1f} µs\n"
        f"send/recv ratio     : {stats.send_recv_ratio:8.2f} (balanced ≈ 1)\n"
        f"send-recv overlap   : {stats.overlap_fraction:8.1%}\n"
        f"switch overhead     : {PAPER['switch_overhead_us']:8.1f} µs (configured)\n"
        f"end-to-end bandwidth: {MESSAGE / elapsed:8.1f} MB/s\n"
    )
    emit("fig5_pipeline", text)
    benchmark.extra_info["overlap"] = round(stats.overlap_fraction, 3)

    # Shape assertions:
    # 1. the two steps genuinely overlap (this IS the pipeline)
    assert stats.overlap_fraction > 0.5
    # 2. balanced: neither step dominates in this direction
    assert 0.8 < stats.send_recv_ratio < 1.25
    # 3. the period is max(recv, send) + switch overhead, approximately
    expected = max(stats.mean_recv_us, stats.mean_send_us) \
        + PAPER["switch_overhead_us"]
    assert abs(stats.mean_period_us - expected) < 0.25 * expected
