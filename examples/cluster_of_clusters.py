"""The paper's testbed: an SCI node sends to a Myrinet node through a
gateway holding both cards — transparently, via a virtual channel.

Prints the end-to-end bandwidth for both directions and the gateway's
pipeline timeline (the Figures 5/8 picture).

Run:  python examples/cluster_of_clusters.py
"""

import numpy as np

from repro.analysis import extract_timeline, pipeline_stats, render_timeline
from repro.hw import build_world
from repro.madeleine import Session

MESSAGE = 2 << 20          # 2 MB
PACKET = 64 << 10          # 64 KB paquets on the gateway pipeline


def run_direction(src: str, dst: str) -> None:
    world = build_world({
        "myri0": ["myrinet"],
        "gateway": ["myrinet", "sci"],
        "sci0": ["sci"],
    })
    # telemetry=True: the metrics registry records this run; the raw trace
    # (read for the pipeline timeline) is switched on separately.
    with Session(world, packet_size=PACKET, telemetry=True) as session:
        session.trace.enable()
        vch = session.virtual_channel([
            session.channel("myrinet", ["myri0", "gateway"]),
            session.channel("sci", ["gateway", "sci0"]),
        ])

        data = (np.arange(MESSAGE) % 251).astype(np.uint8)
        done = {}

        def sender():
            msg = vch.endpoint(session.rank(src)).begin_packing(
                session.rank(dst))
            yield msg.pack(data)
            yield msg.end_packing()

        def receiver():
            incoming = yield vch.endpoint(session.rank(dst)).begin_unpacking()
            _ev, buf = incoming.unpack(MESSAGE)
            yield incoming.end_unpacking()
            done["t"] = session.now
            done["ok"] = bool((buf.data == data).all())

        session.spawn(sender())
        session.spawn(receiver())
        session.run()

    stats = pipeline_stats(extract_timeline(world.trace))
    gw_copies = world.accounting.by_label().get("gateway.static_copy", (0, 0))
    metrics = session.metrics
    print(f"\n--- {src} -> {dst} "
          f"({MESSAGE >> 20} MB, {PACKET >> 10} KB paquets) ---")
    print(f"payload intact        : {done['ok']}")
    print(f"one-way bandwidth     : {MESSAGE / done['t']:6.1f} MB/s")
    print(f"gateway recv step     : {stats.mean_recv_us:6.1f} µs")
    print(f"gateway send step     : {stats.mean_send_us:6.1f} µs "
          f"(send/recv ratio {stats.send_recv_ratio:.2f})")
    print(f"gateway copies        : {gw_copies[0]} ({gw_copies[1]} bytes) "
          f"— zero-copy forwarding")
    print(f"gateway items         : "
          f"{metrics.total('gateway.items_forwarded')} paquets forwarded, "
          f"pipeline occupancy hwm "
          f"{metrics.series('gateway.occupancy')[0].hwm}")
    print(f"wire fragments        : {metrics.total('wire.fragments')} "
          f"({metrics.total('wire.bytes')} bytes on the wire)")
    window = [s for s in extract_timeline(world.trace) if 2 <= s.seq <= 11]
    print(render_timeline(window))


def main() -> None:
    print("Madeleine inter-device forwarding on the IPPS'01 testbed")
    run_direction("sci0", "myri0")    # Figure 6 direction: fast
    run_direction("myri0", "sci0")    # Figure 7 direction: PCI-conflicted


if __name__ == "__main__":
    main()
