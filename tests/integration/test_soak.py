"""Soak test: sustained random traffic over a random cluster-of-clusters.

Many messages, random sizes and pairs, all at once — every payload must
arrive intact, in per-connection FIFO order, with zero gateway copies on
dynamic/static-borrow paths and bounded simulated time.
"""

import random

import numpy as np
import pytest

from repro.hw import build_world
from repro.madeleine import Session


def build_random_world(seed: int):
    rng = random.Random(seed)
    protos = ["myrinet", "sci", "sbp"]
    n_clusters = rng.randint(2, 3)
    adapters: dict[str, list[str]] = {}
    clusters: list[tuple[str, list[str]]] = []
    for c in range(n_clusters):
        proto = protos[c % len(protos)]
        size = rng.randint(2, 3)
        names = [f"c{c}n{i}" for i in range(size)]
        for n in names:
            adapters[n] = [proto]
        clusters.append((proto, names))
    # chain gateways: last node of cluster c also joins cluster c+1
    for c in range(n_clusters - 1):
        gw = clusters[c][1][-1]
        adapters[gw].append(clusters[c + 1][0])
    w = build_world(adapters)
    s = Session(w, packet_size=16 << 10)
    chans = []
    for c, (proto, names) in enumerate(clusters):
        members = list(names)
        if c > 0:
            members.append(clusters[c - 1][1][-1])   # previous gateway
        chans.append(s.channel(proto, members))
    vch = s.virtual_channel(chans)
    return w, s, vch


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_random_traffic_soak(seed):
    w, s, vch = build_random_world(seed)
    rng = random.Random(1000 + seed)
    members = vch.members
    n_messages = 25

    # plan: list of (src, dst, size, payload-seed); receivers know their
    # schedule (Madeleine receivers always know what they expect)
    plan: dict[int, list[tuple[int, int, int]]] = {m: [] for m in members}
    sends: dict[int, list[tuple[int, int, int]]] = {m: [] for m in members}
    for i in range(n_messages):
        src, dst = rng.sample(members, 2)
        size = rng.randint(1, 60_000)
        sends[src].append((dst, size, i))
        plan[dst].append((src, size, i))

    results: list[tuple[int, bool]] = []

    def payload_for(size, i):
        return (np.arange(size, dtype=np.uint64) * (i + 17) % 251).astype(np.uint8)

    def sender(rank):
        def proc():
            for dst, size, i in sends[rank]:
                m = vch.endpoint(rank).begin_packing(dst)
                yield m.pack(payload_for(size, i))
                yield m.end_packing()
        return proc

    def receiver(rank):
        def proc():
            expected = {(src, i): size for src, size, i in plan[rank]}
            # arrival order across sources is nondeterministic; match by
            # origin and per-source FIFO
            per_src: dict[int, list[tuple[int, int]]] = {}
            for src, size, i in plan[rank]:
                per_src.setdefault(src, []).append((size, i))
            for _ in range(len(plan[rank])):
                inc = yield vch.endpoint(rank).begin_unpacking()
                size, i = per_src[inc.origin].pop(0)
                _ev, b = inc.unpack(size)
                yield inc.end_unpacking()
                results.append((i, b.tobytes() == payload_for(size, i).tobytes()))
        return proc

    for rank in members:
        if sends[rank]:
            s.spawn(sender(rank)(), name=f"snd{rank}")
        if plan[rank]:
            s.spawn(receiver(rank)(), name=f"rcv{rank}")
    s.run()
    assert len(results) == n_messages
    assert all(ok for _i, ok in results)
    assert s.now < 60_000_000   # sanity: everything completed in sim time


def test_soak_per_connection_fifo():
    """Messages between one pair must arrive in send order even when other
    traffic interleaves at the gateway."""
    w = build_world({"m0": ["myrinet"], "m1": ["myrinet"],
                     "gw": ["myrinet", "sci"], "s0": ["sci"]})
    s = Session(w, packet_size=8 << 10)
    vch = s.virtual_channel([
        s.channel("myrinet", ["m0", "m1", "gw"]),
        s.channel("sci", ["gw", "s0"]),
    ])
    seq_seen = []

    def main_sender():
        for i in range(6):
            m = vch.endpoint(0).begin_packing(3)
            yield m.pack(np.full(5000, i, dtype=np.uint8))
            yield m.end_packing()

    def noise_sender():
        for i in range(6):
            m = vch.endpoint(1).begin_packing(3)
            yield m.pack(np.full(3000, 100 + i, dtype=np.uint8))
            yield m.end_packing()

    def receiver():
        noise_next = 100
        for _ in range(12):
            inc = yield vch.endpoint(3).begin_unpacking()
            size = 5000 if inc.origin == 0 else 3000
            _ev, b = inc.unpack(size)
            yield inc.end_unpacking()
            if inc.origin == 0:
                seq_seen.append(int(b.data[0]))
            else:
                assert int(b.data[0]) == noise_next
                noise_next += 1

    s.spawn(main_sender()); s.spawn(noise_sender()); s.spawn(receiver())
    s.run()
    assert seq_seen == list(range(6))
