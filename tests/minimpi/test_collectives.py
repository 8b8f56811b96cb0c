"""Collectives over the cluster-of-clusters topology."""

import numpy as np

from repro.hw import ClusterSpec, GatewayLink, build_cluster_of_clusters
from repro.madeleine import Session
from repro.minimpi import (Communicator, allreduce, barrier, bcast, gather,
                           reduce, ring_allreduce, scatter)


def six_rank_world():
    """3 Myrinet workers + gateway + 2 SCI workers; the gateway is not part
    of the communicator (dedicated forwarder)."""
    world, members, gws = build_cluster_of_clusters(
        clusters=[ClusterSpec("m", "myrinet", 4), ClusterSpec("s", "sci", 2)],
        gateways=[GatewayLink("m", "s")],
    )
    s = Session(world, packet_size=32 << 10)
    vch = s.virtual_channel([
        s.channel("myrinet", members["m"]),
        s.channel("sci", members["s"] + gws),
    ])
    workers = [s.rank(n) for n in members["m"][:3] + members["s"]]
    comms = {r: Communicator(vch, r) for r in vch.members}
    return world, s, comms, workers


def run_spmd(session, comms, workers, body, results):
    """Run `body(comm, index)` on every worker rank."""
    # restrict every communicator's world to the workers
    class SubComm(Communicator):
        @property
        def ranks(self):
            return workers

        @property
        def size(self):
            return len(workers)

    subs = {r: SubComm(comms[r].vchannel, r) for r in workers}

    def make(i):
        def proc():
            yield from body(subs[workers[i]], i, results)
        return proc

    for i in range(len(workers)):
        session.spawn(make(i)(), name=f"spmd-{i}")
    session.run()


def test_bcast_reaches_all():
    world, s, comms, workers = six_rank_world()
    results = {}
    payload = np.arange(5000, dtype=np.uint8)

    def body(comm, i, out):
        data = payload if i == 0 else None
        got = yield from bcast(comm, data, root_index=0)
        out[i] = got.tobytes()

    run_spmd(s, comms, workers, body, results)
    assert all(results[i] == payload.tobytes() for i in range(len(workers)))


def test_reduce_sums_at_root():
    world, s, comms, workers = six_rank_world()
    results = {}

    def body(comm, i, out):
        arr = np.full(100, i + 1, dtype=np.int64)
        got = yield from reduce(comm, arr, op=np.add, root_index=0)
        out[i] = got

    run_spmd(s, comms, workers, body, results)
    expected = sum(range(1, len(workers) + 1))
    assert np.array_equal(results[0], np.full(100, expected, dtype=np.int64))
    assert all(results[i] is None for i in range(1, len(workers)))


def test_allreduce_everyone_agrees():
    world, s, comms, workers = six_rank_world()
    results = {}

    def body(comm, i, out):
        arr = np.full(64, i, dtype=np.float64)
        got = yield from allreduce(comm, arr, op=np.add)
        out[i] = got

    run_spmd(s, comms, workers, body, results)
    expected = float(sum(range(len(workers))))
    for i in range(len(workers)):
        assert np.allclose(results[i], expected)


def test_ring_allreduce_matches_tree():
    world, s, comms, workers = six_rank_world()
    results = {}

    def body(comm, i, out):
        arr = (np.arange(120, dtype=np.float64) * (i + 1))
        got = yield from ring_allreduce(comm, arr, op=np.add)
        out[i] = got

    run_spmd(s, comms, workers, body, results)
    n = len(workers)
    expected = np.arange(120, dtype=np.float64) * sum(range(1, n + 1))
    for i in range(n):
        assert np.allclose(results[i], expected), i


def test_gather_collects_in_order():
    world, s, comms, workers = six_rank_world()
    results = {}

    def body(comm, i, out):
        arr = np.full(10, i, dtype=np.uint8)
        got = yield from gather(comm, arr, root_index=0)
        out[i] = got

    run_spmd(s, comms, workers, body, results)
    assert [int(a[0]) for a in results[0]] == list(range(len(workers)))


def test_scatter_distributes():
    world, s, comms, workers = six_rank_world()
    results = {}
    n = len(workers)

    def body(comm, i, out):
        arrays = ([np.full(8, k, dtype=np.uint8) for k in range(n)]
                  if i == 0 else None)
        got = yield from scatter(comm, arrays, root_index=0)
        out[i] = int(got[0])

    run_spmd(s, comms, workers, body, results)
    assert results == {i: i for i in range(n)}


def test_scatter_wrong_count_rejected():
    world, s, comms, workers = six_rank_world()
    errors = []

    def body(comm, i, out):
        if i == 0:
            try:
                yield from scatter(comm, [np.zeros(1, np.uint8)],
                                   root_index=0)
            except ValueError:
                errors.append("caught")
        else:
            yield comm.sim.timeout(0)

    run_spmd(s, comms, workers, body, {})
    assert errors == ["caught"]


def test_barrier_synchronizes():
    world, s, comms, workers = six_rank_world()
    times = {}

    def body(comm, i, out):
        # stagger arrivals
        yield comm.sim.timeout(100.0 * i)
        yield from barrier(comm)
        out[i] = comm.sim.now

    run_spmd(s, comms, workers, body, times)
    # nobody leaves the barrier before the last arrival
    assert min(times.values()) >= 100.0 * (len(workers) - 1)
