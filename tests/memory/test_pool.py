"""Unit tests for static buffer pools."""

import os
import subprocess
import sys
import weakref
from pathlib import Path

import pytest

import repro
from repro.bench import PingHarness
from repro.madeleine import Session
from repro.memory import (Buffer, PoolClosed, PoolExhausted, StaticBufferPool,
                          STATIC)
from repro.scenario import load_scenario
from repro.sim import Queue, SimError

SCENARIOS = Path(__file__).resolve().parents[2] / "benchmarks" / "perf" \
    / "scenarios"


def test_pool_basic_acquire_release(sim):
    pool = StaticBufferPool(sim, count=2, block_size=64, name="p")
    got = []

    def proc():
        b = yield pool.acquire()
        got.append(b)
        pool.release(b)

    sim.process(proc())
    sim.run()
    assert len(got) == 1
    assert got[0].kind == STATIC
    assert len(got[0]) == 64
    assert pool.available == 2


def test_pool_blocks_when_exhausted(sim):
    pool = StaticBufferPool(sim, count=1, block_size=8)
    times = []

    def holder():
        b = yield pool.acquire()
        yield sim.timeout(10)
        pool.release(b)

    def waiter():
        b = yield pool.acquire()
        times.append(sim.now)
        pool.release(b)

    sim.process(holder())
    sim.process(waiter())
    sim.run()
    assert times == [10.0]


def test_pool_try_acquire(sim):
    pool = StaticBufferPool(sim, count=1, block_size=8)
    b = pool.try_acquire()
    with pytest.raises(PoolExhausted):
        pool.try_acquire()
    pool.release(b)
    assert pool.available == 1


def test_pool_foreign_release_rejected(sim):
    pool = StaticBufferPool(sim, count=1, block_size=8)
    other = Buffer.alloc(8)
    with pytest.raises(ValueError):
        pool.release(other)


def test_pool_double_release_rejected(sim):
    pool = StaticBufferPool(sim, count=1, block_size=8)
    b = pool.try_acquire()
    pool.release(b)
    with pytest.raises(ValueError):
        pool.release(b)


def test_pool_release_hands_to_waiter_directly(sim):
    pool = StaticBufferPool(sim, count=1, block_size=8)
    order = []

    def holder():
        b = yield pool.acquire()
        yield sim.timeout(5)
        pool.release(b)
        order.append(("released", sim.now))

    def waiter():
        yield sim.timeout(1)
        b = yield pool.acquire()
        order.append(("acquired", sim.now))
        pool.release(b)

    sim.process(holder())
    sim.process(waiter())
    sim.run()
    assert order == [("released", 5.0), ("acquired", 5.0)]


def test_pool_validation(sim):
    with pytest.raises(ValueError):
        StaticBufferPool(sim, count=0, block_size=8)
    with pytest.raises(ValueError):
        StaticBufferPool(sim, count=1, block_size=0)


def test_pool_fifo_fairness(sim):
    pool = StaticBufferPool(sim, count=1, block_size=8)
    order = []

    def holder():
        b = yield pool.acquire()
        yield sim.timeout(2)
        pool.release(b)

    def waiter(tag, delay):
        yield sim.timeout(delay)
        b = yield pool.acquire()
        order.append(tag)
        pool.release(b)

    sim.process(holder())
    sim.process(waiter("first", 0.5))
    sim.process(waiter("second", 1.0))
    sim.run()
    assert order == ["first", "second"]


# -- waiter bookkeeping under cancellation and crash recovery -----------------

def test_cancel_acquire_withdraws_pending_waiter(sim):
    pool = StaticBufferPool(sim, count=1, block_size=8)
    held = pool.try_acquire()
    acq = pool.acquire()
    assert pool.cancel_acquire(acq)
    pool.release(held)
    sim.run()
    assert not acq.triggered          # a cancelled acquire never fires
    assert pool.available == 1        # the block went back to the free list
    assert not pool._waiters


def test_cancel_acquire_after_grant_returns_false(sim):
    pool = StaticBufferPool(sim, count=1, block_size=8)
    acq = pool.acquire()              # immediate grant, never queued
    assert not pool.cancel_acquire(acq)
    pool.release(acq.value)


def test_cancel_acquire_races_fail_waiters(sim):
    """A crash (fail_waiters) drains the queue first: the late cancel must
    report 'no longer queued' instead of corrupting the waiter deque."""
    pool = StaticBufferPool(sim, count=1, block_size=8)
    held = pool.try_acquire()
    acq = pool.acquire()
    assert pool.fail_waiters(RuntimeError("crash")) == 1
    assert not pool.cancel_acquire(acq)   # already failed, not queued
    assert not pool._waiters
    pool.release(held)
    assert pool.available == 1


def test_cancel_acquire_races_reset(sim):
    """reset() grants queued waiters; cancelling one of those afterwards
    must come back False — the caller owns the delivered block."""
    pool = StaticBufferPool(sim, count=1, block_size=8)
    held = pool.try_acquire()
    acq = pool.acquire()
    pool.reset()
    assert acq.triggered              # granted from the replenished pool
    assert not pool.cancel_acquire(acq)
    pool.release(acq.value)
    pool.release(held)                # stale: block was retired, no error
    assert pool.available == 1


def test_reset_grants_pending_waiters_fifo(sim):
    pool = StaticBufferPool(sim, count=2, block_size=8)
    held = [pool.try_acquire(), pool.try_acquire()]
    first, second, third = pool.acquire(), pool.acquire(), pool.acquire()
    replaced = pool.reset()
    assert replaced == 2
    assert first.triggered and second.triggered   # FIFO grant
    assert not third.triggered                    # pool exhausted again
    assert list(pool._waiters) == [third]
    pool.release(first.value)
    assert third.triggered                        # normal hand-over resumes
    for b in (second.value, third.value):
        pool.release(b)
    for b in held:
        pool.release(b)                           # retired: swallowed
    assert pool.available == pool.count == 2


def test_reset_skips_failed_waiters(sim):
    """Waiters failed by a crash sit triggered in the deque only until the
    drain; a reset racing in must not hand them a block."""
    pool = StaticBufferPool(sim, count=1, block_size=8)
    held = pool.try_acquire()
    doomed = pool.acquire()
    live = pool.acquire()
    doomed.fail(RuntimeError("crash"))   # failed in place, still queued
    doomed.defuse()
    pool.reset()
    assert live.triggered                # the live waiter got the block
    assert not pool._waiters
    pool.release(live.value)
    pool.release(held)
    assert pool.available == 1


def test_close_lets_the_blocks_go_and_refuses_acquires(sim):
    pool = StaticBufferPool(sim, count=2, block_size=8)
    held = pool.try_acquire()
    waiter_pool = StaticBufferPool(sim, count=1, block_size=8)
    waiter_pool.try_acquire()
    blocked = waiter_pool.acquire()
    free_block = weakref.ref(pool._free[0].data)
    pool.close()
    waiter_pool.close()
    assert free_block() is None          # freed by reference counting
    assert pool._closed and pool.available == 0 and pool.outstanding == 0
    assert issubclass(PoolClosed, SimError)
    with pytest.raises(PoolClosed):
        pool.acquire()
    with pytest.raises(PoolClosed):
        pool.try_acquire()
    pool.release(held)                   # a late release is a no-op
    assert isinstance(blocked.value, PoolClosed)
    blocked.defuse()
    pool.close()                         # idempotent


def test_reset_numbers_replacements_from_a_per_pool_count(sim):
    """Two resets with blocks out must not give two live blocks one label:
    labels are what a leak report shows."""
    pool = StaticBufferPool(sim, count=2, block_size=8, name="p")
    held = [pool.try_acquire(), pool.try_acquire()]
    pool.reset()
    held += [pool.try_acquire(), pool.try_acquire()]
    pool.reset()
    labels = [b.label for b in held + pool._free]
    assert labels == ["p[0]", "p[1]", "p[r0]", "p[r1]", "p[r2]", "p[r3]"]


# -- resident memory: a pool is one private mapping ----------------------------

needs_proc = pytest.mark.skipif(not Path("/proc/self/status").exists(),
                                reason="reads /proc/self (Linux)")


def _status_mb(field: str = "VmRSS") -> float:
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith(f"{field}:"):
            return int(line.split()[1]) / 1024
    raise AssertionError(f"no {field} line")


def test_blocks_share_one_segment(sim):
    pool = StaticBufferPool(sim, count=4, block_size=8)
    blocks = [pool.try_acquire() for _ in range(4)]
    segment = blocks[0].data.base
    assert all(b.data.base is segment for b in blocks)
    assert len(segment) == 4 * 8
    assert not any(b.shares_memory_with(c) for b in blocks for c in blocks
                   if b is not c)
    assert all(b.data.sum() == 0 for b in blocks)


@needs_proc
def test_a_pool_pays_resident_memory_only_for_written_blocks(sim):
    before = _status_mb()
    pool = StaticBufferPool(sim, count=64, block_size=1 << 20)
    block = pool.try_acquire()
    unwritten = _status_mb()
    assert unwritten - before < 4        # 64 MB mapped, none of it touched
    block.data[:] = 1
    # one 1 MB block; a transparent huge page may round it up to 2 MB
    assert 0.9 < _status_mb() - unwritten < 3.1


#: run in a fresh interpreter: forking the test process would fork pytest
#: and whatever threads the BLAS library started.
_FORKED_WRITE = """
import os
from repro.memory import StaticBufferPool
from repro.sim import Simulator
pool = StaticBufferPool(Simulator(), count=2, block_size=4096)
block = pool.try_acquire()
block.data[:] = 5
pid = os.fork()
if pid == 0:
    seen = int(block.data[0])
    block.data[:] = 7
    os._exit(0 if seen == 5 and block.data[-1] == 7 else 1)
_, status = os.waitpid(pid, 0)
assert os.WIFEXITED(status) and os.WEXITSTATUS(status) == 0, status
assert (block.data == 5).all(), "the child's write reached the parent"
"""


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_forked_childs_write_does_not_reach_the_parent():
    """The segment is MAP_PRIVATE: a forked worker writes its own copy."""
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
    done = subprocess.run([sys.executable, "-c", _FORKED_WRITE], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr


@needs_proc
def test_no_mapping_outlives_its_world():
    """Each build closes the world before it (``World.close``), which
    must unmap every pool's segment.  The kernel merges adjacent anonymous
    mappings, so a leak shows in the mapped size, not only in the count."""
    def mappings() -> int:
        return len(Path("/proc/self/maps").read_text().splitlines())

    harness = PingHarness()
    world = harness.build()[0]
    world_mb = sum(p.count * p.block_size for p in world.fabric.pools) / 2**20
    del world
    first, mapped = mappings(), _status_mb("VmSize")
    for _ in range(99):
        harness.build()
    assert mappings() <= first
    assert _status_mb("VmSize") - mapped < 10 * world_mb


@needs_proc
def test_building_fat_tree_dense_maps_its_pools_without_touching_them():
    """128 pools of 8 x 128 KB blocks: 128 MB mapped, almost none of it
    resident before a fragment lands."""
    scenario = load_scenario(SCENARIOS / "fat_tree_dense.json").with_(seed=1)
    before = _status_mb()
    world = Session.from_scenario(scenario).world
    pools = world.fabric.pools
    assert sum(p.count * p.block_size for p in pools) == 128 << 20
    assert _status_mb() - before < 20
    world.close()


@needs_proc
def test_idle_queues_cost_little_resident_memory(sim):
    Queue(sim)
    before = _status_mb()
    queues = [Queue(sim) for _ in range(10_000)]
    assert _status_mb() - before < 3
    assert len(queues) == 10_000
