"""Unit tests for static buffer pools."""

import weakref

import pytest

from repro.memory import (Buffer, PoolClosed, PoolExhausted, StaticBufferPool,
                          STATIC)
from repro.sim import SimError


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
