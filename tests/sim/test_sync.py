"""Unit tests for the synchronization primitives."""

import pytest

from repro.sim import Barrier, Mutex, Queue, Semaphore


# -- Semaphore ----------------------------------------------------------------

def test_semaphore_immediate_acquire(sim):
    sem = Semaphore(sim, 2)
    done = []

    def proc():
        yield sem.acquire()
        done.append(sim.now)

    sim.process(proc())
    sim.run()
    assert done == [0.0]
    assert sem.value == 1


def test_semaphore_blocks_then_wakes_fifo(sim):
    sem = Semaphore(sim, 1)
    order = []

    def holder():
        yield sem.acquire()
        yield sim.timeout(10)
        sem.release()

    def waiter(tag, delay):
        yield sim.timeout(delay)
        yield sem.acquire()
        order.append((tag, sim.now))
        sem.release()

    sim.process(holder())
    sim.process(waiter("a", 1))
    sim.process(waiter("b", 2))
    sim.run()
    assert order == [("a", 10.0), ("b", 10.0)]


def test_semaphore_try_acquire(sim):
    sem = Semaphore(sim, 1)
    assert sem.try_acquire()
    assert not sem.try_acquire()
    sem.release()
    assert sem.try_acquire()


def test_semaphore_negative_value_rejected(sim):
    with pytest.raises(ValueError):
        Semaphore(sim, -1)


def test_semaphore_release_increments_when_no_waiters(sim):
    sem = Semaphore(sim, 0)
    sem.release()
    assert sem.value == 1


# -- Mutex ------------------------------------------------------------------

def test_mutex_exclusion(sim):
    m = Mutex(sim)
    trace = []

    def proc(tag):
        yield m.acquire()
        trace.append((tag, "in", sim.now))
        yield sim.timeout(5)
        trace.append((tag, "out", sim.now))
        m.release()

    sim.process(proc("a"))
    sim.process(proc("b"))
    sim.run()
    assert trace == [("a", "in", 0.0), ("a", "out", 5.0),
                     ("b", "in", 5.0), ("b", "out", 10.0)]


def test_mutex_release_when_unheld_raises(sim):
    m = Mutex(sim)
    with pytest.raises(RuntimeError):
        m.release()


def test_mutex_locked_property(sim):
    m = Mutex(sim)
    assert not m.locked
    assert m.try_acquire()
    assert m.locked


# -- Queue --------------------------------------------------------------------

def test_queue_fifo_order(sim):
    q = Queue(sim)
    got = []

    def producer():
        for i in range(5):
            yield q.put(i)

    def consumer():
        for _ in range(5):
            v = yield q.get()
            got.append(v)

    sim.process(producer())
    sim.process(consumer())
    sim.run()
    assert got == [0, 1, 2, 3, 4]


def test_queue_get_blocks_until_put(sim):
    q = Queue(sim)
    got = []

    def consumer():
        v = yield q.get()
        got.append((v, sim.now))

    def producer():
        yield sim.timeout(4)
        yield q.put("x")

    sim.process(consumer())
    sim.process(producer())
    sim.run()
    assert got == [("x", 4.0)]


def test_queue_capacity_backpressure(sim):
    q = Queue(sim, capacity=1)
    puts = []

    def producer():
        for i in range(3):
            yield q.put(i)
            puts.append((i, sim.now))

    def consumer():
        for _ in range(3):
            yield sim.timeout(10)
            yield q.get()

    sim.process(producer())
    sim.process(consumer())
    sim.run()
    # item0 enters at t=0; item1 must wait for the first get at t=10, etc.
    assert puts == [(0, 0.0), (1, 10.0), (2, 20.0)]


def test_queue_try_get(sim):
    q = Queue(sim)
    ok, item = q.try_get()
    assert not ok and item is None
    q.put("v")
    ok, item = q.try_get()
    assert ok and item == "v"


def test_queue_invalid_capacity(sim):
    with pytest.raises(ValueError):
        Queue(sim, capacity=0)


def test_queue_len(sim):
    q = Queue(sim)
    q.put(1)
    q.put(2)
    assert len(q) == 2


# -- Barrier --------------------------------------------------------------------

def test_barrier_releases_all_at_once(sim):
    b = Barrier(sim, 3)
    arrivals = []

    def proc(tag, delay):
        yield sim.timeout(delay)
        gen = yield b.wait()
        arrivals.append((tag, sim.now, gen))

    sim.process(proc("a", 1))
    sim.process(proc("b", 5))
    sim.process(proc("c", 3))
    sim.run()
    assert sorted(arrivals) == [("a", 5.0, 0), ("b", 5.0, 0), ("c", 5.0, 0)]


def test_barrier_reusable_generations(sim):
    b = Barrier(sim, 2)
    gens = []

    def proc():
        for _ in range(3):
            g = yield b.wait()
            gens.append(g)

    sim.process(proc())
    sim.process(proc())
    sim.run()
    assert sorted(gens) == [0, 0, 1, 1, 2, 2]


def test_barrier_invalid_parties(sim):
    with pytest.raises(ValueError):
        Barrier(sim, 0)
