"""Verbatim snapshot of the static buffer pool before it became one mapping.

Each pool here is ``count`` eagerly zeroed numpy blocks on ``deque`` free
and waiter lists, as it stood before the pool became one private anonymous
``mmap`` whose blocks are views.  The equivalence property in
``test_pool_equivalence.py`` drives this pool and
:class:`repro.memory.pool.StaticBufferPool` through the same operations and
asserts the same grants, outcomes, counts and bytes.  Do not "fix" or
optimize this file — its whole value is that it stays frozen.  Only the
relative imports were made absolute (and sorted).  It keeps the one
behaviour the pool changed on purpose: ``reset()`` numbers its
replacement blocks from ``r0`` every time.

Original module docstring follows.

Static buffer pools.

Static-buffer protocols (the SISCI mapped segments, SBP's kernel buffers)
hand out *protocol-owned* memory.  A :class:`StaticBufferPool` models a
finite set of fixed-size blocks; acquisition blocks (in simulated time) when
the pool is exhausted, which is exactly the backpressure a real NIC's
descriptor ring applies.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Deque, Optional

import numpy as np

from repro.memory.buffer import Buffer, STATIC
from repro.sim import Event, SimError, Simulator

if TYPE_CHECKING:  # pragma: no cover
    from repro.telemetry import MetricsRegistry

__all__ = ["StaticBufferPool", "PoolExhausted", "PoolClosed"]


class PoolExhausted(RuntimeError):
    """try_acquire() on an empty pool."""


class PoolClosed(SimError):
    """An acquire on a pool whose blocks :meth:`StaticBufferPool.close`
    released (its world was closed)."""


class StaticBufferPool:
    """Fixed number of fixed-size STATIC buffers with FIFO blocking acquire.

    A pool and its blocks refer to each other (each block's ``owner``), so
    a dropped pool's memory waits for the cycle collector; :meth:`close`
    lets the blocks go at once.
    """

    def __init__(self, sim: Simulator, count: int, block_size: int,
                 name: str = "pool",
                 metrics: Optional["MetricsRegistry"] = None) -> None:
        if count < 1:
            raise ValueError("pool needs at least one block")
        if block_size < 1:
            raise ValueError("block size must be >= 1")
        self.sim = sim
        self.name = name
        self.block_size = block_size
        self.count = count
        if metrics is None:
            from repro.telemetry import NULL_REGISTRY
            metrics = NULL_REGISTRY
        #: blocks checked out right now; its high-water mark is the
        #: staging-memory footprint question pool sizing asks.
        self._g_in_use = metrics.gauge("pool.in_use", pool=name)
        #: acquires that had to block on an exhausted pool (backpressure).
        self._m_waits = metrics.counter("pool.acquire_waits",
                                        pool=name)
        self._free: Deque[Buffer] = deque(
            Buffer(np.zeros(block_size, dtype=np.uint8), kind=STATIC,
                   owner=self, label=f"{name}[{i}]")
            for i in range(count)
        )
        self._waiters: Deque[Event] = deque()
        self._outstanding: set[Buffer] = set()
        self._retired: set[Buffer] = set()
        self._closed = False

    @property
    def available(self) -> int:
        return len(self._free)

    @property
    def outstanding(self) -> int:
        """Blocks checked out right now (leak probe: 0 after a clean drain)."""
        return len(self._outstanding)

    @property
    def waiting(self) -> int:
        """Acquires currently blocked on an exhausted pool."""
        return len(self._waiters)

    def acquire(self) -> Event:
        """Event that triggers with a free STATIC buffer."""
        if self._closed:
            raise PoolClosed(f"pool {self.name!r} is closed")
        ev = self.sim.event(name=f"{self.name}.acquire")
        if self._free and not self._waiters:
            buf = self._free.popleft()
            buf._released = False
            self._outstanding.add(buf)
            self._g_in_use.set(len(self._outstanding))
            ev.succeed(buf)
        else:
            self._m_waits.inc()
            self._waiters.append(ev)
        return ev

    def try_acquire(self) -> Buffer:
        """Immediate acquire; raises :class:`PoolExhausted` if empty."""
        if self._closed:
            raise PoolClosed(f"pool {self.name!r} is closed")
        if not self._free or self._waiters:
            raise PoolExhausted(f"pool {self.name!r} has no free block")
        buf = self._free.popleft()
        buf._released = False
        self._outstanding.add(buf)
        self._g_in_use.set(len(self._outstanding))
        return buf

    def release(self, buf: Buffer) -> None:
        if buf.owner is not self:
            raise ValueError(f"buffer {buf!r} does not belong to pool {self.name!r}")
        if self._closed:
            return      # the block goes with whoever still holds it
        if buf in self._retired:
            # The pool was reset (node restart) while this block was still
            # checked out by a dying pipeline: swallow the stale release.
            self._retired.discard(buf)
            return
        if buf._released:
            raise ValueError(f"double release of {buf!r}")
        buf._released = True
        self._outstanding.discard(buf)
        if self._waiters:
            buf._released = False
            self._outstanding.add(buf)
            self._waiters.popleft().succeed(buf)
        else:
            self._free.append(buf)
        self._g_in_use.set(len(self._outstanding))

    def cancel_acquire(self, ev: Event) -> bool:
        """Withdraw a still-pending acquire.

        Returns ``True`` if the event was waiting (it will never trigger);
        ``False`` if it is no longer queued — typically granted (or failed)
        in the same instant, in which case the caller owns whatever the
        event delivers.
        """
        try:
            self._waiters.remove(ev)
        except ValueError:
            return False
        return True

    def abandon_acquire(self, ev: Event) -> None:
        """Walk away from an acquire without stranding a block: withdrawn
        if still queued, else handed straight back when it is granted."""
        if not self.cancel_acquire(ev):
            ev.add_callback(lambda e: self.release(e.value) if e.ok else None)

    def close(self) -> None:
        """Let every block go (idempotent).  A later acquire raises
        :class:`PoolClosed`, a blocked one fails with it, and a release is
        a no-op."""
        if self._closed:
            return
        self._closed = True
        self._free.clear()
        self._outstanding.clear()
        self._retired.clear()
        self.fail_waiters(PoolClosed(f"pool {self.name!r} was closed"))

    # -- fault recovery ---------------------------------------------------------
    def fail_waiters(self, exc: BaseException) -> int:
        """Fail every blocked acquire with ``exc`` (node crash)."""
        n = 0
        while self._waiters:
            ev = self._waiters.popleft()
            if not ev.triggered:
                ev.fail(exc)
                n += 1
        return n

    def reset(self) -> int:
        """Restore full capacity after a node restart.

        Blocks still checked out by abandoned pipelines are *retired*: their
        eventual release becomes a no-op instead of an error, and fresh
        replacement blocks take their place.  Acquires still blocked at
        reset time (queued between the crash's ``fail_waiters`` and the
        restart) are granted from the replenished pool in FIFO order rather
        than silently dropped — a stranded waiter would otherwise never
        trigger.  Returns the number of blocks replaced.
        """
        retired = len(self._outstanding)
        self._retired |= self._outstanding
        self._outstanding.clear()
        for i in range(retired):
            self._free.append(
                Buffer(np.zeros(self.block_size, dtype=np.uint8),
                       kind=STATIC, owner=self,
                       label=f"{self.name}[r{i}]"))
        while self._waiters and self._free:
            ev = self._waiters.popleft()
            if ev.triggered:
                continue
            buf = self._free.popleft()
            buf._released = False
            self._outstanding.add(buf)
            ev.succeed(buf)
        self._g_in_use.set(len(self._outstanding))
        return retired
