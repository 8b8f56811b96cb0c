"""Static buffer pools.

Static-buffer protocols (the SISCI mapped segments, SBP's kernel buffers)
hand out *protocol-owned* memory.  A :class:`StaticBufferPool` models a
finite set of fixed-size blocks; acquisition blocks (in simulated time) when
the pool is exhausted, which is exactly the backpressure a real NIC's
descriptor ring applies.

Like a SISCI segment, a pool is one mapping: a private anonymous ``mmap``
whose blocks are numpy views.  Its pages read as zero and fault in only as
fragments write them, so a world pays resident memory for the bytes that
actually land, not for every block of every pool it builds.  The mapping
is ``MAP_PRIVATE`` so a forked worker gets copy-on-write pages, never its
parent's.
"""

from __future__ import annotations

import mmap

import numpy as np

from ..sim import Event, SimError, Simulator
from ..telemetry import NULL_REGISTRY, Declaration, MetricsRegistry
from .buffer import Buffer, STATIC

__all__ = ["StaticBufferPool", "PoolExhausted", "PoolClosed"]


class PoolExhausted(RuntimeError):
    """try_acquire() on an empty pool."""


class PoolClosed(SimError):
    """An acquire on a pool whose blocks :meth:`StaticBufferPool.close`
    released (its world was closed)."""


def _segment(count: int, block_size: int) -> np.ndarray:
    """``count * block_size`` zero bytes in a fresh private anonymous
    mapping; it is unmapped when the last view of it dies."""
    return np.frombuffer(
        mmap.mmap(-1, count * block_size,
                  flags=mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS),
        dtype=np.uint8)


#: the series every pool declares: acquires that had to block on an
#: exhausted pool (backpressure), and blocks checked out right now, whose
#: high-water mark is the staging-memory footprint question pool sizing
#: asks.
POOL = Declaration(("pool",), counters=("pool.acquire_waits",),
                   gauges=("pool.in_use",))


class StaticBufferPool:
    """Fixed number of fixed-size STATIC buffers with FIFO blocking acquire.

    The blocks are consecutive views of one segment (:func:`_segment`), so
    a block's ``data.base`` is the whole segment and the pool costs no
    resident memory until a block is written.  A pool and its blocks refer
    to each other (each block's ``owner``), so a dropped pool's memory
    waits for the cycle collector; :meth:`close` lets the blocks, and with
    the last of them the mapping, go at once.
    """

    def __init__(self, sim: Simulator, count: int, block_size: int,
                 name: str = "pool",
                 metrics: MetricsRegistry = NULL_REGISTRY) -> None:
        if count < 1:
            raise ValueError("pool needs at least one block")
        if block_size < 1:
            raise ValueError("block size must be >= 1")
        self.sim = sim
        self.name = name
        self.block_size = block_size
        self.count = count
        table = metrics.declared(POOL)
        self._m_waits, self._g_in_use = table.families
        #: this pool's slot in both (a pool made under the name of an
        #: earlier one shares its series).
        self._slot = table.declare((name,))
        self._free: list[Buffer] = self._blocks(count, "", 0)
        self._waiters: list[Event] = []
        #: replacement blocks :meth:`reset` has made, so labels stay unique.
        self._replaced = 0
        self._outstanding: set[Buffer] = set()
        self._retired: set[Buffer] = set()
        self._closed = False

    def _blocks(self, n: int, tag: str, first: int) -> list[Buffer]:
        """``n`` fresh blocks cut from one new segment, labelled
        ``name[<tag><first>]`` onwards."""
        bs = self.block_size
        seg = _segment(n, bs)
        return [Buffer(seg[i * bs:(i + 1) * bs], kind=STATIC, owner=self,
                       label=f"{self.name}[{tag}{first + i}]")
                for i in range(n)]

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
            buf = self._free.pop(0)
            buf._released = False
            self._outstanding.add(buf)
            self._g_in_use.set(self._slot, len(self._outstanding))
            ev.succeed(buf)
        else:
            self._m_waits.inc(self._slot)
            self._waiters.append(ev)
        return ev

    def try_acquire(self) -> Buffer:
        """Immediate acquire; raises :class:`PoolExhausted` if empty."""
        if self._closed:
            raise PoolClosed(f"pool {self.name!r} is closed")
        if not self._free or self._waiters:
            raise PoolExhausted(f"pool {self.name!r} has no free block")
        buf = self._free.pop(0)
        buf._released = False
        self._outstanding.add(buf)
        self._g_in_use.set(self._slot, len(self._outstanding))
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
            self._waiters.pop(0).succeed(buf)
        else:
            self._free.append(buf)
        self._g_in_use.set(self._slot, len(self._outstanding))

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
            ev = self._waiters.pop(0)
            if not ev.triggered:
                ev.fail(exc)
                n += 1
        return n

    def reset(self) -> int:
        """Restore full capacity after a node restart.

        Blocks still checked out by abandoned pipelines are *retired*: their
        eventual release becomes a no-op instead of an error, and fresh
        replacement blocks, cut from one new segment and labelled
        ``name[r<k>]`` from a per-pool count, take their place.  Acquires
        still blocked at reset time (queued between the crash's
        ``fail_waiters`` and the restart) are granted from the replenished
        pool in FIFO order rather than silently dropped — a stranded waiter
        would otherwise never trigger.  Returns the number of blocks
        replaced.
        """
        retired = len(self._outstanding)
        self._retired |= self._outstanding
        self._outstanding.clear()
        if retired:
            self._free += self._blocks(retired, "r", self._replaced)
            self._replaced += retired
        while self._waiters and self._free:
            ev = self._waiters.pop(0)
            if ev.triggered:
                continue
            buf = self._free.pop(0)
            buf._released = False
            self._outstanding.add(buf)
            ev.succeed(buf)
        self._g_in_use.set(self._slot, len(self._outstanding))
        return retired
