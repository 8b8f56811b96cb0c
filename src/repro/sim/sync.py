"""Synchronization primitives for simulation processes.

All primitives hand out :class:`~repro.sim.engine.Event` objects that a
process yields on; wake-ups are strictly FIFO, which keeps runs deterministic
and mirrors the fairness of the pthread primitives used by the original
Madeleine gateway code.

Their waiter and item queues are plain lists (``append``/``pop(0)``): a
world builds thousands of queues that mostly sit idle, an empty list costs
a few dozen bytes where an empty ``deque`` costs 760, and no queue holds
more than a handful of entries, so ``pop(0)`` stays cheap.  A
:class:`Queue` goes further: its three lists start as one shared empty
tuple and become lists on their first append.
"""

from __future__ import annotations

from typing import Any, Optional

from .engine import Event, Simulator

__all__ = ["Semaphore", "Mutex", "Queue", "Barrier"]

#: What an idle :class:`Queue`'s item and waiter queues hold: immutable, so
#: one object serves every queue, and as empty and as falsy as ``[]`` to
#: the truth and ``len`` tests that read it.  ``append`` on it raises
#: ``AttributeError``, which is where a queue makes its list.
_IDLE: tuple = ()


class Semaphore:
    """Counting semaphore with FIFO wake-up order."""

    def __init__(self, sim: Simulator, value: int = 1, name: str = "") -> None:
        if value < 0:
            raise ValueError("semaphore initial value must be >= 0")
        self.sim = sim
        self.name = name
        self._value = value
        self._waiters: list[Event] = []

    @property
    def value(self) -> int:
        return self._value

    def acquire(self) -> Event:
        """Return an event that triggers once a unit has been granted."""
        ev = self.sim.event(name=f"{self.name}.acquire")
        if self._value > 0 and not self._waiters:
            self._value -= 1
            ev.succeed()
        else:
            self._waiters.append(ev)
        return ev

    def try_acquire(self) -> bool:
        """Non-blocking acquire; True on success."""
        if self._value > 0 and not self._waiters:
            self._value -= 1
            return True
        return False

    def release(self) -> None:
        if self._waiters:
            self._waiters.pop(0).succeed()
        else:
            self._value += 1


class Mutex(Semaphore):
    """Binary semaphore; release() when not held is an error."""

    def __init__(self, sim: Simulator, name: str = "") -> None:
        super().__init__(sim, value=1, name=name)

    def release(self) -> None:
        if self._value >= 1:
            raise RuntimeError(f"mutex {self.name!r} released while not held")
        super().release()

    @property
    def locked(self) -> bool:
        return self._value == 0


class Queue:
    """FIFO message queue with optional capacity (a bounded channel).

    ``put`` returns an event that triggers once the item is enqueued (at once
    if there is room); ``get`` returns an event whose value is the item.
    Rendezvous between a waiting getter and a putter happens at the current
    simulation instant.

    A world builds thousands of queues (every channel end, message and
    transmit ring has one) and most stay idle, so an idle queue is a
    slotted object whose item and waiter queues are the shared ``_IDLE``
    tuple: no list exists until something is appended.
    """

    __slots__ = ("sim", "name", "capacity", "_items", "_getters",
                 "_putters")

    def __init__(self, sim: Simulator, capacity: Optional[int] = None,
                 name: str = "") -> None:
        if capacity is not None and capacity < 1:
            raise ValueError("queue capacity must be >= 1 (or None)")
        self.sim = sim
        self.name = name
        self.capacity = capacity
        self._items: list[Any] = _IDLE
        self._getters: list[Event] = _IDLE
        self._putters: list[tuple[Event, Any]] = _IDLE

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: Any) -> Event:
        ev = self.sim.event(name=f"{self.name}.put")
        if self._getters:
            # Direct handoff: queue must be empty in this case.
            self._getters.pop(0).succeed(item)
            ev.succeed()
        elif self.capacity is None or len(self._items) < self.capacity:
            try:
                self._items.append(item)
            except AttributeError:      # the first item of an idle queue
                self._items = [item]
            ev.succeed()
        else:
            try:
                self._putters.append((ev, item))
            except AttributeError:
                self._putters = [(ev, item)]
        return ev

    def put_nowait(self, item: Any) -> bool:
        """Enqueue without creating a completion event; True on success.

        For producers that discard ``put``'s event anyway (the transport
        hot path): a discarded event still costs a heap push and a no-op
        dispatch.  Returns False — item **not** enqueued — when a bounded
        queue is full; such callers need the waiting ``put``.
        """
        if self._getters:
            self._getters.pop(0).succeed(item)
            return True
        if self.capacity is None or len(self._items) < self.capacity:
            try:
                self._items.append(item)
            except AttributeError:
                self._items = [item]
            return True
        return False

    def get(self) -> Event:
        ev = self.sim.event(name=f"{self.name}.get")
        if self._items:
            item = self._items.pop(0)
            if self._putters:
                pev, pitem = self._putters.pop(0)
                self._items.append(pitem)
                pev.succeed()
            ev.succeed(item)
        else:
            try:
                self._getters.append(ev)
            except AttributeError:
                self._getters = [ev]
        return ev

    def try_get(self) -> tuple[bool, Any]:
        """Non-blocking get; returns (True, item) or (False, None)."""
        if self._items:
            item = self._items.pop(0)
            if self._putters:
                pev, pitem = self._putters.pop(0)
                self._items.append(pitem)
                pev.succeed()
            return True, item
        return False, None

    def cancel_get(self, ev: Event) -> bool:
        """Withdraw a pending ``get`` so it can never steal an item.

        Needed when a getter gives up (e.g. raced against a shutdown event
        in an ``any_of``): an abandoned getter left in place would consume
        the next item and drop it on the floor.  Returns True if the get was
        still pending and has been removed.
        """
        try:
            self._getters.remove(ev)
            return True
        except (ValueError, AttributeError):    # not waiting, or never did
            return False


class Barrier:
    """N-party reusable barrier."""

    def __init__(self, sim: Simulator, parties: int, name: str = "") -> None:
        if parties < 1:
            raise ValueError("barrier needs >= 1 party")
        self.sim = sim
        self.name = name
        self.parties = parties
        self._waiting: list[Event] = []
        self._generation = 0

    def wait(self) -> Event:
        """Returns an event triggering (with the generation number) once all
        parties have arrived."""
        ev = self.sim.event(name=f"{self.name}.barrier")
        self._waiting.append(ev)
        if len(self._waiting) == self.parties:
            gen = self._generation
            self._generation += 1
            waiting, self._waiting = self._waiting, []
            for w in waiting:
                w.succeed(gen)
        return ev
