"""Deterministic discrete-event simulation kernel.

The kernel is a small, simpy-flavoured engine: simulation *processes* are
Python generators that ``yield`` :class:`Event` objects and are resumed when
those events trigger.  Simulated time is a float in **microseconds**; all
bandwidth figures elsewhere in the library are therefore bytes/µs, which is
numerically identical to MB/s.

Determinism: the event heap is ordered by ``(time, priority, sequence)``
where ``sequence`` is a global monotonic counter, so two runs of the same
program always produce the same schedule.  Nothing in the kernel consults
wall-clock time or random state.

Hot-path machinery (all schedule-preserving — the dispatch sequence stays
bit-identical to the unoptimized kernel, see ``tests/sim/reference_engine.py``):

* **lazy cancellation** — :meth:`Event.cancel` marks a scheduled event dead;
  the heap discards it on pop without dispatching (used by the fluid network
  for superseded wake-ups, which would otherwise dispatch as no-ops);
* **pooled timeouts** — ``Simulator.timeout(..., pooled=True)`` recycles
  :class:`Timeout` objects through a free list once dispatched, for internal
  fire-and-forget waits whose reference is provably dropped by dispatch time;
* **batched dispatch** — :meth:`Event.succeed_later` triggers an event now
  but delivers it ``delay`` µs later, collapsing the classic
  timeout-then-succeed pattern (two heap events) into one;
* **one dispatch loop** — :meth:`Simulator.run` pops, drops cancelled
  heads and dispatches in a single loop (:meth:`Simulator._dispatch`), with
  no ``peek()``/``step()`` call per event; :meth:`Simulator.step` is the
  same loop with a budget of one event;
* **bound resume** — a :class:`Process` binds its ``_resume`` once and
  appends it to each yielded event's ``callbacks``, so a ``yield``
  allocates no bound method and makes no ``add_callback`` call; the hot
  triggers (``succeed``, ``succeed_later``, timeouts) push onto the heap
  themselves instead of through ``_enqueue``.

Object lifetime: nothing the kernel is done with waits for the cycle
collector.  A process drops its bound resume when it returns or crashes,
and a race (:class:`AnyOf`) takes its one hook off the children that lost,
so a finished process or race dies by reference counting.

``events_processed`` counts dispatched events; ``events_cancelled`` counts
lazily discarded ones.  Events processed per transferred MB is the
kernel-efficiency figure of merit (the ``fig5`` paper cell records it).
"""

from __future__ import annotations

import sys
from heapq import heappop, heappush
from typing import Any, Callable, Generator, Iterable, Optional

from .errors import DeadlockError, ProcessCrashed, SchedulingError

__all__ = [
    "Event",
    "Timeout",
    "Process",
    "AllOf",
    "AnyOf",
    "Simulator",
    "PRIORITY_URGENT",
    "PRIORITY_NORMAL",
    "PRIORITY_LATE",
]

_UNSET = object()

#: Heap priorities: lower runs first among events scheduled for the same time.
PRIORITY_URGENT = 0
PRIORITY_NORMAL = 1
PRIORITY_LATE = 2

_INF = float("inf")
#: the latest instant ``run()`` dispatches at when it has no horizon: an
#: event at +inf is never due (``peek()`` reports an empty heap as +inf).
_LAST_INSTANT = sys.float_info.max


class Event:
    """A one-shot occurrence that processes can wait on.

    An event starts *pending*; calling :meth:`succeed` or :meth:`fail`
    triggers it, which enqueues it on the simulator heap.  When the heap pops
    it, all registered callbacks run (in registration order).
    """

    __slots__ = ("sim", "callbacks", "_value", "_ok", "_defused", "name",
                 "_cancelled")

    def __init__(self, sim: "Simulator", name: str = "") -> None:
        self.sim = sim
        self.name = name
        #: callbacks invoked with the event once it is processed; set to
        #: ``None`` after processing (late registrations run immediately).
        self.callbacks: Optional[list[Callable[["Event"], None]]] = []
        self._value: Any = _UNSET
        self._ok: Optional[bool] = None
        self._defused = False
        self._cancelled = False

    # -- state ------------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once succeed()/fail() has been called."""
        return self._ok is not None

    @property
    def processed(self) -> bool:
        """True once callbacks have run."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        if self._ok is None:
            raise SchedulingError(f"event {self!r} not yet triggered")
        return self._ok

    @property
    def value(self) -> Any:
        if self._value is _UNSET:
            raise SchedulingError(f"event {self!r} has no value yet")
        return self._value

    # -- triggering -------------------------------------------------------
    def succeed(self, value: Any = None, priority: int = PRIORITY_NORMAL) -> "Event":
        if self._ok is not None:
            raise SchedulingError(f"event {self!r} already triggered")
        self._ok = True
        self._value = value
        sim = self.sim
        sim._seq += 1
        heappush(sim._heap, (sim.now, priority, sim._seq, self))
        return self

    def fail(self, exc: BaseException, priority: int = PRIORITY_NORMAL) -> "Event":
        if self._ok is not None:
            raise SchedulingError(f"event {self!r} already triggered")
        if not isinstance(exc, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._ok = False
        self._value = exc
        self.sim._enqueue(self.sim.now, priority, self)
        return self

    def succeed_later(self, delay: float, value: Any = None,
                      priority: int = PRIORITY_NORMAL) -> "Event":
        """Trigger now, deliver ``delay`` µs from now (batched dispatch).

        Equivalent in delivery time to arming a :class:`Timeout` whose
        callback calls :meth:`succeed`, but costs one heap event instead of
        two.  The event reads as *triggered* immediately — callers that need
        the triggered flag to stay false during the delay (e.g. so a
        force-fail can still win the race) must use the two-event pattern.
        """
        if delay < 0:
            raise ValueError(f"negative delivery delay {delay!r}")
        if self._ok is not None:
            raise SchedulingError(f"event {self!r} already triggered")
        self._ok = True
        self._value = value
        sim = self.sim
        sim._seq += 1
        heappush(sim._heap, (sim.now + delay, priority, sim._seq, self))
        return self

    def cancel(self) -> None:
        """Lazily cancel a triggered-but-unprocessed event.

        The heap entry stays in place and is discarded (not dispatched) when
        it reaches the top — no callbacks run, and it does not count as a
        processed event.  Cancelling an already processed event is an error;
        cancelling an untriggered event is allowed (it guards against the
        event being triggered later).
        """
        if self.callbacks is None:
            raise SchedulingError(f"cannot cancel processed event {self!r}")
        self._cancelled = True

    @property
    def cancelled(self) -> bool:
        return self._cancelled

    def defuse(self) -> None:
        """Mark a failed event as handled so the kernel does not re-raise."""
        self._defused = True

    # -- waiting ----------------------------------------------------------
    def add_callback(self, fn: Callable[["Event"], None]) -> None:
        if self.callbacks is None:
            # Already processed: run immediately so late waiters still wake.
            fn(self)
        else:
            self.callbacks.append(fn)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "pending" if self._ok is None else ("ok" if self._ok else "failed")
        label = f" {self.name}" if self.name else ""
        return f"<{type(self).__name__}{label} {state}>"


class Timeout(Event):
    """An event that triggers ``delay`` µs after creation.

    ``_poolable`` timeouts (built via ``Simulator.timeout(pooled=True)``)
    return to the simulator's free list once dispatched or discarded, so the
    per-fragment waits of the transport hot path stop allocating.
    """

    __slots__ = ("_poolable",)

    def __init__(self, sim: "Simulator", delay: float, value: Any = None,
                 name: str = "") -> None:
        if delay < 0:
            raise ValueError(f"negative timeout delay {delay!r}")
        super().__init__(sim, name=name)
        self._poolable = False
        self._ok = True
        self._value = value
        sim._seq += 1
        heappush(sim._heap, (sim.now + delay, PRIORITY_NORMAL, sim._seq, self))

    def _rearm(self, delay: float, value: Any, name: str) -> None:
        """Reset a recycled instance and put it back on the heap."""
        if delay < 0:
            raise ValueError(f"negative timeout delay {delay!r}")
        self.name = name
        self.callbacks = []
        self._defused = False
        self._cancelled = False
        self._ok = True
        self._value = value
        sim = self.sim
        sim._seq += 1
        heappush(sim._heap, (sim.now + delay, PRIORITY_NORMAL, sim._seq, self))


class Initialize(Event):
    """Internal: kicks a freshly created process at the current instant."""

    __slots__ = ()

    def __init__(self, sim: "Simulator") -> None:
        super().__init__(sim)
        self._ok = True
        self._value = None
        sim._enqueue(sim.now, PRIORITY_URGENT, self)


class Process(Event):
    """A running simulation process wrapping a generator.

    The process is itself an event that triggers when the generator returns
    (value = the generator's return value) or raises (event fails), so
    processes can wait for each other simply by yielding them.
    """

    __slots__ = ("gen", "_target", "_resume_bound")

    def __init__(self, sim: "Simulator", gen: Generator, name: str = "") -> None:
        if not hasattr(gen, "send"):
            raise TypeError(f"process body must be a generator, got {type(gen).__name__}")
        super().__init__(sim, name=name or getattr(gen, "__name__", "process"))
        self.gen = gen
        self._target: Optional[Event] = None
        #: ``_resume`` bound once: every yielded event calls back this one
        #: object.  It refers back to the process, so it is dropped when
        #: the process returns or crashes, and a finished process dies by
        #: reference counting.
        self._resume_bound = self._resume
        Initialize(sim).callbacks.append(self._resume_bound)

    @property
    def is_alive(self) -> bool:
        return self._ok is None

    def _resume(self, event: Event) -> None:
        sim = self.sim
        sim._active_process = self
        try:
            if event._ok:
                next_ev = self.gen.send(event._value)
            else:
                event._defused = True
                next_ev = self.gen.throw(event._value)
        except StopIteration as stop:
            sim._active_process = None
            self._resume_bound = None
            self.succeed(stop.value)
            return
        except BaseException as exc:
            sim._active_process = None
            self._crash(exc)
            return
        sim._active_process = None
        if not isinstance(next_ev, Event):
            self.gen.close()
            self._crash(TypeError(
                f"process {self.name!r} yielded {next_ev!r}; processes must yield Event objects"
            ))
            return
        self._target = next_ev
        callbacks = next_ev.callbacks
        if callbacks is None:
            self._resume(next_ev)   # already processed: wake at once
        else:
            callbacks.append(self._resume_bound)

    def _crash(self, exc: BaseException) -> None:
        """Fail this process with ``exc`` (re-raised by the kernel as
        :class:`ProcessCrashed` unless a waiter handles it)."""
        self._resume_bound = None
        self._ok = False
        self._value = exc
        self.sim._enqueue(self.sim.now, PRIORITY_NORMAL, self)
        self.sim._crashes.append(self)


class AllOf(Event):
    """Triggers when every child event has triggered.

    Value is the list of child values (in the given order).  Fails as soon
    as any child fails.
    """

    __slots__ = ("_children", "_remaining")

    def __init__(self, sim: "Simulator", events: Iterable[Event]) -> None:
        super().__init__(sim, name="all_of")
        self._children = list(events)
        self._remaining = len(self._children)
        if self._remaining == 0:
            self.succeed([])
            return
        for ev in self._children:
            ev.add_callback(self._check)

    def _check(self, ev: Event) -> None:
        if self.triggered:
            if not ev._ok:
                ev._defused = True
            return
        if not ev._ok:
            ev._defused = True
            self.fail(ev._value)
            return
        self._remaining -= 1
        if self._remaining == 0:
            self.succeed([child._value for child in self._children])


class AnyOf(Event):
    """Triggers when the first child event triggers; value = (index, value).

    The race hangs one bound hook on its children.  When the first child
    fires, the hook leaves every other child: each loser is marked defused
    (a failure it suffers later does not crash the run, which callers that
    walk away from a race rely on) and loses the hook, so a long-lived
    event raced over and over (a gateway's abort switch) carries no hook
    per lost race and keeps no finished race alive.
    """

    __slots__ = ("_children", "_hook")

    def __init__(self, sim: "Simulator", events: Iterable[Event]) -> None:
        super().__init__(sim, name="any_of")
        self._children = list(events)
        if not self._children:
            raise ValueError("AnyOf requires at least one event")
        self._hook = self._check
        for ev in self._children:
            if self._hook is None:      # an earlier child had already fired
                ev._defused = True
            else:
                ev.add_callback(self._hook)

    def _check(self, ev: Event) -> None:
        hook, self._hook = self._hook, None
        if hook is None:
            return      # ``ev`` was listed twice and has already won
        for child in self._children:
            if child is not ev:
                child._defused = True
                callbacks = child.callbacks
                # a child listed after one that had fired at construction
                # never got the hook
                if callbacks and hook in callbacks:
                    callbacks.remove(hook)
        if not ev._ok:
            ev._defused = True
            self.fail(ev._value)
            return
        self.succeed((self._children.index(ev), ev._value))


class Simulator:
    """The event loop: owns the clock, the heap, and process bookkeeping."""

    def __init__(self) -> None:
        self.now: float = 0.0
        self._heap: list[tuple[float, int, int, Event]] = []
        self._seq = 0
        self._active_process: Optional[Process] = None
        self._crashes: list[Process] = []
        #: events dispatched (callbacks run) since construction.
        self.events_processed = 0
        #: lazily cancelled events discarded off the heap without dispatch.
        self.events_cancelled = 0
        self._timeout_pool: list[Timeout] = []

    # -- event construction -------------------------------------------------
    def event(self, name: str = "") -> Event:
        return Event(self, name=name)

    def timeout(self, delay: float, value: Any = None, name: str = "",
                pooled: bool = False) -> Timeout:
        """A timeout event; ``pooled=True`` recycles the object after
        dispatch.

        Pooling is for kernel-internal fire-and-forget waits only: the
        caller must not keep a reference past the timeout's dispatch
        (a ``yield`` of it from a process is fine — the process has moved
        on by then), and must not ``add_callback`` after it has fired.
        """
        if pooled and self._timeout_pool:
            ev = self._timeout_pool.pop()
            ev._rearm(delay, value, name)
            return ev
        ev = Timeout(self, delay, value=value, name=name)
        ev._poolable = pooled
        return ev

    def process(self, gen: Generator, name: str = "") -> Process:
        return Process(self, gen, name=name)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    @property
    def active_process(self) -> Optional[Process]:
        return self._active_process

    # -- scheduling ----------------------------------------------------------
    def _enqueue(self, at: float, priority: int, event: Event) -> None:
        """Push ``event`` for ``at`` (the cold triggers: ``fail``, process
        start and crash; the hot ones push inline)."""
        self._seq += 1
        heappush(self._heap, (at, priority, self._seq, event))

    def _drop(self, event: Event) -> None:
        """Discard a lazily cancelled event popped off the heap top."""
        self.events_cancelled += 1
        event.callbacks = None
        if type(event) is Timeout and event._poolable:
            self._timeout_pool.append(event)

    def _dispatch(self, horizon: float, budget: int, done=()) -> int:
        """The one dispatch loop of :meth:`run` and :meth:`step`.

        Pops the heap in order, dropping cancelled heads as they surface,
        and dispatches live events until ``budget`` of them have run (-1:
        no budget), ``done`` is non-empty, the heap is empty, or the next
        live event is later than ``horizon`` (it goes back on the heap;
        keys are unique, so the pop order does not change).  Returns the
        number of events dispatched.
        """
        heap = self._heap
        pool = self._timeout_pool
        n = 0
        try:
            while n != budget and not done and heap:
                at, prio, seq, event = heappop(heap)
                if event._cancelled:
                    self._drop(event)
                    continue
                if at > horizon:
                    heappush(heap, (at, prio, seq, event))
                    break
                if at > self.now:
                    self.now = at
                elif at < self.now - 1e-9:
                    raise SchedulingError(
                        f"time went backwards: {at} < {self.now}")
                n += 1
                callbacks = event.callbacks
                event.callbacks = None
                if callbacks:
                    if len(callbacks) == 1:
                        # The overwhelmingly common case: one waiter (a
                        # process resume or a completion hook).
                        callbacks[0](event)
                    else:
                        for fn in callbacks:
                            fn(event)
                if event._ok is False and not event._defused:
                    exc = event._value
                    if isinstance(event, Process):
                        raise ProcessCrashed(event.name, str(exc)) from exc
                    raise exc
                if type(event) is Timeout and event._poolable:
                    pool.append(event)
        finally:
            self.events_processed += n
        return n

    def peek(self) -> float:
        """Time of the next live scheduled event, or +inf if none."""
        heap = self._heap
        while heap and heap[0][3]._cancelled:
            self._drop(heappop(heap)[3])
        return heap[0][0] if heap else _INF

    def step(self) -> None:
        """Process exactly one (live) event off the heap."""
        if not self._dispatch(_INF, 1):
            raise SchedulingError(
                f"step() on an empty event heap at t={self.now:.3f}µs — "
                f"nothing is scheduled")

    def run(self, until: Optional[float | Event] = None) -> Any:
        """Run the simulation.

        ``until`` may be ``None`` (drain the heap), a time (run up to and
        including that instant), or an :class:`Event` (run until it has been
        processed; its value is returned, and a :class:`DeadlockError` is
        raised if the heap drains first).
        """
        if isinstance(until, Event):
            target = until
            if not target.processed:
                done: list = []
                target.add_callback(done.append)
                self._dispatch(_LAST_INSTANT, -1, done)
                if not done:
                    raise DeadlockError(
                        f"event {target!r} never triggered; simulation starved "
                        f"at t={self.now:.3f}µs"
                    )
            if target._ok:
                return target._value
            target._defused = True
            raise target._value
        if until is None:
            self._dispatch(_LAST_INSTANT, -1)
            return None
        horizon = float(until)
        if horizon < self.now:
            raise ValueError(f"cannot run until {horizon} < now {self.now}")
        self._dispatch(horizon, -1)
        self.now = max(self.now, horizon)
        return None
