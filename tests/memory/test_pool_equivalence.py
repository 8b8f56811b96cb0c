"""The one-segment pool behaves exactly like the eager pool it replaced.

Hypothesis draws a pool shape and a sequence of operations — acquires,
releases (double and stale ones included), cancels, abandons, crash and
restart, close, and writes into granted blocks — and applies it to
:class:`repro.memory.StaticBufferPool` and to the frozen
:mod:`tests.memory.reference_pool`, each on its own simulator.  After every
operation both sides must agree on the operation's outcome, every acquire
event's state and grant, the counters, the order of the free list and the
bytes of every block either has handed out or holds free.

The one change made on purpose is the labels of replacement blocks:
``reset()`` now numbers them from a per-pool count, where the reference
restarts at ``r0`` on every reset.  The reference side therefore renames
its replacement blocks in creation order before labels are compared.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.memory import StaticBufferPool
from repro.sim import Simulator
from tests.memory import reference_pool as reference

_INDEX = st.integers(0, 63)

OPS = st.one_of(
    st.tuples(st.just("acquire")),
    st.tuples(st.just("try_acquire")),
    st.tuples(st.just("release"), _INDEX),
    st.tuples(st.just("cancel"), _INDEX),
    st.tuples(st.just("abandon"), _INDEX),
    st.tuples(st.just("fail_waiters")),
    st.tuples(st.just("reset")),
    st.tuples(st.just("write"), _INDEX, st.integers(0, 255),
              st.binary(min_size=1, max_size=24)),
)


class Side:
    """One pool, its simulator and everything the drawn program holds."""

    def __init__(self, pool_cls, count: int, block_size: int,
                 rename_replacements: bool) -> None:
        self.sim = Simulator()
        self.pool = pool_cls(self.sim, count, block_size, name="p")
        self.events = []
        #: every block ever handed out, in the order it was first seen.
        self.granted = []
        self._rename = rename_replacements
        self._names: dict[int, str] = {}
        self._keep = []
        self._replaced = 0

    def label(self, buf) -> str:
        return self._names.get(id(buf), buf.label)

    def apply(self, op) -> object:
        try:
            out = self._apply(op)
        except Exception as exc:        # the outcome both sides must share
            out = type(exc).__name__
        try:
            self.sim.run()
        except Exception as exc:
            out = (out, type(exc).__name__)
        for ev in self.events:
            if ev.triggered and ev.ok and ev.value not in self.granted:
                self.granted.append(ev.value)
        return out

    def _pick(self, seq, i):
        return seq[i % len(seq)] if seq else None

    def _apply(self, op):
        kind, pool = op[0], self.pool
        if kind == "acquire":
            ev = pool.acquire()
            ev.defuse()                 # a crash or close may fail it
            self.events.append(ev)
            return None
        if kind == "try_acquire":
            buf = pool.try_acquire()
            self.granted.append(buf)
            return self.label(buf)
        if kind == "release":
            buf = self._pick(self.granted, op[1])
            return buf and pool.release(buf)
        if kind == "cancel":
            ev = self._pick(self.events, op[1])
            return ev and pool.cancel_acquire(ev)
        if kind == "abandon":
            ev = self._pick(self.events, op[1])
            return ev and pool.abandon_acquire(ev)
        if kind == "fail_waiters":
            return pool.fail_waiters(RuntimeError("crash"))
        if kind == "reset":
            n = pool.reset()
            if self._rename:
                self._name_replacements()
            self._replaced += n
            return n
        if kind == "close":
            return pool.close()
        _, i, offset, raw = op
        buf = self._pick(self.granted, i)
        if buf is not None:
            offset %= len(buf)
            raw = raw[:len(buf) - offset]
            buf.data[offset:offset + len(raw)] = list(raw)
        return None

    def _name_replacements(self) -> None:
        """Give the reference's fresh ``[r<i>]`` blocks the labels the
        per-pool count gives them: ``r<replaced so far + i>``."""
        for buf in list(self.pool._free) + list(self.pool._outstanding):
            if id(buf) in self._names or "[r" not in buf.label:
                continue
            i = int(buf.label[buf.label.index("[r") + 2:-1])
            self._names[id(buf)] = f"p[r{self._replaced + i}]"
            self._keep.append(buf)      # ids stay unique while it lives

    def state(self) -> tuple:
        pool = self.pool
        events = tuple(
            (ev.triggered,
             None if not ev.triggered else
             self.label(ev.value) if ev.ok else type(ev.value).__name__)
            for ev in self.events)
        held = {self.label(b): b.tobytes()
                for b in self.granted + list(pool._free)}
        return (pool.available, pool.outstanding, pool.waiting, events,
                [self.label(b) for b in pool._free], held)


@settings(max_examples=300, deadline=None)
@given(count=st.integers(1, 5), block_size=st.integers(1, 48),
       ops=st.lists(OPS, max_size=40),
       close_at=st.none() | st.integers(0, 40))
def test_segment_pool_matches_the_eager_pool(count, block_size, ops,
                                              close_at):
    if close_at is not None:
        ops = ops[:close_at] + [("close",)] + ops[close_at:]
    new = Side(StaticBufferPool, count, block_size, False)
    ref = Side(reference.StaticBufferPool, count, block_size, True)
    assert new.state() == ref.state()
    for step, op in enumerate(ops):
        assert new.apply(op) == ref.apply(op), (step, op)
        assert new.state() == ref.state(), (step, op)
