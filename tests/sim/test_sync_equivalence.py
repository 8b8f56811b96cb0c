"""List-backed queues and semaphores behave exactly like the deque-backed
ones they replaced.

Hypothesis draws a sequence of operations and applies it to a primitive
from :mod:`repro.sim.sync` and to its frozen twin in
:mod:`tests.sim.reference_sync`, each on its own simulator.  After every
operation both sides must agree on the operation's outcome, the state and
value of every event handed out so far, and what the primitive holds.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.sim import Simulator, sync
from tests.sim import reference_sync as reference

_INDEX = st.integers(0, 63)

QUEUE_OPS = st.one_of(
    st.tuples(st.just("put"), st.integers(0, 9)),
    st.tuples(st.just("put_nowait"), st.integers(0, 9)),
    st.tuples(st.just("get")),
    st.tuples(st.just("try_get")),
    st.tuples(st.just("cancel_get"), _INDEX),
    st.tuples(st.just("run")),
)

SEMAPHORE_OPS = st.one_of(
    st.tuples(st.just("acquire")),
    st.tuples(st.just("try_acquire")),
    st.tuples(st.just("release")),
    st.tuples(st.just("run")),
)


def _events(events) -> tuple:
    return tuple((ev.triggered, ev.processed,
                  ev.value if ev.triggered else None) for ev in events)


def _apply(sim, obj, events, op) -> object:
    kind = op[0]
    try:
        if kind == "run":
            return sim.run()
        if kind in ("put", "get", "acquire"):
            ev = getattr(obj, kind)(*op[1:])
            events.append(ev)
            return None
        if kind == "cancel_get":
            return bool(events) and obj.cancel_get(events[op[1] % len(events)])
        return getattr(obj, kind)(*op[1:])
    except Exception as exc:            # the outcome both sides must share
        return type(exc).__name__


def _queue_state(q, events) -> tuple:
    return (len(q), list(q._items), len(q._getters),
            [item for _ev, item in q._putters], _events(events))


def _semaphore_state(s, events) -> tuple:
    return (s.value, len(s._waiters), _events(events))


@settings(max_examples=300, deadline=None)
@given(capacity=st.none() | st.integers(1, 4),
       ops=st.lists(QUEUE_OPS, max_size=50))
def test_list_queue_matches_the_deque_queue(capacity, ops):
    sides = []
    for mod in (sync, reference):
        sim = Simulator()
        sides.append((sim, mod.Queue(sim, capacity=capacity, name="q"), []))
    for step, op in enumerate(ops):
        outcomes = [_apply(sim, q, events, op) for sim, q, events in sides]
        assert outcomes[0] == outcomes[1], (step, op)
        states = [_queue_state(q, events) for _sim, q, events in sides]
        assert states[0] == states[1], (step, op)


@settings(max_examples=300, deadline=None)
@given(kind=st.sampled_from(["Semaphore", "Mutex"]),
       value=st.integers(0, 3), ops=st.lists(SEMAPHORE_OPS, max_size=50))
def test_list_semaphore_matches_the_deque_semaphore(kind, value, ops):
    sides = []
    for mod in (sync, reference):
        sim = Simulator()
        cls = getattr(mod, kind)
        sem = cls(sim, value, name="s") if kind == "Semaphore" \
            else cls(sim, name="m")
        sides.append((sim, sem, []))
    for step, op in enumerate(ops):
        outcomes = [_apply(sim, s, events, op) for sim, s, events in sides]
        assert outcomes[0] == outcomes[1], (step, op)
        states = [_semaphore_state(s, events) for _sim, s, events in sides]
        assert states[0] == states[1], (step, op)
