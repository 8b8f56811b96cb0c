"""Schedule-identity: adaptive plumbing is invisible until it fires.

docs/adaptive.md promises that the adaptive transport is pure synchronous
bookkeeping — a :class:`TransportPolicy` whose knobs are all neutralized
(eager off, balancing off; re-striping has nothing to act on without
faults) leaves the discrete-event schedule *bit-identical* to an
unconfigured run.  These tests pin that promise two ways: the committed
golden figure 5 trace must reproduce under the neutral policy, and a
randomized message matrix over a dual-gateway multirail bridge must give
the same full trace and completion time with and without the policy.
"""

import json
import pathlib
import random

import numpy as np
import pytest

from repro.hw import build_world
from repro.madeleine import Session, TransportPolicy

GOLDEN = (pathlib.Path(__file__).parent.parent / "data"
          / "golden_fig5_trace.json")

#: every adaptation disabled — the policy object is attached but inert.
NEUTRAL = TransportPolicy(eager_threshold=0, gateway_balance=False)


def _rows(world):
    """The full trace, hashable row per record (exact timestamps)."""
    rows = [(r.t, r.category, r.event, tuple(sorted(r.attrs.items())))
            for r in world.trace]
    assert rows, "the trace was not recorded"
    return rows


def _run_fig5(policy):
    """The golden-trace scenario (2 MB b0 -> a0, 64 KB paquets) with an
    explicit transport policy."""
    world = build_world({
        "a0": ["myrinet", "fast_ethernet"],
        "gw": ["myrinet", "sci", "fast_ethernet"],
        "b0": ["sci", "fast_ethernet"],
    })
    world.trace.enable()
    session = Session(world, packet_size=64 << 10)
    ch_a = session.channel("myrinet", ["a0", "gw"])
    ch_b = session.channel("sci", ["gw", "b0"])
    vch = session.virtual_channel([ch_a, ch_b], transport_policy=policy)
    message = 2 << 20
    data = np.zeros(message, dtype=np.uint8)
    done = {}

    def snd():
        m = vch.endpoint(session.rank("b0")).begin_packing(session.rank("a0"))
        yield m.pack(data)
        yield m.end_packing()

    def rcv():
        inc = yield vch.endpoint(session.rank("a0")).begin_unpacking()
        _ev, _b = inc.unpack(message)
        yield inc.end_unpacking()
        done["t"] = session.now

    session.spawn(snd())
    session.spawn(rcv())
    session.run()
    return world, done["t"]


def test_neutral_policy_reproduces_the_golden_fig5_trace():
    """The strongest identity statement: with the policy attached but
    neutralized, the committed pre-adaptive golden trace reproduces bit
    for bit — timestamps included."""
    world, elapsed = _run_fig5(NEUTRAL)
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    current = [[r.t, r.category, r.event,
                r.attrs.get("seq"), r.attrs.get("nbytes")]
               for r in world.trace if r.category in ("gateway", "xfer")]
    assert len(current) == len(golden)
    for got, want in zip(current, golden):
        assert got == want
    assert elapsed == 39503.54562454843


def test_fig5_full_trace_identical_with_and_without_policy():
    world_off, t_off = _run_fig5(None)
    world_neutral, t_neutral = _run_fig5(NEUTRAL)
    assert _rows(world_off) == _rows(world_neutral)
    assert t_off == t_neutral


def _run_matrix(policy, seed):
    """A randomized message matrix over the dual-gateway multirail bridge
    (the topology where gateway balancing would hook in if enabled)."""
    world = build_world({
        "a0": ["myrinet"], "a1": ["myrinet"],
        "gw0": ["myrinet", "sci"], "gw1": ["myrinet", "sci"],
        "b0": ["sci"], "b1": ["sci"],
    })
    world.trace.enable()
    session = Session(world, packet_size=16 << 10)
    ch_a = session.channel("myrinet", ["a0", "a1", "gw0", "gw1"])
    ch_b = session.channel("sci", ["gw0", "gw1", "b0", "b1"])
    vch = session.virtual_channel([ch_a, ch_b], multirail=True,
                                  transport_policy=policy)
    rng = random.Random(seed)
    pairs = [("a0", "b0"), ("a1", "b1"), ("b0", "a1"), ("b1", "a0")]
    flows = [(src, dst,
              [int(2 ** rng.uniform(0, 16)) for _ in range(rng.randint(1, 4))])
             for src, dst in pairs]

    def sender(src, dst, sizes):
        ep = vch.endpoint(session.rank(src))
        for n in sizes:
            msg = ep.begin_packing(session.rank(dst))
            yield msg.pack(np.zeros(n, dtype=np.uint8))
            yield msg.end_packing()

    def receiver(dst, sizes):
        ep = vch.endpoint(session.rank(dst))
        for n in sizes:
            inc = yield ep.begin_unpacking()
            _ev, _b = inc.unpack(n)
            yield inc.end_unpacking()

    for src, dst, sizes in flows:
        session.spawn(sender(src, dst, sizes), name=f"snd:{src}")
        session.spawn(receiver(dst, sizes), name=f"rcv:{dst}")
    session.run()
    return world, session.now


@pytest.mark.parametrize("seed", [0, 7, 23])
def test_random_matrix_schedule_identical_with_neutral_policy(seed):
    world_off, t_off = _run_matrix(None, seed)
    world_neutral, t_neutral = _run_matrix(NEUTRAL, seed)
    assert _rows(world_off) == _rows(world_neutral)
    assert t_off == t_neutral


@pytest.mark.parametrize("seed", [0, 7])
def test_random_matrix_delivers_with_policy_enabled(seed):
    """The live policy (eager + balancing on) must still deliver the same
    matrix — the schedule may differ, completion may not hang."""
    _world, t = _run_matrix(TransportPolicy(), seed)
    assert t > 0.0
