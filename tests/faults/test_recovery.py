"""Recovery behaviour of the reliable layer under injected faults, plus
the typed error paths: every failure mode must surface as a specific
exception the application can catch — never a hang, never silent
corruption."""

import struct

import pytest

from repro.faults import ChannelFaults, FaultPlan
from repro.madeleine import RetryPolicy, Session
from repro.madeleine.wire import MODE_GTM, Announce
from repro.memory import Buffer
from repro.hw import build_world
from repro.sim import ProcessCrashed, RetryExhausted
from tests.faults.conftest import (payloads, reliable_pair, run_transfer,
                                   two_gateway_world)

#: a short-fuse policy for tests that must *exhaust* the budget quickly.
SHORT = RetryPolicy(max_attempts=3, rto=5_000.0, rto_max=10_000.0,
                    stall_timeout=2_000.0, reack_interval=4_000.0,
                    reack_ttl=20_000.0)


def _faulty_transfer(faults, seed=9, n=2, nbytes=60_000,
                     policy=None):
    w, s, myri, sci = two_gateway_world()
    w.trace.enable()
    FaultPlan(seed=seed,
              channels={myri.id: faults, sci.id: faults}).arm(w)
    vch, rel_src, rel_dst = reliable_pair(s, myri, sci,
                                          policy or RetryPolicy())
    msgs = payloads(seed, n, nbytes)
    attempts, got, errors = run_transfer(s, rel_src, rel_dst, msgs)
    return w, msgs, attempts, got, errors, rel_src


# -- recovery ------------------------------------------------------------------

def test_drop_recovery_delivers_intact():
    w, msgs, attempts, got, errors, rel_src = _faulty_transfer(
        ChannelFaults(drop_p=0.05))
    assert not errors
    assert got == msgs                      # byte-identical, in order
    assert rel_src.retransmits > 0          # the loss was real
    assert len(w.fabric.trace.query("fault", "fragment_dropped")) > 0


def test_corrupt_recovery_delivers_intact():
    w, msgs, attempts, got, errors, _rel = _faulty_transfer(
        ChannelFaults(corrupt_p=0.08))
    assert not errors
    assert got == msgs
    assert len(w.fabric.trace.query("fault", "fragment_corrupted")) > 0


def test_delay_faults_do_not_break_ordering():
    _w, msgs, attempts, got, errors, rel_src = _faulty_transfer(
        ChannelFaults(delay_p=0.3, delay_us=400.0))
    assert not errors
    assert got == msgs
    # delays alone cost time, not integrity; a retry only happens if a
    # delay pushed an attempt past a stall bound
    assert all(a >= 1 for a in attempts)


def test_clean_channel_single_attempt():
    _w, msgs, attempts, got, errors, rel_src = _faulty_transfer(
        ChannelFaults())
    assert not errors
    assert got == msgs
    assert attempts == [1] * len(msgs)
    assert rel_src.retransmits == 0


# -- typed failure paths -------------------------------------------------------

def test_total_loss_raises_retry_exhausted():
    """A fabric that eats every fragment must end in RetryExhausted with
    diagnostic context — and the simulation must still terminate."""
    _w, _msgs, attempts, got, errors, _rel = _faulty_transfer(
        ChannelFaults(drop_p=1.0), n=1, nbytes=30_000, policy=SHORT)
    assert not got and not attempts
    assert len(errors) == 1
    exc = errors[0]
    assert isinstance(exc, RetryExhausted)
    assert exc.attempts == SHORT.max_attempts
    assert exc.acked_fragments == 0
    assert exc.total_fragments > 0


def test_retry_exhausted_is_catchable_timeout():
    # applications can handle it with the stdlib's own hierarchy
    assert issubclass(RetryExhausted, TimeoutError)


def test_gateway_rejects_malformed_descriptor():
    """Error path without an armed fault plan: a descriptor that fails to
    decode is a protocol violation and must crash the worker loudly (with
    a plan armed it would instead be forwarded as-is for the end-to-end
    CRC to catch)."""
    w = build_world({"m0": ["myrinet"], "gw": ["myrinet", "sci"],
                     "s0": ["sci"]})
    s = Session(w)
    vch = s.virtual_channel([
        s.channel("myrinet", ["m0", "gw"]),
        s.channel("sci", ["gw", "s0"]),
    ])
    tm0 = vch.special_twin(vch.channels[0]).endpoint(0).tm

    def bad_sender():
        ann = Announce(mode=MODE_GTM, origin=0, final_dst=2,
                       mtu=16 << 10, msg_id=77, hops_left=1)
        yield tm0.send_announce(1, ann)
        garbage = struct.pack("<IBBBx8x", 16, 250, 250, 9)  # bad modes
        yield tm0.send_item(1, Buffer.wrap(garbage),
                            meta={"type": "desc"}, msg_id=77)

    s.spawn(bad_sender())
    with pytest.raises(ProcessCrashed) as excinfo:
        s.run()
    assert "malformed descriptor" in str(excinfo.value.__cause__)


def test_unhandled_injected_crash_surfaces_as_process_crash():
    """A process that does not catch a typed failure crashes the
    simulation with the original exception chained — failures are loud by
    default."""
    w, s, myri, sci = two_gateway_world()
    FaultPlan(seed=1, channels={myri.id: ChannelFaults(drop_p=1.0),
                                sci.id: ChannelFaults(drop_p=1.0)}).arm(w)
    vch, rel_src, _rel_dst = reliable_pair(s, myri, sci, SHORT)

    def naive_sender():                     # no try/except
        yield from rel_src.send(3, b"x" * 10_000)

    s.spawn(naive_sender(), name="naive")
    with pytest.raises(ProcessCrashed) as excinfo:
        s.run()
    assert isinstance(excinfo.value.__cause__, RetryExhausted)
