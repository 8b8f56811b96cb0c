"""Incremental message construction — the ``mad_pack`` interface (§2.1.2).

A message is built piecewise:

* sender: ``begin_packing(dst)`` → ``pack(data, smode, rmode)``* →
  ``end_packing()``;
* receiver: ``begin_unpacking()`` → ``unpack(nbytes, smode, rmode)``* →
  ``end_unpacking()``,

where the unpack sequence must mirror the pack sequence exactly (sizes and
flags): Madeleine messages are **not self-described** on homogeneous paths,
for efficiency.  Violations raise :class:`~repro.madeleine.bmm.UnpackMismatch`.

One state machine.  :class:`OutgoingMessage` and :class:`IncomingMessage`
are the whole interface, written once: flag validation, the ``LATER``
list and its flush at the end of the message, the ``SAFER`` shadow, landing
allocation, the abort switch and the two waits that race it.  What differs
between routes is only how a buffer meets the wire, supplied as three
hooks per side (``_emit``/``_close``; ``_consume``/``_close``/``_abandon``):
here they delegate to the channel protocol's Buffer Management Module
(:mod:`~repro.madeleine.bmm`); :mod:`~repro.madeleine.gtm` and
:mod:`~repro.madeleine.stripe` subclass and supply their wire plans.

All operations are executed in order by a per-message *executor* process, so
a blocking step (static-pool acquisition, an EXPRESS receive) delays the
following ones exactly as the real library's in-flight state machine would.
Each ``pack``/``unpack`` returns an :class:`~repro.sim.Event` the caller may
yield on; ``end_packing``/``end_unpacking`` return an event that triggers
once the whole message is flushed/delivered.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Union

import numpy as np

from ..memory import Buffer
from ..sim import Event, Queue
from .bmm import make_receiver_bmm, make_sender_bmm
from .flags import RecvMode, SendMode, validate_modes
from .wire import MODE_REGULAR, Announce

if TYPE_CHECKING:  # pragma: no cover
    from .channel import Endpoint

__all__ = ["OutgoingMessage", "IncomingMessage", "MessageStateError"]


class MessageStateError(RuntimeError):
    """Operation on a finished message, or overlapping messages on one
    connection."""


class _Aborted(Exception):
    """Internal: the incoming message was abandoned by recovery code."""


class _ExecutorMixin:
    """Runs queued generator ops strictly in order."""

    #: the Buffer Management Module a message built directly meets the
    #: wire through (None where a subclass supplies its own wire plan).
    bmm = None

    def _init_executor(self, sim, name: str) -> None:
        self.sim = sim
        self._ops: Queue = Queue(sim, name=f"{name}.ops")
        self._finished = sim.event(name=f"{name}.done")
        self._closed = False
        #: True once the executor process has returned (normally or on a
        #: failed op) — leak detectors key on this after an abort.
        self._exec_done = False
        sim.process(self._executor(), name=f"{name}.exec")

    def _submit(self, gen, last: bool = False) -> Event:
        """Queue one op; ``last`` closes the message, and the op's event is
        then the message's completion."""
        if self._closed:
            raise MessageStateError("message already finalized")
        self._closed = last
        done = self._finished if last else self.sim.event()
        self._ops.put((gen, done, last))
        return done

    def _executor(self):
        while True:
            gen, done, last = yield self._ops.get()
            try:
                result = yield from gen
            except BaseException as exc:
                self._exec_returned()
                done.fail(exc)
                return
            # The op's return value rides on the completion event, so ops
            # that produce data (a decoded record, a received size) can be
            # driven from outside the executor.  Schedule-preserving: the
            # event count and trigger instants are unchanged.
            done.succeed(result)
            if last:
                self._exec_returned()
                return

    def _exec_returned(self) -> None:
        """No op will run any more.  The BMM and the message referred to
        each other; the BMM lets go, so a finished message (payload and
        landing buffers included) dies by reference counting.  The message
        keeps its BMM: an abort after this point still hands back a landing
        block a failed op left held, as it always did."""
        self._exec_done = True
        if self.bmm is not None:
            self.bmm.msg = None


def _as_buffer(data: Union[Buffer, bytes, bytearray, np.ndarray]) -> Buffer:
    return data if isinstance(data, Buffer) else Buffer.wrap(data)


class OutgoingMessage(_ExecutorMixin):
    """A message being packed.  Built directly, it travels one regular
    (single-network) channel through that protocol's BMM."""

    #: copy-accounting label of this class's SAFER shadow copies.
    _SAFER = "bmm.safer"

    def __init__(self, endpoint: "Endpoint", dst: int) -> None:
        if dst == endpoint.rank:
            raise ValueError("cannot send a message to self")
        if dst not in endpoint.channel.members:
            raise ValueError(
                f"rank {dst} is not a member of channel {endpoint.channel.id!r}")
        self.endpoint = endpoint
        self.dst = dst
        self._open(endpoint.tm, dst, next(endpoint.channel.world.msg_ids),
                   "out", endpoint.connection_lock(dst))
        self.bmm = make_sender_bmm(self)
        self._submit(self._announce_op())

    def _open(self, tm, hop_dst: int, msg_id: int, kind: str, lock) -> None:
        """State every outgoing message has, whatever its route."""
        self.tm = tm
        self.hop_dst = hop_dst
        self.msg_id = msg_id
        #: where payloads are staged: the tx pool of a static-buffer
        #: network, None where the network sends from user memory.
        self._pool = tm.tx_pool
        self.accounting = tm.channel.fabric.accounting
        self.aborted = False
        self._send_events: list[Event] = []
        self._deferred: list[tuple[Buffer, RecvMode]] = []
        self._init_executor(tm.channel.sim, f"{kind}:{msg_id}")
        # One message at a time per connection: the whole message holds the
        # connection lock (concurrent messages to the same peer queue up).
        self._lock = lock
        self._finished.add_callback(lambda _ev: lock.release())

    def _announce(self) -> Event:
        return self.tm.send_announce(self.hop_dst, Announce(
            mode=MODE_REGULAR, origin=self.endpoint.rank, final_dst=self.dst,
            mtu=0, msg_id=self.msg_id))

    def _announce_op(self):
        yield self._lock.acquire()
        yield self._announce()

    # -- the user-facing interface ----------------------------------------------
    def pack(self, data, smode: SendMode = SendMode.CHEAPER,
             rmode: RecvMode = RecvMode.CHEAPER) -> Event:
        """Append one data block to the message (``mad_pack``)."""
        return self._submit(self._op_pack(_as_buffer(data), SendMode(smode),
                                          RecvMode(rmode)))

    def end_packing(self) -> Event:
        """Flush everything (``mad_end_packing``); the event triggers when
        the whole message has been transmitted."""
        return self._submit(self._op_finalize(), last=True)

    def abort(self) -> None:
        """Stop emitting and let pending sends complete into the void.

        Used by fault-recovery code when the receiver abandoned this
        message: remaining fragments are blackholed on the fabric so the
        executor drains naturally and releases the connection lock.
        """
        self.aborted = True
        self.tm.channel.fabric.blackhole_pending_sends(self.tm.channel.id,
                                                       self.msg_id)

    # -- the state machine --------------------------------------------------------
    def _admit(self, buf: Buffer, smode: SendMode, rmode: RecvMode,
               shadow: bool) -> Buffer:
        """Validate one pack's flags; returns the buffer to emit from.

        SAFER lets the caller overwrite ``buf`` as soon as its pack
        completes, so with ``shadow`` whatever is emitted later is emitted
        from a copy.  (A static-buffer network stages every payload before
        the pack completes, which is the copy SAFER asks for.)
        """
        validate_modes(smode, rmode)
        if smode == SendMode.SAFER and shadow:
            copy = Buffer.alloc(len(buf), label=self._SAFER)
            copy.copy_from(buf, self.accounting, self.sim.now, self._SAFER)
            return copy
        return buf

    def _op_pack(self, buf: Buffer, smode: SendMode, rmode: RecvMode,
                 admitted: bool = False):
        if not admitted:
            buf = self._admit(buf, smode, rmode, self._pool is None)
        if smode == SendMode.LATER:
            self._deferred.append((buf, rmode))
            return
        yield from self._emit(buf, smode, rmode)

    def _op_finalize(self):
        for buf, rmode in self._deferred:
            yield from self._emit(buf, SendMode.CHEAPER, rmode)
        self._deferred.clear()
        yield from self._close()
        if self._send_events:
            yield self.sim.all_of(self._send_events)
        self._send_events.clear()

    def _send(self, payload, kind: str,
              block: Optional[Buffer] = None) -> None:
        """Put one wire item of ``kind`` on the first hop; ``block``, the
        tx block its payload is staged in, goes back to the pool when the
        item has left."""
        ev = self.tm.send_item(self.hop_dst, payload, meta={"type": kind},
                               msg_id=self.msg_id)
        if block is not None:
            ev.add_callback(lambda _e, pool=self._pool, block=block:
                            pool.release(block))
        self._send_events.append(ev)

    def _stage(self):
        """Acquire a tx block to stage a payload in; None, with the block
        handed straight back, if the message was aborted during the wait —
        a send submitted now could never match."""
        block = yield self._pool.acquire()
        if self.aborted:
            self._pool.release(block)
            return None
        return block

    # -- how a buffer meets the wire (the BMM's business here) ------------------
    def _emit(self, buf: Buffer, smode: SendMode, rmode: RecvMode):
        """Put the wire items of one packed buffer; nothing once aborted."""
        return self.bmm.emit(buf, rmode)

    def _close(self):
        """Put whatever ends the message (an open group, a terminator)."""
        return self.bmm.flush()


class IncomingMessage(_ExecutorMixin):
    """A message being unpacked.  Built directly (by
    ``Endpoint.begin_unpacking()``), it arrived on one regular channel
    through that protocol's BMM; :attr:`origin` identifies the packing node.
    """

    def __init__(self, endpoint: "Endpoint", announce: Announce,
                 hop_src: int) -> None:
        # A direct message can only be abandoned under an armed fault plan;
        # without one its waits stay plain, as cheap as they always were.
        self._arrived(endpoint, announce, hop_src, "in",
                      endpoint.channel.fabric.injector is not None)
        self.bmm = make_receiver_bmm(self)

    def _arrived(self, endpoint: "Endpoint", announce: Announce,
                 hop_src: int, kind: str, races: bool) -> None:
        """State of a message announced at a regular-channel endpoint."""
        self.endpoint = endpoint
        self.announce = announce
        self.origin = announce.origin
        self.hop_src = hop_src   # who transmitted the last hop (gateway or origin)
        self.msg_id = announce.msg_id
        self.tm = endpoint.tm
        self.accounting = self.tm.channel.fabric.accounting
        self._open(self.tm.channel.sim, f"{kind}:{self.msg_id}", races)

    def _open(self, sim, name: str, races: bool) -> None:
        """State every incoming message has, whatever its route."""
        self.aborted = False
        #: whether the waits below race the abort switch.
        self._races = races
        self._deferred: list[tuple[Buffer, RecvMode]] = []
        self._init_executor(sim, name)
        self._abort_ev = sim.event(name=f"{name}.abort")

    # -- the user-facing interface ----------------------------------------------
    def unpack(self, nbytes: Optional[int] = None,
               smode: SendMode = SendMode.CHEAPER,
               rmode: RecvMode = RecvMode.CHEAPER,
               into: Optional[Buffer] = None) -> tuple[Event, Buffer]:
        """Extract the next data block (``mad_unpack``).

        Returns ``(event, buffer)``: the buffer — ``into``, or a fresh
        ``nbytes`` one — receives the data, the event triggers when the
        block's delivery guarantee holds (immediately for EXPRESS, possibly
        deferred for CHEAPER).
        """
        if into is None:
            if nbytes is None:
                raise ValueError("unpack needs nbytes or a destination buffer")
            into = Buffer.alloc(nbytes, label="unpack")
        elif nbytes is not None and nbytes != len(into):
            raise ValueError("nbytes disagrees with destination buffer size")
        return self._submit(self._op_unpack(into, SendMode(smode),
                                            RecvMode(rmode))), into

    def end_unpacking(self) -> Event:
        """Finish the message; the event triggers once every block (including
        deferred CHEAPER/LATER data) has landed."""
        return self._submit(self._op_finalize(), last=True)

    def abort(self) -> None:
        """Abandon the rest of the message (fault recovery).

        The peer gave up (or the stream is corrupt beyond repair):
        remaining items will never arrive, so wake the executor out of any
        pending receive or pool acquire, and reclaim the buffers those
        operations hold.  Subsequent unpack events fail with an internal
        abort error (callers that abandon a message have stopped waiting
        on them).
        """
        if self.aborted:
            return
        self.aborted = True
        self._abort_ev.succeed()
        self._abandon()

    # -- the state machine --------------------------------------------------------
    def _op_unpack(self, buf: Buffer, smode: SendMode, rmode: RecvMode):
        validate_modes(smode, rmode)
        if smode == SendMode.LATER:
            self._deferred.append((buf, rmode))
            return
        yield from self._consume(buf, rmode)

    def _op_finalize(self):
        for buf, rmode in self._deferred:
            yield from self._consume(buf, rmode)
        self._deferred.clear()
        yield from self._close()

    def _post(self, landing) -> Event:
        """Post a receive for the next wire item on the last hop."""
        return self.tm.post_item(self.hop_src, landing, msg_id=self.msg_id)

    # -- the abort-aware waits ------------------------------------------------------
    def _wait(self, ev: Event, abandon=None, *held):
        """Wait for ``ev``.  With the race on, an abort that comes first
        raises, after ``abandon(ev, *held)`` has reclaimed what the wait
        would have delivered."""
        if not self._races:
            return (yield ev)
        idx, value = yield self.sim.any_of([ev, self._abort_ev])
        if idx == 1:
            if abandon is not None:
                abandon(ev, *held)
            raise _Aborted()
        return value

    def _wait_acquire(self, pool):
        """Pool acquire racing the abort switch; never strands a block."""
        return self._wait(pool.acquire(), pool.abandon_acquire)

    def _wait_post(self, post_ev: Event, block, pool):
        """Posted-receive wait racing the abort switch; never strands
        ``block``, the ``pool`` block the item lands in (None where it
        lands in user memory)."""
        return self._wait(post_ev, self._abandon_post, block, pool)

    def _abandon_post(self, post_ev: Event, block, pool) -> None:
        self.tm.abandon_item(
            self.hop_src, self.msg_id, post_ev,
            None if pool is None else lambda: pool.release(block))

    # -- how a buffer leaves the wire (the BMM's business here) -----------------
    def _consume(self, buf: Buffer, rmode: RecvMode):
        """Get the wire items of one packed buffer into ``buf``."""
        return self.bmm.consume(buf, rmode)

    def _close(self):
        """Get whatever ends the message, and check nothing is left over."""
        return self.bmm.finish()

    def _abandon(self) -> None:
        """Reclaim what is held *between* ops (the waits reclaim the rest)."""
        self.bmm.release_held()
