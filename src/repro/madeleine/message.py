"""Incremental message construction — the ``mad_pack`` interface (§2.1.2).

A message is built piecewise:

* sender: ``begin_packing(dst)`` → ``pack(data, smode, rmode)``* →
  ``end_packing()``;
* receiver: ``begin_unpacking()`` → ``unpack(nbytes, smode, rmode)``* →
  ``end_unpacking()``,

where the unpack sequence must mirror the pack sequence exactly (sizes and
flags): Madeleine messages are **not self-described** on homogeneous paths,
for efficiency.  Violations raise :class:`~repro.madeleine.bmm.UnpackMismatch`.

All operations are executed in order by a per-message *executor* process, so
a blocking step (static-pool acquisition, an EXPRESS receive) delays the
following ones exactly as the real library's in-flight state machine would.
Each ``pack``/``unpack`` returns an :class:`~repro.sim.Event` the caller may
yield on; ``end_packing``/``end_unpacking`` return an event that triggers
once the whole message is flushed/delivered.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Optional, Union

import numpy as np

from ..memory import Buffer
from ..sim import Event, Queue
from .bmm import make_receiver_bmm, make_sender_bmm
from .flags import RecvMode, SendMode
from .wire import MODE_REGULAR, Announce

if TYPE_CHECKING:  # pragma: no cover
    from .channel import Endpoint

__all__ = ["OutgoingMessage", "IncomingMessage", "MessageStateError"]

_msg_ids = itertools.count(1)


class MessageStateError(RuntimeError):
    """Operation on a finished message, or overlapping messages on one
    connection."""


class _ExecutorMixin:
    """Runs queued generator ops strictly in order."""

    def _init_executor(self, sim, name: str) -> None:
        self.sim = sim
        self._ops: Queue = Queue(sim, name=f"{name}.ops")
        self._finished = sim.event(name=f"{name}.done")
        self._closed = False
        #: True once the executor process has returned (normally or on a
        #: failed op) — leak detectors key on this after an abort.
        self._exec_done = False
        sim.process(self._executor(), name=f"{name}.exec")

    def _submit(self, gen) -> Event:
        if self._closed:
            raise MessageStateError("message already finalized")
        done = self.sim.event()
        self._ops.put((gen, done, False))
        return done

    def _submit_final(self, gen) -> Event:
        if self._closed:
            raise MessageStateError("message already finalized")
        self._closed = True
        self._ops.put((gen, self._finished, True))
        return self._finished

    def _executor(self):
        while True:
            gen, done, last = yield self._ops.get()
            try:
                result = yield from gen
            except BaseException as exc:
                self._exec_done = True
                done.fail(exc)
                return
            # The op's return value rides on the completion event, so ops
            # that produce data (a decoded record, a received size) can be
            # driven from outside the executor.  Schedule-preserving: the
            # event count and trigger instants are unchanged.
            done.succeed(result)
            if last:
                self._exec_done = True
                return


def _as_buffer(data: Union[Buffer, bytes, bytearray, np.ndarray]) -> Buffer:
    return data if isinstance(data, Buffer) else Buffer.wrap(data)


def _landing(nbytes: Optional[int], into: Optional[Buffer],
             label: str) -> Buffer:
    """The destination of one ``unpack(nbytes, into=...)`` call: ``into``,
    or a fresh ``nbytes`` buffer when the caller supplied none."""
    if into is None:
        if nbytes is None:
            raise ValueError("unpack needs nbytes or a destination buffer")
        return Buffer.alloc(nbytes, label=label)
    if nbytes is not None and nbytes != len(into):
        raise ValueError("nbytes disagrees with destination buffer size")
    return into


class OutgoingMessage(_ExecutorMixin):
    """A message being packed on a regular (single-network) channel."""

    def __init__(self, endpoint: "Endpoint", dst: int) -> None:
        if dst == endpoint.rank:
            raise ValueError("cannot send a message to self")
        if dst not in endpoint.channel.members:
            raise ValueError(
                f"rank {dst} is not a member of channel {endpoint.channel.id!r}")
        self.endpoint = endpoint
        self.dst = dst
        self.msg_id = next(_msg_ids)
        tm = endpoint.tm
        self._init_executor(tm.channel.sim, f"out:{self.msg_id}")
        # One message at a time per connection: the whole message holds the
        # connection lock (concurrent messages to the same peer queue up).
        lock = endpoint.connection_lock(dst)
        self._finished.add_callback(lambda _ev: lock.release())
        self.bmm = make_sender_bmm(tm, dst, self.msg_id)
        announce = Announce(mode=MODE_REGULAR, origin=endpoint.rank,
                            final_dst=dst, mtu=0, msg_id=self.msg_id)
        self._submit(self._announce_op(tm, lock, announce))

    def _announce_op(self, tm, lock, announce):
        yield lock.acquire()
        yield tm.send_announce(self.dst, announce)

    def pack(self, data, smode: SendMode = SendMode.CHEAPER,
             rmode: RecvMode = RecvMode.CHEAPER) -> Event:
        """Append one data block to the message (``mad_pack``)."""
        buf = _as_buffer(data)
        return self._submit(self.bmm.op_pack(buf, SendMode(smode),
                                             RecvMode(rmode)))

    def end_packing(self) -> Event:
        """Flush everything (``mad_end_packing``); the event triggers when
        the whole message has been transmitted."""
        return self._submit_final(self.bmm.op_finalize())

    def abort(self) -> None:
        """Stop emitting and let pending sends complete into the void.

        Used by fault-recovery code when the receiver abandoned this
        message: remaining fragments are blackholed on the fabric so the
        executor drains naturally and releases the connection lock.
        """
        self.bmm.aborted = True
        tm = self.endpoint.tm
        tm.channel.fabric.blackhole_pending_sends(tm.channel.id, self.msg_id)


class IncomingMessage(_ExecutorMixin):
    """A message being unpacked at a regular channel endpoint.

    Created by ``Endpoint.begin_unpacking()``; :attr:`origin` identifies the
    packing node.
    """

    def __init__(self, endpoint: "Endpoint", announce: Announce,
                 hop_src: int) -> None:
        self.endpoint = endpoint
        self.announce = announce
        self.origin = announce.origin
        self.hop_src = hop_src   # who transmitted the last hop (gateway or origin)
        self.msg_id = announce.msg_id
        tm = endpoint.tm
        self._init_executor(tm.channel.sim, f"in:{self.msg_id}")
        self.bmm = make_receiver_bmm(tm, hop_src, self.msg_id)

    def unpack(self, nbytes: Optional[int] = None,
               smode: SendMode = SendMode.CHEAPER,
               rmode: RecvMode = RecvMode.CHEAPER,
               into: Optional[Buffer] = None) -> tuple[Event, Buffer]:
        """Extract the next data block (``mad_unpack``).

        Returns ``(event, buffer)``: the buffer receives the data, the event
        triggers when the block's delivery guarantee holds (immediately for
        EXPRESS, possibly deferred for CHEAPER).
        """
        into = _landing(nbytes, into, "unpack")
        ev = self._submit(self.bmm.op_unpack(into, SendMode(smode),
                                             RecvMode(rmode)))
        return ev, into

    def end_unpacking(self) -> Event:
        """Finish the message; the event triggers once every block (including
        deferred CHEAPER/LATER data) has landed."""
        return self._submit_final(self.bmm.op_finalize())
