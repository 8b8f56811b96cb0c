"""Buffer Management Modules (§2.1.1): how one buffer goes on, or comes
off, one protocol's wire.

The packing state machine — flags, ``LATER``, ``SAFER``, abort — lives in
:mod:`repro.madeleine.message`; a BMM is the per-protocol body it calls
with one buffer at a time (``emit``/``flush`` when sending,
``consume``/``finish``/``release_held`` when receiving).  Two disciplines,
matching the two the paper describes:

* :class:`GatherDynamicBMM` / :class:`GatherDynamicBMMRx` — dynamic buffers:
  user memory is referenced directly (zero-copy).  On a scatter/gather NIC
  (BIP/Myrinet) consecutive small buffers share a wire fragment; with
  grouping off (TCP) each buffer is sent eagerly as its own fragment(s).
  :func:`grouping` is the decision, taken by the sender and replayed by the
  receiver.
* :class:`StaticChunkBMM` / :class:`StaticChunkBMMRx` — static buffers: user
  data is copied into protocol-provided chunks (mapped SCI segments, SBP
  kernel buffers) which are flushed when full or at an EXPRESS/end boundary.
  This is an *aggregation scheme*: consecutive small buffers share a chunk.

The two disciplines group buffers **differently**, which is precisely why
raw inter-device forwarding is impossible and the Generic TM exists (§2.2.2).

``emit``, ``flush``, ``consume`` and ``finish`` run on the message's
executor process, which ``yield from``s what they return: a generator
yielding simulation events (pool acquisitions, fragment completions), or
``()`` when the step is synchronous.

Endpoint copies performed by the static BMM are *accounted* but charged no
simulated time: the real SISCI module overlaps the copy into the mapped
segment with the PIO emission, so its cost is already inside the calibrated
per-network curve (see EXPERIMENTS.md).  Gateway copies, by contrast, are
serial and charged (see :mod:`repro.madeleine.gateway`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator, Optional

from ..memory import Buffer
from ..sim import Event
from .flags import RecvMode

if TYPE_CHECKING:  # pragma: no cover
    from .message import IncomingMessage, OutgoingMessage

__all__ = [
    "UnpackMismatch",
    "GatherDynamicBMM", "GatherDynamicBMMRx",
    "StaticChunkBMM", "StaticChunkBMMRx",
    "make_sender_bmm", "make_receiver_bmm",
    "split_fragments", "grouping",
]


class UnpackMismatch(RuntimeError):
    """The unpack sequence does not mirror the pack sequence."""


def split_fragments(length: int, mtu: int) -> list[tuple[int, int]]:
    """Deterministic (offset, size) split of a buffer into <= mtu pieces.

    Shared by senders and receivers so posted slots always line up with
    emitted fragments.
    """
    if mtu < 1:
        raise ValueError("mtu must be >= 1")
    return [(off, min(mtu, length - off)) for off in range(0, length, mtu)]


def grouping(open_bytes: int, length: int, mtu: int, express: bool,
             gather: bool = True) -> tuple[bool, bool, bool]:
    """The scatter/gather decision for one ``length``-byte buffer arriving
    at a group that holds ``open_bytes``: ``(close_first, solo,
    close_after)``.

    Consecutive small buffers are grouped — zero-copy, as a gather list —
    into one wire fragment of up to ``mtu`` bytes, saving the per-fragment
    fixed cost.  The open group closes before a buffer that would not fit,
    and after an EXPRESS one (its data must be on the wire when the
    matching unpack runs).  A buffer of at least one MTU bypasses grouping:
    it closes the group and goes *solo*, split into MTU-sized fragments.
    With ``gather`` off every buffer is solo and no group ever opens.
    """
    if not gather:
        return False, True, False
    if length >= mtu:
        return True, True, False
    return open_bytes + length > mtu, False, express


class _GatherState:
    """The open group, kept identically on both ends."""

    def __init__(self, msg) -> None:
        self.msg = msg
        protocol = msg.tm.protocol
        self.mtu = protocol.max_mtu
        self.gather = protocol.gather
        self._group: list[Buffer] = []
        self._open_bytes = 0

    def _plan(self, buffer: Buffer, rmode: RecvMode):
        return grouping(self._open_bytes, len(buffer), self.mtu,
                        rmode == RecvMode.EXPRESS, self.gather)

    def _join(self, buffer: Buffer) -> None:
        self._group.append(buffer)
        self._open_bytes += len(buffer)

    def _take_group(self) -> tuple[list[Buffer], int]:
        taken = self._group, self._open_bytes
        self._group, self._open_bytes = [], 0
        return taken


class GatherDynamicBMM(_GatherState):
    """Dynamic buffers, sent zero-copy: as gather lists per
    :func:`grouping`, or one by one where the NIC cannot gather."""

    msg: "OutgoingMessage"

    def emit(self, buffer: Buffer, rmode: RecvMode) -> tuple:
        msg = self.msg
        if not msg.aborted:
            close_first, solo, close_after = self._plan(buffer, rmode)
            if close_first:
                self.flush()
            if solo:
                for off, size in split_fragments(len(buffer), self.mtu):
                    msg._send(buffer.view(off, off + size), "frag")
            else:
                self._join(buffer)
                if close_after:
                    self.flush()
        return ()

    def flush(self) -> tuple:
        group, _size = self._take_group()
        if group and not self.msg.aborted:
            self.msg._send(group, "frag")
        return ()


class GatherDynamicBMMRx(_GatherState):
    """Receiver mirror of :class:`GatherDynamicBMM`: replays the same
    grouping decisions over the unpack sequence and posts scatter lists.

    Which completion events exist, and which of them ``finish`` waits on,
    is part of every recorded event count (tests/data/gtm_wire_grid.json):
    a gather receiver spends a zero-delay event wherever it has nothing to
    wait for — closing an empty group, a CHEAPER buffer joining one — and
    has ``finish`` wait on EXPRESS completions again; an eager one does
    neither.
    """

    msg: "IncomingMessage"

    def __init__(self, msg: "IncomingMessage") -> None:
        super().__init__(msg)
        #: completions ``finish`` waits on.
        self._landed: list[Event] = []

    def consume(self, buffer: Buffer, rmode: RecvMode) -> Generator:
        msg = self.msg
        express = rmode == RecvMode.EXPRESS
        close_first, solo, close_after = self._plan(buffer, rmode)
        if close_first:
            self._close_group()
        if solo:
            done = msg.sim.all_of(
                [self._post(buffer.view(off, off + size), size)
                 for off, size in split_fragments(len(buffer), self.mtu)])
            if self.gather or not express:
                self._landed.append(done)
        else:
            self._join(buffer)
            # CHEAPER: the group may still grow; completion is guaranteed
            # by finish, which closes it and waits for everything.
            done = self._close_group() if close_after else msg.sim.timeout(0)
        if express:
            yield from msg._wait(done)

    def _post(self, landing, expected: int) -> Event:
        """Post one slot; the event fails if the arriving fragment is not
        ``expected`` bytes long."""
        out = self.msg.sim.event()

        def verify(ev: Event) -> None:
            if not ev.ok:
                ev.defuse()
                out.fail(ev.value)
                return
            _meta, n = ev.value
            if n != expected:
                out.fail(UnpackMismatch(
                    f"expected a {expected}B fragment, received {n}B — "
                    f"unpack sequence does not mirror the pack sequence"))
            else:
                out.succeed(n)

        self.msg._post(landing).add_callback(verify)
        return out

    def _close_group(self) -> Event:
        group, size = self._take_group()
        if not group:
            return self.msg.sim.timeout(0)
        done = self._post(group, size)
        self._landed.append(done)
        return done

    def finish(self) -> Generator:
        if self.gather:
            self._close_group()
        if self._landed:
            yield from self.msg._wait(self.msg.sim.all_of(self._landed))
        self._landed.clear()

    def release_held(self) -> None:
        """Nothing to hand back: fragments land in user memory."""


class StaticChunkBMM:
    """Static buffers: copy into protocol chunks, flush on boundaries."""

    def __init__(self, msg: "OutgoingMessage") -> None:
        protocol = msg.tm.protocol
        if msg._pool is None:
            raise RuntimeError(
                f"protocol {protocol.name!r} has no static tx pool")
        self.msg = msg
        self.chunk_size = min(protocol.chunk_size, msg._pool.block_size)
        self._block: Optional[Buffer] = None
        self._offset = 0

    def emit(self, buffer: Buffer, rmode: RecvMode) -> Generator:
        msg = self.msg
        pos, end = 0, len(buffer)
        while pos < end and not msg.aborted:
            if self._block is None:
                self._block = yield from msg._stage()
                if self._block is None:
                    return
                self._offset = 0
            take = min(self.chunk_size - self._offset, end - pos)
            self._block.view(self._offset, self._offset + take).copy_from(
                buffer.view(pos, pos + take), msg.accounting, msg.sim.now,
                "bmm.chunk_in")
            self._offset += take
            pos += take
            if self._offset >= self.chunk_size:
                self.flush()
        if rmode == RecvMode.EXPRESS:
            # EXPRESS data must be on the wire when the matching unpack runs.
            self.flush()

    def flush(self) -> tuple:
        if self._block is not None:
            block, used = self._block, self._offset
            self._block, self._offset = None, 0
            if self.msg.aborted:
                # A post-abort send would never match and would wedge the
                # executor's final all_of; just recycle the block.
                self.msg._pool.release(block)
            else:
                self.msg._send(block.view(0, used), "chunk", block)
        return ()


class StaticChunkBMMRx:
    """Receiver mirror of :class:`StaticChunkBMM`.

    Consumes inbound chunks sequentially; does not need to predict the
    sender's flush points because each posted pool block accepts whatever
    chunk length actually arrives.  The one body that holds a landing
    block *between* ops: :meth:`release_held` hands it back on abort.
    """

    def __init__(self, msg: "IncomingMessage") -> None:
        self.pool = msg.tm.rx_pool
        if self.pool is None:
            raise RuntimeError(
                f"protocol {msg.tm.protocol.name!r} has no static rx pool")
        self.msg = msg
        self._block: Optional[Buffer] = None
        self._length = 0
        self._offset = 0

    def consume(self, buffer: Buffer, rmode: RecvMode) -> Generator:
        msg = self.msg
        pos, end = 0, len(buffer)
        while pos < end:
            if self._offset >= self._length:
                # Hand the drained block back *before* the waits: they
                # reclaim only what they themselves acquired.
                self.release_held()
                block = yield from msg._wait_acquire(self.pool)
                _meta, n = yield from msg._wait_post(msg._post(block), block,
                                                     self.pool)
                self._block, self._length = block, n
            take = min(self._length - self._offset, end - pos)
            buffer.view(pos, pos + take).copy_from(
                self._block.view(self._offset, self._offset + take),
                msg.accounting, msg.sim.now, "bmm.chunk_out")
            self._offset += take
            pos += take

    def finish(self) -> tuple:
        if self._offset < self._length:
            raise UnpackMismatch(
                f"{self._length - self._offset}B left in the final chunk: "
                f"unpack sequence does not mirror the pack sequence")
        self.release_held()
        return ()

    def release_held(self) -> None:
        if self._block is not None:
            self.pool.release(self._block)
            self._block = None
        self._length = self._offset = 0


def make_sender_bmm(msg: "OutgoingMessage"):
    if msg.tm.protocol.tx_static:
        return StaticChunkBMM(msg)
    return GatherDynamicBMM(msg)


def make_receiver_bmm(msg: "IncomingMessage"):
    # Grouping is a *sender-side* decision: mirror what the peer's sender
    # BMM does, which is determined by the (shared) protocol parameters.
    if msg.tm.protocol.tx_static:
        return StaticChunkBMMRx(msg)
    return GatherDynamicBMMRx(msg)
