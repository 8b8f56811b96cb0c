"""Buffer Management Modules (§2.1.1).

Two BMM families are modelled, matching the two disciplines the paper
describes:

* :class:`EagerDynamicBMM` / :class:`EagerDynamicBMMRx` — dynamic buffers:
  each packed user buffer is referenced directly (zero-copy) and transmitted
  eagerly as its own fragment(s).  Used by BIP/Myrinet and TCP.
* :class:`StaticChunkBMM` / :class:`StaticChunkBMMRx` — static buffers: user
  data is copied into protocol-provided chunks (mapped SCI segments, SBP
  kernel buffers) which are flushed when full or at an EXPRESS/end boundary.
  This is an *aggregation scheme*: consecutive small buffers share a chunk.

The two families group buffers **differently**, which is precisely why raw
inter-device forwarding is impossible and the Generic TM exists (§2.2.2).

BMM methods are generators executed in pack/unpack order by the message's
executor process (see :mod:`repro.madeleine.message`); they yield simulation
events (pool acquisitions, fragment completions).

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
from .flags import RecvMode, SendMode, validate_modes

if TYPE_CHECKING:  # pragma: no cover
    from .tm import TransmissionModule

__all__ = [
    "UnpackMismatch",
    "EagerDynamicBMM", "EagerDynamicBMMRx",
    "StaticChunkBMM", "StaticChunkBMMRx",
    "make_sender_bmm", "make_receiver_bmm",
    "split_fragments",
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


class _SenderBase:
    def __init__(self, tm: "TransmissionModule", dst: int,
                 msg_id: int = 0) -> None:
        self.tm = tm
        self.dst = dst
        self.msg_id = msg_id
        self.sim = tm.channel.sim
        self.accounting = tm.channel.fabric.accounting
        self.aborted = False
        self._send_events: list[Event] = []
        self._deferred: list[tuple[Buffer, SendMode, RecvMode]] = []

    def _send(self, payload, meta: dict) -> Event:
        return self.tm.send_item(self.dst, payload, meta=meta,
                                 msg_id=self.msg_id)

    def op_pack(self, buffer: Buffer, smode: SendMode,
                rmode: RecvMode) -> Generator:
        validate_modes(smode, rmode)
        if smode == SendMode.LATER:
            self._deferred.append((buffer, smode, rmode))
            return
        yield from self._emit(buffer, smode, rmode)

    def op_finalize(self) -> Generator:
        for buffer, _smode, rmode in self._deferred:
            if self.aborted:
                break
            yield from self._emit(buffer, SendMode.CHEAPER, rmode)
        self._deferred.clear()
        yield from self._flush_tail()
        if self._send_events:
            yield self.sim.all_of(self._send_events)
        self._send_events.clear()

    # subclass hooks ---------------------------------------------------------
    def _emit(self, buffer: Buffer, smode: SendMode,
              rmode: RecvMode) -> Generator:
        raise NotImplementedError

    def _flush_tail(self) -> Generator:
        return
        yield  # pragma: no cover


class EagerDynamicBMM(_SenderBase):
    """Dynamic buffers, sent eagerly and zero-copy (one fragment per piece)."""

    def _emit(self, buffer: Buffer, smode: SendMode,
              rmode: RecvMode) -> Generator:
        if smode == SendMode.SAFER:
            # The user may touch the buffer right after pack(): shadow it.
            shadow = Buffer.alloc(len(buffer), label="bmm.safer")
            shadow.copy_from(buffer, self.accounting, self.sim.now, "bmm.safer")
            buffer = shadow
        for off, size in split_fragments(len(buffer), self.tm.protocol.max_mtu):
            if self.aborted:
                return
            ev = self._send(buffer.view(off, off + size),
                            meta={"type": "frag"})
            self._send_events.append(ev)
        return
        yield  # pragma: no cover - purely synchronous emission


class EagerDynamicBMMRx:
    """Receiver mirror of :class:`EagerDynamicBMM`."""

    def __init__(self, tm: "TransmissionModule", src: int,
                 msg_id: int = 0) -> None:
        self.tm = tm
        self.src = src
        self.msg_id = msg_id
        self.sim = tm.channel.sim
        self._recv_events: list[Event] = []
        self._deferred: list[tuple[Buffer, RecvMode]] = []

    def op_unpack(self, buffer: Buffer, smode: SendMode,
                  rmode: RecvMode) -> Generator:
        validate_modes(smode, rmode)
        if smode == SendMode.LATER:
            self._deferred.append((buffer, rmode))
            return
        done = self._post(buffer)
        if rmode == RecvMode.EXPRESS:
            yield done
        else:
            self._recv_events.append(done)

    def op_finalize(self) -> Generator:
        for buffer, _rmode in self._deferred:
            self._recv_events.append(self._post(buffer))
        self._deferred.clear()
        if self._recv_events:
            yield self.sim.all_of(self._recv_events)
        self._recv_events.clear()

    def _post(self, buffer: Buffer) -> Event:
        pieces = split_fragments(len(buffer), self.tm.protocol.max_mtu)
        events = []
        for off, size in pieces:
            slot_ev = self.tm.post_item(self.src, buffer.view(off, off + size),
                                        msg_id=self.msg_id)
            events.append(_checked(self.sim, slot_ev, size))
        return self.sim.all_of(events) if events else self.sim.timeout(0)


def _checked(sim, slot_ev: Event, expected: int) -> Event:
    """Fail if the arriving fragment is shorter than the posted piece."""
    out = sim.event()

    def verify(ev: Event) -> None:
        if not ev.ok:
            ev.defuse()
            out.fail(ev.value)
            return
        _meta, n = ev.value
        if n != expected:
            out.fail(UnpackMismatch(
                f"expected a {expected}B fragment, received {n}B — unpack "
                f"sequence does not mirror the pack sequence"))
        else:
            out.succeed(n)

    slot_ev.add_callback(verify)
    return out


class StaticChunkBMM(_SenderBase):
    """Static buffers: copy into protocol chunks, flush on boundaries."""

    def __init__(self, tm: "TransmissionModule", dst: int,
                 msg_id: int = 0) -> None:
        super().__init__(tm, dst, msg_id)
        if tm.tx_pool is None:
            raise RuntimeError(
                f"protocol {tm.protocol.name!r} has no static tx pool")
        self.chunk_size = min(tm.protocol.chunk_size, tm.tx_pool.block_size)
        self._block: Optional[Buffer] = None
        self._offset = 0

    def _emit(self, buffer: Buffer, smode: SendMode,
              rmode: RecvMode) -> Generator:
        remaining = len(buffer)
        pos = 0
        while remaining > 0 and not self.aborted:
            if self._block is None:
                block = yield self.tm.tx_pool.acquire()
                if self.aborted:
                    # Aborted while waiting for the block: nothing staged in
                    # it yet, hand it straight back.
                    self.tm.tx_pool.release(block)
                    return
                self._block = block
                self._offset = 0
            space = self.chunk_size - self._offset
            take = min(space, remaining)
            dst_view = self._block.view(self._offset, self._offset + take)
            dst_view.copy_from(buffer.view(pos, pos + take), self.accounting,
                               self.sim.now, "bmm.chunk_in")
            self._offset += take
            pos += take
            remaining -= take
            if self._offset >= self.chunk_size:
                self._flush()
        if rmode == RecvMode.EXPRESS:
            # EXPRESS data must be on the wire when the matching unpack runs.
            self._flush()

    def _flush(self) -> None:
        if self._block is None or self._offset == 0:
            return
        block, used = self._block, self._offset
        self._block, self._offset = None, 0
        if self.aborted:
            # A post-abort send would never match and would wedge the
            # executor's final all_of; just recycle the block.
            self.tm.tx_pool.release(block)
            return
        ev = self._send(block.view(0, used), meta={"type": "chunk"})
        pool = self.tm.tx_pool
        ev.add_callback(lambda _e: pool.release(block))
        self._send_events.append(ev)

    def _flush_tail(self) -> Generator:
        self._flush()
        return
        yield  # pragma: no cover


class StaticChunkBMMRx:
    """Receiver mirror of :class:`StaticChunkBMM`.

    Consumes inbound chunks sequentially; does not need to predict the
    sender's flush points because each posted pool block accepts whatever
    chunk length actually arrives.
    """

    def __init__(self, tm: "TransmissionModule", src: int,
                 msg_id: int = 0) -> None:
        self.tm = tm
        self.src = src
        self.msg_id = msg_id
        self.sim = tm.channel.sim
        self.accounting = tm.channel.fabric.accounting
        if tm.rx_pool is None:
            raise RuntimeError(
                f"protocol {tm.protocol.name!r} has no static rx pool")
        self._block: Optional[Buffer] = None
        self._length = 0
        self._offset = 0
        self._deferred: list[tuple[Buffer, RecvMode]] = []

    def op_unpack(self, buffer: Buffer, smode: SendMode,
                  rmode: RecvMode) -> Generator:
        validate_modes(smode, rmode)
        if smode == SendMode.LATER:
            self._deferred.append((buffer, rmode))
            return
        yield from self._consume(buffer)

    def op_finalize(self) -> Generator:
        for buffer, _rmode in self._deferred:
            yield from self._consume(buffer)
        self._deferred.clear()
        if self._block is not None and self._offset < self._length:
            leftover = self._length - self._offset
            raise UnpackMismatch(
                f"{leftover}B left in the final chunk: unpack sequence does "
                f"not mirror the pack sequence")
        self._release()

    def _consume(self, buffer: Buffer) -> Generator:
        remaining = len(buffer)
        pos = 0
        while remaining > 0:
            if self._block is None or self._offset >= self._length:
                self._release()
                self._block = yield self.tm.rx_pool.acquire()
                ev = self.tm.post_item(self.src, self._block,
                                       msg_id=self.msg_id)
                _meta, n = yield ev
                self._length = n
                self._offset = 0
            take = min(self._length - self._offset, remaining)
            dst_view = buffer.view(pos, pos + take)
            dst_view.copy_from(
                self._block.view(self._offset, self._offset + take),
                self.accounting, self.sim.now, "bmm.chunk_out")
            self._offset += take
            pos += take
            remaining -= take

    def _release(self) -> None:
        if self._block is not None and (self._offset >= self._length):
            self.tm.rx_pool.release(self._block)
            self._block = None
            self._length = self._offset = 0


class GatherDynamicBMM(_SenderBase):
    """Dynamic buffers with scatter/gather aggregation (§2.1.1).

    Consecutive small buffers are grouped — zero-copy, as a gather list —
    into one wire fragment of up to ``max_mtu`` bytes, saving the
    per-fragment fixed cost.  Groups close when the next buffer would not
    fit, at an EXPRESS boundary, or at end_packing.  Buffers of at least
    one MTU bypass grouping and are sent as solo fragments.
    """

    def __init__(self, tm: "TransmissionModule", dst: int,
                 msg_id: int = 0) -> None:
        super().__init__(tm, dst, msg_id)
        self.mtu = tm.protocol.max_mtu
        self._group: list[Buffer] = []
        self._group_bytes = 0

    def _emit(self, buffer: Buffer, smode: SendMode,
              rmode: RecvMode) -> Generator:
        if self.aborted:
            return
        if smode == SendMode.SAFER:
            shadow = Buffer.alloc(len(buffer), label="bmm.safer")
            shadow.copy_from(buffer, self.accounting, self.sim.now, "bmm.safer")
            buffer = shadow
        if len(buffer) >= self.mtu:
            self._flush_group()
            for off, size in split_fragments(len(buffer), self.mtu):
                ev = self._send(buffer.view(off, off + size),
                                meta={"type": "frag"})
                self._send_events.append(ev)
        else:
            if self._group_bytes + len(buffer) > self.mtu:
                self._flush_group()
            self._group.append(buffer)
            self._group_bytes += len(buffer)
            if rmode == RecvMode.EXPRESS:
                self._flush_group()
        return
        yield  # pragma: no cover - purely synchronous emission

    def _flush_group(self) -> None:
        if not self._group:
            return
        group, self._group = self._group, []
        self._group_bytes = 0
        if self.aborted:
            return
        ev = self._send(group, meta={"type": "frag"})
        self._send_events.append(ev)

    def _flush_tail(self) -> Generator:
        self._flush_group()
        return
        yield  # pragma: no cover


class GatherDynamicBMMRx:
    """Receiver mirror of :class:`GatherDynamicBMM`: replays the same
    grouping decisions over the unpack sequence and posts scatter lists."""

    def __init__(self, tm: "TransmissionModule", src: int,
                 msg_id: int = 0) -> None:
        self.tm = tm
        self.src = src
        self.msg_id = msg_id
        self.sim = tm.channel.sim
        self.mtu = tm.protocol.max_mtu
        self._recv_events: list[Event] = []
        self._deferred: list[tuple[Buffer, RecvMode]] = []
        self._group: list[Buffer] = []
        self._group_bytes = 0

    def op_unpack(self, buffer: Buffer, smode: SendMode,
                  rmode: RecvMode) -> Generator:
        validate_modes(smode, rmode)
        if smode == SendMode.LATER:
            self._deferred.append((buffer, rmode))
            return
        ev = self._mirror(buffer, rmode)
        if rmode == RecvMode.EXPRESS:
            yield ev

    def op_finalize(self) -> Generator:
        for buffer, rmode in self._deferred:
            self._mirror(buffer, rmode)
        self._deferred.clear()
        self._flush_group()
        if self._recv_events:
            yield self.sim.all_of(self._recv_events)
        self._recv_events.clear()

    def _mirror(self, buffer: Buffer, rmode: RecvMode) -> Event:
        """Apply the sender's grouping rule; returns an event that triggers
        once this buffer's group (or solo fragments) have landed."""
        if len(buffer) >= self.mtu:
            self._flush_group()
            events = []
            for off, size in split_fragments(len(buffer), self.mtu):
                slot_ev = self.tm.post_item(self.src,
                                            buffer.view(off, off + size),
                                            msg_id=self.msg_id)
                events.append(_checked(self.sim, slot_ev, size))
            done = self.sim.all_of(events)
            self._recv_events.append(done)
            return done
        if self._group_bytes + len(buffer) > self.mtu:
            self._flush_group()
        self._group.append(buffer)
        self._group_bytes += len(buffer)
        if rmode == RecvMode.EXPRESS:
            return self._flush_group()
        # CHEAPER: the group may still grow; completion is guaranteed by
        # op_finalize, which flushes and waits for everything.
        return self.sim.timeout(0)

    def _flush_group(self) -> Event:
        if not self._group:
            return self.sim.timeout(0)
        group, self._group = self._group, []
        expected, self._group_bytes = self._group_bytes, 0
        slot_ev = self.tm.post_item(self.src, group, msg_id=self.msg_id)
        done = _checked(self.sim, slot_ev, expected)
        self._recv_events.append(done)
        return done


def make_sender_bmm(tm: "TransmissionModule", dst: int, msg_id: int = 0):
    if tm.protocol.tx_static:
        return StaticChunkBMM(tm, dst, msg_id)
    if tm.protocol.gather:
        return GatherDynamicBMM(tm, dst, msg_id)
    return EagerDynamicBMM(tm, dst, msg_id)


def make_receiver_bmm(tm: "TransmissionModule", src: int, msg_id: int = 0):
    # Grouping is a *sender-side* decision: mirror what the peer's sender
    # BMM does, which is determined by the (shared) protocol parameters.
    if tm.protocol.tx_static:
        return StaticChunkBMMRx(tm, src, msg_id)
    if tm.protocol.gather:
        return GatherDynamicBMMRx(tm, src, msg_id)
    return EagerDynamicBMMRx(tm, src, msg_id)
