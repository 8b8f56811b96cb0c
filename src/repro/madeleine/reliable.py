"""End-to-end reliable transfers over a virtual channel.

Madeleine itself assumes reliable networks (§2.1.2) — the simulation's fault
layer (:mod:`repro.faults`) breaks that assumption, so this module adds the
classic go-back-N recovery loop *above* the pack/unpack interface:

* a transfer is cut into a fixed, route-independent fragment grid;
* each delivery **attempt** is one ordinary virtual-channel message: a
  CRC-protected header (transfer id, attempt number, resume point, grid
  geometry) followed by the not-yet-acknowledged fragments, each carrying
  its own CRC32 trailer;
* the receiver consumes fragments in order, advancing a cumulative
  acknowledgement counter; any gap, corruption, or stall abandons the rest
  of the attempt and reports the counter back in an ``ACK`` message;
* the sender waits for the full acknowledgement under an exponential-backoff
  retransmission timeout; on expiry (or a partial ACK) it aborts the attempt
  — pending fragment sends complete into the void — and starts the next one
  *from the acknowledged fragment*, re-resolving the route first.

Because every attempt re-resolves its route against the live
:class:`~repro.routing.RouteTable`, a link or gateway failure mid-message
simply moves the retransmission onto a surviving minimum-hop rail
(failover).  A transfer that cannot make progress ends in a **typed**
exception — :class:`~repro.sim.RetryExhausted` when the retry budget runs
out, :class:`~repro.routing.NoRouteError` when the endpoint pair is
partitioned — never a hang.
"""

from __future__ import annotations

import itertools
import struct
import zlib
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Union

import numpy as np

from ..memory import Buffer
from ..routing import NoRouteError
from ..sim import Event, GatewayCrashed, Queue, RetryExhausted
from .flags import RecvMode, SendMode
from .message import MessageStateError

if TYPE_CHECKING:  # pragma: no cover
    from .vchannel import VChannelEndpoint

__all__ = ["ReliableEndpoint", "RetryPolicy", "HEADER_BYTES"]

_MAGIC = 0x4D414452          # "MADR"
_KIND_DATA = 1
_KIND_ACK = 2
_HDR_FMT = "<IB3xIIIIIIII"   # magic, kind, src, dst, transfer, attempt,
                             # nfrags, total bytes, fragment size
_CRC_FMT = "<I"
HEADER_BYTES = struct.calcsize(_HDR_FMT) + struct.calcsize(_CRC_FMT)
FRAG_CRC_BYTES = struct.calcsize(_CRC_FMT)

_transfer_ids = itertools.count(1)


class _BadHeader(ValueError):
    """Header failed its magic/CRC check (corrupted in transit)."""


def _encode_header(kind: int, src: int, dst: int, transfer: int,
                   attempt: int, start: int, nfrags: int, total: int,
                   frag_size: int) -> bytes:
    # src/dst travel inside the CRC-protected header rather than being read
    # off the announce: a corrupted announce origin would poison the
    # receiver's reply address for the transfer's whole lifetime, and a
    # corrupted announce destination would let the wrong rank accept it.
    body = struct.pack(_HDR_FMT, _MAGIC, kind, src, dst, transfer, attempt,
                       start, nfrags, total, frag_size)
    return body + struct.pack(_CRC_FMT, zlib.crc32(body))


def _decode_header(raw: bytes) -> tuple[int, int, int, int, int, int, int,
                                        int, int]:
    body, (crc,) = raw[:-FRAG_CRC_BYTES], struct.unpack(
        _CRC_FMT, raw[-FRAG_CRC_BYTES:])
    if zlib.crc32(body) != crc:
        raise _BadHeader("header CRC mismatch")
    magic, kind, src, dst, transfer, attempt, start, nfrags, total, \
        frag_size = struct.unpack(_HDR_FMT, body)
    if magic != _MAGIC:
        raise _BadHeader(f"bad magic {magic:#x}")
    return kind, src, dst, transfer, attempt, start, nfrags, total, frag_size


def _frag_crc(frag: bytes, transfer: int, seq: int) -> int:
    """Fragment CRC bound to the fragment's *identity*, not just its bytes.

    Whole-fragment loss delivers stale staging memory, which can hold an
    internally consistent older fragment (its own trailer included) — a
    content-only CRC would accept it at the wrong grid position.  Folding
    (transfer, seq) into the checksum makes any stale or shifted fragment
    fail verification.
    """
    return zlib.crc32(struct.pack("<II", transfer, seq), zlib.crc32(frag))


def _disown(ev: Event) -> None:
    """Detach from an event we may never wait on: a late failure must not
    take the whole simulation down (see ``Simulator.step``)."""
    def _defuse(e: Event) -> None:
        if not e.ok:
            e.defuse()
    ev.add_callback(_defuse)


@dataclass(frozen=True)
class RetryPolicy:
    """Knobs of the go-back-N recovery loop (all times in µs)."""

    #: fragment-grid unit; route-independent so a retransmission on a
    #: different rail resumes exactly at the acknowledged fragment.
    frag_size: int = 8 << 10
    #: consecutive *zero-progress* attempts tolerated before
    #: :class:`RetryExhausted`.  An attempt that advanced the cumulative ack
    #: resets the count (and the RTO): go-back-N progress is monotone, so
    #: total attempts stay bounded by ``max_attempts × fragments`` while
    #: lossy-but-alive paths are never given up on mid-stream.
    max_attempts: int = 8
    #: initial retransmission timeout (covers one full attempt + ACK).
    rto: float = 50_000.0
    #: multiplicative backoff applied to the RTO after each failed attempt.
    backoff: float = 2.0
    #: RTO ceiling.
    rto_max: float = 400_000.0
    #: receiver-side per-fragment stall bound: how long an expected fragment
    #: may fail to arrive before the attempt is abandoned and acked short.
    stall_timeout: float = 10_000.0
    #: independent copies of each ACK message.  An ACK is a single tiny
    #: message, so its loss is what usually makes the sender miss real
    #: receiver progress; redundancy shrinks that chance geometrically.
    ack_copies: int = 2
    #: receiver-side re-ACK period.  Losing every copy of an abandon's ACK
    #: (or losing the attempt before its header, which yields no ACK at
    #: all) leaves the sender blind to real receiver progress; periodic
    #: re-ACKs of incomplete transfers repair that within one period.
    reack_interval: float = 20_000.0
    #: how long after the last fragment arrival an incomplete transfer
    #: keeps being re-ACKed.  Must exceed the sender's worst-case silence
    #: (``rto_max`` plus an attempt), and bounds the work done after a
    #: sender gives up, so an abandoned simulation still terminates.
    reack_ttl: float = 1_000_000.0

    def __post_init__(self) -> None:
        if self.frag_size < 1:
            raise ValueError("frag_size must be >= 1")
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if min(self.rto, self.rto_max, self.stall_timeout) <= 0:
            raise ValueError("timeouts must be > 0")
        if self.backoff < 1.0:
            raise ValueError("backoff must be >= 1.0")
        if self.ack_copies < 1:
            raise ValueError("ack_copies must be >= 1")
        if self.reack_interval <= 0 or self.reack_ttl <= 0:
            raise ValueError("re-ACK knobs must be > 0")
        if self.reack_ttl <= self.rto_max:
            raise ValueError("reack_ttl must exceed rto_max")


class _SendState:
    __slots__ = ("acked", "nfrags", "attempt_t0")

    def __init__(self, nfrags: int) -> None:
        self.acked = 0
        self.nfrags = nfrags
        #: when the attempt currently on the wire was emitted — the ACK that
        #: advances the window dates its latency from here.
        self.attempt_t0 = 0.0


class _RecvState:
    __slots__ = ("src", "acked", "nfrags", "total", "frag_size", "data",
                 "done", "last_activity")

    def __init__(self, src: int, nfrags: int, total: int,
                 frag_size: int, now: float) -> None:
        self.src = src
        self.acked = 0
        self.nfrags = nfrags
        self.total = total
        self.frag_size = frag_size
        self.data = bytearray(total)
        self.done = False
        #: when the last attempt for this transfer reached us — re-ACKs
        #: stop ``reack_ttl`` after the sender falls silent.
        self.last_activity = now


class ReliableEndpoint:
    """Reliable send/receive on top of one rank's virtual-channel endpoint.

    The instance *owns* the endpoint's incoming stream (its pump replaces
    direct ``begin_unpacking`` use): data attempts and ACKs are demultiplexed
    internally, completed transfers appear on :attr:`deliveries`.

    Usage, inside simulation processes::

        rel = ReliableEndpoint(vch.endpoint(rank))
        attempts = yield from rel.send(dst, payload)      # sender
        src, data, transfer = yield from rel.recv()       # receiver
    """

    def __init__(self, vep: "VChannelEndpoint",
                 policy: RetryPolicy | None = None) -> None:
        self.vep = vep
        self.rank = vep.rank
        self.sim = vep.vchannel.sim
        self.trace = vep.vchannel.world.fabric.trace
        self.policy = policy or RetryPolicy()
        # Pre-registered instruments: they appear (at zero) in snapshots
        # even before the first fault, so dashboards have a stable schema.
        m = vep.vchannel.world.telemetry.metrics
        lbl = dict(vchannel=vep.vchannel.name, rank=self.rank)
        self._m_bytes = m.counter("reliable.bytes_sent", **lbl)
        self._m_frags = m.counter("reliable.fragments_sent", **lbl)
        self._m_attempts = m.counter("reliable.attempts", **lbl)
        self._m_retransmits = m.counter("reliable.retransmits", **lbl)
        self._m_delivered = m.counter("reliable.deliveries", **lbl)
        self._m_acks = m.counter("reliable.acks_received", **lbl)
        self._h_ack_latency = m.histogram("reliable.ack_latency_us", **lbl)
        #: completed transfers, as ``(src, payload: bytes, transfer_id)``.
        self.deliveries: Queue = Queue(self.sim,
                                       name=f"rel@{self.rank}.deliveries")
        self._sends: dict[int, _SendState] = {}
        self._recvs: dict[int, _RecvState] = {}
        self._ack_waiters: dict[int, Event] = {}
        self.retransmits = 0
        self._reack_kick: Optional[Event] = None
        self.sim.process(self._pump(), name=f"rel:pump@{self.rank}")
        self.sim.process(self._reacker(), name=f"rel:reack@{self.rank}")

    # ------------------------------------------------------------------ sender
    def send(self, dst: int, payload: Union[bytes, bytearray, np.ndarray,
                                            Buffer]):
        """Generator: deliver ``payload`` to ``dst`` exactly once.

        Returns the number of attempts used.  Raises
        :class:`~repro.sim.RetryExhausted` when the retry budget runs out
        and :class:`~repro.routing.NoRouteError` when no retry is left and
        the pair is partitioned.
        """
        data = self._as_bytes(payload)
        if not data:
            # A zero-fragment attempt would have nothing to acknowledge, so
            # delivery could never be confirmed.
            raise ValueError("reliable send needs a non-empty payload")
        policy = self.policy
        nfrags = -(-len(data) // policy.frag_size)
        transfer = next(_transfer_ids)
        st = _SendState(nfrags)
        self._sends[transfer] = st
        rto = policy.rto
        route_error: NoRouteError | None = None
        attempt = 0
        stalls = 0          # consecutive attempts with zero ack progress
        while stalls < policy.max_attempts:
            attempt += 1
            self._m_attempts.inc()
            if attempt > 1:
                self.retransmits += 1
                self._m_retransmits.inc()
            try:
                msg = self.vep.begin_packing(dst)
            except NoRouteError as exc:
                # Partitioned *right now*; links may come back — burn one
                # zero-progress attempt waiting an RTO, re-raise once the
                # budget is gone.
                route_error = exc
                stalls += 1
                if stalls >= policy.max_attempts:
                    raise
                self.trace.emit(self.sim.now, "reliable", "no_route",
                                src=self.rank, dst=dst, transfer=transfer,
                                attempt=attempt)
                yield self.sim.timeout(rto, name=f"rel.wait_route.{transfer}")
                rto = min(rto * policy.backoff, policy.rto_max)
                continue
            route_error = None
            start = st.acked
            header = _encode_header(_KIND_DATA, self.rank, dst, transfer,
                                    attempt, start, nfrags, len(data),
                                    policy.frag_size)
            _disown(msg.pack(header, SendMode.CHEAPER, RecvMode.EXPRESS))
            for seq in range(start, nfrags):
                frag = data[seq * policy.frag_size:
                            (seq + 1) * policy.frag_size]
                _disown(msg.pack(
                    frag + struct.pack(_CRC_FMT,
                                       _frag_crc(frag, transfer, seq)),
                    SendMode.CHEAPER, RecvMode.EXPRESS))
                self._m_frags.inc()
                self._m_bytes.inc(len(frag))
            _disown(msg.end_packing())
            st.attempt_t0 = self.sim.now
            self.trace.emit(self.sim.now, "reliable", "attempt",
                            src=self.rank, dst=dst, transfer=transfer,
                            attempt=attempt, start=start, nfrags=nfrags)
            # Wait for the cumulative ACK to reach nfrags, bounded by the RTO.
            while st.acked < nfrags:
                ack_ev = self.sim.event(name=f"rel.ack.{transfer}")
                self._ack_waiters[transfer] = ack_ev
                idx, _v = yield self.sim.any_of([
                    ack_ev,
                    self.sim.timeout(rto, name=f"rel.rto.{transfer}")])
                self._ack_waiters.pop(transfer, None)
                if idx == 1:
                    break       # RTO expired: abandon and retransmit.
                if st.acked > start:
                    # A short ACK that advanced the window: the receiver
                    # finished (and maybe abandoned) this attempt — resend
                    # from the new mark.  ACKs with *no* progress are
                    # redundant copies of an abandon we already reacted to;
                    # breaking on them would kill the fresh attempt they
                    # race against, so keep waiting instead.
                    break
            if st.acked >= nfrags:
                # Fully acknowledged — anything still in flight from this
                # attempt is a duplicate the receiver may have already
                # walked away from.  Abort it so the executor cannot sit on
                # an unmatched send holding the connection lock hostage.
                msg.abort()
                del self._sends[transfer]
                self.trace.emit(self.sim.now, "reliable", "delivered",
                                src=self.rank, dst=dst, transfer=transfer,
                                attempts=attempt)
                return attempt
            msg.abort()
            self.trace.emit(self.sim.now, "reliable", "attempt_failed",
                            src=self.rank, dst=dst, transfer=transfer,
                            attempt=attempt, acked=st.acked)
            if st.acked > start:
                stalls = 0
                rto = policy.rto
            else:
                stalls += 1
                rto = min(rto * policy.backoff, policy.rto_max)
        del self._sends[transfer]
        raise RetryExhausted(
            f"transfer {transfer} to rank {dst} gave up after "
            f"{attempt} attempts — no ack progress in the last "
            f"{policy.max_attempts} ({st.acked}/{nfrags} fragments "
            f"acknowledged)",
            attempts=attempt, acked_fragments=st.acked,
            total_fragments=nfrags) from route_error

    # ---------------------------------------------------------------- receiver
    def recv(self):
        """Generator: the next completed transfer as
        ``(src, payload: bytes, transfer_id)``."""
        result = yield self.deliveries.get()
        return result

    # -------------------------------------------------------------------- pump
    def _pump(self):
        while True:
            try:
                incoming = yield self.vep.begin_unpacking()
            except GatewayCrashed:
                return
            self.sim.process(self._handle_safe(incoming),
                             name=f"rel:msg@{self.rank}")

    def _handle_safe(self, incoming):
        """Never let a handler process die with an unhandled exception — an
        unwaited failed process would take the whole simulation down."""
        try:
            yield from self._handle(incoming)
        except Exception as exc:
            self.trace.emit(self.sim.now, "reliable", "handler_error",
                            rank=self.rank, reason=str(exc))

    def _bounded(self, ev: Event):
        """Wait for ``ev`` under the stall bound; True iff it succeeded in
        time.  A failed event (mismatched or aborted stream) is as good as
        a stalled one, and one left behind is safe (late failures
        auto-defuse via the triggered ``any_of``)."""
        try:
            idx, _value = yield self.sim.any_of([
                ev, self.sim.timeout(self.policy.stall_timeout,
                                     name=f"rel.stall@{self.rank}")])
        except Exception:
            return False
        return idx == 0

    def _closes(self, incoming):
        """``end_unpacking`` under the stall bound; True iff the message
        closed cleanly (GTM terminator / deferred data) in time."""
        try:
            ev = incoming.end_unpacking()
        except MessageStateError:
            return False    # a fail-fast abort closed it under us
        return (yield from self._bounded(ev))

    def _handle(self, incoming):
        """Consume one incoming vchannel message (a DATA attempt or an ACK).

        Every failure mode — stall, corruption, mismatched stream — degrades
        to "abandon the attempt and ACK what we have"; the sender's timeout
        loop does the rest.
        """
        ev, hbuf = incoming.unpack(HEADER_BYTES, SendMode.SAFER,
                                   RecvMode.EXPRESS)
        if not (yield from self._bounded(ev)):
            self._abandon_incoming(incoming, where="header")
            return
        try:
            kind, src, dst, transfer, attempt, start, nfrags, total, \
                frag_size = _decode_header(hbuf.tobytes())
        except _BadHeader as exc:
            self._abandon_incoming(incoming, where="header", reason=str(exc))
            return
        if dst != self.rank:
            # A corrupted announce routed someone else's message here;
            # drop it — the real destination's silence triggers a resend.
            self._abandon_incoming(incoming, where="misrouted", src=src,
                                   dst=dst, transfer=transfer)
            return
        if kind == _KIND_ACK:
            st = self._sends.get(transfer)
            if st is not None:
                self._m_acks.inc()
                if start > st.acked:
                    # This ACK advanced the window: its latency is the time
                    # since the attempt it acknowledges was emitted.
                    self._h_ack_latency.observe(self.sim.now - st.attempt_t0)
                st.acked = max(st.acked, start)
                waiter = self._ack_waiters.pop(transfer, None)
                if waiter is not None and not waiter.triggered:
                    waiter.succeed(start)
            if not (yield from self._closes(incoming)):
                self._abandon_incoming(incoming)
            return
        yield from self._handle_data(incoming, src, transfer, attempt, start,
                                     nfrags, total, frag_size)

    def _abandon_incoming(self, incoming, **why) -> None:
        """Abort an incoming message we are walking away from, so its
        executor does not sit forever on receives that can no longer
        complete (holding static-pool landing blocks hostage); ``why``
        goes to the trace."""
        incoming.abort()
        if why:
            self.trace.emit(self.sim.now, "reliable", "attempt_abandoned",
                            rank=self.rank, **why)

    def _handle_data(self, incoming, src: int, transfer: int, attempt: int,
                     start: int, nfrags: int, total: int, frag_size: int):
        st = self._recvs.get(transfer)
        if st is None:
            st = _RecvState(src, nfrags, total, frag_size, self.sim.now)
            self._recvs[transfer] = st
        st.src = src            # refresh: src is CRC-protected per attempt
        st.last_activity = self.sim.now
        if (self._reack_kick is not None
                and not self._reack_kick.triggered):
            self._reack_kick.succeed()
        complete = True
        for seq in range(start, nfrags):
            size = min(frag_size, total - seq * frag_size)
            ev, fbuf = incoming.unpack(size + FRAG_CRC_BYTES, SendMode.SAFER,
                                       RecvMode.EXPRESS)
            if not (yield from self._bounded(ev)):
                complete = False
                break
            raw = fbuf.tobytes()
            frag, (crc,) = raw[:size], struct.unpack(
                _CRC_FMT, raw[size:])
            if _frag_crc(frag, transfer, seq) != crc:
                self.trace.emit(self.sim.now, "reliable", "frag_corrupt",
                                rank=self.rank, transfer=transfer, seq=seq)
                complete = False
                break
            if seq == st.acked:            # in-order: accept
                st.data[seq * frag_size:seq * frag_size + size] = frag
                st.acked += 1
            # seq < st.acked: duplicate from an earlier attempt — ignore.
        if complete:
            complete = yield from self._closes(incoming)
        if not complete:
            self._abandon_incoming(incoming, transfer=transfer,
                                   attempt=attempt, acked=st.acked)
        if st.acked >= st.nfrags and not st.done:
            st.done = True
            self._m_delivered.inc()
            yield self.deliveries.put((st.src, bytes(st.data), transfer))
        yield from self._send_ack(st.src, transfer, st.acked)

    def _send_ack(self, dst: int, transfer: int, acked: int):
        # Each copy is an independent message (own announce, own routing):
        # duplicates are harmless (cumulative acks are idempotent) and the
        # sender only needs one of them to observe receiver progress.
        for _copy in range(self.policy.ack_copies):
            try:
                msg = self.vep.begin_packing(dst)
            except NoRouteError:
                # No way back right now; the sender's RTO covers the silence.
                self.trace.emit(self.sim.now, "reliable", "ack_unroutable",
                                rank=self.rank, transfer=transfer, dst=dst)
                return
            header = _encode_header(_KIND_ACK, self.rank, dst, transfer, 0,
                                    acked, 0, 0, 0)
            _disown(msg.pack(header, SendMode.CHEAPER, RecvMode.EXPRESS))
            end_ev = msg.end_packing()
            _disown(end_ev)
            # Bound the flush: the ACK path can be faulty too.  On a stall
            # the message is aborted so its connection lock frees up.
            idx, _v = yield self.sim.any_of([
                end_ev, self.sim.timeout(self.policy.rto,
                                         name=f"rel.ack_flush.{transfer}")])
            if idx == 1:
                msg.abort()

    def _reacker(self):
        """Periodically re-ACK incomplete transfers with recent activity.

        Covers the two silent-loss cases: every copy of an abandon's ACK
        dying in transit, and attempts lost before their header (which
        produce no ACK at all).  Sleeps only while candidates exist — once
        every live transfer completes or goes quiet for ``reack_ttl`` the
        process parks on a kick event, so the simulation can drain.
        """
        policy = self.policy
        while True:
            live = [(t, st) for t, st in self._recvs.items()
                    if not st.done
                    and self.sim.now - st.last_activity < policy.reack_ttl]
            if not live:
                self._reack_kick = self.sim.event(
                    name=f"rel.reack_kick@{self.rank}")
                yield self._reack_kick
                self._reack_kick = None
                continue
            yield self.sim.timeout(policy.reack_interval,
                                   name=f"rel.reack@{self.rank}")
            for transfer, st in live:
                if (st.done or self.sim.now - st.last_activity
                        < policy.reack_interval):
                    continue    # saw an attempt this period: it was ACKed
                self.trace.emit(self.sim.now, "reliable", "reack",
                                rank=self.rank, transfer=transfer,
                                acked=st.acked)
                yield from self._send_ack(st.src, transfer, st.acked)

    @staticmethod
    def _as_bytes(payload) -> bytes:
        if isinstance(payload, Buffer):
            return payload.tobytes()
        if isinstance(payload, np.ndarray):
            return payload.tobytes()
        return bytes(payload)
