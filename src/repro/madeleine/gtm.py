"""The Generic Transmission Module (§2.2.2, §2.3).

Messages that travel across at least two different networks bypass the
regular per-protocol BMMs: both the origin and the final receiver use the
GTM, which guarantees that the data is grouped identically on both ends
(no ungroup/regroup cost at gateways) and adds the self-description the
gateways need.

Wire protocol per message (§2.3):

1. announce carrying (mode=GTM, origin, final destination, MTU, msg id);
2. per packed buffer: a 16-byte descriptor record (length + emission and
   reception constraints), then the buffer fragmented into MTU-sized pieces;
3. an empty descriptor terminating the message.

One send path.  :func:`wire_items` is the plan: the ordered wire items of
one packed buffer, computed by the same code on both ends.  A send mode is
a plan — plain and header-batched differ in their first item, a striped
rail is the plain plan behind one ``stripe`` item, an eager message is a
single ``eagr`` item holding the entry table and every buffer.
:meth:`GTMOutgoing._put` and :meth:`GTMIncoming._get` execute one item
each and are the only code that touches the wire or a protocol block.

Zero-copy rule at the endpoints, stated once in each: on dynamic-buffer
protocols payloads are views of user memory; on static-buffer protocols
the origin stages each payload in a protocol block (accounted, overlapped —
see EXPERIMENTS.md) and the final receiver copies out of the landing block.
Header records are never staged: they ride as their own gather element.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Optional

from ..memory import Buffer
from ..sim import Event
from .bmm import UnpackMismatch, split_fragments
from .flags import RecvMode, SendMode, validate_modes
from .message import MessageStateError, _ExecutorMixin, _as_buffer, _landing
from .wire import (DESC_BYTES, EAGER_HDR_BYTES, MODE_GTM, STRIPE_BYTES,
                   Announce, Descriptor, StripeRecord, decode_descriptor,
                   decode_eager, decode_stripe, eager_record_bytes,
                   encode_descriptor, encode_eager_table, encode_stripe)

if TYPE_CHECKING:  # pragma: no cover
    from .channel import Endpoint
    from .tm import TransmissionModule
    from .vchannel import VirtualChannel

__all__ = ["GTMOutgoing", "GTMIncoming", "wire_items"]

_msg_ids = itertools.count(1 << 20)   # disjoint from regular message ids


def wire_items(length: int, mtu: int,
               batched: bool) -> list[tuple[str, int, int, int]]:
    """The ordered ``(kind, header_bytes, offset, size)`` wire items of one
    packed buffer of ``length`` bytes: payload ``[offset, offset + size)``
    travels behind ``header_bytes`` of descriptor record.

    The first item carries the descriptor: alone (``desc``), or, with
    header batching (§2.3), in the same record as the head of the buffer
    (``gtmh``) — shortened so the combined record still fits one MTU, since
    gateways stage whole records in MTU-sized blocks.  The rest of the
    buffer follows as ``frag`` items.
    """
    head = min(length, mtu - DESC_BYTES) if batched else 0
    items = [("gtmh" if batched else "desc", DESC_BYTES, 0, head)]
    items += [("frag", 0, head + off, size)
              for off, size in split_fragments(length - head, mtu)]
    return items


class _UnpackAborted(Exception):
    """Internal: the incoming message was abandoned by recovery code."""


class GTMOutgoing(_ExecutorMixin):
    """Packs a message onto the first hop of a multi-network route."""

    def __init__(self, vchannel: "VirtualChannel", src: int, dst: int,
                 route=None, stripe: Optional[StripeRecord] = None,
                 eager_threshold: int = 0) -> None:
        route = route if route is not None else vchannel.routes.route(src, dst)
        if len(route) < 2 and stripe is None:
            raise ValueError("GTM is only used for forwarded messages")
        self.vchannel = vchannel
        self.src = src
        self.dst = dst
        #: this message is one rail of a multirail stripe group.  Header
        #: batching is forced off on stripes: the reassembly gathers the
        #: per-rail descriptors *before* any payload so it can carve the
        #: destination buffer, which a piggybacked head would defeat.
        self.stripe = stripe
        self.batched = vchannel.header_batching and stripe is None
        # Static negotiation or the adaptive fragment tuner, per the
        # virtual channel's pipeline config; the announce carries the
        # result so receivers and gateways follow without renegotiating.
        self.mtu = vchannel.effective_mtu(route)
        hop0 = route[0]
        # First hop targets a gateway on forwarded routes: use the special
        # channel.  A *direct* rail (dual-NIC striping) has no gateway
        # ahead and stays on the regular channel.
        wire_channel = (vchannel.special_twin(hop0.channel)
                        if len(route) > 1 else hop0.channel)
        self.tm: "TransmissionModule" = wire_channel.tm(src)
        #: where payloads are staged: the tx pool of a static-buffer
        #: origin, None where the network sends from user memory.
        self._pool = self.tm.tx_pool
        self.hop_dst = hop0.dst
        self.msg_id = next(_msg_ids)
        self.accounting = self.tm.channel.fabric.accounting
        self.aborted = False
        self._send_events: list[Event] = []
        self._deferred: list[tuple[Buffer, RecvMode]] = []
        self._init_executor(self.tm.channel.sim, f"gtm-out:{self.msg_id}")
        # One in-flight message per (first-hop) connection, as in Madeleine.
        lock = wire_channel.endpoint(src).connection_lock(hop0.dst)
        self._lock = lock
        self._hops_left = len(route) - 1
        self._finished.add_callback(lambda _ev: lock.release())
        #: adaptive eager/rendezvous switch: while this is a list the
        #: message has not committed to a wire path — packs accumulate here
        #: and the announce is withheld until the size decision is made.
        self._eager_pending: Optional[list] = None
        if eager_threshold > 0 and stripe is None:
            self._eager_budget = min(eager_threshold, self.mtu)
            if self._eager_budget >= EAGER_HDR_BYTES:
                self._eager_pending = []
                return
        self._submit(self._announce_op())

    def _announce(self, eager: bool = False) -> Event:
        return self.tm.send_announce(self.hop_dst, Announce(
            mode=MODE_GTM, origin=self.src, final_dst=self.dst, mtu=self.mtu,
            msg_id=self.msg_id, hops_left=self._hops_left, eager=eager,
            batched=self.batched and not eager,
            striped=self.stripe is not None))

    def _announce_op(self):
        yield self._lock.acquire()
        yield self._announce()
        if self.stripe is not None:
            # The stripe record is the rail's first body item: it names the
            # reassembly group this rail belongs to.  Gateways forward it
            # like any other record.
            yield from self._put(
                "stripe", Buffer.wrap(encode_stripe(self.stripe)), None, 0)

    # -- public interface (mirrors OutgoingMessage) ----------------------------
    def pack(self, data, smode: SendMode = SendMode.CHEAPER,
             rmode: RecvMode = RecvMode.CHEAPER) -> Event:
        buf = _as_buffer(data)
        if self._eager_pending is not None:
            return self._pack_eager(buf, SendMode(smode), RecvMode(rmode))
        return self._submit(self._op_pack(buf, SendMode(smode), RecvMode(rmode)))

    def end_packing(self) -> Event:
        if self._eager_pending is not None:
            pending, self._eager_pending = self._eager_pending, None
            return self._submit_final(self._op_eager_finalize(pending))
        return self._submit_final(self._op_finalize())

    def abort(self) -> None:
        """Stop emitting; blackhole whatever is already queued on the fabric
        so the executor drains and releases the first-hop connection lock."""
        self.aborted = True
        self.tm.channel.fabric.blackhole_pending_sends(
            self.tm.channel.id, self.msg_id)

    # -- the one wire primitive ---------------------------------------------------
    def _put(self, kind: str, header: Optional[Buffer], payload, size: int):
        """Send one wire item: ``header`` (a control record, or None)
        followed by ``size`` payload bytes (``payload`` is None when
        ``size`` is 0).  Returns False, with nothing sent, once the message
        is aborted.

        ``payload`` is a view of user memory or — the eager record, the one
        payload that is always made contiguous — a list of pieces.  On a
        static-buffer origin it is staged in a tx block, which goes back to
        the pool when the item has left; headers are never staged.
        """
        if self.aborted:
            return False
        pool = self._pool
        pieces = type(payload) is list
        block = None
        if size and (pieces or pool is not None):
            if pool is None:
                staged = Buffer.alloc(size, label="gtm.eager")
            else:
                block = yield pool.acquire()
                if self.aborted:
                    # Aborted during the wait: a send submitted now could
                    # never match — recycle the block and stop.
                    pool.release(block)
                    return False
                staged = block.view(0, size)
            if pieces:
                off = 0
                for piece in payload:
                    n = len(piece)
                    if n:
                        staged.view(off, off + n).copy_from(
                            piece, self.accounting, self.sim.now, "gtm.eager")
                    off += n
            else:
                staged.copy_from(payload, self.accounting, self.sim.now,
                                 "gtm.stage")
            payload = staged
        ev = self.tm.send_item(
            self.hop_dst,
            payload if header is None else
            header if payload is None else [header, payload],
            meta={"type": kind}, msg_id=self.msg_id)
        if block is not None:
            ev.add_callback(lambda _e, pool=pool, block=block:
                            pool.release(block))
        self._send_events.append(ev)
        return True

    def _shadow(self, buf: Buffer) -> Buffer:
        """SAFER: the caller may overwrite ``buf`` as soon as its pack
        completes, so whatever is emitted later is emitted from a copy."""
        shadow = Buffer.alloc(len(buf), label="gtm.safer")
        shadow.copy_from(buf, self.accounting, self.sim.now, "gtm.safer")
        return shadow

    # -- eager path (adaptive transport) -----------------------------------------
    def _pack_eager(self, buf: Buffer, smode: SendMode, rmode: RecvMode) -> Event:
        """Buffer a pack while the message is still an eager candidate.

        The bytes are emitted as one wire record at :meth:`end_packing`; if
        the accumulated record would outgrow the eager budget, the message
        commits to the rendezvous path instead and the buffered packs are
        replayed through the regular ops, in order.
        """
        if self._closed:
            raise MessageStateError("message already finalized")
        validate_modes(smode, rmode)
        if smode == SendMode.SAFER:
            # Nothing is staged before end_packing (or the replay), on any
            # origin, and the pack is accepted at once: shadow here, once.
            buf = self._shadow(buf)
        self._eager_pending.append((buf, smode, rmode))
        if (eager_record_bytes(len(b) for b, _s, _r in self._eager_pending)
                > self._eager_budget):
            self._switch_to_rendezvous()
        # The pack is accepted at once: emission happens at end_packing
        # (eager) or was just replayed onto the executor (rendezvous).
        ev = self.sim.event(name=f"gtm-out:{self.msg_id}.eagerpack")
        ev.succeed()
        return ev

    def _switch_to_rendezvous(self) -> None:
        pending, self._eager_pending = self._eager_pending, None
        self._submit(self._announce_op())
        for buf, smode, rmode in pending:
            ev = self._submit(self._op_pack(buf, smode, rmode, shadowed=True))
            # Nobody waits on replayed pack events; keep a failure (abort
            # during emission) from escaping through the kernel.
            ev.add_callback(lambda e: None if e.ok else e.defuse())

    def _op_eager_finalize(self, pending):
        # The receiver consumes LATER unpacks at end_unpacking: order the
        # record the way the receiving side will read it.
        pending.sort(key=lambda entry: entry[1] == SendMode.LATER)
        yield self._lock.acquire()
        if self.aborted:
            return
        yield self._announce(eager=True)
        table = encode_eager_table((len(buf), smode, rmode)
                                   for buf, smode, rmode in pending)
        pieces = [Buffer.wrap(table)] + [buf for buf, _s, _r in pending]
        if not (yield from self._put("eagr", None, pieces,
                                     sum(map(len, pieces)))):
            return
        self.vchannel._m_eager_sends.inc()
        yield self.sim.all_of(self._send_events)
        self._send_events.clear()

    # -- ops ---------------------------------------------------------------------
    def _op_pack(self, buf: Buffer, smode: SendMode, rmode: RecvMode,
                 shadowed: bool = False):
        validate_modes(smode, rmode)
        if smode == SendMode.LATER:
            self._deferred.append((buf, rmode))
            return
        yield from self._emit(buf, smode, rmode, shadowed)

    def _emit(self, buf: Buffer, smode: SendMode, rmode: RecvMode,
              shadowed: bool = False):
        """Put the wire items of one packed buffer, in plan order."""
        if self.aborted:
            return
        length = len(buf)
        desc = Buffer.wrap(encode_descriptor(
            Descriptor(length=length, smode=smode, rmode=rmode)))
        if smode == SendMode.SAFER and not shadowed and self._pool is None:
            # (a static origin stages every payload before the pack
            # completes, which is the copy SAFER asks for)
            buf = self._shadow(buf)
        for kind, header_bytes, off, size in wire_items(length, self.mtu,
                                                        self.batched):
            if not (yield from self._put(
                    kind, desc if header_bytes else None,
                    buf.view(off, off + size) if size else None, size)):
                return

    def _op_finalize(self):
        for buf, rmode in self._deferred:
            yield from self._emit(buf, SendMode.CHEAPER, rmode)
        self._deferred.clear()
        yield from self._put("desc", Buffer.wrap(encode_descriptor(
            Descriptor(length=0, terminator=True))), None, 0)
        yield self.sim.all_of(self._send_events)
        self._send_events.clear()


class GTMIncoming(_ExecutorMixin):
    """Unpacks a forwarded message at its final receiver.

    The message arrives on a *regular* channel (the last gateway switches
    back to it, §2.2.2); the announce's GTM mode told the endpoint to build
    this class instead of :class:`~repro.madeleine.message.IncomingMessage`.
    """

    def __init__(self, endpoint: "Endpoint", announce: Announce,
                 hop_src: int) -> None:
        if announce.mode != MODE_GTM:
            raise ValueError("announce is not a GTM announce")
        self.endpoint = endpoint
        self.announce = announce
        self.origin = announce.origin
        self.hop_src = hop_src
        self.mtu = announce.mtu
        self.batched = announce.batched
        self.msg_id = announce.msg_id
        self.tm = endpoint.tm
        #: where items land: the rx pool of a static-buffer network, None
        #: where the network receives into user memory.
        self._pool = self.tm.rx_pool
        self.accounting = self.tm.channel.fabric.accounting
        self._deferred: list[Buffer] = []
        self.aborted = False
        self._init_executor(self.tm.channel.sim, f"gtm-in:{self.msg_id}")
        self._abort_ev = self.sim.event(name=f"gtm-in:{self.msg_id}.abort")
        self.eager = announce.eager
        self._eager_rec = None
        self._eager_idx = 0
        if self.eager:
            # The whole body is one wire record; fetch it ahead of any
            # unpack op (the executor runs ops strictly in order, so every
            # later op sees the decoded record).
            ev = self._submit(self._op_recv_eager())
            ev.add_callback(self._eager_fetched)

    def _eager_fetched(self, ev: Event) -> None:
        if ev.ok:
            return
        if self.aborted or isinstance(ev.value, _UnpackAborted):
            # Recovery code abandoned the message; nobody waits on the
            # constructor-submitted fetch, so swallow its failure.
            ev.defuse()
        # Otherwise (malformed record on a clean wire) the failure escapes
        # through the kernel — loud, like any other protocol mismatch.

    # -- public interface ----------------------------------------------------
    def unpack(self, nbytes: Optional[int] = None,
               smode: SendMode = SendMode.CHEAPER,
               rmode: RecvMode = RecvMode.CHEAPER,
               into: Optional[Buffer] = None) -> tuple[Event, Buffer]:
        into = _landing(nbytes, into, "gtm.unpack")
        ev = self._submit(self._op_unpack(into, SendMode(smode),
                                          RecvMode(rmode)))
        return ev, into

    def end_unpacking(self) -> Event:
        return self._submit_final(self._op_finalize())

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
        if not self._abort_ev.triggered:
            self._abort_ev.succeed()

    # -- the one wire primitive, and its abort-aware waits ------------------------
    def _get(self, kind: str, header_len: int, into: Optional[Buffer],
             size: int, exact: bool = True):
        """Receive one wire item of ``kind``: ``header_len`` bytes of
        control record, returned raw (None without one), followed by
        ``size`` payload bytes delivered into ``into`` (None when ``size``
        is 0).  ``exact=False`` accepts a record of *up to* ``header_len``
        bytes.

        On a static-buffer network the item lands in an rx block and the
        payload is copied out; otherwise it lands in place.
        """
        pool = self._pool
        if pool is not None:
            record = landing = yield from self._wait_acquire(pool)
        else:
            record = (Buffer.alloc(header_len, label="gtm." + kind)
                      if header_len else None)
            landing = (into if record is None else
                       record if into is None else [record, into])
        post = self.tm.post_item(self.hop_src, landing, msg_id=self.msg_id)
        meta, n = yield from self._wait_post(post, record, pool)
        try:
            if meta.get("type") != kind:
                raise UnpackMismatch(
                    f"expected a {kind!r} item, got {meta.get('type')!r} — "
                    f"unpack sequence does not mirror the pack sequence")
            if exact and n != header_len + size:
                raise UnpackMismatch(
                    f"expected {header_len + size}B {kind}, received {n}B")
            if pool is not None and size:
                into.copy_from(record.view(n - size, n), self.accounting,
                               self.sim.now, "gtm.deliver")
            return record.data[:n - size].tobytes() if header_len else None
        finally:
            if pool is not None:
                pool.release(record)

    def _wait_acquire(self, pool):
        """Pool acquire racing the abort switch; never strands a block."""
        acq = pool.acquire()
        idx, value = yield self.sim.any_of([acq, self._abort_ev])
        if idx == 1:
            if not pool.cancel_acquire(acq):
                acq.add_callback(
                    lambda ev, p=pool: p.release(ev.value) if ev.ok else None)
            raise _UnpackAborted()
        return value

    def _wait_post(self, post_ev: Event, block, pool):
        """Posted-receive wait racing the abort switch.

        On abort, an unmatched slot is withdrawn from the fabric and its
        landing block recycled at once; a matched one recycles when the
        in-flight transfer completes.
        """
        idx, value = yield self.sim.any_of([post_ev, self._abort_ev])
        if idx == 1:
            fabric = self.tm.channel.fabric
            tag = self.tm.body_tag(self.hop_src, self.msg_id)
            if fabric.cancel_recv(self.tm.nic, tag, post_ev):
                if pool is not None:
                    pool.release(block)
            elif pool is not None:
                post_ev.add_callback(
                    lambda ev, b=block, p=pool:
                    p.release(b) if ev.ok else None)
            raise _UnpackAborted()
        return value

    # -- ops --------------------------------------------------------------------
    def _op_unpack(self, buf: Buffer, smode: SendMode, rmode: RecvMode):
        validate_modes(smode, rmode)
        if smode == SendMode.LATER:
            self._deferred.append(buf)
            return
        yield from self._consume(buf)

    def _op_recv_eager(self):
        """Receive the single eager wire record (entry table + payloads)."""
        raw = yield from self._get("eagr", max(self.mtu, EAGER_HDR_BYTES),
                                   None, 0, exact=False)
        try:
            self._eager_rec = decode_eager(raw)
        except ValueError as exc:
            raise UnpackMismatch(f"malformed eager record: {exc}") from exc

    def _take_eager(self, buf: Buffer) -> None:
        """Deliver the next entry of the fetched eager record into ``buf``."""
        rec = self._eager_rec
        if rec is None or self._eager_idx >= len(rec.entries):
            raise UnpackMismatch(
                "eager record carries fewer buffers than were unpacked")
        entry = rec.entries[self._eager_idx]
        self._eager_idx += 1
        if len(entry.data) != len(buf):
            raise UnpackMismatch(
                f"eager entry carries {len(entry.data)}B but unpack "
                f"expects {len(buf)}B")
        if len(buf):
            buf.copy_from(Buffer.wrap(entry.data), self.accounting,
                          self.sim.now, "gtm.deliver")

    def _consume(self, buf: Buffer, described: bool = False):
        """Get the wire items of one packed buffer into ``buf``, in plan
        order — the plan the sender's :meth:`GTMOutgoing._emit` put.
        ``described``: the descriptor item was already read (striped
        rails, whose reassembly needs every rail's length first)."""
        if self.eager:
            self._take_eager(buf)
            return
        length = len(buf)
        plan = wire_items(length, self.mtu, self.batched)
        for kind, header_bytes, off, size in plan[1:] if described else plan:
            raw = yield from self._get(
                kind, header_bytes,
                buf.view(off, off + size) if size else None, size)
            if header_bytes:
                announced = decode_descriptor(raw).length
                if announced != length:
                    raise UnpackMismatch(
                        f"descriptor announces {announced}B but unpack "
                        f"expects {length}B")

    def _recv_desc(self):
        raw = yield from self._get("desc", DESC_BYTES, None, 0)
        return decode_descriptor(raw)

    def _recv_stripe(self):
        raw = yield from self._get("stripe", STRIPE_BYTES, None, 0)
        return decode_stripe(raw)

    # -- striped-rail interface (driven by StripedIncoming) -------------------
    def read_stripe_record(self) -> Event:
        """Event carrying this rail's :class:`StripeRecord` — the first
        body item of a striped message."""
        return self._submit(self._recv_stripe())

    def read_descriptor(self) -> Event:
        """Event carrying the next :class:`Descriptor` on this rail."""
        return self._submit(self._recv_desc())

    def read_into(self, view: Buffer) -> Event:
        """Consume this rail's stripe of one paquet into ``view`` (whose
        length the rail's descriptor announced)."""
        return self._submit(self._consume(view, described=True))

    def _op_finalize(self):
        for buf in self._deferred:
            yield from self._consume(buf)
        self._deferred.clear()
        if self.eager:
            rec = self._eager_rec
            left = (len(rec.entries) if rec is not None else 0) - self._eager_idx
            if left:
                raise UnpackMismatch(
                    f"message carries {left} more buffers than were unpacked")
            return
        desc = yield from self._recv_desc()
        if not desc.is_terminator:
            raise UnpackMismatch(
                f"message carries {desc.length}B more data than was unpacked")
