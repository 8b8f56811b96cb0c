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

One send path.  The packing state machine is inherited from
:mod:`repro.madeleine.message`; this module supplies only how a buffer
meets the wire.  :func:`wire_items` is the plan: the ordered wire items of
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

from typing import TYPE_CHECKING, Optional

from ..memory import Buffer
from ..sim import Event
from .bmm import UnpackMismatch, split_fragments
from .flags import RecvMode, SendMode
from .message import (IncomingMessage, MessageStateError, OutgoingMessage,
                      _Aborted, _as_buffer)
from .wire import (DESC_BYTES, EAGER_HDR_BYTES, MODE_GTM, STRIPE_BYTES,
                   Announce, Descriptor, StripeRecord, decode_descriptor,
                   decode_eager, decode_stripe, eager_record_bytes,
                   encode_descriptor, encode_eager_table, encode_stripe)

if TYPE_CHECKING:  # pragma: no cover
    from .channel import Endpoint
    from .vchannel import VirtualChannel

__all__ = ["GTMOutgoing", "GTMIncoming", "wire_items"]


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


class GTMOutgoing(OutgoingMessage):
    """Packs a message onto the first hop of a multi-network route."""

    _SAFER = "gtm.safer"

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
        self._hops_left = len(route) - 1
        # One in-flight message per (first-hop) connection, as in Madeleine.
        self._open(wire_channel.tm(src), hop0.dst,
                   next(vchannel.world.gtm_msg_ids), "gtm-out",
                   wire_channel.endpoint(src).connection_lock(hop0.dst))
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
        yield from super()._announce_op()
        if self.stripe is not None:
            # The stripe record is the rail's first body item: it names the
            # reassembly group this rail belongs to.  Gateways forward it
            # like any other record.
            yield from self._put(
                "stripe", Buffer.wrap(encode_stripe(self.stripe)), None, 0)

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
        pieces = type(payload) is list
        block = None
        if size and (pieces or self._pool is not None):
            if self._pool is None:
                staged = Buffer.alloc(size, label="gtm.eager")
            else:
                block = yield from self._stage()
                if block is None:
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
        self._send(payload if header is None else
                   header if payload is None else [header, payload],
                   kind, block)
        return True

    # -- eager path (adaptive transport) -----------------------------------------
    def pack(self, data, smode: SendMode = SendMode.CHEAPER,
             rmode: RecvMode = RecvMode.CHEAPER) -> Event:
        """As inherited, except while the message is still an eager
        candidate: then the pack is buffered and accepted at once.

        The bytes are emitted as one wire record at :meth:`end_packing`; if
        the accumulated record would outgrow the eager budget, the message
        commits to the rendezvous path instead and the buffered packs are
        replayed through the regular ops, in order.
        """
        if self._eager_pending is None:
            return super().pack(data, smode, rmode)
        if self._closed:
            raise MessageStateError("message already finalized")
        smode, rmode = SendMode(smode), RecvMode(rmode)
        # Nothing is staged before end_packing (or the replay), on any
        # origin: SAFER is shadowed here, once.
        buf = self._admit(_as_buffer(data), smode, rmode, shadow=True)
        self._eager_pending.append((buf, smode, rmode))
        if (eager_record_bytes(len(b) for b, _s, _r in self._eager_pending)
                > self._eager_budget):
            self._switch_to_rendezvous()
        # Emission happens at end_packing (eager) or was just replayed onto
        # the executor (rendezvous).
        ev = self.sim.event(name=f"gtm-out:{self.msg_id}.eagerpack")
        ev.succeed()
        return ev

    def _switch_to_rendezvous(self) -> None:
        pending, self._eager_pending = self._eager_pending, None
        self._submit(self._announce_op())
        for buf, smode, rmode in pending:
            ev = self._submit(self._op_pack(buf, smode, rmode, admitted=True))
            # Nobody waits on replayed pack events; keep a failure (abort
            # during emission) from escaping through the kernel.
            ev.add_callback(lambda e: None if e.ok else e.defuse())

    # -- the wire plan -------------------------------------------------------------
    def _emit(self, buf: Buffer, smode: SendMode, rmode: RecvMode):
        """Put the wire items of one packed buffer, in plan order."""
        if self.aborted:
            return
        length = len(buf)
        desc = Buffer.wrap(encode_descriptor(
            Descriptor(length=length, smode=smode, rmode=rmode)))
        for kind, header_bytes, off, size in wire_items(length, self.mtu,
                                                        self.batched):
            if not (yield from self._put(
                    kind, desc if header_bytes else None,
                    buf.view(off, off + size) if size else None, size)):
                return

    def _close(self):
        """Put the terminator — or, if the message is still an eager
        candidate, all of it: the announce and one ``eagr`` item."""
        pending, self._eager_pending = self._eager_pending, None
        if pending is None:
            yield from self._put("desc", Buffer.wrap(encode_descriptor(
                Descriptor(length=0, terminator=True))), None, 0)
            return
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
        if (yield from self._put("eagr", None, pieces,
                                 sum(map(len, pieces)))):
            self.vchannel._m_eager_sends.inc(self.vchannel._m_slot)


class GTMIncoming(IncomingMessage):
    """Unpacks a forwarded message at its final receiver.

    The message arrives on a *regular* channel (the last gateway switches
    back to it, §2.2.2); the announce's GTM mode told the endpoint to build
    this class instead of :class:`~repro.madeleine.message.IncomingMessage`.
    """

    def __init__(self, endpoint: "Endpoint", announce: Announce,
                 hop_src: int) -> None:
        if announce.mode != MODE_GTM:
            raise ValueError("announce is not a GTM announce")
        # A forwarded message races the abort switch always.
        self._arrived(endpoint, announce, hop_src, "gtm-in", True)
        self.mtu = announce.mtu
        self.batched = announce.batched
        #: where items land: the rx pool of a static-buffer network, None
        #: where the network receives into user memory.
        self._pool = self.tm.rx_pool
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
        if (self.aborted or isinstance(ev.value, _Aborted)
                or self.tm.channel.fabric.injector is not None):
            # Nobody waits on the constructor-submitted fetch, so swallow
            # its failure when recovery code abandoned the message — or
            # will: under an armed fault plan a malformed record is the
            # wire's doing (a dropped one delivers stale staging memory),
            # the dead executor answers no unpack, and the reliable layer's
            # stall bound abandons the message.
            ev.defuse()
        # Otherwise (malformed record on a clean wire) the failure escapes
        # through the kernel — loud, like any other protocol mismatch.

    # -- the one wire primitive -----------------------------------------------------
    def _get(self, kind: str, header_len: int, into: Optional[Buffer],
             size: int, exact: bool = True):
        """Receive one wire item of ``kind``: ``header_len`` bytes of
        control record, returned raw (None without one), followed by
        ``size`` payload bytes delivered into ``into`` (None when ``size``
        is 0).  ``exact=False`` accepts a record of *up to* ``header_len``
        bytes.

        On a static-buffer network the item lands in an rx block and the
        payload is copied out; otherwise it lands in place.  Nothing stays
        held between items.
        """
        pool = self._pool
        if pool is not None:
            record = landing = yield from self._wait_acquire(pool)
        else:
            record = (Buffer.alloc(header_len, label="gtm." + kind)
                      if header_len else None)
            landing = (into if record is None else
                       record if into is None else [record, into])
        meta, n = yield from self._wait_post(self._post(landing), record,
                                             pool)
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

    def _abandon(self) -> None:
        """Nothing is held between ops (see :meth:`_get`)."""

    # -- the wire plan, read back ----------------------------------------------------
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

    def _consume(self, buf: Buffer, rmode: Optional[RecvMode] = None,
                 described: bool = False):
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

    def _recv(self, kind: str, nbytes: int, decode):
        """Get one bare control record of ``kind``, decoded."""
        return decode((yield from self._get(kind, nbytes, None, 0)))

    def _close(self):
        if self.eager:
            rec = self._eager_rec
            left = (len(rec.entries) if rec is not None else 0) - self._eager_idx
            if left:
                raise UnpackMismatch(
                    f"message carries {left} more buffers than were unpacked")
            return
        desc = yield from self._recv("desc", DESC_BYTES, decode_descriptor)
        if not desc.is_terminator:
            raise UnpackMismatch(
                f"message carries {desc.length}B more data than was unpacked")

    # -- striped-rail interface (driven by StripedIncoming) -------------------
    def read_stripe_record(self) -> Event:
        """Event carrying this rail's :class:`StripeRecord` — the first
        body item of a striped message."""
        return self._submit(self._recv("stripe", STRIPE_BYTES,
                                        decode_stripe))

    def read_descriptor(self) -> Event:
        """Event carrying the next :class:`Descriptor` on this rail."""
        return self._submit(self._recv("desc", DESC_BYTES,
                                        decode_descriptor))

    def read_into(self, view: Buffer) -> Event:
        """Consume this rail's stripe of one paquet into ``view`` (whose
        length the rail's descriptor announced)."""
        return self._submit(self._consume(view, described=True))
