"""Transparent multirail striping (bandwidth aggregation over disjoint rails).

A virtual channel configured with a :class:`~repro.routing.StripePolicy`
splits each large paquet into stripes and pushes them concurrently down up
to K disjoint routes, each stripe flowing through its own per-rail GTM
message (and therefore its own gateway pipeline).  The pieces:

* sender — :class:`StripedOutgoing` wraps one
  :class:`~repro.madeleine.gtm.GTMOutgoing` per rail; every rail's
  announce carries the *striped* mode bit and its first body item is a
  16-byte :class:`~repro.madeleine.wire.StripeRecord` naming the
  reassembly group ``(origin, stripe_id)`` and the rail's index;
* gateways — oblivious: the stripe record is forwarded like any other
  item, exactly as the paper's gateways forward descriptors they never
  parse;
* receiver — the virtual-channel endpoint diverts striped announces,
  reads each rail's stripe record, and joins rails into a
  :class:`StripedIncoming`, which is what ``begin_unpacking`` hands the
  application.  Each ``unpack`` gathers the per-rail descriptors first
  (they encode the split), carves the destination buffer into disjoint
  views, and lets all rails deliver their fragments concurrently.

Like round-robin multirail, striping relaxes inter-message ordering
between one pair of ranks; *within* a message the unpack sequence mirrors
the pack sequence exactly, as everywhere in Madeleine.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from ..memory import Buffer
from ..sim import Event
from .bmm import UnpackMismatch
from .flags import RecvMode, SendMode
from .gtm import GTMIncoming, GTMOutgoing
from .message import IncomingMessage, _Aborted, _as_buffer
from .wire import StripeRecord

if TYPE_CHECKING:  # pragma: no cover
    from ..routing import StripeScheduler
    from .vchannel import VirtualChannel

__all__ = ["StripedOutgoing", "StripedIncoming"]


class StripedOutgoing:
    """Packs a message as K concurrent stripes, one per disjoint rail.

    Mirrors the :class:`~repro.madeleine.message.OutgoingMessage` surface
    without inheriting its state machine: each call fans out to the
    per-rail GTM messages, which run it, and completes when every rail has
    accepted its stripe.  No executor of its own: the per-rail executors
    already serialize each rail's stream, and the stripe plan is computed
    synchronously at ``pack`` time from the scheduler's live backlog.
    """

    def __init__(self, vchannel: "VirtualChannel", src: int, dst: int,
                 rails: list, scheduler: "StripeScheduler") -> None:
        self.vchannel = vchannel
        self.sim = vchannel.sim
        self.src = src
        self.dst = dst
        self.scheduler = scheduler
        self.stripe_id = next(vchannel.world.stripe_ids)
        self.aborted = False
        total = len(rails)
        #: the rails' routes, kept for the adaptive policy's health checks
        #: (which stripes ride a channel that just died).
        self.rail_routes = [list(route) for route in rails]
        self.rails = [
            GTMOutgoing(vchannel, src, dst, route=route,
                        stripe=StripeRecord(stripe_id=self.stripe_id,
                                            seq=i, total=total))
            for i, route in enumerate(rails)]
        self.msg_id = self.rails[0].msg_id
        vchannel._m_stripes_sent.inc(vchannel._m_slot, total)
        if vchannel.transport_policy is not None:
            # Fail-fast registry: a rail loss aborts this transfer at once.
            vchannel._live_stripes.add(self)

    def pack(self, data, smode: SendMode = SendMode.CHEAPER,
             rmode: RecvMode = RecvMode.CHEAPER) -> Event:
        """Split one paquet across the rails per the scheduler's plan.

        Every rail packs its (possibly empty) stripe so the per-rail
        descriptor streams stay in lockstep with the reassembly.
        """
        buf = _as_buffer(data)
        self.vchannel._maybe_restripe(self.scheduler)
        chunks = self.scheduler.plan(len(buf))
        events = []
        off = 0
        occupancy = self.vchannel._g_rail_occupancy
        for i, (rail, nbytes) in enumerate(zip(self.rails, chunks)):
            view = buf.view(off, off + nbytes)
            off += nbytes
            self.scheduler.note_sent(i, nbytes)
            slot = self.vchannel._rail_slot(i)
            occupancy.inc(slot, nbytes)
            ev = rail.pack(view, smode, rmode)
            ev.add_callback(
                lambda _e, i=i, n=nbytes, slot=slot:
                (self.scheduler.note_done(i, n), occupancy.dec(slot, n)))
            events.append(ev)
        return self.sim.all_of(events)

    def end_packing(self) -> Event:
        """Event triggering once every rail's stripe has fully flushed."""
        ev = self.sim.all_of([rail.end_packing() for rail in self.rails])
        if self.vchannel.transport_policy is not None:
            ev.add_callback(
                lambda _e: self.vchannel._live_stripes.discard(self))
        return ev

    def abort(self) -> None:
        """Stop emitting on every rail (fault recovery)."""
        self.aborted = True
        self.vchannel._live_stripes.discard(self)
        for rail in self.rails:
            rail.abort()


class StripedIncoming(IncomingMessage):
    """Reassembles one striped message from its per-rail GTM streams.

    Built by the receiving virtual-channel endpoint as soon as the first
    rail of a group identifies itself; the remaining rails attach as their
    stripe records arrive.  Unpack ops wait for the full rail set, gather
    one descriptor per rail (the stripe split), then consume all rails'
    fragments concurrently into disjoint views of the destination buffer —
    in-order reassembly with no reorder buffer and no extra copy beyond
    what each rail's protocol already requires.
    """

    def __init__(self, vchannel: "VirtualChannel", origin: int,
                 stripe_id: int, total: int) -> None:
        self.vchannel = vchannel
        self.origin = origin
        self.stripe_id = stripe_id
        self.total = total
        self.msg_id = stripe_id
        self._rails: list[Optional[GTMIncoming]] = [None] * total
        sim = vchannel.sim
        self._attach_evs = [
            sim.event(name=f"stripe-in:{stripe_id}.rail{i}")
            for i in range(total)]
        self._open(sim, f"stripe-in:{origin}:{stripe_id}", True)

    # -- rail arrival ---------------------------------------------------------
    def attach(self, record: StripeRecord, rail: GTMIncoming) -> None:
        """Join one rail to the group (its stripe record just decoded)."""
        if record.total != self.total:
            raise UnpackMismatch(
                f"stripe group {self.stripe_id} of origin {self.origin}: "
                f"rail announces {record.total} rails, group was opened "
                f"with {self.total}")
        if self._rails[record.seq] is not None:
            raise UnpackMismatch(
                f"stripe group {self.stripe_id} of origin {self.origin}: "
                f"duplicate rail seq {record.seq}")
        self._rails[record.seq] = rail
        if self.aborted:
            # The group was abandoned before this rail arrived; its attach
            # event was already force-triggered by abort(), so just reclaim
            # whatever the late rail holds.
            rail.abort()
            return
        self._attach_evs[record.seq].succeed(rail)

    @property
    def complete(self) -> bool:
        """True once every rail of the group has attached."""
        return all(rail is not None for rail in self._rails)

    def _abandon(self) -> None:
        """Abort every attached rail (late-attaching rails are aborted as
        they arrive) and unblock the reassembly executor.

        Rails that never attach would otherwise strand the executor in
        :meth:`_wait_rails` forever — a process leak holding the group's op
        queue and any deferred buffers.  Force-triggering the pending
        attach events wakes the executor, whose next :meth:`_wait_rails`
        raises and drains it; if no op is in flight, a poison close op is
        queued so the executor exits instead of waiting on ops that will
        never come.
        """
        for rail in self._rails:
            if rail is not None:
                rail.abort()
        for ev in self._attach_evs:
            if not ev.triggered:
                ev.succeed(None)
        # Nobody legitimately waits on an abandoned message's completion;
        # defuse so the executor's failure does not re-raise through the
        # kernel when the application has already walked away.
        self._finished.defuse()
        if not self._closed:
            self._submit(self._abort_close(), last=True)

    def _abort_close(self):
        raise _Aborted()
        yield  # pragma: no cover - makes this a generator

    # -- the gather ---------------------------------------------------------------
    def _wait_rails(self):
        pending = [ev for ev in self._attach_evs if not ev.triggered]
        if pending:
            yield self.sim.all_of(pending)
        if self.aborted:
            raise _Aborted()

    def _consume(self, buf: Buffer, rmode: RecvMode):
        yield from self._wait_rails()
        # One descriptor per rail first: together they encode how the
        # sender split this paquet.
        desc_events = [rail.read_descriptor() for rail in self._rails]
        yield self.sim.all_of(desc_events)
        lengths = []
        for ev in desc_events:
            if ev.value.is_terminator:
                raise UnpackMismatch(
                    "stripe ended (terminator) while data was expected — "
                    "unpack sequence does not mirror the pack sequence")
            lengths.append(ev.value.length)
        if sum(lengths) != len(buf):
            raise UnpackMismatch(
                f"stripes announce {sum(lengths)}B but unpack expects "
                f"{len(buf)}B")
        vch = self.vchannel
        vch._h_stripe_depth.observe(vch._m_slot,
                                    float(sum(1 for n in lengths if n)))
        events = []
        off = 0
        for rail, nbytes in zip(self._rails, lengths):
            events.append(rail.read_into(buf.view(off, off + nbytes)))
            off += nbytes
        yield self.sim.all_of(events)

    def _close(self):
        yield from self._wait_rails()
        # Every rail must close with its own terminator.
        yield self.sim.all_of([rail.end_unpacking()
                               for rail in self._rails])
        vch = self.vchannel
        vch._m_stripes_reassembled.inc(vch._m_slot, self.total)
