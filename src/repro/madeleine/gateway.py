"""Gateway forwarding engine (§2.2.2, Figure 4).

For every (gateway rank × incoming special channel) a :class:`ForwardingWorker`
runs two cooperating threads per message:

* the **receive thread** posts a staging buffer, receives the next item
  (descriptor or MTU-sized fragment), and hands the buffer over;
* the **send thread** retransmits each item toward the next hop and recycles
  the buffer.

Two pipeline disciplines are implemented
(:class:`~repro.hw.params.PipelineConfig`):

* **lockstep** (default — the paper's design): the threads share two buffers
  and exchange them at a synchronization point each step, paying the
  buffer-switch software overhead (≈ 40 µs measured in §3.3.1) *on the
  critical path*: steady-state period = max(recv, send) + overhead, exactly
  the Figure 5 model;
* **credit pipeline** (the N-deep generalization): a staging-buffer ring of
  ``depth`` blocks per direction with credit-based flow control — the
  receive thread advances only while it holds one of ``credits`` credits,
  the send thread returns the credit when the retransmit completes.  The
  switch overhead moves off the critical path whenever the send step is the
  longer one; one credit degenerates to store-and-forward per fragment.

Staging-buffer choice implements the zero-copy rules of §2.3:

* incoming network uses static receive buffers → land there (its rx pool);
* else if the outgoing network needs static send buffers → *borrow* a block
  from the outgoing TM's tx pool and receive straight into it;
* else use the worker's own recycled dynamic buffers.

Only when **both** networks require static buffers is a (serial, charged)
copy performed between the landing block and an outgoing block — the one
unavoidable copy the paper concedes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Optional

from ..hw.params import GatewayParams
from ..memory import Buffer, StaticBufferPool
from ..memory.pool import PoolExhausted
from ..routing import NoRouteError
from ..sim import Barrier, GatewayCrashed, Queue, Semaphore
from .wire import DESC_BYTES, MODE_GTM, Announce, decode_descriptor

if TYPE_CHECKING:  # pragma: no cover
    from .channel import RealChannel
    from .tm import TransmissionModule
    from .vchannel import VirtualChannel

__all__ = ["ForwardingWorker", "GatewayError", "TEST_HOOKS"]


@dataclass
class _TestHooks:
    """Deliberate-bug switches for the fuzz executor's self-test.

    ``leak_credits`` disables the credit return in the N-deep pipeline so
    a known-bad implementation exists for the credit-leak invariant to
    catch (tests/fuzz/test_executor.py).  Never set outside tests.
    """

    leak_credits: bool = False


TEST_HOOKS = _TestHooks()


class GatewayError(RuntimeError):
    """Protocol violation observed by a forwarding worker."""


class _Stalled(Exception):
    """Internal: a forwarding step exceeded ``GatewayParams.stall_timeout``."""


@dataclass
class _Item:
    meta: dict
    staging: Buffer
    pool: Optional[StaticBufferPool]
    nbytes: int
    seq: int
    last: bool


class ForwardingWorker:
    """Forwards GTM messages arriving on one special channel at one gateway."""

    _ids = itertools.count()

    def __init__(self, vchannel: "VirtualChannel", gw_rank: int,
                 in_channel: "RealChannel",
                 params: Optional[GatewayParams] = None) -> None:
        self.id = next(ForwardingWorker._ids)
        self.vchannel = vchannel
        self.gw_rank = gw_rank
        self.in_channel = in_channel
        self.params = params or GatewayParams()
        self.pipeline = self.params.pipeline
        self.sim = in_channel.sim
        self.node = in_channel.world.nodes[gw_rank]
        self.trace = in_channel.fabric.trace
        self.accounting = in_channel.fabric.accounting
        telemetry = in_channel.fabric.telemetry
        self.spans = telemetry.spans
        m = telemetry.metrics
        self._m_forwarded = m.counter("gateway.messages_forwarded",
                                      gw=gw_rank)
        self._m_abandoned = m.counter("gateway.messages_abandoned",
                                      gw=gw_rank)
        self._m_items = m.counter("gateway.items_forwarded", gw=gw_rank)
        #: staged items currently inside this direction's pipeline (one
        #: series per rank × incoming channel); its ``hwm`` is the pipeline
        #: occupancy the paper's double-buffer argument is about.
        self._g_occupancy = m.gauge("gateway.occupancy", gw=gw_rank,
                                    channel=in_channel.id)
        #: plain mirror of the occupancy gauge, read by the adaptive
        #: transport policy as its gateway-load signal (no telemetry query).
        self.staged_items = 0
        self._h_swap = m.histogram("gateway.swap_us", gw=gw_rank)
        #: receive-thread waits for a returned credit (the send side is the
        #: pipeline bottleneck at that instant).
        self._m_credit_stalls = m.counter("gateway.credit_stalls",
                                          gw=gw_rank, channel=in_channel.id)
        #: staging-ring blocks in use at each dynamic-staging acquire.
        self._h_ring = m.histogram("gateway.ring_depth",
                                   bounds=(1.0, 2.0, 4.0, 8.0, 16.0, 32.0),
                                   gw=gw_rank, channel=in_channel.id)
        #: per-direction staging-buffer ring for dynamic×dynamic routes,
        #: lazily sized to the first message's MTU (recreated if a later
        #: route negotiates a larger one).
        self._ring: Optional[StaticBufferPool] = None
        self._seq = itertools.count()
        self._ingress_next = 0.0   # earliest instant the regulator allows
        self.messages_forwarded = 0
        self.messages_abandoned = 0
        #: credits held by the receive thread right now (credit pipeline
        #: only).  Returns to 0 after every cleanly forwarded message —
        #: the fuzz executor's credit-leak invariant (docs/robustness.md).
        self.credits_outstanding = 0
        self._g_credits = m.gauge("gateway.credits_outstanding",
                                  gw=gw_rank, channel=in_channel.id)
        self._retired = False
        self._abort_ev = self.sim.event(name=f"gw{gw_rank}.abort")
        self.process = self.sim.process(
            self._main_loop(), name=f"gwR:{gw_rank}:{in_channel.id}")

    @property
    def retired(self) -> bool:
        return self._retired

    def retire(self) -> None:
        """Permanently stop this worker (its gateway node crashed).

        A fresh worker is spawned on restart; the old one exits at its next
        scheduling point and never touches the channel again.
        """
        if self._retired:
            return
        self._retired = True
        if self._ring is not None:
            # A receive thread blocked on the private staging ring would
            # otherwise never observe the crash (the fault injector only
            # fails the protocol pools).
            self._ring.fail_waiters(
                GatewayCrashed(f"gateway {self.gw_rank} retired"))
        if not self._abort_ev.triggered:
            self._abort_ev.succeed()

    def _yield_bounded(self, ev):
        """Wait for ``ev``, bounded by the stall timeout.

        Raises :class:`_Stalled` when the bound expires first; with no
        timeout configured this is a plain wait.  A failure of ``ev`` (node
        crash) propagates unchanged.
        """
        timeout = self.params.stall_timeout
        if timeout is None:
            value = yield ev
            return value
        idx, value = yield self.sim.any_of(
            [ev, self.sim.timeout(timeout, name=f"gw{self.gw_rank}.stall")])
        if idx == 1:
            raise _Stalled()
        return value

    # -- staging buffers ---------------------------------------------------------
    def _acquire_staging(self, in_tm: "TransmissionModule",
                         out_tm: "TransmissionModule", mtu: int):
        """Yields; returns (buffer, pool-or-None) per the zero-copy rules."""
        if in_tm.protocol.rx_static:
            pool = in_tm.rx_pool
        elif out_tm.protocol.tx_static:
            pool = out_tm.tx_pool
        else:
            ring = self._staging_ring(mtu)
            try:
                # Fast path: a free ring block costs no simulator event,
                # exactly like the recycled free list it replaces.
                block = ring.try_acquire()
            except PoolExhausted:
                block = yield from self._bounded_acquire(ring)
            self._h_ring.observe(float(ring.count - ring.available))
            return block, ring
        block = yield from self._bounded_acquire(pool)
        return block, pool

    def _staging_ring(self, mtu: int) -> StaticBufferPool:
        """The per-direction staging-buffer ring (``depth`` blocks)."""
        size = max(mtu, DESC_BYTES)
        ring = self._ring
        if ring is None or ring.block_size < size:
            # Outstanding blocks of a smaller predecessor keep their owner
            # reference through ``_Item.pool``, so their releases stay safe.
            self._ring = ring = StaticBufferPool(
                self.sim, self.pipeline.depth, size,
                name=f"gw{self.gw_rank}.{self.in_channel.id}.ring",
                telemetry=self.in_channel.fabric.telemetry)
        return ring

    def _bounded_acquire(self, pool: StaticBufferPool):
        """Pool acquire under the stall bound; never strands a block."""
        acq = pool.acquire()
        try:
            block = yield from self._yield_bounded(acq)
        except _Stalled:
            pool.abandon_acquire(acq)
            raise
        return block

    def _release_staging(self, buffer: Buffer,
                         pool: Optional[StaticBufferPool]) -> None:
        # Every staged item leaves the pipeline through here (or through the
        # static-copy hand-over in _transmit_item), so the occupancy gauge
        # stays balanced on all abandon paths too.
        self._g_occupancy.dec()
        self.staged_items -= 1
        if pool is not None:
            pool.release(buffer)

    # -- per-message dispatch ------------------------------------------------------
    def _main_loop(self):
        ep = self.in_channel.endpoint(self.gw_rank)
        sim = self.sim
        while True:
            get_ev = ep.incoming.get()
            idx, value = yield sim.any_of([get_ev, self._abort_ev])
            if idx == 1 or self._retired:
                # Retired mid-race: withdraw the pending get so it cannot
                # steal an announce from the replacement worker.
                if not get_ev.triggered:
                    ep.incoming.cancel_get(get_ev)
                return
            announce, hop_src = value
            try:
                if announce.mode != MODE_GTM:
                    raise GatewayError(
                        f"non-GTM announce on special channel "
                        f"{self.in_channel.id!r}")
                if announce.hops_left < 1:
                    raise GatewayError(
                        f"announce for {announce.final_dst} reached gateway "
                        f"{self.gw_rank} with no hops left")
                hop = self.vchannel.routes.next_hop(self.gw_rank,
                                                    announce.final_dst)
            except (GatewayError, NoRouteError) as exc:
                if self.in_channel.fabric.injector is not None:
                    # Under an armed fault plan a bad announce / vanished
                    # route is survivable: refuse the message, let the
                    # origin's retry find another rail.
                    self.trace.emit(sim.now, "gateway", "forward_refused",
                                    gw=self.gw_rank, msg=announce.msg_id,
                                    reason=str(exc))
                    self.messages_abandoned += 1
                    self._m_abandoned.inc()
                    continue
                raise
            final = hop.dst == announce.final_dst
            # Back to the regular channel once past the last gateway (§2.2.2).
            out_channel = (hop.channel if final
                           else self.vchannel.special_twin(hop.channel))
            out_tm = out_channel.tm(self.gw_rank)
            in_tm = self.in_channel.tm(self.gw_rank)
            # The forwarded message owns the outgoing connection for its
            # whole duration — another worker (or the gateway's own
            # application traffic) must not interleave fragments on it.
            out_lock = out_channel.endpoint(self.gw_rank).connection_lock(hop.dst)
            yield out_lock.acquire()
            if self._retired:
                out_lock.release()
                return
            ok = False
            fwd_span = None
            try:
                fwd = replace(announce, hops_left=announce.hops_left - 1)
                try:
                    yield from self._yield_bounded(
                        out_tm.send_announce(hop.dst, fwd))
                except _Stalled:
                    self.trace.emit(sim.now, "gateway", "message_abandoned",
                                    gw=self.gw_rank, msg=announce.msg_id,
                                    where="announce")
                    self.messages_abandoned += 1
                    self._m_abandoned.inc()
                    continue
                self.trace.emit(sim.now, "gateway", "message_start",
                                gw=self.gw_rank, msg=announce.msg_id,
                                origin=announce.origin, dst=announce.final_dst,
                                route=f"{in_tm.protocol.name}->{out_tm.protocol.name}")
                fwd_span = self.spans.begin(
                    "gateway", "forward", gw=self.gw_rank,
                    msg=announce.msg_id, dst=announce.final_dst,
                    route=f"{in_tm.protocol.name}->{out_tm.protocol.name}")
                # Lockstep is inherently a two-buffer scheme; other depths
                # run through the credit pipeline (one credit = store-and-
                # forward per fragment).
                if self.pipeline.is_lockstep:
                    ok = yield from self._pipeline_lockstep(
                        in_tm, out_tm, hop.dst, hop_src, announce)
                else:
                    ok = yield from self._pipeline_credit(
                        in_tm, out_tm, hop.dst, hop_src, announce)
            except GatewayCrashed:
                self._retired = True
                if fwd_span is not None:
                    self.spans.end(fwd_span, ok=False, crashed=True)
                return
            finally:
                out_lock.release()
            if fwd_span is not None:
                self.spans.end(fwd_span, ok=ok)
            if ok:
                self.messages_forwarded += 1
                self._m_forwarded.inc()
                self.trace.emit(sim.now, "gateway", "message_end",
                                gw=self.gw_rank, msg=announce.msg_id)
            else:
                self.messages_abandoned += 1
                self._m_abandoned.inc()
                self.trace.emit(sim.now, "gateway", "message_abandoned",
                                gw=self.gw_rank, msg=announce.msg_id,
                                where="pipeline")

    # -- one received item -----------------------------------------------------------
    def _receive_item(self, in_tm: "TransmissionModule",
                      out_tm: "TransmissionModule", hop_src: int,
                      announce: Announce):
        """Yields; returns the received :class:`_Item`.

        On a stall the staging buffer is reclaimed, not leaked
        (:meth:`~repro.madeleine.tm.TransmissionModule.abandon_item`).
        """
        staging, pool = yield from self._acquire_staging(
            in_tm, out_tm, announce.mtu)
        self._g_occupancy.inc()
        self.staged_items += 1
        # §4 future work: regulate the incoming flow — delay the next posted
        # receive so the accepted ingress rate stays under the limit.
        limit = self.params.ingress_limit
        if limit is not None and self._ingress_next > self.sim.now:
            yield self.sim.timeout(self._ingress_next - self.sim.now,
                                   name=f"gw{self.gw_rank}.regulate")
        seq = next(self._seq)
        t0 = self.sim.now
        post_ev = in_tm.post_item(hop_src, staging, capacity=len(staging),
                                  msg_id=announce.msg_id)
        try:
            meta, n = yield from self._yield_bounded(post_ev)
        except _Stalled:
            in_tm.abandon_item(
                hop_src, announce.msg_id, post_ev,
                lambda b=staging, p=pool: self._release_staging(b, p))
            raise
        if limit is not None:
            self._ingress_next = self.sim.now + max(0.0, n / limit
                                                    - (self.sim.now - t0))
        self.trace.emit(self.sim.now, "gateway", "recv",
                        gw=self.gw_rank, msg=announce.msg_id, seq=seq,
                        nbytes=n, start=t0, kind=meta.get("type"))
        last = False
        if meta.get("type") == "eagr":
            # An eager message's whole body is this single record; there is
            # no terminating descriptor to wait for.
            last = True
        elif meta.get("type") == "desc":
            try:
                last = decode_descriptor(
                    staging.view(0, DESC_BYTES).tobytes()).is_terminator
            except ValueError as exc:
                if self.in_channel.fabric.injector is None:
                    raise GatewayError(
                        f"malformed descriptor at gateway {self.gw_rank} "
                        f"(msg {announce.msg_id}): {exc}") from exc
                # Corrupted in transit: forward it anyway (end-to-end
                # integrity is the reliable layer's job) and keep treating
                # the stream as open; a lost terminator surfaces as a stall.
        return _Item(meta=meta, staging=staging, pool=pool, nbytes=n,
                     seq=seq, last=last)

    # -- one retransmitted item ---------------------------------------------------------
    def _transmit_item(self, item: _Item, in_tm: "TransmissionModule",
                       out_tm: "TransmissionModule", next_rank: int,
                       announce: Announce):
        """Yields; raises :class:`_Stalled` if the next hop stops taking
        fragments.  Buffers involved in a stalled send are recycled once
        the send completes — the abandon path blackholes it, so completion
        (and with it the reclaim) is guaranteed."""
        sim = self.sim
        both_static = in_tm.protocol.rx_static and out_tm.protocol.tx_static
        t0 = sim.now
        if both_static and item.nbytes > 0:
            # The unavoidable copy of §2.3: landing block -> send block,
            # serial and charged at host memcpy speed.
            try:
                out_block = yield from self._bounded_acquire(out_tm.tx_pool)
            except _Stalled:
                self._release_staging(item.staging, item.pool)
                raise
            yield from self.node.memcpy(item.nbytes)
            out_block.view(0, item.nbytes).copy_from(
                item.staging.view(0, item.nbytes), self.accounting, sim.now,
                "gateway.static_copy")
            self._release_staging(item.staging, item.pool)
            send_ev = out_tm.send_item(next_rank,
                                       out_block.view(0, item.nbytes),
                                       meta=dict(item.meta),
                                       msg_id=announce.msg_id)
            try:
                yield from self._yield_bounded(send_ev)
            except _Stalled:
                send_ev.add_callback(
                    lambda ev, b=out_block, p=out_tm.tx_pool:
                    p.release(b) if ev.ok else None)
                raise
            out_tm.tx_pool.release(out_block)
        else:
            send_ev = out_tm.send_item(next_rank,
                                       item.staging.view(0, item.nbytes),
                                       meta=dict(item.meta),
                                       nbytes=item.nbytes,
                                       msg_id=announce.msg_id)
            try:
                yield from self._yield_bounded(send_ev)
            except _Stalled:
                send_ev.add_callback(
                    lambda ev, b=item.staging, p=item.pool:
                    self._release_staging(b, p) if ev.ok else None)
                raise
            self._release_staging(item.staging, item.pool)
        self._m_items.inc()
        self.trace.emit(sim.now, "gateway", "send",
                        gw=self.gw_rank, msg=announce.msg_id, seq=item.seq,
                        nbytes=item.nbytes, start=t0, kind=item.meta.get("type"))

    def _abandon_transmit(self, out_tm: "TransmissionModule",
                          announce: Announce) -> None:
        """Give up on the outgoing side of a message: complete its pending
        (unmatched) fragment sends into the void so nothing dangles."""
        out_tm.channel.fabric.blackhole_pending_sends(out_tm.channel.id,
                                                      announce.msg_id)

    def _drain_handoff(self, handoff: Queue) -> None:
        """Recycle staged items a dead sender never consumed."""
        while True:
            got, item = handoff.try_get()
            if not got:
                return
            if item is not None:
                self._release_staging(item.staging, item.pool)

    # -- the paper's lockstep double-buffer pipeline (Figures 4/5) ------------------------
    def _pipeline_lockstep(self, in_tm, out_tm, next_rank, hop_src, announce):
        """Returns True if the whole message left, False if abandoned."""
        sim = self.sim
        barrier = Barrier(sim, 2, name=f"gw{self.gw_rank}.swap")
        handoff = Queue(sim, capacity=1, name=f"gw{self.gw_rank}.handoff")
        sender = sim.process(
            self._lockstep_sender(handoff, barrier, in_tm, out_tm,
                                  next_rank, announce),
            name=f"gwS:{self.gw_rank}:{self.in_channel.id}")
        ok = True
        while True:
            try:
                item = yield from self._receive_item(in_tm, out_tm, hop_src,
                                                     announce)
            except _Stalled:
                item = None   # poison: tell the sender to stop
                ok = False
            # Both threads meet, then exchange their buffers: the switch
            # overhead sits on the critical path (§3.3.1).  The sender
            # process itself is the second wait target so an abandoning
            # sender cannot strand us at the barrier.
            idx, _value = yield sim.any_of([barrier.wait(), sender])
            if idx == 1:
                # The sender died while we were receiving: recycle the item
                # it will never take.
                if item is not None:
                    self._release_staging(item.staging, item.pool)
                ok = False
                break
            if item is None:
                yield handoff.put(item)
                break
            yield sim.timeout(self.params.switch_overhead,
                              name=f"gw{self.gw_rank}.swap")
            self._h_swap.observe(self.params.switch_overhead)
            self.trace.emit(sim.now, "gateway", "swap",
                            gw=self.gw_rank, msg=announce.msg_id, seq=item.seq)
            yield handoff.put(item)
            if item.last:
                break
        # Drain: the terminator (or the abandon) must settle before the next
        # message.  All sender exits are guaranteed finite.
        sent_ok = yield sender
        self._drain_handoff(handoff)
        return ok and sent_ok

    def _lockstep_sender(self, handoff, barrier, in_tm, out_tm, next_rank,
                         announce):
        try:
            # Round 0: nothing to send yet, just meet the receive thread.
            yield barrier.wait()
            while True:
                item = yield handoff.get()
                if item is None:
                    return False
                yield from self._transmit_item(item, in_tm, out_tm,
                                               next_rank, announce)
                if item.last:
                    return True
                yield barrier.wait()
        except (_Stalled, GatewayCrashed):
            self._abandon_transmit(out_tm, announce)
            return False

    # -- the N-deep credit pipeline (generalizes the decoupled ablation) -------------------
    def _pipeline_credit(self, in_tm, out_tm, next_rank, hop_src, announce):
        """Returns True if the whole message left, False if abandoned.

        ``credits`` bounds the staged items in flight; the receive thread
        acquires a credit before posting a buffer, the send thread returns
        it when the retransmit completes, so the ring of ``depth`` staging
        blocks can never be oversubscribed.
        """
        sim = self.sim
        pipe = self.pipeline
        gate = Semaphore(sim, pipe.effective_credits,
                         name=f"gw{self.gw_rank}.credits")
        handoff = Queue(sim, capacity=max(1, pipe.depth - 1),
                        name=f"gw{self.gw_rank}.handoff")
        sender = sim.process(
            self._credit_sender(handoff, gate, in_tm, out_tm, next_rank,
                                announce),
            name=f"gwS:{self.gw_rank}:{self.in_channel.id}")
        ok = True
        while True:
            acq = gate.acquire()
            if not acq.triggered:
                self._m_credit_stalls.inc()
            idx, _value = yield sim.any_of([acq, sender])
            if idx == 1:
                ok = False
                break
            self.credits_outstanding += 1
            self._g_credits.inc()
            try:
                item = yield from self._receive_item(in_tm, out_tm, hop_src,
                                                     announce)
            except _Stalled:
                ok = False
                # Poison the queue; any_of because a stalled sender may
                # never drain it (its process event ends the wait instead).
                yield sim.any_of([handoff.put(None), sender])
                break
            yield sim.timeout(self.params.switch_overhead,
                              name=f"gw{self.gw_rank}.swap")
            self._h_swap.observe(self.params.switch_overhead)
            self.trace.emit(sim.now, "gateway", "swap",
                            gw=self.gw_rank, msg=announce.msg_id, seq=item.seq)
            yield handoff.put(item)
            if item.last:
                break
        sent_ok = yield sender
        self._drain_handoff(handoff)
        return ok and sent_ok

    def _credit_sender(self, handoff, gate, in_tm, out_tm, next_rank,
                       announce):
        try:
            while True:
                item = yield handoff.get()
                if item is None:
                    return False
                yield from self._transmit_item(item, in_tm, out_tm,
                                               next_rank, announce)
                if not TEST_HOOKS.leak_credits:
                    gate.release()
                    self.credits_outstanding -= 1
                    self._g_credits.dec()
                if item.last:
                    return True
        except (_Stalled, GatewayCrashed):
            self._abandon_transmit(out_tm, announce)
            return False
