"""NICs and the interconnect fabric.

The fabric implements **tag-matched rendezvous transfers**: a receiver posts
a buffer under a tag, a sender enqueues a fragment for that tag, and when the
two meet the payload streams as a single fluid flow through

    sender PCI  →  sender NIC link  →  receiver NIC link  →  receiver PCI

with the per-hop transaction kinds (DMA/PIO) given by the protocol.  The
rendezvous gives the same backpressure a real NIC's posted-receive discipline
gives — this is what makes the gateway double-buffer pipeline's timing
honest: the upstream sender cannot run ahead of the gateway's receive thread.

Each NIC serializes its transmissions (one outstanding fragment per NIC),
like the single DMA/PIO engine of the real hardware.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Optional, Sequence, Union

from ..memory import Buffer, CopyAccounting, StaticBufferPool
from ..sim import (Event, FluidNetwork, FluidPath, FluidResource, Queue,
                   Simulator, TraceRecorder)
from ..telemetry import NULL_REGISTRY, Declaration, MetricsRegistry
from .node import Node
from .params import ProtocolParams

__all__ = ["NIC", "Fabric", "FRAGMENT_HEADER_BYTES", "TransferError",
           "BufferSpec"]

#: wire overhead per fragment (routing/self-description mini-header, §2.3).
FRAGMENT_HEADER_BYTES = 16


class TransferError(RuntimeError):
    """Posted receive too small for the arriving fragment, or bad addressing."""


#: payload/landing specs: nothing, one buffer, or a gather/scatter list of
#: buffer views (the "single virtual piece of message" of §2.1.1).
BufferSpec = Union[None, Buffer, Sequence[Buffer]]


def _as_views(spec: BufferSpec) -> list[Buffer]:
    if spec is None:
        return []
    if isinstance(spec, Buffer):
        return [spec]
    return list(spec)


def _total_bytes(views: list[Buffer]) -> int:
    return sum(len(v) for v in views)


def _flip_byte(views: list[Buffer], off: int) -> None:
    """Corrupt one payload byte at logical offset ``off`` (fault injection)."""
    for v in views:
        if off < len(v):
            v.data[off] ^= 0xFF
            return
        off -= len(v)


def _wire_deliver(srcs: list[Buffer], dsts: list[Buffer], nbytes: int) -> None:
    """Move the payload across (gather from srcs, scatter into dsts).

    This is the transfer itself — the NIC's (scatter/gather) DMA or the
    CPU's PIO writes — so it is *not* a host memcpy and is not accounted.
    """
    si = di = 0
    soff = doff = 0
    remaining = nbytes
    while remaining > 0:
        s, d = srcs[si], dsts[di]
        take = min(len(s) - soff, len(d) - doff, remaining)
        d.data[doff:doff + take] = s.data[soff:soff + take]
        soff += take
        doff += take
        remaining -= take
        if soff >= len(s):
            si += 1
            soff = 0
        if doff >= len(d):
            di += 1
            doff = 0


@dataclass(slots=True)
class _SendRequest:
    dst: "NIC"
    tag: Any
    payload: list[Buffer]
    nbytes: int
    meta: dict[str, Any]
    done: Event


@dataclass(slots=True)
class _RecvSlot:
    buffer: list[Buffer]
    capacity: int
    done: Event
    #: fabric-internal void slot (abandoned send): complete instantly,
    #: deliver nowhere.
    blackhole: bool = False


@dataclass
class _MatchPoint:
    """Pending senders / posted receive slots for one (nic, tag)."""

    slots: list[_RecvSlot] = field(default_factory=list)
    senders: list[Event] = field(default_factory=list)  # waiting tx wakeups


#: the series every NIC declares, labelled by protocol and NIC name.  The
#: last three are the conservation-law counters (docs/robustness.md): every
#: fragment offered to a NIC must end up delivered, dropped by a fault
#: verdict, blackholed (abandoned message), or failed (capacity error) —
#: anything left over is still waiting for a receive.
WIRE = Declaration(("proto", "nic"), counters=(
    "wire.fragments", "wire.bytes", "wire.fragments_offered",
    "wire.fragments_blackholed", "wire.fragments_failed"))


class NIC:
    """One network adapter: a pair of link resources, optional static pools,
    and a serializing transmit engine."""

    def __init__(self, fabric: "Fabric", node: Node,
                 protocol: ProtocolParams, index: int = 0) -> None:
        self.fabric = fabric
        self.node = node
        self.protocol = protocol
        self.index = index
        sim = fabric.sim
        label = f"{node.name}.{protocol.name}{index}"
        self.name = label
        self.tx_link = FluidResource(f"link:{label}.tx", protocol.link_bandwidth)
        self.rx_link = FluidResource(f"link:{label}.rx", protocol.link_bandwidth)
        metrics = fabric.metrics
        self.tx_pool = (StaticBufferPool(sim, protocol.pool_blocks,
                                         protocol.max_mtu, f"{label}.txpool",
                                         metrics=metrics)
                        if protocol.tx_static else None)
        self.rx_pool = (StaticBufferPool(sim, protocol.pool_blocks,
                                         protocol.max_mtu, f"{label}.rxpool",
                                         metrics=metrics)
                        if protocol.rx_static else None)
        fabric.pools += [pool for pool in (self.tx_pool, self.rx_pool)
                         if pool is not None]
        wire = metrics.declared(WIRE)
        (self._m_fragments, self._m_bytes, self._m_offered,
         self._m_blackholed, self._m_failed) = wire.families
        #: this NIC's slot in the ``wire.*`` families.
        self._wire_slot = wire.declare((protocol.name, label))
        self._txq: Queue = Queue(sim, name=f"{label}.txq")
        #: destination NIC -> (flow name, fluid path, peak) of a fragment to
        #: it: all fixed by the two NICs, so built on the first fragment
        #: only, and every fragment's flow shares the one FluidPath.
        self._wire_to: dict["NIC", tuple[str, FluidPath, float]] = {}
        self._txov_wire_name = f"{label}.txov+wire"
        sim.process(self._tx_engine(), name=f"nic:{label}")
        node.nics[(protocol.name, index)] = self

    # -- send side ------------------------------------------------------------
    def send(self, dst: "NIC", tag: Any, payload: BufferSpec,
             meta: Optional[dict[str, Any]] = None,
             nbytes: Optional[int] = None) -> Event:
        """Enqueue one fragment; the returned event triggers when the last
        byte has left (and landed — rendezvous makes these simultaneous).

        ``payload`` may be a list of buffer views: the NIC gathers them into
        one wire fragment (scatter/gather capability, §2.1.1).
        """
        if dst.protocol.name != self.protocol.name:
            raise TransferError(
                f"cannot send from {self.name} to {dst.name}: different networks")
        if dst is self:
            raise TransferError(f"{self.name}: loopback sends are not modelled")
        views = _as_views(payload)
        size = _total_bytes(views) if (nbytes is None and views) else int(nbytes or 0)
        req = _SendRequest(dst=dst, tag=tag, payload=views, nbytes=size,
                           meta=dict(meta or {}), done=self.fabric.sim.event())
        self._m_offered.inc(self._wire_slot)
        # Initiate the rendezvous immediately; the engine transmits requests
        # in match-completion order.  Per-tag matching is FIFO, so in-order
        # delivery per connection is preserved, while an unmatched fragment
        # to one destination does not head-of-line-block traffic to other
        # destinations (real NICs keep per-connection descriptor queues).
        # put_nowait: the tx queue is unbounded and nothing waits on the
        # put, so the completion event would dispatch as a pure no-op.
        match_ev = self.fabric._match_sender(dst, tag)
        match_ev.add_callback(
            lambda ev, r=req: self._txq.put_nowait((r, ev.value)))
        return req.done

    def _tx_engine(self):
        sim = self.fabric.sim
        proto = self.protocol
        while True:
            # Hold no finished fragment while waiting: its payload and
            # landing buffers (pool blocks) would outlive ``World.close``.
            req = slot = None
            req, slot = yield self._txq.get()
            if slot.blackhole:
                # The send was given up on (message abort / peer crash): the
                # driver reaps the queued descriptor locally instead of
                # pushing it through the wire, so an aborted message's
                # backlog cannot starve the retry that follows it.
                self._m_blackholed.inc(self._wire_slot)
                req.done.succeed(req.nbytes)
                continue
            if slot.capacity < req.nbytes:
                # Capacity and size are both fixed at creation, so the
                # check needs nothing from the overhead window — but the
                # error still surfaces after it, as on the unbatched path.
                yield sim.timeout(proto.tx_overhead, name=f"{self.name}.txov")
                exc = TransferError(
                    f"{self.name} -> {req.dst.name} tag={req.tag!r}: fragment of "
                    f"{req.nbytes}B exceeds posted receive of {slot.capacity}B")
                if not slot.done.triggered:
                    slot.done.fail(exc)
                self._m_failed.inc(self._wire_slot)
                req.done.fail(exc)
                continue
            injector = self.fabric.injector
            if injector is None:
                # Hot path: nothing observes the instant between the send
                # overhead and the wire latency, so both waits batch into a
                # single (pooled) heap event with identical end time.
                yield sim.timeout(proto.tx_overhead + proto.latency,
                                  name=self._txov_wire_name, pooled=True)
            else:
                yield sim.timeout(proto.tx_overhead, name=f"{self.name}.txov")
            # Fault injection (armed plans only; the happy path sees None).
            verdict = (injector.fragment_verdict(self, req)
                       if injector is not None else None)
            if verdict is not None and verdict.delay_us > 0:
                yield sim.timeout(verdict.delay_us,
                                  name=f"{self.name}.fault_delay")
            if verdict is not None and verdict.drop:
                # The payload dies on the wire, but the rendezvous already
                # consumed the posted slot — so complete it *without writing
                # the buffer*.  The receiver observes a full-size fragment of
                # stale bytes: exactly the whole-fragment loss an integrity
                # layer must catch (announce/descriptor decoding, the
                # reliable layer's per-fragment CRC).  Completing the slot —
                # rather than letting it dangle — is what keeps staging
                # buffers and static-pool blocks reclaimable under sustained
                # loss.  Sender-side completion fires normally (as on a real
                # NIC, loss is silent for the transmitter).
                yield sim.timeout(proto.latency, name=f"{self.name}.wire")
                self.fabric.trace.emit(
                    sim.now, "fault", "fragment_dropped",
                    src=self.name, dst=req.dst.name, proto=proto.name,
                    nbytes=req.nbytes, tag=str(req.tag),
                    kind=req.meta.get("type"))
                req.done.succeed(req.nbytes)
                self.fabric._complete_recv(req.dst, slot, req)
                continue
            if injector is not None:
                # Hot path already served the latency in the batched wait.
                yield sim.timeout(proto.latency, name=f"{self.name}.wire")
            wire_bytes = req.nbytes + FRAGMENT_HEADER_BYTES
            name, path, peak = (self._wire_to.get(req.dst)
                                or self._wire(req.dst))
            t0 = sim.now
            flow_done = self.fabric.fnet.transfer(name, wire_bytes, path,
                                                  peak=peak)
            yield flow_done
            # The wire writes the payload into the posted buffer(s).  This
            # is the transfer itself, not a host memcpy: not accounted.
            if req.payload and slot.buffer and req.nbytes:
                _wire_deliver(req.payload, slot.buffer, req.nbytes)
                if verdict is not None and verdict.corrupt:
                    _flip_byte(slot.buffer,
                               verdict.corrupt_offset % req.nbytes)
                    self.fabric.trace.emit(
                        sim.now, "fault", "fragment_corrupted",
                        src=self.name, dst=req.dst.name,
                        nbytes=req.nbytes, tag=str(req.tag))
            trace = self.fabric.trace
            if trace.enabled:
                trace.emit(
                    sim.now, "xfer", "fragment",
                    src=self.name, dst=req.dst.name, proto=proto.name,
                    nbytes=req.nbytes, start=t0, tag=str(req.tag),
                    kind=req.meta.get("type"))
            self._m_fragments.inc(self._wire_slot)
            self._m_bytes.inc(self._wire_slot, req.nbytes)
            req.done.succeed(req.nbytes)
            self.fabric._complete_recv(req.dst, slot, req)

    def _wire(self, dst: "NIC") -> tuple[str, FluidPath, float]:
        """Flow name, fluid path and peak of a fragment to ``dst``."""
        proto = self.protocol
        path = (
            (self.node.pci, proto.tx_kind),
            (self.tx_link, "dma"),
            (dst.rx_link, "dma"),
            (dst.node.pci, proto.rx_kind),
        )
        wire = (f"{self.name}->{dst.name}", FluidPath(path),
                min(proto.host_peak, dst.protocol.host_peak))
        self._wire_to[dst] = wire
        return wire

    def __repr__(self) -> str:  # pragma: no cover
        return f"<NIC {self.name}>"


class Fabric:
    """Holds the matching tables and shared simulation services."""

    def __init__(self, sim: Simulator, fnet: FluidNetwork,
                 trace: Optional[TraceRecorder] = None,
                 accounting: Optional[CopyAccounting] = None,
                 metrics: MetricsRegistry = NULL_REGISTRY) -> None:
        self.sim = sim
        self.fnet = fnet
        # `is not None` matters: an empty TraceRecorder is falsy (__len__).
        self.trace = (trace if trace is not None
                      else TraceRecorder(enabled=False))
        self.accounting = accounting if accounting is not None else CopyAccounting()
        self.metrics = metrics
        #: (nic, tag) -> its match point, created on first use and
        #: deleted once a handoff leaves it with no slot and no sender (tags
        #: carry message ids, so kept entries would grow with every
        #: message); lookups that must not create one use ``get``.
        self._match: defaultdict[tuple[NIC, Any], _MatchPoint] = \
            defaultdict(_MatchPoint)
        #: every static pool built on this fabric (NIC tx/rx pools, gateway
        #: staging rings), for :meth:`repro.hw.World.close`.
        self.pools: list[StaticBufferPool] = []
        #: optional duck-typed fault hook with a ``fragment_verdict(nic, req)``
        #: method (see :mod:`repro.faults`).  ``None`` keeps the happy path
        #: untouched.
        self.injector = None

    # -- receive side ---------------------------------------------------------
    def post_recv(self, nic: NIC, tag: Any, buffer: BufferSpec = None,
                  capacity: Optional[int] = None) -> Event:
        """Post a receive under ``tag`` at ``nic``.

        ``buffer`` is where payload lands: ``None`` for metadata-only
        fragments, one buffer, or a scatter list of buffer views;
        ``capacity`` defaults to the total buffer length.  The event
        triggers with ``(meta, nbytes)`` after the fragment has fully arrived
        (including the protocol's receive overhead).
        """
        views = _as_views(buffer)
        cap = capacity if capacity is not None else _total_bytes(views)
        slot = _RecvSlot(buffer=views, capacity=cap, done=self.sim.event())
        key = (nic, tag)
        point = self._match[key]
        # Handoff is synchronous so the slots/senders lists never hold both
        # kinds at once (no lost-wakeup or double-grab races).
        if point.senders:
            point.senders.pop(0).succeed(slot)
            if not point.senders:
                del self._match[key]
        else:
            point.slots.append(slot)
        return slot.done

    def cancel_recv(self, nic: NIC, tag: Any, done_ev: Event) -> bool:
        """Withdraw a posted receive that no sender has matched yet.

        Returns ``True`` if the slot was still queued — the caller may
        recycle its buffer immediately.  ``False`` means a sender already
        claimed it: the transfer (or its completion) is in flight and will
        trigger ``done_ev``, so the caller must wait for that before
        reusing the memory.
        """
        key = (nic, tag)
        point = self._match.get(key)
        if point is None:
            return False
        for i, slot in enumerate(point.slots):
            if slot.done is done_ev:
                del point.slots[i]
                if not point.slots:
                    del self._match[key]
                return True
        return False

    # -- matching internals ---------------------------------------------------
    def _match_sender(self, dst: NIC, tag: Any) -> Event:
        """Event triggering with the matched :class:`_RecvSlot`."""
        ev = self.sim.event()
        key = (dst, tag)
        point = self._match[key]
        if point.slots:
            ev.succeed(point.slots.pop(0))
            if not point.slots:
                del self._match[key]
        else:
            point.senders.append(ev)
        return ev

    def _complete_recv(self, dst: NIC, slot: _RecvSlot, req: _SendRequest) -> None:
        """Deliver the fragment to the receiver after its rx overhead."""
        if self.injector is None:
            # Hot path: nothing can force-fail the slot without an armed
            # fault plan, so deliver directly at now + rx_overhead (one heap
            # event) instead of timeout-then-succeed (two).
            slot.done.succeed_later(dst.protocol.rx_overhead,
                                    (req.meta, req.nbytes))
            return
        delay = self.sim.timeout(dst.protocol.rx_overhead,
                                 name=f"{dst.name}.rxov")

        def finish(_ev: Event) -> None:
            # The slot may have been force-failed (node crash) while the
            # fragment was in flight.
            if not slot.done.triggered:
                slot.done.succeed((req.meta, req.nbytes))

        delay.add_callback(finish)

    def pending_sends(self, nic: NIC, tag: Any) -> int:
        point = self._match.get((nic, tag))
        return len(point.senders) if point else 0

    def pending_send_count(self) -> int:
        """Fragments offered but never matched by a posted receive.

        The residual term of the fragment conservation law: after the heap
        drains, ``offered == delivered + dropped + blackholed + failed +
        pending_send_count()`` holds exactly (see
        :mod:`repro.telemetry.conservation`).
        """
        return sum(len(point.senders) for point in self._match.values())

    # -- fault recovery ---------------------------------------------------------
    def _blackhole_slot(self) -> _RecvSlot:
        """A receive slot that absorbs one fragment into the void."""
        return _RecvSlot(buffer=[], capacity=float("inf"),
                         done=self.sim.event(), blackhole=True)

    def blackhole_pending_sends(self, channel_id: Any,
                                msg_id: Optional[int] = None) -> int:
        """Complete unmatched sends on ``channel_id`` into the void.

        Used when a message is aborted (``msg_id`` given: only that
        message's body fragments) or a link/peer is given up on (``None``:
        every pending send on the channel, announces included).  The
        senders' completion events fire normally, so emission pipelines
        drain and release their locks; no data lands anywhere.  Returns the
        number of sends released.
        """
        n = 0
        for key, point in list(self._match.items()):
            tag = key[1]
            if not (isinstance(tag, tuple) and len(tag) >= 2
                    and tag[1] == channel_id):
                continue
            if msg_id is not None and not (tag[0] == "body"
                                           and tag[-1] == msg_id):
                continue
            if point.senders:
                while point.senders:
                    point.senders.pop(0).succeed(self._blackhole_slot())
                    n += 1
                del self._match[key]
        return n

    def crash_node(self, node: Node, exc: BaseException) -> int:
        """Tear down all rendezvous state of a crashed node.

        Every receive its NICs have posted fails with ``exc`` (the node's
        blocked processes observe the crash); every sender waiting to
        transmit *to* it completes into the void.  Returns the number of
        failed receive slots.
        """
        nics = set(node.nics.values())
        n = 0
        for key, point in list(self._match.items()):
            if key[0] not in nics:
                continue
            for slot in point.slots:
                if not slot.done.triggered:
                    slot.done.fail(exc)
                    n += 1
            while point.senders:
                point.senders.pop(0).succeed(self._blackhole_slot())
            del self._match[key]
        return n
