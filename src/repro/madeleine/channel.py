"""Channels and channel endpoints.

A *channel* is a closed communication world bound to one network protocol
and one adapter per member node (§2.1.2): in-order delivery is guaranteed
for point-to-point connections within a channel.  Every member rank owns an
:class:`Endpoint` holding its Transmission Module and an announce listener —
the message-handler thread that Madeleine runs per channel.

Channels created with ``special=True`` are the forwarding-only twins that
virtual channels add per network device (§2.2.2, Figure 3): gateways listen
on them, applications never do.
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import TYPE_CHECKING, Optional, Sequence, Union

from ..hw.topology import World
from ..memory import Buffer
from ..sim import Event, GatewayCrashed, Mutex, Queue
from .endpoint import MessageEndpoint
from .message import IncomingMessage, OutgoingMessage
from .tm import TransmissionModule
from .wire import ANNOUNCE_BYTES, decode_announce

if TYPE_CHECKING:  # pragma: no cover
    pass

__all__ = ["RealChannel", "Endpoint"]


class Endpoint(MessageEndpoint):
    """One rank's attachment to a channel."""

    def __init__(self, channel: "RealChannel", rank: int) -> None:
        self.channel = channel
        self.rank = rank
        self.node = channel.world.nodes[rank]
        nic = self.node.nic(channel.protocol.name,
                            channel.adapter_index_for(rank))
        self.tm = TransmissionModule(channel, rank, nic)
        #: (Announce, hop_src) pairs, in arrival order.
        self.incoming: Queue = Queue(channel.sim,
                                     name=f"{channel.id}@{rank}.in")
        #: per-destination connection locks: a Madeleine connection carries
        #: one message at a time, so every sender (application message or
        #: gateway forwarding worker) holds the lock for the whole message.
        self._conn_locks: dict[int, Mutex] = {}
        self._listener_dead = False
        self._listener_proc = channel.sim.process(
            self._listener(), name=f"listen:{channel.id}@{rank}")

    def connection_lock(self, dst: int) -> Mutex:
        if dst not in self._conn_locks:
            self._conn_locks[dst] = Mutex(
                self.channel.sim, name=f"{self.channel.id}:{self.rank}->{dst}")
        return self._conn_locks[dst]

    def _listener(self):
        """Repost an announce slot forever; queue each arriving announce."""
        while True:
            buf = Buffer.alloc(ANNOUNCE_BYTES, label="announce.rx")
            try:
                meta, _n = yield self.tm.post_announce(buf)
            except GatewayCrashed:
                # Our node went down: park until restart_listener() respawns.
                self._listener_dead = True
                return
            try:
                announce = decode_announce(buf.tobytes())
            except ValueError as exc:
                # Corrupted announce under an armed fault plan: not safely
                # forwardable, drop it (the sender's retry recovers).
                self.channel.fabric.trace.emit(
                    self.channel.sim.now, "fault", "announce_dropped",
                    channel=self.channel.id, rank=self.rank, reason=str(exc))
                continue
            yield self.incoming.put((announce, meta["hop_src"]))

    def restart_listener(self) -> None:
        """Respawn the announce listener if a node crash killed it."""
        if not self._listener_dead:
            return
        self._listener_dead = False
        self._listener_proc = self.channel.sim.process(
            self._listener(),
            name=f"listen:{self.channel.id}@{self.rank}")

    def drain_incoming(self) -> int:
        """Throw away announces queued before a crash; returns the count."""
        n = 0
        while True:
            got, _item = self.incoming.try_get()
            if not got:
                return n
            n += 1

    # -- the user-facing interface ---------------------------------------------
    def begin_packing(self, dst: int) -> OutgoingMessage:
        """``mad_begin_packing``: start a message to ``dst``."""
        return OutgoingMessage(self, dst)

    def begin_unpacking(self) -> Event:
        """``mad_begin_unpacking``: event yielding the next
        :class:`IncomingMessage` on this channel."""
        out = self.channel.sim.event()
        got = self.incoming.get()

        def build(ev: Event) -> None:
            announce, hop_src = ev.value
            out.succeed(IncomingMessage(self, announce, hop_src))

        got.add_callback(build)
        return out

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Endpoint {self.channel.id}@{self.rank}>"


class RealChannel:
    """A protocol-bound channel over a set of member ranks."""

    def __init__(self, world: World, protocol_name: str,
                 members: Sequence[int], name: Optional[str] = None,
                 adapter_index: Union[int, Mapping[int, int]] = 0,
                 special: bool = False) -> None:
        from ..hw.params import PROTOCOLS
        if len(set(members)) != len(members):
            raise ValueError("duplicate ranks in channel membership")
        if len(members) < 2:
            raise ValueError("a channel needs at least two members")
        self.world = world
        self.sim = world.sim
        self.fabric = world.fabric
        self.protocol = PROTOCOLS[protocol_name]
        self.members = tuple(members)
        #: which adapter each member binds: one index for everyone, or a
        #: rank -> index mapping for multi-NIC nodes (a dual-NIC node joins
        #: one channel per NIC; missing ranks default to adapter 0).
        self.adapter_index = (dict(adapter_index)
                              if isinstance(adapter_index, Mapping)
                              else adapter_index)
        self.special = special
        seq = next(world.channel_seq)
        self.id = name or f"ch{seq}:{protocol_name}{'!fwd' if special else ''}"
        world.channel_ids.add(self.id)
        for rank in members:
            node = world.nodes.get(rank)
            if node is None:
                raise ValueError(f"unknown rank {rank}")
            if not node.has_protocol(protocol_name):
                raise ValueError(
                    f"node {node.name!r} has no {protocol_name!r} adapter")
        self.endpoints: dict[int, Endpoint] = {
            rank: Endpoint(self, rank) for rank in members
        }

    def adapter_index_for(self, rank: int) -> int:
        if isinstance(self.adapter_index, dict):
            return self.adapter_index.get(rank, 0)
        return self.adapter_index

    def endpoint(self, rank: int) -> Endpoint:
        try:
            return self.endpoints[rank]
        except KeyError:
            raise KeyError(f"rank {rank} is not a member of {self.id!r}") from None

    def tm(self, rank: int) -> TransmissionModule:
        return self.endpoint(rank).tm

    def __repr__(self) -> str:  # pragma: no cover
        kind = "special" if self.special else "regular"
        return f"<RealChannel {self.id} ({kind}) members={self.members}>"
