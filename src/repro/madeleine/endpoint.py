"""The unified message-endpoint protocol.

Madeleine's user interface is the packing/unpacking state machine (§2.1.1):

* sender: ``begin_packing(dst)`` → message, then ``pack(...)`` zero or more
  times, then ``end_packing()``;
* receiver: ``begin_unpacking()`` → message, then ``unpack(...)`` mirroring
  the sender's pack calls, then ``end_unpacking()``.

A :class:`~repro.madeleine.channel.Endpoint` (one rank on one real
channel) and a virtual channel's endpoint both implement
:class:`MessageEndpoint`: obtain one with ``channel.endpoint(rank)`` (real
or virtual, same spelling) and the rest of the message lifecycle is
identical.  The messages an endpoint hands out differ in concrete type by
route — :class:`~repro.madeleine.message.OutgoingMessage` direct,
:class:`~repro.madeleine.gtm.GTMOutgoing` forwarded,
:class:`~repro.madeleine.stripe.StripedOutgoing` striped, and their
incoming twins — but all are the one packing state machine of
:mod:`repro.madeleine.message` over a different wire plan: same
pack/unpack surface, same ``abort()``, so callers never branch on channel
kind — the paper's transparency claim, stated as an interface.
"""

from __future__ import annotations

import abc

from ..sim import Event

__all__ = ["MessageEndpoint"]


class MessageEndpoint(abc.ABC):
    """One rank's attachment to a (real or virtual) channel.

    Concrete endpoints also expose ``rank`` (the local rank) and an
    ``incoming`` queue; this ABC pins down only the message lifecycle
    entry points application code should use.
    """

    @abc.abstractmethod
    def begin_packing(self, dst: int):
        """``mad_begin_packing``: start an outgoing message to ``dst``.

        Returns a message object with ``pack(data, smode, rmode)`` and
        ``end_packing()``.
        """

    @abc.abstractmethod
    def begin_unpacking(self) -> Event:
        """``mad_begin_unpacking``: event yielding the next incoming
        message, which mirrors the sender with ``unpack(...)`` and
        ``end_unpacking()``."""
