"""The Madeleine multi-device communication library, with the inter-device
data-forwarding mechanism of the paper.

Layering (Figure 1 + the paper's extension):

* :mod:`~repro.madeleine.tm` — Transmission Modules (protocol-facing);
* :mod:`~repro.madeleine.message` — the ``mad_pack``/``mad_unpack``
  interface: one packing state machine for every route;
* :mod:`~repro.madeleine.bmm` — Buffer Management Modules (dynamic /
  static chunked): how a buffer meets one network's wire;
* :mod:`~repro.madeleine.channel` — regular channels and endpoints;
* :mod:`~repro.madeleine.gtm` — the Generic Transmission Module
  (self-described, MTU-fragmented messages for heterogeneous routes);
* :mod:`~repro.madeleine.vchannel` — virtual channels (regular + special
  twins, routing, transparency);
* :mod:`~repro.madeleine.gateway` — the double-buffered forwarding pipeline;
* :mod:`~repro.madeleine.session` — the user entry point.
"""

import itertools

from .adaptive import TransportPolicy
from .bmm import UnpackMismatch, split_fragments
from .channel import Endpoint, RealChannel
from .endpoint import MessageEndpoint
from .flags import (RECV_CHEAPER, RECV_EXPRESS, SEND_CHEAPER, SEND_LATER,
                    SEND_SAFER, RecvMode, SendMode, validate_modes)
from .gateway import ForwardingWorker, GatewayError
from .gtm import GTMIncoming, GTMOutgoing
from .helpers import recv_arrays, recv_message_into, send_arrays
from .message import IncomingMessage, MessageStateError, OutgoingMessage
from .reliable import ReliableEndpoint, RetryPolicy
from .session import Session
from .stripe import StripedIncoming, StripedOutgoing
from .vchannel import DEFAULT_PACKET_SIZE, VChannelEndpoint, VirtualChannel
from .wire import (ANNOUNCE_BYTES, DESC_BYTES, EAGER_ENTRY_BYTES,
                   EAGER_HDR_BYTES, MODE_GTM, MODE_REGULAR, STRIPE_BYTES,
                   Announce, Descriptor, EagerEntry, EagerRecord,
                   StripeRecord, decode_announce, decode_descriptor,
                   decode_eager, decode_stripe, eager_record_bytes,
                   encode_announce, encode_descriptor, encode_eager,
                   encode_stripe)

def reset_global_ids() -> None:
    """Restart the process-wide id counters (messages, transfers, stripes,
    channels, forwarding workers).

    Ids are opaque labels, so sharing one counter across sessions is
    normally harmless — but fault-recovery code branches on wire *content*
    that embeds them (a stale fragment redelivered by a drop verdict, a
    corrupted record), so two runs of the same seeded scenario in one
    process can diverge after the first fault.  A replay harness that needs
    bit-identical schedules (the fuzzer, minimization) calls this before
    each run to start every session from the same id space.
    """
    from . import channel, gateway, gtm, message, reliable, stripe
    from ..sim import fluid
    message._msg_ids = itertools.count(1)
    gtm._msg_ids = itertools.count(1 << 20)
    stripe._stripe_ids = itertools.count(1)
    reliable._transfer_ids = itertools.count(1)
    channel._channel_seq = itertools.count()
    gateway.ForwardingWorker._ids = itertools.count()
    fluid.Flow._ids = itertools.count()


__all__ = [
    "reset_global_ids",
    "TransportPolicy",
    "UnpackMismatch", "split_fragments",
    "Endpoint", "RealChannel", "MessageEndpoint",
    "RECV_CHEAPER", "RECV_EXPRESS", "SEND_CHEAPER", "SEND_LATER",
    "SEND_SAFER", "RecvMode", "SendMode", "validate_modes",
    "ForwardingWorker", "GatewayError",
    "GTMIncoming", "GTMOutgoing",
    "recv_arrays", "recv_message_into", "send_arrays",
    "IncomingMessage", "MessageStateError", "OutgoingMessage",
    "ReliableEndpoint", "RetryPolicy",
    "Session",
    "StripedIncoming", "StripedOutgoing",
    "DEFAULT_PACKET_SIZE", "VChannelEndpoint", "VirtualChannel",
    "ANNOUNCE_BYTES", "DESC_BYTES", "EAGER_ENTRY_BYTES", "EAGER_HDR_BYTES",
    "MODE_GTM", "MODE_REGULAR", "STRIPE_BYTES", "Announce", "Descriptor",
    "EagerEntry", "EagerRecord", "StripeRecord",
    "decode_announce", "decode_descriptor", "decode_eager", "decode_stripe",
    "eager_record_bytes", "encode_announce", "encode_descriptor",
    "encode_eager", "encode_stripe",
]
