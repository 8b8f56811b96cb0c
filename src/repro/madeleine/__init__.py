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
    """Does nothing: every id is counted by its world (``repro.hw.World``),
    so a run repeats in one process without a reset.  Kept only because
    the wall-clock benchmark's workloads still call it; it goes with them.
    """


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
