"""A PM2-flavoured lightweight RPC layer over virtual channels.

Madeleine is the communication subsystem of the PM2 multithreaded runtime,
whose programming model is the LRPC (lightweight remote procedure call).
This module rebuilds that layer on the reproduction: nodes register named
services; callers invoke them with byte/array arguments and (optionally)
wait for a reply.  Requests and replies are ordinary Madeleine messages —
an EXPRESS envelope (service id, call id, argument size) followed by the
CHEAPER payload — so calls cross gateways transparently like everything
else.

Usage::

    node = RpcNode(vchannel, rank)
    node.register("scale", lambda call: call.payload_array(np.float64) * 2)
    node.start()
    ...
    reply = yield from caller.call(dest, "scale", my_array)
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Generator, Optional, Union

import numpy as np

from ..madeleine.flags import RecvMode, SendMode
from ..madeleine.vchannel import VirtualChannel
from ..memory import Buffer

__all__ = ["RpcNode", "RpcError", "RemoteError", "Call", "Reply"]

_ENVELOPE_DTYPE = np.dtype(np.uint32)
_ENVELOPE_WORDS = 5      # kind, call_id, service_len, payload_len, status
_ENVELOPE_BYTES = _ENVELOPE_WORDS * 4

_KIND_REQUEST = 1
_KIND_REPLY = 2
_KIND_ONEWAY = 3

_STATUS_OK = 0
_STATUS_NO_SERVICE = 1
_STATUS_HANDLER_RAISED = 2


class RpcError(RuntimeError):
    """Local misuse of the RPC layer."""


class RemoteError(RuntimeError):
    """The remote handler failed (or the service does not exist)."""

    def __init__(self, status: int, detail: str) -> None:
        super().__init__(detail)
        self.status = status


class Call:
    """An incoming request as seen by a handler."""

    __slots__ = ("source", "service", "payload", "call_id")

    def __init__(self, source: int, service: str, payload: Buffer,
                 call_id: int) -> None:
        self.source = source
        self.service = service
        self.payload = payload
        self.call_id = call_id

    def payload_array(self, dtype=np.uint8) -> np.ndarray:
        return self.payload.data.view(dtype)


class Reply:
    """A completed call's result."""

    __slots__ = ("payload", "source")

    def __init__(self, payload: Buffer, source: int) -> None:
        self.payload = payload
        self.source = source

    def array(self, dtype=np.uint8) -> np.ndarray:
        return self.payload.data.view(dtype)

    def __len__(self) -> int:
        return len(self.payload)


Handler = Callable[[Call], Union[None, bytes, bytearray, np.ndarray, Buffer]]


class RpcNode:
    """One rank's RPC endpoint: a dispatcher plus client-side calls."""

    def __init__(self, vchannel: VirtualChannel, rank: int) -> None:
        if rank not in vchannel.members:
            raise RpcError(f"rank {rank} is not a member of the channel")
        self.vchannel = vchannel
        self.rank = rank
        self.endpoint = vchannel.endpoint(rank)
        self.sim = vchannel.sim
        self._services: dict[str, Handler] = {}
        self._pending: dict[int, Any] = {}   # call_id -> completion event
        self._call_ids = itertools.count(1)
        self._started = False
        self.calls_served = 0

    # -- service registry --------------------------------------------------------
    def register(self, name: str, handler: Handler) -> None:
        if not name or len(name.encode()) > 255:
            raise RpcError("service name must be 1..255 bytes")
        if name in self._services:
            raise RpcError(f"service {name!r} already registered")
        self._services[name] = handler

    def start(self) -> None:
        """Spawn the dispatcher (idempotent)."""
        if not self._started:
            self._started = True
            self.sim.process(self._dispatcher(), name=f"rpc:{self.rank}")

    # -- wire helpers ---------------------------------------------------------------
    @staticmethod
    def _as_payload(data) -> Buffer:
        if data is None:
            return Buffer.alloc(0)
        if isinstance(data, Buffer):
            return data
        if isinstance(data, (bytes, bytearray, memoryview)):
            return Buffer.wrap(data)
        return Buffer.wrap(np.ascontiguousarray(data).view(np.uint8)
                           .reshape(-1))

    def _send(self, dest: int, kind: int, call_id: int, service: bytes,
              payload: Buffer, status: int = _STATUS_OK):
        env = np.array([kind, call_id, len(service), len(payload), status],
                       dtype=_ENVELOPE_DTYPE).view(np.uint8)
        msg = self.endpoint.begin_packing(dest)
        msg.pack(env, SendMode.SAFER, RecvMode.EXPRESS)
        if service:
            msg.pack(np.frombuffer(service, dtype=np.uint8),
                     SendMode.SAFER, RecvMode.EXPRESS)
        if len(payload):
            msg.pack(payload, SendMode.CHEAPER, RecvMode.CHEAPER)
        return msg.end_packing()

    def _recv_one(self) -> Generator:
        incoming = yield self.endpoint.begin_unpacking()
        ev, env_buf = incoming.unpack(_ENVELOPE_BYTES, SendMode.SAFER,
                                      RecvMode.EXPRESS)
        yield ev
        kind, call_id, service_len, payload_len, status = (
            int(x) for x in env_buf.data.view(_ENVELOPE_DTYPE)[:5])
        service = ""
        if service_len:
            ev2, sbuf = incoming.unpack(service_len, SendMode.SAFER,
                                        RecvMode.EXPRESS)
            yield ev2
            service = sbuf.tobytes().decode()
        payload = Buffer.alloc(payload_len, label="rpc.payload")
        if payload_len:
            incoming.unpack(into=payload)
        yield incoming.end_unpacking()
        return (kind, call_id, service, payload, status, incoming.origin)

    # -- server side ------------------------------------------------------------------
    def _dispatcher(self):
        while True:
            kind, call_id, service, payload, status, origin = \
                yield from self._recv_one()
            if kind == _KIND_REPLY:
                waiter = self._pending.pop(call_id, None)
                if waiter is None:
                    continue   # the call timed out locally: drop the reply
                if status == _STATUS_OK:
                    waiter.succeed(Reply(payload, origin))
                else:
                    waiter.fail(RemoteError(
                        status, payload.tobytes().decode() or "remote error"))
                continue
            # request (two-way or one-way)
            handler = self._services.get(service)
            if handler is None:
                if kind == _KIND_REQUEST:
                    self._spawn_reply(origin, call_id,
                                      self._as_payload(
                                          f"no such service {service!r}"
                                          .encode()),
                                      _STATUS_NO_SERVICE)
                continue
            try:
                result = handler(Call(origin, service, payload, call_id))
                if hasattr(result, "send") and hasattr(result, "throw"):
                    # generator handler: may yield sim events
                    result = yield from result
                out, st = self._as_payload(result), _STATUS_OK
            except Exception as exc:   # noqa: BLE001 - forwarded to caller
                out, st = self._as_payload(repr(exc).encode()), \
                    _STATUS_HANDLER_RAISED
            self.calls_served += 1
            if kind == _KIND_REQUEST:
                # Replies leave in a detached process so the dispatcher can
                # keep receiving — otherwise two nodes replying to each
                # other would deadlock on the synchronous sends.
                self._spawn_reply(origin, call_id, out, st)

    def _spawn_reply(self, origin: int, call_id: int, payload: Buffer,
                     status: int) -> None:
        def proc():
            yield self._send(origin, _KIND_REPLY, call_id, b"", payload,
                             status=status)
        self.sim.process(proc(), name=f"rpc.reply:{self.rank}->{origin}")

    # -- client side -------------------------------------------------------------------
    def call(self, dest: int, service: str, payload=None,
             timeout: Optional[float] = None) -> Generator:
        """Invoke ``service`` on ``dest`` and wait for the reply."""
        if not self._started:
            raise RpcError("start() the node before calling out "
                           "(it must be able to receive the reply)")
        call_id = next(self._call_ids)
        waiter = self.sim.event(name=f"rpc.call{call_id}")
        self._pending[call_id] = waiter
        yield self._send(dest, _KIND_REQUEST, call_id, service.encode(),
                         self._as_payload(payload))
        if timeout is None:
            reply = yield waiter
            return reply
        idx, value = yield self.sim.any_of(
            [waiter, self.sim.timeout(timeout, value=None)])
        if idx == 1:
            self._pending.pop(call_id, None)
            raise RpcError(f"call {service!r} to {dest} timed out "
                           f"after {timeout} µs")
        return value

    def cast(self, dest: int, service: str, payload=None) -> Generator:
        """One-way invocation (no reply)."""
        if not self._started:
            raise RpcError("start() the node first")
        call_id = next(self._call_ids)
        yield self._send(dest, _KIND_ONEWAY, call_id, service.encode(),
                         self._as_payload(payload))
