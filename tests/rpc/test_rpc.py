"""The PM2-style RPC layer."""

import numpy as np
import pytest

from repro.hw import build_world
from repro.madeleine import Session
from repro.rpc import RemoteError, RpcError, RpcNode


def rpc_world():
    w = build_world({"m0": ["myrinet"], "gw": ["myrinet", "sci"],
                     "s0": ["sci"]})
    s = Session(w, packet_size=32 << 10)
    vch = s.virtual_channel([
        s.channel("myrinet", ["m0", "gw"]),
        s.channel("sci", ["gw", "s0"]),
    ])
    nodes = {r: RpcNode(vch, r) for r in vch.members}
    for n in nodes.values():
        n.start()
    return w, s, nodes


def test_call_across_gateway():
    w, s, nodes = rpc_world()
    nodes[2].register("double",
                      lambda call: call.payload_array(np.float64) * 2.0)
    got = {}

    def client():
        reply = yield from nodes[0].call(2, "double",
                                         np.arange(1000, dtype=np.float64))
        got["result"] = reply.array(np.float64)

    s.spawn(client())
    s.run()
    assert np.array_equal(got["result"],
                          np.arange(1000, dtype=np.float64) * 2)
    assert nodes[2].calls_served == 1


def test_unknown_service_raises_remote_error():
    w, s, nodes = rpc_world()
    errors = []

    def client():
        try:
            yield from nodes[0].call(2, "nope", b"x")
        except RemoteError as exc:
            errors.append(exc.status)

    s.spawn(client())
    s.run()
    assert errors == [1]


def test_handler_exception_forwarded():
    w, s, nodes = rpc_world()

    def bad_handler(call):
        raise ValueError("broken handler")

    nodes[2].register("bad", bad_handler)
    errors = []

    def client():
        try:
            yield from nodes[0].call(2, "bad")
        except RemoteError as exc:
            errors.append(str(exc))

    s.spawn(client())
    s.run()
    assert errors and "broken handler" in errors[0]


def test_generator_handler_can_yield_events():
    w, s, nodes = rpc_world()

    def slow_handler(call):
        yield s.sim.timeout(500.0)
        return np.frombuffer(b"done", dtype=np.uint8)

    nodes[2].register("slow", slow_handler)
    got = {}

    def client():
        t0 = s.now
        reply = yield from nodes[0].call(2, "slow")
        got["elapsed"] = s.now - t0
        got["body"] = reply.payload.tobytes()

    s.spawn(client())
    s.run()
    assert got["body"] == b"done"
    assert got["elapsed"] > 500.0


def test_symmetric_calls_no_deadlock():
    """Two nodes calling each other's services simultaneously."""
    w, s, nodes = rpc_world()
    nodes[0].register("ping", lambda c: b"pong-from-0")
    nodes[2].register("ping", lambda c: b"pong-from-2")
    got = {}

    def client(me, other):
        def proc():
            reply = yield from nodes[me].call(other, "ping")
            got[me] = reply.payload.tobytes()
        return proc

    s.spawn(client(0, 2)())
    s.spawn(client(2, 0)())
    s.run()
    assert got == {0: b"pong-from-2", 2: b"pong-from-0"}


def test_cast_one_way():
    w, s, nodes = rpc_world()
    seen = []
    nodes[2].register("log", lambda c: seen.append(c.payload.tobytes()))

    def client():
        yield from nodes[0].cast(2, "log", b"fire-and-forget")
        # give the dispatcher time to process
        yield s.sim.timeout(10_000)

    s.spawn(client())
    s.run()
    assert seen == [b"fire-and-forget"]


def test_call_timeout():
    w, s, nodes = rpc_world()

    def never_handler(call):
        yield s.sim.timeout(1e9)
        return b""

    nodes[2].register("never", never_handler)
    errors = []

    def client():
        try:
            yield from nodes[0].call(2, "never", timeout=10_000.0)
        except RpcError as exc:
            errors.append(str(exc))

    s.spawn(client())
    s.run(until=2e9)
    assert errors and "timed out" in errors[0]


def test_concurrent_calls_different_ids():
    w, s, nodes = rpc_world()
    nodes[2].register("echo", lambda c: c.payload)
    got = []

    def client():
        for i in range(4):
            reply = yield from nodes[0].call(
                2, "echo", np.full(100 + i, i, dtype=np.uint8))
            got.append((len(reply), int(reply.array()[0])))

    s.spawn(client())
    s.run()
    assert got == [(100, 0), (101, 1), (102, 2), (103, 3)]


def test_register_validation():
    w, s, nodes = rpc_world()
    nodes[0].register("svc", lambda c: None)
    with pytest.raises(RpcError):
        nodes[0].register("svc", lambda c: None)
    with pytest.raises(RpcError):
        nodes[0].register("", lambda c: None)


def test_call_requires_started_node():
    w = build_world({"a": ["myrinet"], "b": ["myrinet"]})
    s = Session(w)
    vch = s.virtual_channel([s.channel("myrinet", ["a", "b"])])
    node = RpcNode(vch, 0)
    with pytest.raises(RpcError, match="start"):
        list(node.call(1, "x"))


def test_non_member_rejected():
    w, s, nodes = rpc_world()
    with pytest.raises(RpcError):
        RpcNode(nodes[0].vchannel, 42)
