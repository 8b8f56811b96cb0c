"""Property-based end-to-end tests: arbitrary pack sequences round-trip
bit-exactly across arbitrary (single- and multi-hop) routes."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.hw import build_world
from repro.madeleine import RecvMode, SendMode, Session

PROTOS = ["myrinet", "sci", "sbp", "gigabit_tcp"]


def modes_strategy():
    return st.tuples(
        st.sampled_from(list(SendMode)),
        st.sampled_from(list(RecvMode)),
    ).filter(lambda t: not (t[0] == SendMode.LATER and t[1] == RecvMode.EXPRESS))


def payload_for(sizes, seed):
    rng = np.random.default_rng(seed)
    return [rng.integers(0, 256, size=n, dtype=np.uint8) for n in sizes]


def run_roundtrip(proto_in, proto_out, sizes, modes, seed, packet_size):
    if proto_in == proto_out:
        w = build_world({"a": [proto_in], "gw": [proto_in], "b": [proto_in]})
    else:
        w = build_world({"a": [proto_in], "gw": [proto_in, proto_out],
                         "b": [proto_out]})
    s = Session(w, packet_size=packet_size)
    chans = ([s.channel(proto_in, ["a", "gw", "b"])]
             if proto_in == proto_out else
             [s.channel(proto_in, ["a", "gw"]),
              s.channel(proto_out, ["gw", "b"])])
    vch = s.virtual_channel(chans)
    parts = payload_for(sizes, seed)
    got = {}

    def snd():
        m = vch.endpoint(0).begin_packing(2)
        for p, (sm, rm) in zip(parts, modes):
            yield m.pack(p, sm, rm)
        yield m.end_packing()

    def rcv():
        inc = yield vch.endpoint(2).begin_unpacking()
        bufs = []
        for p, (sm, rm) in zip(parts, modes):
            ev, b = inc.unpack(len(p), sm, rm)
            if rm == RecvMode.EXPRESS:
                yield ev
                assert b.tobytes() == p.tobytes(), "EXPRESS data late"
            bufs.append(b)
        yield inc.end_unpacking()
        got["parts"] = [b.tobytes() for b in bufs]
        got["origin"] = inc.origin

    s.spawn(snd()); s.spawn(rcv()); s.run()
    assert got["origin"] == 0
    assert got["parts"] == [p.tobytes() for p in parts]


@given(
    proto_in=st.sampled_from(PROTOS),
    proto_out=st.sampled_from(PROTOS),
    sizes=st.lists(st.integers(1, 50_000), min_size=1, max_size=6),
    data=st.data(),
    seed=st.integers(0, 2**31),
    packet_kb=st.sampled_from([1, 4, 16, 32]),
)
@settings(max_examples=40, deadline=None)
def test_arbitrary_messages_roundtrip(proto_in, proto_out, sizes, data,
                                      seed, packet_kb):
    modes = [data.draw(modes_strategy()) for _ in sizes]
    run_roundtrip(proto_in, proto_out, sizes, modes, seed, packet_kb << 10)


@given(
    sizes=st.lists(st.integers(1, 20_000), min_size=1, max_size=5),
    seed=st.integers(0, 2**31),
)
@settings(max_examples=20, deadline=None)
def test_homogeneous_three_node_channel(sizes, seed):
    """A single channel spanning three nodes: direct messages, no GTM."""
    run_roundtrip("myrinet", "myrinet", sizes,
                  [(SendMode.CHEAPER, RecvMode.CHEAPER)] * len(sizes),
                  seed, 16 << 10)
