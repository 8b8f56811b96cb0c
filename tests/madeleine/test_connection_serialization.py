"""One in-flight message per connection: concurrent messages on the same
connection queue up behind the connection lock (as a second Madeleine
thread would block), and never interleave on the wire."""


from repro.hw import build_world
from repro.madeleine import Session
from tests.conftest import payload


def test_concurrent_messages_same_connection_serialize():
    w = build_world({"a": ["myrinet"], "b": ["myrinet"]})
    s = Session(w)
    ch = s.channel("myrinet", ["a", "b"])
    got = []

    def snd():
        # start both before either finishes: the second must wait for the
        # first's connection lock, not interleave
        m1 = ch.endpoint(0).begin_packing(1)
        m1.pack(payload(5000, 1))
        e1 = m1.end_packing()
        m2 = ch.endpoint(0).begin_packing(1)
        m2.pack(payload(5000, 2))
        e2 = m2.end_packing()
        yield e1
        yield e2

    def rcv():
        for seed in (1, 2):
            inc = yield ch.endpoint(1).begin_unpacking()
            _ev, b = inc.unpack(5000)
            yield inc.end_unpacking()
            got.append(b.tobytes() == payload(5000, seed).tobytes())

    s.spawn(snd()); s.spawn(rcv()); s.run()
    assert got == [True, True]


def test_connection_reusable_after_completion():
    w = build_world({"a": ["myrinet"], "b": ["myrinet"]})
    s = Session(w)
    ch = s.channel("myrinet", ["a", "b"])
    got = []

    def snd():
        for i in range(2):
            m = ch.endpoint(0).begin_packing(1)
            m.pack(payload(100, seed=i))
            yield m.end_packing()

    def rcv():
        for i in range(2):
            inc = yield ch.endpoint(1).begin_unpacking()
            _ev, b = inc.unpack(100)
            yield inc.end_unpacking()
            got.append(b.tobytes())

    s.spawn(snd()); s.spawn(rcv()); s.run()
    assert got == [payload(100, seed=0).tobytes(),
                   payload(100, seed=1).tobytes()]


def test_different_destinations_concurrent_ok():
    w = build_world({"a": ["myrinet"], "b": ["myrinet"], "c": ["myrinet"]})
    s = Session(w)
    ch = s.channel("myrinet", ["a", "b", "c"])
    m1 = ch.endpoint(0).begin_packing(1)
    m2 = ch.endpoint(0).begin_packing(2)   # other connection: fine
    got = {}

    def snd():
        m1.pack(payload(10, 1))
        m2.pack(payload(10, 2))
        e1, e2 = m1.end_packing(), m2.end_packing()
        yield e1
        yield e2

    def rcv(rank, seed):
        def proc():
            inc = yield ch.endpoint(rank).begin_unpacking()
            _ev, b = inc.unpack(10)
            yield inc.end_unpacking()
            got[rank] = b.tobytes() == payload(10, seed).tobytes()
        return proc

    s.spawn(snd()); s.spawn(rcv(1, 1)()); s.spawn(rcv(2, 2)()); s.run()
    assert got == {1: True, 2: True}


def test_gtm_connection_serialized_too():
    w = build_world({"m0": ["myrinet"], "gw": ["myrinet", "sci"],
                     "s0": ["sci"]})
    s = Session(w)
    vch = s.virtual_channel([
        s.channel("myrinet", ["m0", "gw"]),
        s.channel("sci", ["gw", "s0"]),
    ])
    got = []

    def snd():
        m1 = vch.endpoint(0).begin_packing(2)
        m1.pack(payload(40_000, 1))
        e1 = m1.end_packing()
        m2 = vch.endpoint(0).begin_packing(2)
        m2.pack(payload(40_000, 2))
        e2 = m2.end_packing()
        yield e1
        yield e2

    def rcv():
        for seed in (1, 2):
            inc = yield vch.endpoint(2).begin_unpacking()
            _ev, b = inc.unpack(40_000)
            yield inc.end_unpacking()
            got.append(b.tobytes() == payload(40_000, seed).tobytes())

    s.spawn(snd()); s.spawn(rcv()); s.run()
    assert got == [True, True]


def test_two_workers_one_destination_no_interleave():
    """Both of the gateway's forwarding workers target the same final
    receiver at the same time: the connection lock must serialize them."""
    w = build_world({
        "m0": ["myrinet"], "gw": ["myrinet", "sci", "sbp"],
        "b0": ["sbp"], "s0": ["sci"],
    })
    s = Session(w, packet_size=8 << 10)
    vch = s.virtual_channel([
        s.channel("myrinet", ["m0", "gw"]),
        s.channel("sci", ["gw", "s0"]),
        s.channel("sbp", ["gw", "b0"]),
    ])
    # messages from m0 (via the myrinet worker) and s0 (via the sci worker)
    # both forwarded to b0
    d_m, d_s = payload(60_000, 1), payload(50_000, 2)
    got = {}

    def snd(rank, data):
        def proc():
            m = vch.endpoint(rank).begin_packing(s.rank("b0"))
            yield m.pack(data)
            yield m.end_packing()
        return proc

    def rcv():
        sizes = {0: len(d_m), 3: len(d_s)}
        datas = {0: d_m, 3: d_s}
        for _ in range(2):
            inc = yield vch.endpoint(s.rank("b0")).begin_unpacking()
            _ev, b = inc.unpack(sizes[inc.origin])
            yield inc.end_unpacking()
            got[inc.origin] = b.tobytes() == datas[inc.origin].tobytes()

    s.spawn(snd(0, d_m)()); s.spawn(snd(s.rank("s0"), d_s)()); s.spawn(rcv())
    s.run()
    assert got == {0: True, 3: True}
