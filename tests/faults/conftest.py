"""Shared pieces for the fault-injection and recovery tests.

All scenarios run on the canonical two-gateway testbed: a Myrinet-only
sender ``m0`` (rank 0), two Myrinet+SCI gateways ``gwA``/``gwB`` (ranks
1 and 2), and an SCI-only receiver ``s0`` (rank 3).  Routing prefers
``gwA`` while it is healthy (deterministic tie-break on rank), which
makes failover onto ``gwB`` observable.
"""

import numpy as np

from repro.hw import build_world
from repro.hw.params import GatewayParams
from repro.madeleine import ReliableEndpoint, Session

GW_STALL = 5_000.0   # keep abandoned gateway pipelines short-lived


def two_gateway_world():
    w = build_world({"m0": ["myrinet"], "gwA": ["myrinet", "sci"],
                     "gwB": ["myrinet", "sci"], "s0": ["sci"]})
    s = Session(w, packet_size=16 << 10)
    myri = s.channel("myrinet", ["m0", "gwA", "gwB"])
    sci = s.channel("sci", ["gwA", "gwB", "s0"])
    return w, s, myri, sci


def reliable_pair(s, myri, sci, policy):
    vch = s.virtual_channel(
        [myri, sci], gateway_params=GatewayParams(stall_timeout=GW_STALL))
    return (vch, ReliableEndpoint(vch.endpoint(0), policy),
            ReliableEndpoint(vch.endpoint(3), policy))


def payloads(seed, n, nbytes):
    rng = np.random.default_rng(seed)
    return [rng.integers(0, 256, nbytes, dtype=np.uint8).tobytes()
            for _ in range(n)]


def run_transfer(s, rel_src, rel_dst, msgs, dst=3, delivered=None):
    """Push ``msgs`` through and return (attempts, received, errors); the
    time of each delivery is appended to ``delivered`` if one is given.

    Typed failures are caught *inside* the processes — a reliable
    transfer must end in an exception the application can handle, never
    in a crashed simulation.
    """
    attempts, got, errors = [], [], []

    def sender():
        for p in msgs:
            try:
                n = yield from rel_src.send(dst, p)
            except Exception as exc:        # noqa: BLE001 — recorded, asserted on
                errors.append(exc)
                return
            attempts.append(n)

    def receiver():
        for _ in msgs:
            _src, data, _tid = yield from rel_dst.recv()
            got.append(data)
            if delivered is not None:
                delivered.append(s.now)

    s.spawn(sender(), name="t-send")
    s.spawn(receiver(), name="t-recv")
    s.run()
    return attempts, got, errors
