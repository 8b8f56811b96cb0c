"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.hw import build_world
from repro.madeleine import Session
from repro.sim import Simulator


@pytest.fixture
def sim() -> Simulator:
    return Simulator()


@pytest.fixture
def paper_testbed():
    """The paper's three-node configuration: a Myrinet endpoint, a gateway
    with Myrinet+SCI adapters, and an SCI endpoint (plus the Fast-Ethernet
    control network on every node)."""
    world = build_world({
        "m0": ["myrinet", "fast_ethernet"],
        "gw": ["myrinet", "sci", "fast_ethernet"],
        "s0": ["sci", "fast_ethernet"],
    })
    return world


@pytest.fixture
def paper_session(paper_testbed):
    session = Session(paper_testbed, packet_size=16 << 10)
    myri = session.channel("myrinet", ["m0", "gw"])
    sci = session.channel("sci", ["gw", "s0"])
    vch = session.virtual_channel([myri, sci])
    return session, myri, sci, vch


def payload(n: int, seed: int = 1) -> np.ndarray:
    """Deterministic pseudo-random byte payload."""
    rng = np.random.default_rng(seed)
    return rng.integers(0, 256, size=n, dtype=np.uint8)


def transfer_once(session, vch, src, dst, data, packet_checks=None):
    """Send one single-buffer message src -> dst over vch; return
    (elapsed µs, received Buffer)."""
    out = {}

    def sender():
        msg = vch.endpoint(src).begin_packing(dst)
        yield msg.pack(data)
        yield msg.end_packing()

    def receiver():
        inc = yield vch.endpoint(dst).begin_unpacking()
        _ev, buf = inc.unpack(len(data))
        yield inc.end_unpacking()
        out["t"] = session.now
        out["buf"] = buf
        out["origin"] = inc.origin

    session.spawn(sender(), "sender")
    session.spawn(receiver(), "receiver")
    session.run()
    return out
