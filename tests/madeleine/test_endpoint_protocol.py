"""The unified MessageEndpoint protocol."""

import pytest

from repro.hw import build_world
from repro.madeleine import MessageEndpoint, Session
from repro.madeleine.vchannel import VChannelEndpoint


def paper_vch():
    w = build_world({"m0": ["myrinet"], "gw": ["myrinet", "sci"],
                     "s0": ["sci"]})
    s = Session(w, packet_size=16 << 10)
    vch = s.virtual_channel([
        s.channel("myrinet", ["m0", "gw"]),
        s.channel("sci", ["gw", "s0"]),
    ])
    return s, vch


def test_channel_endpoint_implements_protocol():
    w = build_world({"a": ["myrinet"], "b": ["myrinet"]})
    s = Session(w)
    ep = s.channel("myrinet", ["a", "b"]).endpoint(0)
    assert isinstance(ep, MessageEndpoint)


def test_vchannel_endpoint_implements_protocol():
    _s, vch = paper_vch()
    ep = vch.endpoint(0)
    assert isinstance(ep, VChannelEndpoint)
    assert isinstance(ep, MessageEndpoint)


def test_protocol_is_abstract():
    with pytest.raises(TypeError):
        MessageEndpoint()


def test_new_surface_does_not_warn(recwarn):
    _s, vch = paper_vch()
    vch.endpoint(0).begin_packing(1)
    vch.endpoint(0).begin_packing(2)
    assert not [w for w in recwarn.list
                if issubclass(w.category, DeprecationWarning)]
