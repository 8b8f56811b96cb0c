"""Declarative configuration front-end."""

import json

import pytest

from repro.madeleine import Session
from repro.madeleine.config import ConfigError, load_config, load_config_file
from tests.conftest import payload, transfer_once

PAPER_CFG = {
    "nodes": {
        "m0": ["myrinet"],
        "gw": ["myrinet", "sci"],
        "s0": ["sci"],
    },
    "channels": {
        "myri": {"protocol": "myrinet", "members": ["m0", "gw"]},
        "sci": {"protocol": "sci", "members": ["gw", "s0"]},
    },
    "virtual_channels": {
        "world": {"channels": ["myri", "sci"], "packet_size": 65536,
                  "gateway": {"switch_overhead": 40.0}},
    },
}


def test_full_config_builds_working_session():
    session, channels, vchannels = load_config(PAPER_CFG)
    assert isinstance(session, Session)
    assert set(channels) == {"myri", "sci"}
    assert set(vchannels) == {"world"}
    vch = vchannels["world"]
    assert vch.packet_size == 65536
    data = payload(100_000)
    out = transfer_once(session, vch, session.rank("s0"),
                        session.rank("m0"), data)
    assert out["buf"].tobytes() == data.tobytes()


def test_node_params_from_config():
    cfg = dict(PAPER_CFG)
    cfg["node_params"] = {"memcpy_bandwidth": 250.0,
                          "pci": {"pio_preempt_slowdown": 3.0}}
    session, _c, _v = load_config(cfg)
    node = session.world.node("gw")
    assert node.params.memcpy_bandwidth == 250.0
    assert node.pci.preempt_slowdown == 3.0


def test_node_params_pci_is_validated_by_field():
    cfg = dict(PAPER_CFG)
    cfg["node_params"] = {"pci": {"duplex_efficiency": 0}}
    with pytest.raises(ValueError, match="duplex_efficiency"):
        load_config(cfg)


def test_missing_nodes_rejected():
    with pytest.raises(ConfigError):
        load_config({"channels": {}})
    with pytest.raises(ConfigError):
        load_config({"nodes": {}})


def test_unknown_top_level_key_rejected():
    with pytest.raises(ConfigError, match="unknown top-level"):
        load_config({"nodes": {"a": []}, "typo": {}})


def test_channel_missing_fields_rejected():
    with pytest.raises(ConfigError, match="missing required key"):
        load_config({"nodes": {"a": ["myrinet"], "b": ["myrinet"]},
                     "channels": {"c": {"protocol": "myrinet"}}})


def test_channel_bad_protocol_rejected():
    with pytest.raises(ConfigError, match="channel 'c'"):
        load_config({"nodes": {"a": ["myrinet"], "b": ["myrinet"]},
                     "channels": {"c": {"protocol": "warp", "members":
                                        ["a", "b"]}}})


def test_vchannel_unknown_member_rejected():
    cfg = {
        "nodes": {"a": ["myrinet"], "b": ["myrinet"]},
        "channels": {"c": {"protocol": "myrinet", "members": ["a", "b"]}},
        "virtual_channels": {"v": {"channels": ["nope"]}},
    }
    with pytest.raises(ConfigError, match="unknown channel 'nope'"):
        load_config(cfg)


def test_vchannel_bad_gateway_option_rejected():
    cfg = {
        "nodes": {"a": ["myrinet"], "b": ["myrinet"]},
        "channels": {"c": {"protocol": "myrinet", "members": ["a", "b"]}},
        "virtual_channels": {"v": {"channels": ["c"],
                                   "gateway": {"turbo": True}}},
    }
    with pytest.raises(ConfigError, match="unknown gateway option"):
        load_config(cfg)


def test_non_mapping_rejected():
    with pytest.raises(ConfigError):
        load_config([1, 2, 3])


def test_load_config_file(tmp_path):
    path = tmp_path / "session.json"
    path.write_text(json.dumps(PAPER_CFG), encoding="utf-8")
    session, channels, vchannels = load_config_file(path)
    assert set(vchannels) == {"world"}


def test_load_config_file_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(ConfigError, match="invalid JSON"):
        load_config_file(path)
