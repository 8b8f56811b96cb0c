"""Declarative session configuration.

Madeleine sessions were launched from network configuration files (the PM2
``leonie`` launcher); this module provides the equivalent front-end: a plain
dict (JSON-compatible) describing nodes, channels, and virtual channels,
turned into a ready :class:`~repro.madeleine.session.Session` in one call.

Example::

    cfg = {
        "nodes": {
            "m0": ["myrinet"],
            "gw": ["myrinet", "sci"],
            "s0": ["sci"],
        },
        "channels": {
            "myri": {"protocol": "myrinet", "members": ["m0", "gw"]},
            "sci":  {"protocol": "sci", "members": ["gw", "s0"]},
        },
        "virtual_channels": {
            "world": {"channels": ["myri", "sci"], "packet_size": 65536},
        },
    }
    session, channels, vchannels = load_config(cfg)
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Mapping, Union

from ..hw.params import (GatewayParams, NodeParams, PCIParams,
                         PipelineConfig)
from ..hw.topology import build_world
from .channel import RealChannel
from .session import Session
from .vchannel import DEFAULT_PACKET_SIZE, VirtualChannel

__all__ = ["load_config", "load_config_file", "ConfigError"]


class ConfigError(ValueError):
    """Malformed session configuration."""


def _require(mapping: Mapping[str, Any], key: str, where: str):
    try:
        return mapping[key]
    except KeyError:
        raise ConfigError(f"{where}: missing required key {key!r}") from None


def _node_params(spec: Mapping[str, Any]) -> NodeParams:
    pci_spec = spec.get("pci", {})
    known_pci = {"clock_mhz", "width_bytes", "duplex_efficiency",
                 "pio_preempt_slowdown"}
    bad = set(pci_spec) - known_pci
    if bad:
        raise ConfigError(f"unknown pci option(s): {sorted(bad)}")
    pci = PCIParams(**pci_spec)
    known = {"memcpy_bandwidth", "cpus"}
    extra = {k: v for k, v in spec.items() if k in known}
    bad = set(spec) - known - {"pci"}
    if bad:
        raise ConfigError(f"unknown node_params option(s): {sorted(bad)}")
    return NodeParams(pci=pci, **extra)


def load_config(cfg: Mapping[str, Any]) -> tuple[
        Session, dict[str, RealChannel], dict[str, VirtualChannel]]:
    """Build a session from a configuration mapping.

    Returns ``(session, channels_by_name, virtual_channels_by_name)``.
    """
    if not isinstance(cfg, Mapping):
        raise ConfigError(f"configuration must be a mapping, got {type(cfg)}")
    unknown = set(cfg) - {"nodes", "channels", "virtual_channels",
                          "node_params"}
    if unknown:
        raise ConfigError(f"unknown top-level key(s): {sorted(unknown)}")
    nodes = _require(cfg, "nodes", "configuration")
    if not nodes:
        raise ConfigError("configuration declares no nodes")
    node_params = (_node_params(cfg["node_params"])
                   if "node_params" in cfg else None)
    world = build_world(nodes, node_params=node_params)
    session = Session(world)

    channels: dict[str, RealChannel] = {}
    for name, spec in cfg.get("channels", {}).items():
        protocol = _require(spec, "protocol", f"channel {name!r}")
        members = _require(spec, "members", f"channel {name!r}")
        try:
            channels[name] = session.channel(
                protocol, members, name=name,
                adapter_index=spec.get("adapter_index", 0))
        except (KeyError, ValueError) as exc:
            raise ConfigError(f"channel {name!r}: {exc}") from exc

    vchannels: dict[str, VirtualChannel] = {}
    for name, spec in cfg.get("virtual_channels", {}).items():
        member_names = _require(spec, "channels", f"virtual channel {name!r}")
        try:
            member_channels = [channels[m] for m in member_names]
        except KeyError as exc:
            raise ConfigError(
                f"virtual channel {name!r} references unknown channel "
                f"{exc.args[0]!r}") from None
        gw_spec = spec.get("gateway", {})
        known_gw = {"switch_overhead", "pipeline_depth", "lockstep",
                    "ingress_limit"}
        bad = set(gw_spec) - known_gw
        if bad:
            raise ConfigError(
                f"virtual channel {name!r}: unknown gateway option(s) "
                f"{sorted(bad)}")
        gateway_params = None
        if gw_spec:
            # ``pipeline_depth``/``lockstep`` are this input format's
            # spelling of the pipeline: lockstep (the default) is what a
            # two-buffer pipeline runs, false forces the credit path.
            gw_spec = dict(gw_spec)
            pipeline = PipelineConfig(
                depth=gw_spec.pop("pipeline_depth", 2),
                lockstep=None if gw_spec.pop("lockstep", True) else False)
            gateway_params = GatewayParams(pipeline=pipeline, **gw_spec)
        vchannels[name] = session.virtual_channel(
            member_channels,
            packet_size=spec.get("packet_size", DEFAULT_PACKET_SIZE),
            gateway_params=gateway_params, name=name)
    return session, channels, vchannels


def load_config_file(path: Union[str, Path]) -> tuple[
        Session, dict[str, RealChannel], dict[str, VirtualChannel]]:
    """Load a JSON configuration file (see :func:`load_config`)."""
    with open(path, encoding="utf-8") as fh:
        try:
            cfg = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid JSON ({exc})") from exc
    return load_config(cfg)
