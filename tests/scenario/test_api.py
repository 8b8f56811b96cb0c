"""The unified Scenario API: loaders, Session.from_scenario, back-compat."""

import json

import pytest

from repro.faults import FaultPlan
from repro.madeleine import Session, reset_global_ids
from repro.scenario import (MessageSpec, Scenario, Topology, TrafficSpec,
                            dump_scenario, load_scenario, loads_scenario)

yaml = pytest.importorskip("yaml", reason="PyYAML not installed")


def _scenario() -> Scenario:
    topo = Topology(kind="chain", protocols=("myrinet", "sci"),
                    sizes=(1, 1), gateways=(1,))
    return Scenario(seed=9, topology=topo,
                    messages=(MessageSpec("a0", "b0", 4096),),
                    faults=FaultPlan())


def _traffic_scenario() -> Scenario:
    topo = Topology(kind="torus", protocols=("myrinet",), dims=(3, 3))
    return Scenario(seed=4, topology=topo,
                    traffic=TrafficSpec(pattern="incast", flows=6,
                                        size=8 << 10),
                    gw_stall_timeout=None)


def test_json_file_roundtrip(tmp_path):
    sc = _traffic_scenario()
    path = tmp_path / "sc.json"
    dump_scenario(sc, path)
    assert load_scenario(path) == sc


def test_yaml_file_roundtrip(tmp_path):
    sc = _traffic_scenario()
    path = tmp_path / "sc.yaml"
    dump_scenario(sc, path)
    assert load_scenario(path) == sc


def test_loads_scenario_autodetects_format():
    sc = _scenario()
    assert loads_scenario(json.dumps(sc.to_dict())) == sc
    assert loads_scenario(yaml.safe_dump(sc.to_dict())) == sc


def test_load_scenario_accepts_fuzz_repro_wrapper(tmp_path):
    sc = _scenario()
    doc = {"version": 1, "scenario": sc.to_dict(), "failures": [],
           "stats": {}}
    path = tmp_path / "repro.json"
    path.write_text(json.dumps(doc))
    assert load_scenario(path) == sc


def test_load_repro_accepts_bare_and_yaml_docs(tmp_path):
    from repro.fuzz import load_repro

    sc = _traffic_scenario()
    bare = tmp_path / "bare.json"
    bare.write_text(json.dumps(sc.to_dict()))
    assert load_repro(bare) == sc
    as_yaml = tmp_path / "sc.yaml"
    dump_scenario(sc, as_yaml)
    assert load_repro(as_yaml) == sc


def test_session_from_scenario_builds_full_stack():
    sc = _scenario()
    reset_global_ids()
    session = Session.from_scenario(sc)
    assert len(session.virtual_channels) == 1
    vch = session.virtual_channels[0]
    assert {session.rank("a0"), session.rank("b0")} <= set(vch.members)


def test_from_scenario_rejects_invalid():
    topo = Topology(kind="chain", protocols=("myrinet", "sci"),
                    sizes=(1, 1), gateways=(1,))
    sc = Scenario(seed=0, topology=topo)    # no messages, no traffic
    with pytest.raises(ValueError, match="no traffic"):
        Session.from_scenario(sc)


def test_traffic_spec_validation():
    with pytest.raises(ValueError, match="pattern"):
        TrafficSpec(pattern="ring")
    with pytest.raises(ValueError, match="flows"):
        TrafficSpec(flows=0)
    with pytest.raises(ValueError, match="interarrival"):
        TrafficSpec(mean_interarrival=0.0)
