"""The unified Scenario API: loaders, Session.from_scenario, back-compat."""

import json

import pytest

from repro.faults import FaultPlan
from repro.madeleine import Session
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


@pytest.mark.parametrize("key", ["seed", "topology"])
def test_a_missing_required_field_is_named_not_a_key_error(key):
    doc = _scenario().to_dict()
    del doc[key]
    with pytest.raises(ValueError, match=f"missing required field '{key}'"):
        loads_scenario(json.dumps(doc))


@pytest.mark.parametrize("edit, match", [
    (lambda d: d["messages"][0].update(dst="a0"), "loopback"),
    (lambda d: d["faults"]["channels"].update(c9={"drop_p": 0.1}),
     "unknown channel 'c9'"),
    (lambda d: d["faults"].update(
        node_events=[{"time": 10.0, "node": "b0"}]),
     "node event target 'b0' is not a gateway"),
], ids=["loopback-message", "unknown-fault-channel", "endpoint-crash"])
def test_loading_a_bad_scenario_fails_at_load(edit, match):
    """A file the stack would choke on mid-run is refused by the loader."""
    doc = _scenario().to_dict()
    edit(doc)
    with pytest.raises(ValueError, match=match):
        loads_scenario(json.dumps(doc))


def test_an_absent_field_takes_the_dataclass_default():
    """A file that leaves a field out gets the field's declared default:
    the gateway watchdog stays armed at 5,000 µs, not switched off."""
    doc = json.loads(open("benchmarks/scenarios/testbed.json").read())
    del doc["gw_stall_timeout"]
    assert loads_scenario(json.dumps(doc)).gw_stall_timeout == 5_000.0
    bare = {"seed": 3, "topology": {"kind": "chain",
                                    "protocols": ["myrinet", "sci"],
                                    "sizes": [1, 1], "gateways": [1]},
            "traffic": {}}
    assert Scenario.from_dict(bare) == Scenario(
        seed=3, topology=Topology("chain", ("myrinet", "sci"),
                                  sizes=(1, 1), gateways=(1,)),
        traffic=TrafficSpec())
    # an explicit null still turns the watchdog off
    assert Scenario.from_dict({**bare, "gw_stall_timeout": None}
                              ).gw_stall_timeout is None


def test_load_scenario_accepts_fuzz_repro_wrapper(tmp_path):
    sc = _scenario()
    doc = {"version": 1, "scenario": sc.to_dict(), "failures": [],
           "stats": {}}
    path = tmp_path / "repro.json"
    path.write_text(json.dumps(doc))
    assert load_scenario(path) == sc


def test_load_repro_accepts_bare_and_yaml_docs(tmp_path):
    # the one loader reads repro files, bare scenarios and YAML alike
    sc = _traffic_scenario()
    bare = tmp_path / "bare.json"
    bare.write_text(json.dumps(sc.to_dict()))
    assert load_scenario(bare) == sc
    as_yaml = tmp_path / "sc.yaml"
    dump_scenario(sc, as_yaml)
    assert load_scenario(as_yaml) == sc


def test_session_from_scenario_builds_full_stack():
    sc = _scenario()
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


# -- topology layout: names, ranks and NIC indices are part of the format -------
# Literal values read off the hand-written chain/multirail branches these
# shapes had before hw/topogen laid every family out; corpus files and fault
# plans name nodes and channels, so none of this may move.

_LAYOUTS = [
    (Topology("chain", ("myrinet", "sci"), sizes=(2, 2), gateways=(2,)),
     ["a0", "a1", "b0", "b1"], ["gw00", "gw01"],
     [("a0", ["myrinet"]), ("a1", ["myrinet"]), ("b0", ["sci"]),
      ("b1", ["sci"]), ("gw00", ["myrinet", "sci"]),
      ("gw01", ["myrinet", "sci"])],
     [("c0", "myrinet", ["a0", "a1", "gw00", "gw01"], [0, 0, 0, 0]),
      ("c1", "sci", ["b0", "b1", "gw00", "gw01"], [0, 0, 0, 0])]),
    (Topology("chain", ("sci", "myrinet", "sci"), sizes=(1, 2, 1),
              gateways=(1, 2)),
     ["a0", "b0", "b1", "c0"], ["gw00", "gw10", "gw11"],
     [("a0", ["sci"]), ("b0", ["myrinet"]), ("b1", ["myrinet"]),
      ("c0", ["sci"]), ("gw00", ["sci", "myrinet"]),
      ("gw10", ["myrinet", "sci"]), ("gw11", ["myrinet", "sci"])],
     [("c0", "sci", ["a0", "gw00"], [0, 0]),
      ("c1", "myrinet", ["b0", "b1", "gw00", "gw10", "gw11"],
       [0, 0, 0, 0, 0]),
      ("c2", "sci", ["c0", "gw10", "gw11"], [0, 0, 0])]),
    (Topology("multirail", ("myrinet", "sci"), gateways=(3,)),
     ["a0", "b0"], ["gw0", "gw1", "gw2"],
     [("a0", ["myrinet"] * 3), ("gw0", ["myrinet", "sci"]),
      ("gw1", ["myrinet", "sci"]), ("gw2", ["myrinet", "sci"]),
      ("b0", ["sci"] * 3)],
     [("ca0", "myrinet", ["a0", "gw0"], [0, 0]),
      ("cb0", "sci", ["gw0", "b0"], [0, 0]),
      ("ca1", "myrinet", ["a0", "gw1"], [1, 0]),
      ("cb1", "sci", ["gw1", "b0"], [0, 1]),
      ("ca2", "myrinet", ["a0", "gw2"], [2, 0]),
      ("cb2", "sci", ["gw2", "b0"], [0, 2])]),
]


@pytest.mark.parametrize("topo, endpoints, gateways, nodes, channels",
                         _LAYOUTS, ids=["chain-2x2", "chain-3", "rails-3"])
def test_chain_and_multirail_layouts_are_pinned(topo, endpoints, gateways,
                                                nodes, channels):
    assert topo.endpoint_names() == endpoints
    assert topo.gateway_names() == gateways
    assert list(topo.node_spec().items()) == nodes      # order = ranks
    assert topo.n_nodes == len(nodes)
    assert topo.channel_names() == [c[0] for c in channels]
    assert [(name, proto, members, [aidx[m] for m in members])
            for name, proto, members, aidx in topo.channel_specs()] == channels


def test_policy_tuples_convert_once_on_the_scenario():
    from dataclasses import replace

    from repro.hw.params import GatewayParams, PipelineConfig
    from repro.madeleine import TransportPolicy
    from repro.routing import StripePolicy
    from repro.solver.network import SolverNetwork

    topo = Topology("multirail", ("myrinet", "sci"), gateways=(2,))
    msgs = (MessageSpec("a0", "b0", 1024),)
    bare = Scenario(seed=1, topology=topo, messages=msgs)
    assert bare.gateway_params() == GatewayParams(stall_timeout=5_000.0)
    assert (bare.stripe_policy, bare.transport_policy) == (None, None)
    full = bare.with_(pipeline=(4, 3, False), stripe=(2, 4096),
                      adaptive=(2048, 3.0, 1.5, True))
    deep = PipelineConfig(depth=4, credits=3, lockstep=False)
    assert full.gateway_params().pipeline == deep
    # the scenario's pipeline wins over an override's; the rest is kept
    override = GatewayParams(switch_overhead=10.0)
    assert full.gateway_params(override) == replace(override, pipeline=deep)
    assert full.stripe_policy == StripePolicy(max_rails=2, min_stripe=4096)
    assert full.transport_policy == TransportPolicy(
        eager_threshold=2048, restripe_high=3.0, restripe_low=1.5,
        gateway_balance=True)
    vch = Session.from_scenario(full).virtual_channels[0]
    assert (vch.gateway_params, vch.stripe_policy, vch.transport_policy) == (
        full.gateway_params(), full.stripe_policy, full.transport_policy)
    assert SolverNetwork(full, gateway_params=override).gateway == (
        full.gateway_params(override))


# -- one transfer kind per scenario -------------------------------------------------

@pytest.mark.parametrize("kinds, traffic_kind", [
    (("plain", "reliable"), None),          # across the message list
    (("plain", "plain"), "reliable"),       # messages vs traffic.kind
    (("reliable",), "plain"),
], ids=["messages", "plain-vs-reliable-traffic", "reliable-vs-plain-traffic"])
def test_mixed_transfer_kinds_are_rejected(tmp_path, kinds, traffic_kind):
    """A ReliableEndpoint owns its rank's whole incoming stream, so plain
    and reliable transfers cannot share a scenario; this used to pass
    validation and end in UnpackMismatch or a heap-drain deadlock."""
    topo = Topology(kind="chain", protocols=("myrinet", "sci"),
                    sizes=(2, 2), gateways=(1,))
    sc = Scenario(
        seed=5, topology=topo,
        messages=tuple(MessageSpec("a0", "b0", 4096, kind=k) for k in kinds),
        traffic=(None if traffic_kind is None else
                 TrafficSpec(pattern="incast", flows=4, size=8 << 10,
                             kind=traffic_kind)))
    match = r"mix kinds \['plain', 'reliable'\].*ReliableEndpoint owns"
    with pytest.raises(ValueError, match=match):
        sc.validate()
    path = tmp_path / "mixed.json"
    dump_scenario(sc, path)
    with pytest.raises(ValueError, match=match):
        load_scenario(path)                 # loading validates
    with pytest.raises(ValueError, match=match):
        Session.from_scenario(sc)


def test_one_kind_with_messages_and_traffic_is_valid():
    topo = Topology(kind="chain", protocols=("myrinet", "sci"),
                    sizes=(2, 2), gateways=(1,))
    for kind in ("plain", "reliable"):
        Scenario(seed=5, topology=topo,
                 messages=(MessageSpec("a0", "b0", 4096, kind=kind),),
                 traffic=TrafficSpec(flows=4, kind=kind)).validate()
