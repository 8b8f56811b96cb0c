"""Fixed-point properties of the analytic solver, and its exact composition
with the closed-form §3.3.1 predictions."""

import math
from pathlib import Path

import pytest

import repro.solver.core as solver_core
from repro.analysis.model import predict_forwarding, predict_multirail
from repro.hw.params import PROTOCOLS, NodeParams, PCIParams
from repro.scenario import load_scenario
from repro.sim import SimError
from repro.solver import (FlowStarved, RoutedFlow, SolverNetwork,
                          max_min_rates, solve, solve_bandwidth)
from repro.solver.validate import (multirail_scenario, ping_scenario,
                                   traffic_scenario)
from repro.traffic import scenario_flows

MYRINET = PROTOCOLS["myrinet"]
SCI = PROTOCOLS["sci"]


def _flow(fid, ceiling, footprint, nbytes=1 << 20):
    return RoutedFlow(id=fid, nbytes=nbytes, arrival=0.0, ceiling=ceiling,
                      setup_us=0.0, footprint=tuple(footprint))


# -- max-min allocation properties -------------------------------------------

def test_rates_never_exceed_any_capacity():
    caps = {"wire": 10.0, "bus": 7.0}
    flows = [_flow(1, 8.0, [("wire", 1), ("bus", 1)]),
             _flow(2, 8.0, [("wire", 1), ("bus", 1)]),
             _flow(3, 8.0, [("wire", 1)])]
    rates = max_min_rates(flows, caps)
    for key, cap in caps.items():
        used = sum(rates[f.id] * w for f in flows
                   for k, w in f.footprint if k == key)
        assert used <= cap + 1e-6
    for f in flows:
        assert rates[f.id] <= f.ceiling + 1e-9


def test_identical_flows_get_identical_rates():
    caps = {"wire": 9.0}
    flows = [_flow(i, 100.0, [("wire", 1)]) for i in range(3)]
    rates = max_min_rates(flows, caps)
    assert rates[0] == pytest.approx(rates[1]) == pytest.approx(rates[2])
    assert sum(rates.values()) == pytest.approx(9.0)


def test_unconstrained_flow_reaches_its_ceiling():
    caps = {"wire": 100.0}
    rates = max_min_rates([_flow(1, 12.5, [("wire", 1)])], caps)
    assert rates[1] == pytest.approx(12.5)


def test_weighted_footprint_consumes_weight_times_rate():
    # A forwarded flow crosses the gateway bus twice: its max-min share of
    # a 10-unit bus against a weight-1 flow solves r*2 + r = 10.
    caps = {"bus": 10.0}
    flows = [_flow("fwd", 100.0, [("bus", 2)]),
             _flow("direct", 100.0, [("bus", 1)])]
    rates = max_min_rates(flows, caps)
    assert rates["fwd"] == pytest.approx(rates["direct"])
    assert rates["fwd"] == pytest.approx(10.0 / 3.0)


def test_adding_load_never_raises_existing_rates():
    caps = {"wire": 10.0, "bus": 6.0}
    base = [_flow(1, 8.0, [("wire", 1)]), _flow(2, 4.0, [("bus", 1)])]
    before = max_min_rates(base, caps)
    crowded = base + [_flow(3, 8.0, [("wire", 1), ("bus", 1)])]
    after = max_min_rates(crowded, caps)
    for f in base:
        assert after[f.id] <= before[f.id] + 1e-9


def test_bottleneck_flow_does_not_drag_unrelated_flows():
    caps = {"a": 2.0, "b": 100.0}
    flows = [_flow("slow", 50.0, [("a", 1), ("b", 1)]),
             _flow("fast", 50.0, [("b", 1)])]
    rates = max_min_rates(flows, caps)
    assert rates["slow"] == pytest.approx(2.0)
    assert rates["fast"] == pytest.approx(50.0)


# -- exact composition with the closed-form predictions ----------------------

def test_single_flow_chain_equals_predict_forwarding_exactly():
    packet = 64 << 10
    sc = ping_scenario(packet, 2 << 20, direction="b0->a0")
    net = SolverNetwork(sc)
    route = net.routes.route(net.rank["b0"], net.rank["a0"])
    predicted = predict_forwarding(SCI, MYRINET, packet)
    assert net.ceiling(route) == predicted.bandwidth
    assert net.steady_period(route) == predicted.period_us


def test_single_message_bandwidth_equals_model_including_setup():
    packet, message = 64 << 10, 2 << 20
    sc = ping_scenario(packet, message, direction="b0->a0")
    net = SolverNetwork(sc)
    route = net.routes.route(net.rank["b0"], net.rank["a0"])
    expected = message / (message / net.ceiling(route)
                          + net.setup_time(route))
    assert solve_bandwidth(sc) == pytest.approx(expected, rel=1e-12)


def test_striped_flow_equals_predict_multirail_exactly():
    packet, message = 8 << 10, 2 << 20
    for rails in (2, 3):
        sc = multirail_scenario(packet, message, rails)
        model = predict_multirail(MYRINET, SCI, packet, rails=rails,
                                  message=message)
        assert solve_bandwidth(sc) == pytest.approx(model.bandwidth,
                                                    rel=1e-12)


# -- whole-scenario solve ----------------------------------------------------

def test_solve_traffic_scenario_summary_shape():
    sc = traffic_scenario("torus", 8)
    result = solve(sc)
    summary = result.summary()
    assert summary["mode"] == "solver"
    assert summary["flows"] == summary["completed"] == 8
    assert summary["p50_fct_us"] <= summary["p99_fct_us"] \
        <= summary["max_fct_us"]
    assert summary["duration_us"] > 0
    assert math.isfinite(summary["events_per_mb"])
    # every flow finishes after it arrives, with a positive rate
    for f in result.flows:
        assert f.finish_us > f.arrival
        assert f.bandwidth > 0


def test_solve_utilization_bounded_by_one():
    result = solve(traffic_scenario("torus", 16))
    for key, u in result.utilization.items():
        assert -1e-9 <= u <= 1.0 + 1e-6, (key, u)
    assert result.link_utilization()    # wire segments present


def test_more_offered_load_never_shortens_the_run():
    light = solve(traffic_scenario("torus", 8)).summary()
    heavy = solve(traffic_scenario("torus", 64)).summary()
    assert heavy["duration_us"] >= light["duration_us"]


def test_solve_bandwidth_rejects_multi_flow_scenarios():
    with pytest.raises(ValueError):
        solve_bandwidth(traffic_scenario("torus", 8))


def test_solve_rejects_empty_scenarios():
    from repro.scenario import Scenario, Topology
    sc = Scenario(seed=0,
                  topology=Topology(kind="torus", protocols=("myrinet",),
                                    dims=(2, 2)))
    with pytest.raises(ValueError):
        solve(sc)


def test_starved_rail_raises_a_typed_error():
    # a PCI bus with no usable bandwidth: the fill hands the flow nothing
    dead_bus = NodeParams(pci=PCIParams(duplex_efficiency=1e-12))
    with pytest.raises(FlowStarved) as caught:
        solve(ping_scenario(64 << 10, 1 << 20), node_params=dead_bus)
    assert isinstance(caught.value, SimError)
    assert caught.value.rail_id == (0, 0)
    assert "(0, 0)" in str(caught.value)


def test_zero_bus_efficiency_is_a_value_error_not_a_zero_division():
    # 1e-12 above is positive and starves; 0 never reaches the 3.3.1 kernel
    with pytest.raises(ValueError, match="duplex_efficiency"):
        solve(ping_scenario(64 << 10, 1 << 20),
              node_params=NodeParams(pci=PCIParams(duplex_efficiency=0)))


@pytest.mark.parametrize("scenario", [
    ping_scenario(64 << 10, 1 << 20), traffic_scenario("torus", 16)],
    ids=["testbed", "torus-4x4-16-flows"])
def test_small_components_pack_no_rail(monkeypatch, scenario):
    """Below the fill's array crossover a rail is never turned into
    arrays: the what-if regime allocates nothing for a path it never
    takes."""
    def pack(self):
        raise AssertionError(f"rail {self.rf.id} was packed")
    monkeypatch.setattr(solver_core._Rail, "pack", pack)
    assert solve(scenario).flows


# -- memoised per-route kernels ------------------------------------------------

def test_memoised_kernels_equal_the_unmemoised_computation():
    """Every route the 256-node torus scenario's flows take, unstriped and
    as one of two striped rails (finite ``end_share``): the remembered
    ``ceiling``/``setup_time`` are the values a cold network computes."""
    scenario = load_scenario(Path(__file__).resolve().parents[2]
                             / "benchmarks/perf/scenarios/solver_sparse.json")
    warm, cold = SolverNetwork(scenario), SolverNetwork(scenario)
    share = warm.node.pci.capacity / 2
    pairs = {(f.src, f.dst) for f in scenario_flows(scenario)}
    assert len(pairs) > 1000
    for src, dst in sorted(pairs):
        route = warm.routes.route(warm.rank[src], warm.rank[dst])
        for rails, end_share in ((1, float("inf")), (2, share)):
            got = (warm.ceiling(route, end_share),
                   warm.setup_time(route, rails=rails, end_share=end_share))
            cold._kernels.clear()
            assert got == (cold.ceiling(route, end_share),
                           cold.setup_time(route, rails=rails,
                                           end_share=end_share))
    assert len(warm._kernels) < len(pairs) / 10     # it did remember
