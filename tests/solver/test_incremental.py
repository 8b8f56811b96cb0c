"""The incremental solver epoch loop: bit-identity, crosscheck, locality.

The solver's incremental mode re-fills only the contention component that an
arrival or completion actually touched, and warm-starts everything else by
*not* settling rails whose rate did not change.  Because a component's
max-min rates are a pure function of its membership (never of remaining
bytes), the incremental schedule must be bit-identical to full recomputation
— not merely close.
"""

import math

import pytest

from repro.solver import max_min_rates, solve
from repro.solver.network import SolverNetwork
from repro.solver.validate import (multirail_scenario, ping_scenario,
                                   traffic_scenario)
from repro.traffic import scenario_flows


def _rails(net: SolverNetwork, scenario):
    rails = []
    for f in scenario_flows(scenario):
        rails.extend(net.routed_flows(f.index, f.src, f.dst, f.nbytes,
                                      arrival=f.arrival))
    return rails

CELLS = [traffic_scenario("torus", 8),
         traffic_scenario("torus", 64),
         multirail_scenario(8 << 10, 2 << 20, 2),
         ping_scenario(64 << 10, 2 << 20, direction="b0->a0")]


@pytest.mark.parametrize("idx", range(len(CELLS)))
def test_incremental_is_bit_identical_to_full(idx):
    sc = CELLS[idx]
    inc = solve(sc)
    full = solve(sc, incremental=False)
    assert len(inc.flows) == len(full.flows)
    for a, b in zip(inc.flows, full.flows):
        assert a.index == b.index
        assert a.finish_us == b.finish_us        # bit-exact, not approx
        assert a.bandwidth == b.bandwidth
    # utilization integrals settle resources at mode-dependent times, so
    # the summation order differs — equal to float-reassociation noise.
    assert inc.utilization.keys() == full.utilization.keys()
    for key, u in inc.utilization.items():
        assert u == pytest.approx(full.utilization[key], rel=1e-9,
                                  abs=1e-12)


@pytest.mark.parametrize("idx", range(len(CELLS)))
def test_crosscheck_against_global_oracle(idx):
    # Every epoch's incremental rates are compared against a from-scratch
    # global max_min_rates solve; the worst deviation must sit far inside
    # the 1e-9 gate (observed ~1e-15, pure float-reassociation noise).
    result = solve(CELLS[idx], crosscheck=True)
    assert result.crosscheck_max_dev <= 1e-9


def test_summary_exposes_work_counters():
    summary = solve(traffic_scenario("torus", 64)).summary()
    assert summary["epoch_flows"] > 0
    assert summary["live_flow_epochs"] >= summary["epoch_flows"]
    assert 0.0 < summary["recompute_fraction"] <= 1.0


def test_incremental_does_strictly_less_work_when_components_split():
    # On a torus with many flows, some epochs touch only a sub-component;
    # the incremental counter must come in strictly under full mode's
    # all-active count while producing the same schedule.
    sc = traffic_scenario("torus", 64)
    inc = solve(sc)
    full = solve(sc, incremental=False)
    assert inc.live_flow_epochs == full.live_flow_epochs
    assert inc.epoch_flows < full.epoch_flows
    assert full.epoch_flows == full.live_flow_epochs


def test_component_size_histogram_accounts_for_all_work():
    result = solve(traffic_scenario("torus", 64))
    assert result.component_sizes              # non-empty dict
    assert sum(size * n for size, n in result.component_sizes.items()) \
        == result.epoch_flows


def test_interned_resource_ids_align_with_footprint():
    sc = traffic_scenario("torus", 8)
    net = SolverNetwork(sc)
    rails = _rails(net, sc)
    index = net.res_index
    assert rails
    for rf in rails:
        assert len(rf.res_ids) == len(rf.footprint)
        for rid, (key, _w) in zip(rf.res_ids, rf.footprint):
            assert index[key] == rid


def test_single_flow_rate_unaffected_by_mode():
    # Degenerate single-component case: the epoch loop never splits, yet
    # both modes must agree with the closed-form ceiling-limited rate.
    sc = ping_scenario(64 << 10, 2 << 20, direction="b0->a0")
    net = SolverNetwork(sc)
    flows = _rails(net, sc)
    assert len(flows) == 1
    caps = {key: net.resources[key].capacity for key in net.res_keys()}
    rates = max_min_rates(flows, caps)
    bw_inc = solve(sc).flows[0].bandwidth
    bw_full = solve(sc, incremental=False).flows[0].bandwidth
    assert bw_inc == bw_full
    assert math.isclose(bw_inc, min(rates[flows[0].id], flows[0].ceiling),
                        rel_tol=1e-6) or bw_inc <= rates[flows[0].id]
