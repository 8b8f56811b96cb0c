"""The incremental solver epoch loop: the global oracle, locality.

The solver re-fills only the contention component that an arrival or
completion actually touched, and warm-starts everything else by *not*
settling rails whose rate did not change.  A component's max-min rates are
a pure function of its membership (never of remaining bytes), so its finish
times and resource utilizations must match
:mod:`tests.solver.reference_solve`, which re-solves every live rail with
the global :func:`~repro.solver.max_min_rates` oracle at every epoch, up
to float reassociation.
"""

import math

import pytest

from repro.bench import PingHarness
from repro.bench.sweep import rails_harness
from repro.solver import max_min_rates, solve
from repro.solver.network import SolverNetwork
from repro.traffic import scenario_flows
from tests.solver.reference_solve import reference_solve
from tests.solver.scenarios import traffic_scenario


def _rails(net: SolverNetwork, scenario):
    rails = []
    for f in scenario_flows(scenario):
        rails.extend(net.routed_flows(f.index, f.src, f.dst, f.nbytes,
                                      arrival=f.arrival))
    return rails

CELLS = [traffic_scenario("torus", 8),
         traffic_scenario("torus", 64),
         rails_harness(2, 8 << 10).scenario(2 << 20),
         PingHarness(packet_size=64 << 10).scenario(2 << 20, "b0->a0"),
         traffic_scenario("fat_tree", 64)]


@pytest.mark.parametrize("idx", range(len(CELLS)))
def test_crosscheck_against_global_oracle(idx):
    # Finish times observed within 7.2e-16 of the reference: float
    # reassociation only.  Utilizations settle resources at other
    # instants, so their sums reassociate too.
    result = solve(CELLS[idx])
    finish, utilization = reference_solve(CELLS[idx])
    assert sorted(finish) == [est.index for est in result.flows]
    for est in result.flows:
        assert est.finish_us == pytest.approx(finish[est.index], rel=1e-9)
    assert result.utilization.keys() == utilization.keys()
    for key, u in result.utilization.items():
        assert u == pytest.approx(utilization[key], rel=1e-9, abs=1e-12)


def test_summary_exposes_work_counters():
    summary = solve(traffic_scenario("torus", 64)).summary()
    assert summary["epoch_flows"] > 0
    assert summary["live_flow_epochs"] >= summary["epoch_flows"]
    assert 0.0 < summary["recompute_fraction"] <= 1.0


def test_incremental_does_strictly_less_work_when_components_split():
    # On a torus with many flows, some epochs touch only a sub-component:
    # the rails re-solved come in strictly under the rails live.
    inc = solve(traffic_scenario("torus", 64))
    assert inc.epoch_flows < inc.live_flow_epochs


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
    # it must agree with the global-oracle loop and with the closed-form
    # ceiling-limited rate.
    sc = PingHarness(packet_size=64 << 10).scenario(2 << 20, "b0->a0")
    net = SolverNetwork(sc)
    flows = _rails(net, sc)
    assert len(flows) == 1
    caps = {key: net.resources[key].capacity for key in net.res_keys()}
    rates = max_min_rates(flows, caps)
    est = solve(sc).flows[0]
    assert est.finish_us == reference_solve(sc)[0][est.index]
    bw_inc = est.bandwidth
    assert math.isclose(bw_inc, min(rates[flows[0].id], flows[0].ceiling),
                        rel_tol=1e-6) or bw_inc <= rates[flows[0].id]
