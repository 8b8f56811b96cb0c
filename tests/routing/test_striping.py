"""Rail selection and stripe scheduling for multirail striping."""

import pytest

from repro.hw import build_world
from repro.madeleine import Session
from repro.routing import (RouteTable, StripePolicy, StripeScheduler,
                           disjoint_routes, route_rate)
from repro.routing.striping import STRIPE_ALIGN


def dual_gateway_table():
    w = build_world({
        "m0": ["myrinet"],
        "gwA": ["myrinet", "sci"],
        "gwB": ["myrinet", "sci"],
        "s0": ["sci"],
    })
    s = Session(w)
    myri = s.channel("myrinet", ["m0", "gwA", "gwB"])
    sci = s.channel("sci", ["gwA", "gwB", "s0"])
    return RouteTable([myri, sci])


def dual_nic_table():
    w = build_world({"a0": ["myrinet", "myrinet"],
                     "b0": ["myrinet", "myrinet"]})
    s = Session(w)
    rail0 = s.channel("myrinet", ["a0", "b0"])
    rail1 = s.channel("myrinet", ["a0", "b0"],
                      adapter_index={"a0": 1, "b0": 1})
    return RouteTable([rail0, rail1])


# ------------------------------------------------------------- policy


def test_policy_validation():
    StripePolicy()   # defaults are valid
    with pytest.raises(ValueError, match="max_rails"):
        StripePolicy(max_rails=0)
    with pytest.raises(ValueError, match="min_stripe"):
        StripePolicy(min_stripe=512)       # below the 1 KB alignment
    with pytest.raises(ValueError, match="min_stripe"):
        StripePolicy(min_stripe=1536)      # not a multiple of it


# ---------------------------------------------------------- all_routes


def test_all_routes_order_is_deterministic():
    # Satellite: the rail order must be a pure function of the topology,
    # not of graph insertion order — stripe seq assignment depends on it.
    rt = dual_gateway_table()
    first = rt.all_routes(0, 3)
    keys = [tuple(h.channel.id for h in r) + tuple(h.dst for h in r)
            for r in first]
    assert keys == sorted(keys)
    for _ in range(3):
        rt.invalidate()
        again = rt.all_routes(0, 3)
        assert [tuple((h.src, h.dst, h.channel.id) for h in r)
                for r in again] == \
            [tuple((h.src, h.dst, h.channel.id) for h in r) for r in first]


def test_all_routes_expands_parallel_edges():
    # A node pair joined by two live channels (dual NICs) contributes one
    # route per channel, in sorted channel-id order.
    rt = dual_nic_table()
    routes = rt.all_routes(0, 1)
    assert len(routes) == 2
    ids = [r[0].channel.id for r in routes]
    assert ids == sorted(ids) and ids[0] != ids[1]


# ------------------------------------------------------ disjoint_routes


def test_disjoint_routes_picks_both_gateways():
    rt = dual_gateway_table()
    rails = disjoint_routes(rt.all_routes(0, 3), max_rails=4)
    assert len(rails) == 2
    assert sorted(r[0].dst for r in rails) == [1, 2]   # gwA and gwB


def test_disjoint_routes_respects_max_rails():
    rt = dual_gateway_table()
    rails = disjoint_routes(rt.all_routes(0, 3), max_rails=1)
    assert len(rails) == 1
    # deterministic: always the first candidate
    assert rails[0][0].dst == rt.all_routes(0, 3)[0][0].dst


def test_disjoint_routes_rejects_shared_gateway():
    # Two routes through the same interior node are not disjoint rails.
    rt = dual_gateway_table()
    candidates = rt.all_routes(0, 3)
    doubled = [candidates[0], candidates[0], candidates[1]]
    rails = disjoint_routes(doubled, max_rails=3)
    assert len(rails) == 2
    assert rails[0][0].dst != rails[1][0].dst


def test_disjoint_routes_direct_rails_need_distinct_channels():
    rt = dual_nic_table()
    candidates = rt.all_routes(0, 1)
    rails = disjoint_routes(candidates + candidates, max_rails=4)
    assert len(rails) == 2
    assert rails[0][0].channel.id != rails[1][0].channel.id


# ----------------------------------------------------------- route_rate


def test_route_rate_is_bottleneck_with_overrides():
    rt = dual_gateway_table()
    route = rt.all_routes(0, 3)[0]
    protos = {h.channel.protocol for h in route}
    assert route_rate(route) == min(p.host_peak for p in protos)
    slow = {p.name: 1.0 for p in protos}
    assert route_rate(route, slow) == 1.0


# ------------------------------------------------------------ scheduler


def two_rail_scheduler(policy=None, rates=None):
    rt = dual_gateway_table()
    rails = disjoint_routes(rt.all_routes(0, 3), max_rails=2)
    return StripeScheduler(rails, policy or StripePolicy(),
                           rate_overrides=rates)


def test_scheduler_requires_a_rail():
    with pytest.raises(ValueError):
        StripeScheduler([], StripePolicy())


def test_plan_sums_and_aligns():
    sched = two_rail_scheduler()
    length = 64 << 10
    plan = sched.plan(length)
    assert sum(plan) == length
    assert len(plan) == 2
    # every non-primary chunk is alignment-quantized
    assert any(c % STRIPE_ALIGN == 0 for c in plan)


def test_plan_is_deterministic():
    plans = []
    for _ in range(3):
        sched = two_rail_scheduler()
        plans.append([tuple(sched.plan(n))
                      for n in (8 << 10, 16 << 10, 64 << 10, 100_001)])
    assert plans[0] == plans[1] == plans[2]


def test_small_paquet_goes_whole_to_one_rail():
    sched = two_rail_scheduler()
    length = sched.policy.min_stripe * 2 - 1
    plan = sched.plan(length)
    assert sorted(plan) == [0, length]


def test_small_paquets_alternate_with_backlog():
    # With equal rates, the whole-paquet path picks the least-loaded rail,
    # so consecutive small paquets alternate once backlog is tracked.
    sched = two_rail_scheduler()
    n = 4 << 10
    first = sched.plan(n).index(n)
    sched.note_sent(first, n)
    second = sched.plan(n).index(n)
    assert second != first


def test_backlogged_rail_gets_less():
    sched = two_rail_scheduler()
    sched.note_sent(0, 48 << 10)
    plan = sched.plan(64 << 10)
    assert plan[1] > plan[0]
    sched.note_done(0, 48 << 10)
    balanced = sched.plan(64 << 10)
    assert abs(balanced[0] - balanced[1]) <= max(plan) - min(plan)


def test_hopelessly_backlogged_rail_sits_out():
    # Water-filling drops a rail whose backlog already exceeds the common
    # finish horizon: the whole paquet goes to the idle rail.
    sched = two_rail_scheduler()
    sched.note_sent(0, 10 << 20)
    plan = sched.plan(16 << 10)
    assert plan[0] == 0 and plan[1] == 16 << 10


def test_runt_stripes_fold_into_primary():
    # A split that would leave a sliver below min_stripe on the secondary
    # rail folds it into the primary instead.
    sched = two_rail_scheduler(rates={"myrinet": 100.0, "sci": 1.0})
    plan = sched.plan(9 << 10)
    assert sum(plan) == 9 << 10
    assert all(c == 0 or c >= sched.policy.min_stripe or c == 9 << 10
               for c in plan)


# ----------------------------------- health transitions and generations


def test_generation_bumps_only_on_real_transitions():
    rt = dual_gateway_table()
    g0 = rt.generation
    rt.mark_down("ch0:myrinet")
    assert rt.generation == g0 + 1
    rt.mark_down("ch0:myrinet")          # idempotent re-mark: no bump
    assert rt.generation == g0 + 1
    rt.mark_up("ch0:myrinet")
    assert rt.generation == g0 + 2
    rt.mark_up("ch0:myrinet")            # already live: no bump
    assert rt.generation == g0 + 2
    rt.mark_node_down(1)
    rt.mark_node_up(1)
    assert rt.generation == g0 + 4


def test_revived_gateway_rail_is_reused_without_manual_invalidate():
    # Satellite: after mark_node_up, all_routes must serve both rails again
    # purely off the health transition — nobody calls invalidate() by hand.
    rt = dual_gateway_table()
    assert len(disjoint_routes(rt.all_routes(0, 3), 2)) == 2
    rt.mark_node_down(1)                 # gwA crashes
    survivors = disjoint_routes(rt.all_routes(0, 3), 2)
    assert [r[0].dst for r in survivors] == [2]
    rt.mark_node_up(1)                   # gwA restarts
    revived = disjoint_routes(rt.all_routes(0, 3), 2)
    assert sorted(r[0].dst for r in revived) == [1, 2]


def test_revived_channel_rail_is_reused_without_manual_invalidate():
    rt = dual_nic_table()
    down = rt.all_routes(0, 1)[0][0].channel
    rt.mark_down(down)
    assert len(rt.all_routes(0, 1)) == 1
    rt.mark_up(down)
    assert len(rt.all_routes(0, 1)) == 2
