"""Per-flow solver state points at shared objects.

Routing the ``solver_sparse`` benchmark cell (3,072 flows on an 8x8x4
torus) through :meth:`SolverNetwork.routed_flows` must hold one object per
resource key, per distinct footprint entry and per crossed edge: the keys
are the network's :attr:`Resource.key` tuples, equal entries are one
object, and the route table hands every route over an edge the same
:class:`Hop`.  Sharing hops across health transitions must not change a
single route: a DES route table taken down and up again answers like a
fresh one, and the recorded route goldens still match.
"""

import json
import pathlib

import pytest

from repro.madeleine import Session
from repro.routing import NoRouteError
from repro.scenario import load_scenario
from repro.solver.network import SolverNetwork
from repro.traffic.flows import scenario_flows
from tests.routing import test_routes_golden as golden
from tests.solver.scenarios import traffic_scenario

SPARSE = (pathlib.Path(__file__).resolve().parents[2] / "benchmarks"
          / "perf" / "scenarios" / "solver_sparse.json")


@pytest.fixture(scope="module")
def sparse():
    net = SolverNetwork(load_scenario(SPARSE))
    flows = [rf for f in scenario_flows(net.scenario)
             for rf in net.routed_flows(f.index, f.src, f.dst, f.nbytes,
                                        arrival=f.arrival)]
    return net, flows


def test_footprint_keys_are_the_resource_keys(sparse):
    net, flows = sparse
    for rf in flows:
        for key, _w in rf.footprint:
            assert key is net.resources[key].key, (rf.id, key)


def test_equal_footprint_entries_are_one_object(sparse):
    _net, flows = sparse
    entries = [e for rf in flows for e in rf.footprint]
    objects = {id(e) for e in entries}
    values = set(entries)
    assert len(objects) <= len(values), (len(objects), len(values))
    assert len(entries) > 10 * len(values)      # sharing is what is tested


def test_routes_over_one_edge_share_its_hop(sparse):
    net, _flows = sparse
    seen: dict = {}
    crossings = 0
    for route in net.routes._cache.values():
        for hop in route:
            edge = (hop.channel.id, hop.src, hop.dst)
            assert seen.setdefault(edge, hop) is hop, edge
            crossings += 1
    assert crossings > 2 * len(seen)        # edges are crossed repeatedly


def _all_routes(table, ranks):
    out = {}
    for src in ranks:
        for dst in ranks:
            if src != dst:
                try:
                    out[src, dst] = [(h.channel.id, h.src, h.dst)
                                     for h in table.route(src, dst)]
                except NoRouteError as exc:
                    out[src, dst] = str(exc)
    return out


def _des_routes(down=None):
    """Every route of a fresh DES route table (one channel marked down)."""
    session = Session.from_scenario(traffic_scenario("fat_tree", 1))
    table = session.virtual_channels[0].routes
    if down is not None:
        table.mark_down(down)
    routes = _all_routes(table, table.members())
    session.world.close()
    return routes


def test_des_routes_after_down_and_up_equal_a_fresh_table():
    session = Session.from_scenario(traffic_scenario("fat_tree", 1))
    table = session.virtual_channels[0].routes
    ranks = table.members()
    healthy = _all_routes(table, ranks)
    crossed = [cid for route in healthy.values() for cid, _s, _d in route]
    down = max(set(crossed), key=crossed.count)
    table.mark_down(down)
    while_down = _all_routes(table, ranks)
    for route in while_down.values():
        if not isinstance(route, str):
            assert all(cid != down for cid, _s, _d in route), route
    table.mark_up(down)
    back_up = _all_routes(table, ranks)
    session.world.close()
    assert while_down != healthy
    assert while_down == _des_routes(down)
    assert back_up == healthy == _des_routes()


@pytest.fixture(scope="module")
def recording():
    return json.loads(golden.RECORDING.read_text())["cases"]


@pytest.mark.parametrize("name", golden.CASES)
def test_one_table_through_every_health_state_matches_the_recording(
        recording, name):
    """The golden states replayed on one table (healthy, then each failure
    and back), so its hops outlive every invalidation in between."""
    table, _rank = golden._table(golden.CASES[name][0])
    for state in ("healthy", "channel_down", "healthy", "gateway_down",
                  "healthy"):
        rec = recording[name][state]
        golden._apply(table, rec)
        for src, dst, expected in rec["pairs"]:
            assert golden._pair(table, src, dst) == expected, (state, src,
                                                               dst)
        for cid in rec["down_channels"]:
            table.mark_up(cid)
        for node in rec["down_nodes"]:
            table.mark_node_up(node)
