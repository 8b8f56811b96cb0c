"""Route tables, pinned pair by pair.

``route(src, dst)`` and ``all_routes(src, dst)`` of seeded pair samples on
seven topologies — each healthy, with one channel down and with one
gateway rank down — compared with ``==`` against
``tests/data/routes_golden.json``.  The recording was made on the commit
before the channel graph became a plain adjacency map, so a changed
tie-break, a changed enumeration order (which decides the 64 survivors of
``MAX_ROUTE_CANDIDATES`` on a torus) or a changed ``NoRouteError`` text
fails here.

Re-record with ``python -m tests.routing.test_routes_golden OUT.json``.
"""

import json
import pathlib
import random
import sys
from collections import namedtuple

import pytest

from repro.routing import NoRouteError, RouteTable
from repro.scenario import Topology

RECORDING = (pathlib.Path(__file__).parent.parent / "data"
             / "routes_golden.json")

#: what the route table reads of a real channel
Chan = namedtuple("Chan", "id members")

#: name -> (topology, pairs always recorded, by node name)
CASES = {
    "paper3": (Topology("chain", ("myrinet", "sci"), (1, 1), (1,)), []),
    "chain2x2": (Topology("chain", ("myrinet", "sci"), (2, 2), (2,)), []),
    "rails3": (Topology("multirail", ("myrinet", "sci"), gateways=(3,)), []),
    "hierarchy": (Topology("hierarchy", ("myrinet", "sci"), (3, 4), (2,)),
                  []),
    "fat_tree": (Topology("fat_tree", ("myrinet", "sci"), (8, 8), (4,)),
                 [("l0h0", "l7h7")]),
    # (3, 3, 1) apart: 7!/(3!3!1!) = 140 shortest paths, (4, 4, 2): 3150
    "torus8x8x4": (Topology("torus", ("myrinet",), dims=(8, 8, 4)),
                   [("t0_0_0", "t3_3_1"), ("t1_2_0", "t5_6_2")]),
    "torus4x4": (Topology("torus", ("myrinet",), dims=(4, 4)),
                 [("t0_0", "t2_2")]),
}
STATES = ("healthy", "channel_down", "gateway_down")
SAMPLED_PAIRS = 8


def _table(topo: Topology):
    rank = {name: i for i, name in enumerate(topo.node_spec())}
    table = RouteTable([Chan(name, tuple(rank[m] for m in members))
                        for name, _proto, members, _nic
                        in topo.channel_specs()])
    return table, rank


def _hops(route) -> list:
    return [[h.channel.id, h.src, h.dst] for h in route]


def _ask(fn, *args):
    try:
        return fn(*args)
    except NoRouteError as exc:
        return f"NoRouteError: {exc}"


def _pair(table: RouteTable, src: int, dst: int) -> dict:
    route = _ask(table.route, src, dst)
    rails = _ask(table.all_routes, src, dst)
    return {"route": route if isinstance(route, str) else _hops(route),
            "all_routes": (rails if isinstance(rails, str)
                           else [_hops(r) for r in rails])}


def _apply(table: RouteTable, state: dict) -> None:
    for cid in state["down_channels"]:
        table.mark_down(cid)
    for node in state["down_nodes"]:
        table.mark_node_down(node)


def record_case(name: str) -> dict:
    """The three health states of one topology.  The failed channel is the
    middle hop of the longest healthy route among the pairs and the failed
    rank that hop's far end: a forwarder on a route that is asked for (on
    the tori, one with more than 64 shortest paths)."""
    topo, named = CASES[name]
    table, rank = _table(topo)
    rng = random.Random(name)
    pairs = [(rank[a], rank[b]) for a, b in named]
    wanted = min(len(named) + SAMPLED_PAIRS, len(rank) * (len(rank) - 1))
    while len(pairs) < wanted:
        pair = tuple(rng.sample(sorted(rank.values()), 2))
        if pair not in pairs:
            pairs.append(pair)
    longest = max((table.route(*p) for p in pairs), key=len)
    failed = longest[(len(longest) - 1) // 2]
    out = {}
    for state in STATES:
        table, _rank = _table(topo)
        health = {
            "down_channels": ([failed.channel.id]
                              if state == "channel_down" else []),
            "down_nodes": [failed.dst] if state == "gateway_down" else [],
        }
        _apply(table, health)
        out[state] = dict(health, pairs=[
            [s, d, _pair(table, s, d)] for s, d in pairs])
    return out


def dump(cases: dict, path: str) -> None:
    lines = []
    for name, states in cases.items():
        body = ",\n".join(
            f'   "{state}": {json.dumps(rec, separators=(",", ":"))}'
            for state, rec in states.items())
        lines.append(f'  "{name}": {{\n{body}\n  }}')
    note = ("recorded on 0000ec3 (networkx MultiGraph, "
            "nx.all_shortest_paths) by tests/routing/test_routes_golden.py")
    with open(path, "w") as fh:
        fh.write('{\n "note": ' + json.dumps(note) + ',\n "cases": {\n'
                 + ",\n".join(lines) + "\n }\n}\n")


@pytest.fixture(scope="module")
def recording():
    return json.loads(RECORDING.read_text())["cases"]


@pytest.mark.parametrize("state", STATES)
@pytest.mark.parametrize("name", CASES)
def test_routes_match_recording(recording, name, state):
    rec = recording[name][state]
    table, _rank = _table(CASES[name][0])
    _apply(table, rec)
    for src, dst, expected in rec["pairs"]:
        assert _pair(table, src, dst) == expected, (src, dst)


def test_recording_covers_what_it_claims(recording):
    """One torus pair is cut at 64 candidates, one pair is partitioned,
    and the recorder still produces this file's sampling."""
    rails = [len(p[2]["all_routes"]) for states in recording.values()
             for rec in states.values() for p in rec["pairs"]
             if not isinstance(p[2]["all_routes"], str)]
    assert max(rails) == 64
    errors = [p[2]["route"] for states in recording.values()
              for rec in states.values() for p in rec["pairs"]
              if isinstance(p[2]["route"], str)]
    assert any("partitioned by failures" in e or "partitioned;" in e
               for e in errors)
    assert record_case("paper3") == recording["paper3"]


if __name__ == "__main__":
    dump({name: record_case(name) for name in CASES}, sys.argv[1])
