"""The send path, pinned cell by cell.

432 small forwarded transfers (origin→destination protocol x send mode x
buffer list x send flags) whose payload, completion time, kernel event
counts, copy accounting and wire-fragment count are compared with ``==``
against ``tests/data/gtm_wire_grid.json``.  The recording was made on the
commit before the plan/put/get send path replaced the per-mode branches, so
any wire item that is added, dropped, reordered or staged differently fails
here; the file's ``note`` says which cells were re-recorded and why.

216 more cells (``direct`` in the file) pin the regular path the same way:
one route-length-1 transfer per protocol family — Myrinet (gather),
Fast-Ethernet (eager), SCI and SBP (static chunks) — x buffer list x send
flags x EXPRESS or CHEAPER receives, recorded on the commit before the
message state machine was written once.

Re-record with ``python -m tests.madeleine.test_gtm_wire_grid OUT.json``.
"""

import json
import pathlib
import sys

import numpy as np
import pytest

from repro.hw import build_world
from repro.madeleine import Session, TransportPolicy, reset_global_ids
from repro.madeleine.flags import RecvMode, SendMode
from repro.routing import StripePolicy

RECORDING = (pathlib.Path(__file__).parent.parent / "data"
             / "gtm_wire_grid.json")

PACKET = 8 << 10
DIRECTIONS = [("myrinet", "sci"), ("sci", "myrinet"),
              ("sci", "sci"), ("myrinet", "myrinet")]
MODES = {
    "plain": {},
    "batched": {"header_batching": True},
    "eager": {"transport_policy": TransportPolicy(eager_threshold=4096,
                                                  gateway_balance=False)},
    "striped": {"stripe_policy": StripePolicy()},
}
BUFFER_LISTS = [(0,), (1,), (100,), (8176,), (8192,), (8193,), (24581,),
                (100, 0, 5000, 20000), (64, 64, 64)]
FLAGS = {
    "cheaper": lambda i: SendMode.CHEAPER,
    "safer": lambda i: SendMode.SAFER,
    "cheaper-later": lambda i: SendMode.LATER if i % 2 else SendMode.CHEAPER,
}

CELLS = [(o, d, mode, sizes, flags)
         for o, d in DIRECTIONS for mode in MODES
         for sizes in BUFFER_LISTS for flags in FLAGS]

DIRECT_PROTOCOLS = ["myrinet", "fast_ethernet", "sci", "sbp"]
RECVS = {"express": RecvMode.EXPRESS, "cheaper": RecvMode.CHEAPER}
#: a direct cell is a forwarded cell's tuple plus the receive mode of
#: every buffer that is not packed LATER (LATER + EXPRESS is rejected).
DIRECT_CELLS = [(proto, proto, "direct", sizes, flags, recv)
                for proto in DIRECT_PROTOCOLS for sizes in BUFFER_LISTS
                for flags in FLAGS for recv in RECVS]


def cell_id(cell) -> str:
    o, d, mode, sizes, flags, *recv = cell
    return "|".join([f"{o}>{d}", mode, ",".join(map(str, sizes)), flags,
                     *recv])


def _session(origin: str, dest: str, vch_kwargs: dict):
    """Two parallel gateways per network boundary (so the striped mode has
    two disjoint rails); same-protocol ends are bridged by the other one,
    over one middle channel per rail so the rails cannot merge at a second
    gateway (each holds its last-hop connection until the other arrives).
    ``vch_kwargs=None`` is a direct cell: the two ends on one channel."""
    if vch_kwargs is None:
        nodes = {"o": [origin], "d": [origin]}
        chans = [(origin, ["o", "d"])]
        vch_kwargs = {}
    elif origin != dest:
        nodes = {"o": [origin], "gA": [origin, dest], "gB": [origin, dest],
                 "d": [dest]}
        chans = [(origin, ["o", "gA", "gB"]), (dest, ["gA", "gB", "d"])]
    else:
        mid = "myrinet" if origin == "sci" else "sci"
        nodes = {"o": [origin], "gA": [origin, mid], "gB": [origin, mid],
                 "hA": [mid, dest], "hB": [mid, dest], "d": [dest]}
        chans = [(origin, ["o", "gA", "gB"]),
                 (mid, ["gA", "hA"]), (mid, ["gB", "hB"]),
                 (dest, ["hA", "hB", "d"])]
    world = build_world(nodes)
    session = Session(world, telemetry=True)
    vch = session.virtual_channel(
        [session.channel(proto, members) for proto, members in chans],
        packet_size=PACKET, **vch_kwargs)
    return world, session, vch


def run_cell(cell) -> dict:
    origin, dest, mode, sizes, flags, *recv = cell
    reset_global_ids()
    world, session, vch = _session(origin, dest, MODES.get(mode))
    src, dst = session.rank("o"), session.rank("d")
    rng = np.random.default_rng(len(sizes) + sum(sizes))
    sent = [rng.integers(0, 256, size=n, dtype=np.uint8) for n in sizes]
    want = [p.tobytes() for p in sent]
    smodes = [FLAGS[flags](i) for i in range(len(sizes))]
    rmodes = [RecvMode.CHEAPER if smode == SendMode.LATER or not recv
              else RECVS[recv[0]] for smode in smodes]
    out = {}

    def sender():
        msg = vch.endpoint(src).begin_packing(dst)
        for p, smode, rmode in zip(sent, smodes, rmodes):
            yield msg.pack(p, smode, rmode)
            if smode == SendMode.SAFER:
                p[:] = 0    # SAFER: the caller may reuse the buffer at once
        yield msg.end_packing()

    def receiver():
        inc = yield vch.endpoint(dst).begin_unpacking()
        bufs = [inc.unpack(n, smode, rmode)[1]
                for n, smode, rmode in zip(sizes, smodes, rmodes)]
        yield inc.end_unpacking()
        out["t_delivered"] = session.now
        out["got"] = [b.tobytes() for b in bufs]

    session.spawn(sender(), "sender")
    session.spawn(receiver(), "receiver")
    session.run()
    acc = world.accounting
    return {
        "payload_ok": out["got"] == want,
        "t_delivered": out["t_delivered"],
        "t_end": session.now,
        "events_processed": world.sim.events_processed,
        "events_cancelled": world.sim.events_cancelled,
        "copies": acc.copies,
        "bytes_copied": acc.bytes_copied,
        "by_label": {k: list(v) for k, v in sorted(acc.by_label().items())},
        "wire_fragments": int(world.telemetry.metrics.total("wire.fragments")),
    }


@pytest.fixture(scope="module")
def recorded():
    return json.loads(RECORDING.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def recording(recorded):
    return recorded["cells"]


def test_grid_is_the_recorded_grid(recording):
    assert len(CELLS) == 432
    assert sorted(recording) == sorted(cell_id(c) for c in CELLS)


@pytest.mark.parametrize("direction", DIRECTIONS, ids=">".join)
@pytest.mark.parametrize("mode", MODES)
def test_cells_match_recording(direction, mode, recording):
    cells = [c for c in CELLS if c[:2] == direction and c[2] == mode]
    assert len(cells) == len(BUFFER_LISTS) * len(FLAGS)
    differing = {cell_id(c): (got, recording[cell_id(c)]) for c in cells
                 if (got := run_cell(c)) != recording[cell_id(c)]}
    assert not differing


@pytest.mark.parametrize("proto", DIRECT_PROTOCOLS)
def test_direct_cells_match_recording(proto, recorded):
    recording = recorded["direct"]
    assert sorted(recording) == sorted(cell_id(c) for c in DIRECT_CELLS)
    cells = [c for c in DIRECT_CELLS if c[0] == proto]
    assert len(cells) == len(BUFFER_LISTS) * len(FLAGS) * len(RECVS)
    differing = {cell_id(c): (got, recording[cell_id(c)]) for c in cells
                 if (got := run_cell(c)) != recording[cell_id(c)]}
    assert not differing


def dump(cells: dict, direct: dict, note: str, path) -> None:
    def rows(section: dict) -> str:
        return ",\n".join(
            f"  {json.dumps(k)}: {json.dumps(v, sort_keys=True)}"
            for k, v in sorted(section.items()))
    pathlib.Path(path).write_text(
        f'{{"note": {json.dumps(note)},\n "cells": {{\n{rows(cells)}\n }},\n'
        f' "direct": {{\n{rows(direct)}\n }}}}\n', encoding="utf-8")


if __name__ == "__main__":
    dump({cell_id(c): run_cell(c) for c in CELLS},
         {cell_id(c): run_cell(c) for c in DIRECT_CELLS}, "", sys.argv[1])
