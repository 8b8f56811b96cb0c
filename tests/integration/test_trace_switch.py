"""The raw trace is a pure observer: on or off, the schedule is the same.

Each cell runs twice with telemetry on, once with the trace off (a world's
default) and once with it switched on right after the build.  Events
dispatched and cancelled, every completion time and the metrics snapshot
must be equal under ``==``; the untraced run keeps no record, and the
traced one holds each gateway forward as a ``message_start`` /
``message_end`` pair.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.bench import PingHarness, one_way_ping
from repro.madeleine import Session
from repro.scenario import load_scenario
from repro.traffic import TrafficEngine

EAGER = (Path(__file__).resolve().parents[2] / "benchmarks" / "perf"
         / "scenarios" / "send_modes.eager.json")


def _fig5(trace: bool):
    """Figure 5: 2 MB b0 -> a0 through the gateway, 64 KB paquets."""
    world, session, vch, ack = PingHarness(packet_size=64 << 10).build()
    world.telemetry.enable()
    if trace:
        world.trace.enable()
    r = one_way_ping(session, vch, ack, session.rank("b0"),
                     session.rank("a0"), 2 << 20)
    return world, [r.one_way_us, r.direct_us, r.rtt_us, r.ack_us]


def _eager(trace: bool):
    """The ``send_modes.eager`` cell of the wall-clock benchmark."""
    scenario = load_scenario(EAGER)
    session = Session.from_scenario(scenario)
    if trace:
        session.trace.enable()
    engine = TrafficEngine(session, scenario)
    engine.start()
    session.run()
    assert len(engine.records) == len(engine.flows)
    return session.world, [r.completed_at for r in engine.records]



@pytest.mark.parametrize("cell", [_fig5, _eager], ids=["fig5", "eager"])
def test_trace_on_and_off_schedule_the_same(cell):
    world_off, done_off = cell(trace=False)
    world_on, done_on = cell(trace=True)
    assert world_off.sim.events_processed == world_on.sim.events_processed
    assert world_off.sim.events_cancelled == world_on.sim.events_cancelled
    assert done_off == done_on
    assert len(world_off.trace) == 0
    assert len(world_on.trace) > 0
    assert world_off.telemetry.snapshot() == world_on.telemetry.snapshot()
    forwarded = world_on.telemetry.total("gateway.messages_forwarded")
    assert forwarded > 0
    assert (len(world_on.trace.query("gateway", "message_start"))
            == len(world_on.trace.query("gateway", "message_end"))
            == forwarded)
