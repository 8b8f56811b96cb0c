"""Unit tests for the trace recorder."""

import pytest

from repro.sim import TraceRecord, TraceRecorder


def test_emit_and_len():
    tr = TraceRecorder()
    tr.emit(1.0, "gw", "recv", nbytes=10)
    tr.emit(2.0, "gw", "send", nbytes=10)
    assert len(tr) == 2


def test_disabled_recorder_drops_records():
    tr = TraceRecorder(enabled=False)
    tr.emit(1.0, "gw", "recv")
    assert len(tr) == 0


def test_query_by_category_event_and_attrs():
    tr = TraceRecorder()
    tr.emit(1.0, "gw", "recv", msg=1)
    tr.emit(2.0, "gw", "recv", msg=2)
    tr.emit(3.0, "nic", "recv", msg=1)
    assert len(tr.query(category="gw")) == 2
    assert len(tr.query(event="recv")) == 3
    assert len(tr.query(category="gw", msg=1)) == 1
    assert tr.query(category="gw", msg=1)[0].t == 1.0


def test_record_getitem():
    tr = TraceRecorder()
    tr.emit(1.0, "c", "e", key="v")
    assert tr.records[0]["key"] == "v"


def test_intervals_pairing():
    tr = TraceRecorder()
    tr.emit(1.0, "gw", "start", seq=0)
    tr.emit(3.0, "gw", "end", seq=0)
    tr.emit(2.0, "gw", "start", seq=1)
    tr.emit(5.0, "gw", "end", seq=1)
    tr.emit(6.0, "gw", "start", seq=2)   # never ends
    ivals = tr.intervals("gw", "start", "end", key="seq")
    assert ivals == [(0, 1.0, 3.0), (1, 2.0, 5.0)]


def test_clear():
    tr = TraceRecorder()
    tr.emit(1.0, "a", "b")
    tr.clear()
    assert len(tr) == 0


def test_iteration():
    tr = TraceRecorder()
    tr.emit(1.0, "a", "x")
    tr.emit(2.0, "a", "y")
    assert [r.event for r in tr] == ["x", "y"]


# -- the switch ------------------------------------------------------------------
def test_enable_and_disable_switch_recording():
    tr = TraceRecorder(enabled=False)
    assert tr.enable() is tr and tr.enabled
    tr.emit(1.0, "a", "kept")
    assert tr.disable() is tr and not tr.enabled
    tr.emit(2.0, "a", "dropped")
    assert [r.event for r in tr] == ["kept"]   # records survive a disable


def test_a_world_builds_its_trace_off_and_a_fabric_too():
    from repro.hw import build_world
    from repro.hw.fabric import Fabric
    from repro.sim import FluidNetwork, Simulator

    world = build_world({"a": ["myrinet"], "b": ["myrinet"]})
    assert not world.trace.enabled
    assert world.fabric.trace is world.trace
    sim = Simulator()
    assert not Fabric(sim, FluidNetwork(sim)).trace.enabled


# -- the record ------------------------------------------------------------------
def test_record_surface():
    attrs = {"nbytes": 10, "seq": 3}
    rec = TraceRecord(1.5, "gw", "recv", attrs)
    assert (rec.t, rec.category, rec.event, rec.attrs) == (1.5, "gw", "recv",
                                                            attrs)
    assert rec["nbytes"] == 10 and rec["seq"] == 3
    with pytest.raises(KeyError):
        rec["missing"]
    assert rec == TraceRecord(1.5, "gw", "recv", {"seq": 3, "nbytes": 10})
    assert rec != TraceRecord(1.5, "gw", "send", attrs)
    assert repr(rec) == ("TraceRecord(t=1.5, category='gw', event='recv', "
                         "attrs={'nbytes': 10, 'seq': 3})")
    for field in ("t", "category", "event", "attrs"):
        with pytest.raises(AttributeError):
            setattr(rec, field, None)
    with pytest.raises(AttributeError):
        rec.extra = 1                       # no per-record instance dict
    assert not hasattr(rec, "__dict__")


def test_recorder_stores_records():
    tr = TraceRecorder()
    tr.emit(1.0, "c", "e", key="v")
    (rec,) = tr
    assert isinstance(rec, TraceRecord)
    assert rec == TraceRecord(1.0, "c", "e", {"key": "v"})
