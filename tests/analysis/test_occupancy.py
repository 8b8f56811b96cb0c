"""Bus occupancy monitoring."""

import pytest

from repro.analysis import BusMonitor
from repro.hw import build_world
from repro.madeleine import Session
from repro.sim import DMA, FluidNetwork, FluidResource, Simulator
from tests.conftest import payload, transfer_once


def test_single_flow_mean_utilization():
    sim = Simulator()
    fnet = FluidNetwork(sim)
    mon = BusMonitor(fnet)
    r = FluidResource("r", 100.0)
    done = fnet.transfer("f", 500.0, [(r, DMA)], peak=50.0)
    sim.run(until=done)
    sim.run(until=20.0)   # 10µs busy at 50, 10µs idle
    assert mon.mean_utilization(r) == pytest.approx(25.0)
    assert mon.busy_fraction(r) == pytest.approx(0.5)


def test_empty_resource():
    sim = Simulator()
    fnet = FluidNetwork(sim)
    mon = BusMonitor(fnet)
    r = FluidResource("r", 100.0)
    assert mon.mean_utilization(r, 0, 10) == 0.0
    assert mon.timeline(r) == []


def test_bad_window_rejected():
    sim = Simulator()
    fnet = FluidNetwork(sim)
    mon = BusMonitor(fnet)
    r = FluidResource("r", 100.0)
    fnet.transfer("f", 10.0, [(r, DMA)], peak=50.0)
    with pytest.raises(ValueError):
        mon.mean_utilization(r, 5, 5)


def test_gateway_pci_busier_than_endpoints():
    w = build_world({"m0": ["myrinet"], "gw": ["myrinet", "sci"],
                     "s0": ["sci"]})
    mon = BusMonitor(w.fnet)
    s = Session(w, packet_size=64 << 10)
    vch = s.virtual_channel([
        s.channel("myrinet", ["m0", "gw"]),
        s.channel("sci", ["gw", "s0"]),
    ])
    transfer_once(s, vch, 2, 0, payload(2_000_000))
    gw_u = mon.mean_utilization(w.node("gw").pci)
    m0_u = mon.mean_utilization(w.node("m0").pci)
    s0_u = mon.mean_utilization(w.node("s0").pci)
    # every byte crosses the gateway bus twice
    assert gw_u > 1.5 * max(m0_u, s0_u)


def test_sparkline_renders():
    sim = Simulator()
    fnet = FluidNetwork(sim)
    mon = BusMonitor(fnet)
    r = FluidResource("r", 100.0)
    done = fnet.transfer("f", 1000.0, [(r, DMA)], peak=100.0)
    sim.run(until=done)
    sim.run(until=20.0)
    line = mon.sparkline(r, width=20)
    assert len(line) == 20
    assert line[0] != " " and line[-1] == " "
