"""Unit tests for hardware parameter presets."""

import pytest

from repro.hw import (FAST_ETHERNET, GIGABIT_TCP, MYRINET, PCIParams,
                      PROTOCOLS, SBP, SCI, scaled)
from repro.sim.fluid import DMA, PIO


def test_pci_raw_bandwidth_is_132():
    assert PCIParams().raw_bandwidth == pytest.approx(132.0)


def test_pci_capacity_below_raw():
    p = PCIParams()
    assert p.capacity < p.raw_bandwidth
    assert p.capacity == pytest.approx(p.raw_bandwidth * p.duplex_efficiency)


@pytest.mark.parametrize("field, value", [
    ("clock_mhz", 0), ("clock_mhz", -33.0), ("width_bytes", 0),
    ("duplex_efficiency", 0), ("duplex_efficiency", 1.01),
    ("duplex_efficiency", float("nan")), ("pio_preempt_slowdown", 0.5)])
def test_pci_rejects_what_the_kernels_divide_by(field, value):
    with pytest.raises(ValueError, match=field):
        PCIParams(**{field: value})
    PCIParams(duplex_efficiency=1.0, pio_preempt_slowdown=1.0)   # the edges


def test_protocol_registry_complete():
    # other test modules may register ablation variants; the builtins must
    # always be present
    assert {"myrinet", "sci", "fast_ethernet",
            "gigabit_tcp", "sbp"} <= set(PROTOCOLS)


def test_myrinet_is_dynamic_dma():
    assert MYRINET.tx_kind == DMA and MYRINET.rx_kind == DMA
    assert not MYRINET.tx_static and not MYRINET.rx_static


def test_sci_send_is_pio_and_static():
    """The paper's §3.4.1 finding hinges on these two facts."""
    assert SCI.tx_kind == PIO
    assert SCI.rx_kind == DMA
    assert SCI.tx_static and SCI.rx_static


def test_sbp_static_both_ways():
    assert SBP.tx_static and SBP.rx_static


def test_sci_cheaper_than_myrinet_for_small_fragments():
    """SCI wins small messages; Myrinet wins large (§3.2.2)."""
    def t(p, size):
        return p.latency + p.tx_overhead + p.rx_overhead + size / p.host_peak

    assert t(SCI, 1024) < t(MYRINET, 1024)
    assert t(SCI, 1 << 20) > t(MYRINET, 1 << 20)


def test_crossover_is_in_the_kb_range():
    def t(p, size):
        return p.latency + p.tx_overhead + p.rx_overhead + size / p.host_peak

    sizes = [1 << k for k in range(8, 22)]
    cross = [s for s in sizes if t(SCI, s) >= t(MYRINET, s)]
    assert cross, "Myrinet should overtake SCI somewhere"
    assert 4 << 10 <= cross[0] <= 256 << 10


def test_host_peaks_respect_practical_pci_limit():
    for p in PROTOCOLS.values():
        assert p.host_peak <= 66.0


def test_fast_ethernet_much_slower():
    assert FAST_ETHERNET.host_peak < 15
    assert GIGABIT_TCP.host_peak < MYRINET.host_peak


def test_static_for():
    assert SCI.static_for("tx") and SCI.static_for("rx")
    assert not MYRINET.static_for("tx")
    with pytest.raises(ValueError):
        SCI.static_for("sideways")


def test_scaled_override():
    fast = scaled(MYRINET, latency=1.0)
    assert fast.latency == 1.0
    assert fast.host_peak == MYRINET.host_peak
    assert MYRINET.latency != 1.0   # original untouched
