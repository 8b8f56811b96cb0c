"""Calibrated hardware/protocol parameters.

The paper's testbed: dual Pentium II 450 MHz nodes, 33 MHz / 32-bit PCI,
Myrinet (LANai 4.3) driven by BIP, Dolphin SCI (D310) driven by SISCI, plus
Fast-Ethernet for the ping-test ack channel.  The OCR of the paper garbles
most digits, so the constants below are reconstructed from the surviving
constraints (documented per-figure in EXPERIMENTS.md):

* 33 MHz × 4 B = 132 MB/s raw PCI; ≈ 66 MB/s practical one-way ceiling
  (burst/turnaround overheads → modelled as per-NIC ``host_peak``);
* full-duplex PCI traffic shows extra arbitration conflicts (§3.3.1) —
  modelled as ``duplex_efficiency`` < 1 on the bus capacity;
* CPU-initiated PIO writes (the SISCI send path, write-combining) run ≈ 2×
  slower while a NIC DMA transfer is on the bus (§3.4.1, Figure 8) —
  ``pio_preempt_slowdown``;
* per-buffer-switch software overhead on the gateway ≈ 40 µs (§3.3.1);
* SCI beats Myrinet for small messages, Myrinet wins for large ones, with
  the crossover in the few-KB range (§3.2.2).

All bandwidths are bytes/µs (== MB/s), all times µs, all sizes bytes.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from ..sim.fluid import DMA, PIO

__all__ = [
    "PCIParams", "ProtocolParams", "NodeParams", "GatewayParams",
    "PipelineConfig",
    "MYRINET", "SCI", "FAST_ETHERNET", "GIGABIT_TCP", "SBP",
    "PROTOCOLS", "DEFAULT_PCI", "DEFAULT_NODE", "DEFAULT_GATEWAY",
]


@dataclass(frozen=True)
class PCIParams:
    """The host I/O bus (one per node; every NIC transfer crosses it)."""

    clock_mhz: float = 33.0
    width_bytes: int = 4
    #: fraction of raw bandwidth usable when several transfers share the bus
    #: (arbitration / turnaround conflicts, §3.3.1).
    duplex_efficiency: float = 0.92
    #: slowdown of PIO transactions while any DMA transaction is active
    #: (measured ≈ 2 in §3.4.1).
    pio_preempt_slowdown: float = 2.0

    def __post_init__(self) -> None:
        # the DES and the analytic kernels both divide by these
        if not self.clock_mhz > 0:
            raise ValueError(f"clock_mhz must be > 0, got {self.clock_mhz}")
        if not self.width_bytes > 0:
            raise ValueError(
                f"width_bytes must be > 0, got {self.width_bytes}")
        if not 0 < self.duplex_efficiency <= 1:
            raise ValueError(f"duplex_efficiency must be in (0, 1], "
                             f"got {self.duplex_efficiency}")
        if not self.pio_preempt_slowdown >= 1:
            raise ValueError(f"pio_preempt_slowdown must be >= 1, "
                             f"got {self.pio_preempt_slowdown}")

    @property
    def raw_bandwidth(self) -> float:
        return self.clock_mhz * self.width_bytes  # bytes/µs

    @property
    def capacity(self) -> float:
        return self.raw_bandwidth * self.duplex_efficiency


@dataclass(frozen=True)
class ProtocolParams:
    """One network protocol/technology (maps to a Madeleine PMM)."""

    name: str
    #: link/switch capacity per direction, bytes/µs.
    link_bandwidth: float
    #: peak rate of a single transfer through the host bus (NIC engine +
    #: practical one-way PCI limit), bytes/µs.
    host_peak: float
    #: constant per-fragment latency (wire, NIC firmware, driver), µs.
    latency: float
    #: host-bus transaction kind of the send path ("dma" or "pio").
    tx_kind: str = DMA
    #: host-bus transaction kind of the receive path.
    rx_kind: str = DMA
    #: send path requires protocol-provided (static) buffers.
    tx_static: bool = False
    #: receive path lands in protocol-provided (static) buffers.
    rx_static: bool = False
    #: per-fragment CPU overhead at the sender / receiver, µs.
    tx_overhead: float = 2.0
    rx_overhead: float = 2.0
    #: largest single fragment the protocol accepts.
    max_mtu: int = 1 << 20
    #: static-pool geometry (per TM and direction) when *_static is set.
    pool_blocks: int = 8
    #: aggregation-chunk size used by the static (copying) BMM.
    chunk_size: int = 8 << 10
    #: NIC supports scatter/gather lists: the dynamic BMM can group
    #: consecutive small buffers into one wire fragment without copying
    #: (§2.1.1 — "exploit optional scatter/gather protocol capabilities").
    gather: bool = False

    def static_for(self, direction: str) -> bool:
        if direction == "tx":
            return self.tx_static
        if direction == "rx":
            return self.rx_static
        raise ValueError(f"direction must be 'tx' or 'rx', got {direction!r}")


#: BIP over Myrinet (LANai 4.3): DMA both ways, dynamic buffers.  The
#: per-fragment latency is the Madeleine/BIP software + rendezvous cost the
#: paper's §3.3.1 numbers imply: together with the pre-body announce (one
#: more control fragment per message) the fixed per-message cost is
#: ≈ 150 µs, so an 8 KB message moves at ≈ 30 MB/s, a 16 KB one at
#: ≈ 41 MB/s, and large ones approach the ≈ 66 MB/s practical PCI limit.
MYRINET = ProtocolParams(
    name="myrinet", link_bandwidth=160.0, host_peak=66.0, latency=68.0,
    tx_kind=DMA, rx_kind=DMA, tx_static=False, rx_static=False,
    tx_overhead=6.0, rx_overhead=4.0, max_mtu=1 << 20, gather=True,
)

#: SISCI over Dolphin SCI (D310): sends are CPU PIO through write-combining
#: (hence vulnerable to DMA preemption), receives are remote writes into
#: mapped segments (bus-master from the host's perspective).  Static buffer
#: discipline both ways (mapped segments).  Lower fixed cost than Myrinet
#: (≈ 100 µs per message including the announce: an 8 KB message moves at
#: ≈ 35 MB/s), slightly lower peak — which makes SCI the better network for
#: small messages and Myrinet for large ones, crossing in the tens of KB as
#: §3.2.2 observes.
SCI = ProtocolParams(
    name="sci", link_bandwidth=150.0, host_peak=62.0, latency=45.0,
    tx_kind=PIO, rx_kind=DMA, tx_static=True, rx_static=True,
    tx_overhead=5.0, rx_overhead=5.0, max_mtu=128 << 10, chunk_size=32 << 10,
)

#: TCP over Fast-Ethernet: the control/ack network of the testbed.
FAST_ETHERNET = ProtocolParams(
    name="fast_ethernet", link_bandwidth=12.5, host_peak=11.0, latency=60.0,
    tx_kind=DMA, rx_kind=DMA, tx_static=False, rx_static=False,
    tx_overhead=25.0, rx_overhead=25.0, max_mtu=64 << 10,
)

#: TCP over Gigabit-class hardware (PACX-style inter-cluster glue baseline);
#: on a PII-450 the TCP stack, not the wire, is the bottleneck.
GIGABIT_TCP = ProtocolParams(
    name="gigabit_tcp", link_bandwidth=125.0, host_peak=38.0, latency=45.0,
    tx_kind=DMA, rx_kind=DMA, tx_static=False, rx_static=False,
    tx_overhead=20.0, rx_overhead=20.0, max_mtu=64 << 10,
)

#: SBP (kernel-level reliable protocol, [10] in the paper): requires data in
#: special kernel buffers on both sides — the static×static worst case.
SBP = ProtocolParams(
    name="sbp", link_bandwidth=40.0, host_peak=33.0, latency=30.0,
    tx_kind=DMA, rx_kind=DMA, tx_static=True, rx_static=True,
    tx_overhead=8.0, rx_overhead=8.0, max_mtu=32 << 10,
)

PROTOCOLS: dict[str, ProtocolParams] = {
    p.name: p for p in (MYRINET, SCI, FAST_ETHERNET, GIGABIT_TCP, SBP)
}


@dataclass(frozen=True)
class NodeParams:
    """Host parameters (dual PII-450 with PC100 SDRAM)."""

    pci: PCIParams = field(default_factory=PCIParams)
    #: host memcpy bandwidth, bytes/µs.  The paper notes a gateway copy "can
    #: take as much time as the reception of a message" — on this hardware
    #: memcpy is only ≈ 1.5× the NIC speed.
    memcpy_bandwidth: float = 100.0


@dataclass(frozen=True)
class PipelineConfig:
    """Generalized gateway forwarding pipeline.

    The paper hardwires two staging buffers per direction; this config
    generalizes it to an N-deep staging-buffer ring with credit-based flow
    control: the receive thread advances only while it holds a credit, the
    send thread returns the credit when the retransmit completes.  The
    default (``depth=2``, ``lockstep`` auto) reduces exactly to the paper's
    lockstep double-buffer schedule.
    """

    #: staging buffers per direction (the paper uses 2).
    depth: int = 2
    #: outstanding-item credits; ``None`` means one credit per buffer.
    #: ``credits=1`` degenerates to store-and-forward per fragment.
    credits: int | None = None
    #: ``None`` (auto): depth-2 pipelines run the paper's lockstep
    #: buffer-exchange schedule, deeper ones the credit pipeline.  ``False``
    #: forces a depth-2 pipeline through the credit path (an ablation);
    #: ``True`` is only meaningful at depth 2.
    lockstep: bool | None = None
    #: pick the per-route fragment size from the analytic pipeline model
    #: (:func:`repro.routing.tune_fragment_size`) instead of the static
    #: ``min(packet_size, per-hop MTU)`` negotiation.  The wire-format MTU
    #: stays the upper bound, so headers and gateways need no format change.
    adaptive_mtu: bool = False

    def __post_init__(self) -> None:
        if self.depth < 1:
            raise ValueError(f"pipeline depth must be >= 1, got {self.depth}")
        if self.credits is not None and not 1 <= self.credits <= self.depth:
            raise ValueError(
                f"credits must be in [1, depth={self.depth}], "
                f"got {self.credits}")
        if self.lockstep and self.depth != 2:
            raise ValueError("lockstep is inherently a two-buffer scheme")

    @property
    def effective_credits(self) -> int:
        return self.depth if self.credits is None else self.credits

    @property
    def is_lockstep(self) -> bool:
        return self.depth == 2 if self.lockstep is None else self.lockstep


@dataclass(frozen=True)
class GatewayParams:
    """Forwarding-pipeline parameters (§2.2.2, §3.3.1)."""

    #: software overhead per buffer switch in the double-buffer pipeline.
    switch_overhead: float = 40.0
    #: the staging-buffer pipeline.  The default is the paper's design:
    #: two buffers the forwarding threads exchange at a synchronization
    #: point each step, so the pipeline period is max(recv, send) +
    #: switch_overhead exactly (Figure 5).
    pipeline: PipelineConfig = PipelineConfig()
    #: the §4 future-work "bandwidth control mechanism ... to regulate the
    #: incoming communication flow on gateways": cap the rate (bytes/µs) at
    #: which a forwarding worker accepts fragments.  ``None`` = unregulated.
    ingress_limit: float | None = None
    #: µs a forwarding step (receive, retransmit, announce relay) may stall
    #: before the worker abandons the in-flight message and recovers.
    #: ``None`` (default) = wait forever, the pre-fault-tolerance behaviour;
    #: set it whenever a fault plan is armed so dropped fragments can never
    #: wedge a gateway.
    stall_timeout: float | None = None


DEFAULT_PCI = PCIParams()
DEFAULT_NODE = NodeParams()
DEFAULT_GATEWAY = GatewayParams()


def scaled(params: ProtocolParams, **overrides) -> ProtocolParams:
    """Convenience for ablations: a copy of ``params`` with fields replaced."""
    return replace(params, **overrides)


def register_protocol(params: ProtocolParams, overwrite: bool = False) -> ProtocolParams:
    """Register a (possibly ablated) protocol so channels can be created on
    it by name — e.g. the paper's §4 future-work variant where SCI sends use
    the card's DMA engine instead of PIO::

        register_protocol(scaled(SCI, name="sci_dma", tx_kind=DMA))
    """
    if params.name in PROTOCOLS and not overwrite:
        raise ValueError(f"protocol {params.name!r} already registered")
    PROTOCOLS[params.name] = params
    return params
