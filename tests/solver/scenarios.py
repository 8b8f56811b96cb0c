"""The solver tests' open-loop traffic cell as a
:class:`~repro.scenario.Scenario`.  The paper's testbeds come from the
harnesses the DES measures them with: ``PingHarness(...).scenario(size,
direction)`` and ``rails_harness(rails, packet).scenario(size)``."""

from repro.scenario import Scenario, Topology, TrafficSpec


def traffic_scenario(kind: str, flows: int, seed: int = 11) -> Scenario:
    """One open-loop traffic cell: 32 KB flows, 200 µs mean interarrival,
    on a 4×4 torus (``kind="torus"``) or a 4-leaf, 2-spine fat-tree."""
    if kind == "torus":
        topo = Topology(kind="torus", protocols=("myrinet",), dims=(4, 4))
    else:
        topo = Topology(kind="fat_tree", protocols=("myrinet", "sci"),
                        sizes=(4, 2), gateways=(2,))
    return Scenario(seed=seed, topology=topo, packet_size=16 << 10,
                    traffic=TrafficSpec(flows=flows, mean_interarrival=200.0,
                                        size=32 << 10),
                    gw_stall_timeout=None)
