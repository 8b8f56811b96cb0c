"""The solver tests' scenario builders: the paper's testbeds and one
open-loop traffic cell, each as a :class:`~repro.scenario.Scenario`."""

from repro.scenario import MessageSpec, Scenario, Topology, TrafficSpec


def ping_scenario(packet: int, message: int,
                  direction: str = "b0->a0") -> Scenario:
    """The fig5/6/7 testbed as a scenario: a0 —myrinet— gw00 —sci— b0,
    one ``message``-byte transfer (matching ``PingHarness.measure``)."""
    topo = Topology(kind="chain", protocols=("myrinet", "sci"),
                    sizes=(1, 1), gateways=(1,))
    src, dst = ("b0", "a0") if direction == "b0->a0" else ("a0", "b0")
    return Scenario(seed=0, topology=topo, packet_size=packet,
                    messages=(MessageSpec(src=src, dst=dst, nbytes=message,
                                          kind="plain"),))


def multirail_scenario(packet: int, message: int, rails: int) -> Scenario:
    """The multirail testbed as a scenario: ``rails`` disjoint
    myrinet+gateway+sci rails a0 → b0 with striping on (the
    ``MultirailHarness`` measurement); ``rails=1`` degrades to the chain."""
    if rails == 1:
        return ping_scenario(packet, message, direction="a0->b0")
    topo = Topology(kind="multirail", protocols=("myrinet", "sci"),
                    gateways=(rails,))
    return Scenario(seed=0, topology=topo, packet_size=packet,
                    stripe=(rails, 4096),
                    messages=(MessageSpec(src="a0", dst="b0", nbytes=message,
                                          kind="plain"),))


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
