"""repro — reproduction of *Efficient Inter-Device Data-Forwarding in the
Madeleine Communication Library* (Aumage, Eyraud, Namyst — IPPS 2001).

The package rebuilds the paper's whole system on a deterministic
discrete-event simulator (the 2001 Myrinet/SCI testbed being long gone):

* :mod:`repro.sim` — the simulation kernel (events, processes, fluid flows);
* :mod:`repro.hw` — PCI buses, NICs, links, nodes, cluster topologies;
* :mod:`repro.memory` — numpy-backed buffers, pools, copy accounting;
* :mod:`repro.madeleine` — the Madeleine library: channels, BMMs, TMs, the
  Generic Transmission Module, virtual channels, gateway pipelines;
* :mod:`repro.routing` — cluster-of-clusters routing and MTU negotiation;
* :mod:`repro.faults` — deterministic fault injection (drops, corruption,
  delays, link and gateway failures) and the knobs that drive failover;
* :mod:`repro.baselines` — Nexus-style app-level forwarding, PACX-style TCP;
* :mod:`repro.minimpi` — an MPI-flavoured layer (the Madeleine-III direction);
* :mod:`repro.rpc` — PM2-style lightweight RPC over virtual channels;
* :mod:`repro.bench` — the §3.1 ping method and figure sweeps;
* :mod:`repro.analysis` — bandwidth curves and pipeline timelines.

Quickstart::

    from repro.hw import build_world
    from repro.madeleine import Session

    world = build_world({"m0": ["myrinet"], "gw": ["myrinet", "sci"],
                         "s0": ["sci"]})
    session = Session(world, packet_size=64 << 10)
    vch = session.virtual_channel([
        session.channel("myrinet", ["m0", "gw"]),
        session.channel("sci", ["gw", "s0"]),
    ])
    # see examples/quickstart.py for the full send/receive loop
"""

__version__ = "1.0.0"

import importlib

__all__ = ["analysis", "baselines", "bench", "faults", "hw", "madeleine",
           "memory", "minimpi", "routing", "rpc", "sim", "__version__"]


def __getattr__(name: str):
    """Import a subpackage on first access (PEP 562), so an entry point
    loads only what it uses: ``import repro.solver`` does not pull in the
    transport, the bench harness or the MPI layer."""
    if name in __all__:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
