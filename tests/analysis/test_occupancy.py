"""Bus occupancy: what the fragment flows put on each PCI bus."""

from repro.hw import build_world
from repro.madeleine import Session
from repro.sim import FluidPath
from tests.conftest import payload, transfer_once


def test_gateway_pci_busier_than_endpoints(monkeypatch):
    w = build_world({"m0": ["myrinet"], "gw": ["myrinet", "sci"],
                     "s0": ["sci"]})
    buses = {w.node(name).pci: name for name in ("m0", "gw", "s0")}
    carried = dict.fromkeys(buses.values(), 0.0)
    transfer = w.fnet.transfer

    def tally(name, size, path, peak):
        hops = path.hops if isinstance(path, FluidPath) else path
        for res, _kind in hops:
            if res in buses:
                carried[buses[res]] += size
        return transfer(name, size, path, peak)

    monkeypatch.setattr(w.fnet, "transfer", tally)
    s = Session(w, packet_size=64 << 10)
    vch = s.virtual_channel([
        s.channel("myrinet", ["m0", "gw"]),
        s.channel("sci", ["gw", "s0"]),
    ])
    transfer_once(s, vch, 2, 0, payload(2_000_000))
    # every byte crosses the gateway bus twice
    assert carried["gw"] >= 1.5 * max(carried["m0"], carried["s0"])
    assert carried["m0"] >= 2_000_000 and carried["s0"] >= 2_000_000
