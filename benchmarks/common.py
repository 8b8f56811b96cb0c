"""The paper's reference numbers, as reconstructed from its text and figures.

``benchmarks/perf`` loads this file by path to report how far the simulated
Fig. 6/7 asymptotes sit from the paper's (``sim.model_err_pct``).  Where
each figure is asserted, and how to print it, is in EXPERIMENTS.md.
"""

#: Reference values reconstructed from the paper (the OCR garbles digits;
#: these are the self-consistent readings documented in EXPERIMENTS.md).
PAPER = {
    # Figure 6 — SCI -> Myrinet asymptotic bandwidth per paquet size (MB/s)
    "fig6_asymptote": {8 << 10: 28.0, 16 << 10: 40.0, 32 << 10: 48.0,
                       64 << 10: 54.0, 128 << 10: 57.0},
    # Figure 7 — Myrinet -> SCI asymptotic bandwidth per paquet size (MB/s)
    "fig7_asymptote": {8 << 10: 25.0, 16 << 10: 30.0, 32 << 10: 33.0,
                       64 << 10: 34.0, 128 << 10: 35.0},
    # §3.2/3.3 raw Madeleine one-way numbers (MB/s)
    "raw_myrinet_8k": 30.0,
    "raw_sci_8k": 35.0,
    "raw_myrinet_asymptote": 64.0,
    "raw_sci_asymptote": 52.0,
    # §3.3.1 per-buffer-switch software overhead (µs)
    "switch_overhead_us": 40.0,
    # practical one-way PCI ceiling (MB/s)
    "pci_oneway_ceiling": 66.0,
}
