"""Benchmark harness: the §3.1 ping method, parameter sweeps, and table
formatting used by every figure/table reproduction in ``benchmarks/``."""

from .ping import (MultirailHarness, PingHarness, PingResult,
                   measure_ack_latency, one_way_ping,
                   probe_protocol_rates)
from .scale import format_sweep, run_traffic_scenario, sweep_nodes
from .sweep import (PAPER_MESSAGE_SIZES, PAPER_PACKET_SIZES, Series,
                    bandwidth_sweep, figure_sweep, pipeline_sweep,
                    rails_sweep)
from .tables import (PaperPoint, format_comparison, format_series_table,
                     human_size)

__all__ = [
    "MultirailHarness", "PingHarness", "PingResult",
    "measure_ack_latency", "one_way_ping",
    "probe_protocol_rates",
    "PAPER_MESSAGE_SIZES", "PAPER_PACKET_SIZES", "Series",
    "bandwidth_sweep", "figure_sweep", "pipeline_sweep", "rails_sweep",
    "format_sweep", "run_traffic_scenario", "sweep_nodes",
    "PaperPoint", "format_comparison", "format_series_table", "human_size",
]
