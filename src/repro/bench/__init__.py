"""Benchmark harness: the §3.1 ping method, parameter sweeps, and table
formatting behind the ``repro`` figure commands and the paper cells
(``tests/bench/test_paper_cells.py``)."""

from .ping import (MultirailHarness, PingHarness, PingResult,
                   measure_ack_latency, one_way_ping,
                   probe_protocol_rates)
from .scale import format_sweep, run_traffic_scenario, sweep_nodes
from .sweep import (PAPER_MESSAGE_SIZES, PAPER_PACKET_SIZES, Series,
                    bandwidth_sweep, figure_sweep, pipeline_sweep,
                    rails_sweep)
from .tables import format_series_table, human_size

__all__ = [
    "MultirailHarness", "PingHarness", "PingResult",
    "measure_ack_latency", "one_way_ping",
    "probe_protocol_rates",
    "PAPER_MESSAGE_SIZES", "PAPER_PACKET_SIZES", "Series",
    "bandwidth_sweep", "figure_sweep", "pipeline_sweep", "rails_sweep",
    "format_sweep", "run_traffic_scenario", "sweep_nodes",
    "format_series_table", "human_size",
]
