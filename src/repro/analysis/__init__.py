"""Analysis of benchmark results and gateway pipeline traces."""

from .ascii_plot import plot_series
from .model import (MultirailPrediction, PipelinePrediction,
                    fragment_time, predict_forwarding,
                    predict_multirail, route_setup_time)
from .export import (metrics_to_rows, to_chrome_trace, write_chrome_trace,
                     write_metrics_csv, write_metrics_json)
from .bandwidth import bandwidth, half_bandwidth_point
from .pipeline import (PipelineStats, StepTimeline, extract_timeline,
                       pipeline_stats, render_timeline)

__all__ = [
    "plot_series",
    "MultirailPrediction", "PipelinePrediction", "fragment_time",
    "predict_forwarding", "predict_multirail", "route_setup_time",
    "to_chrome_trace", "write_chrome_trace",
    "metrics_to_rows", "write_metrics_csv", "write_metrics_json",
    "bandwidth", "half_bandwidth_point",
    "PipelineStats", "StepTimeline", "extract_timeline", "pipeline_stats",
    "render_timeline",
]
