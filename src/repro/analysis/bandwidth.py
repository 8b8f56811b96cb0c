"""Bandwidth-curve analysis helpers."""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:
    from ..bench.sweep import Series

__all__ = ["bandwidth", "half_bandwidth_point"]


def bandwidth(nbytes: float, elapsed_us: float) -> float:
    """MB/s (== bytes/µs)."""
    if elapsed_us <= 0:
        raise ValueError("elapsed time must be positive")
    return nbytes / elapsed_us


def half_bandwidth_point(series: Series) -> Optional[int]:
    """Smallest message size reaching half of the curve's asymptote (the
    classic n_1/2 metric); None if the curve never gets there."""
    target = series.asymptote / 2.0
    for size, bw in sorted(series.as_rows()):
        if bw >= target:
            return size
    return None
