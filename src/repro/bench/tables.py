"""Result formatting: paper-style bandwidth rows."""

from __future__ import annotations

from typing import Sequence

from .sweep import Series

__all__ = ["format_series_table", "human_size"]


def human_size(nbytes: int) -> str:
    if nbytes >= 1 << 20 and nbytes % (1 << 20) == 0:
        return f"{nbytes >> 20} MB"
    if nbytes >= 1 << 10 and nbytes % (1 << 10) == 0:
        return f"{nbytes >> 10} KB"
    return f"{nbytes} B"


def format_series_table(curves: Sequence[Series], title: str = "") -> str:
    """Rows = message sizes, columns = one bandwidth column per curve —
    the same presentation as the paper's Figures 6/7."""
    sizes = sorted({s for c in curves for s in c.sizes})
    header = ["msg size".rjust(10)] + [c.label.rjust(16) for c in curves]
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(header))
    lines.append("-" * len(lines[-1]))
    for size in sizes:
        row = [human_size(size).rjust(10)]
        for c in curves:
            try:
                idx = c.sizes.index(size)
                row.append(f"{c.bandwidths[idx]:13.1f} MB/s".rjust(16))
            except ValueError:
                row.append(" " * 16)
        lines.append("  ".join(row))
    return "\n".join(lines)
