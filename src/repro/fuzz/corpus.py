"""Replayable repro files for failing scenarios.

A repro file is a small JSON document: the full scenario dict plus what
failed when it was recorded.  :func:`~repro.scenario.load_scenario` reads
it back (the recorded failures are advisory) and ``repro run --check FILE``
re-executes it; the files committed under ``tests/fuzz/corpus/`` are
replayed by the regression suite so every bug the fuzzer ever found stays
fixed.
"""

from __future__ import annotations

import json
import pathlib
from typing import Union

from .executor import FuzzResult

__all__ = ["save_repro", "repro_name"]

REPRO_VERSION = 1


def repro_name(result: FuzzResult) -> str:
    """Canonical file name: seed plus the first violated invariant."""
    invariant = (result.failures[0].invariant if result.failures
                 else "passing")
    return f"seed{result.scenario.seed}-{invariant}.json"


def save_repro(path: Union[str, pathlib.Path], result: FuzzResult) -> None:
    """Write one failing (or fixed-and-passing) scenario as a repro file."""
    doc = {
        "version": REPRO_VERSION,
        "scenario": result.scenario.to_dict(),
        "failures": [{"invariant": f.invariant, "detail": f.detail}
                     for f in result.failures],
        "stats": result.stats,
    }
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
