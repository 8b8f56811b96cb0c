"""Source file -> layer mapping, and cProfile self-time bucketed by layer.

A layer is a group of source files of this repository that an optimisation
is likely to target as a unit (README.md carries the table).  The rules are
explicit on purpose: a new module that matches none of them makes
``run.py --selftest`` fail, so the per-layer shares always sum to the whole
profile and nothing hides in an unnamed bucket.
"""

from __future__ import annotations

import pathlib
import pstats
from typing import Optional

PERF_DIR = pathlib.Path(__file__).resolve().parent
REPO_ROOT = PERF_DIR.parents[1]
SRC_ROOT = REPO_ROOT / "src" / "repro"

#: (path prefix relative to src/repro, layer); the first match wins.  A
#: prefix ending in "/" covers a package, anything else is one file.
LAYER_RULES: tuple[tuple[str, str], ...] = (
    ("sim/fluid.py", "sim.fluid"),
    ("sim/trace.py", "telemetry"),
    ("sim/", "sim.engine"),
    ("hw/", "hw.fabric"),
    ("memory/", "memory"),
    ("madeleine/gateway.py", "madeleine.gateway"),
    ("madeleine/reliable.py", "madeleine.reliable"),
    ("faults/", "madeleine.reliable"),
    ("madeleine/gtm.py", "madeleine.gtm"),
    ("madeleine/wire.py", "madeleine.gtm"),
    ("madeleine/bmm.py", "madeleine.gtm"),
    ("madeleine/message.py", "madeleine.gtm"),
    ("madeleine/tm.py", "madeleine.gtm"),
    ("madeleine/flags.py", "madeleine.gtm"),
    ("madeleine/helpers.py", "madeleine.gtm"),
    ("madeleine/config.py", "madeleine.gtm"),
    ("madeleine/vchannel.py", "madeleine.vchannel"),
    ("madeleine/stripe.py", "madeleine.vchannel"),
    ("madeleine/adaptive.py", "madeleine.vchannel"),
    ("madeleine/channel.py", "madeleine.vchannel"),
    ("madeleine/endpoint.py", "madeleine.vchannel"),
    ("madeleine/session.py", "madeleine.vchannel"),
    ("madeleine/__init__.py", "madeleine.vchannel"),
    ("routing/striping.py", "madeleine.vchannel"),
    ("routing/mtu.py", "madeleine.vchannel"),
    ("routing/", "routing"),
    ("telemetry/", "telemetry"),
    ("traffic/", "traffic"),
    ("solver/", "solver"),
    ("analysis/", "analysis.model"),
    ("scenario/", "scenario"),
    # drivers above the library: the bench harnesses the workloads enter
    # through, the CLI, and the applications no workload runs.
    ("bench/", "bench"),
    ("fuzz/", "bench"),
    ("baselines/", "bench"),
    ("minimpi/", "bench"),
    ("rpc/", "bench"),
    ("cli.py", "bench"),
    ("__main__.py", "bench"),
    ("__init__.py", "bench"),
)

#: everything that is not this repository: stdlib, numpy, networkx, builtins.
EXT = "ext"

LAYERS: tuple[str, ...] = tuple(dict.fromkeys(
    [layer for _prefix, layer in LAYER_RULES])) + (EXT,)


def layer_of_source(rel: str) -> Optional[str]:
    """Layer of a file given relative to ``src/repro`` (None: unmapped)."""
    for prefix, layer in LAYER_RULES:
        if rel == prefix or (prefix.endswith("/") and rel.startswith(prefix)):
            return layer
    return None


def unmapped_sources() -> list[str]:
    """Files under ``src/repro`` that no rule names (must stay empty)."""
    return sorted(
        rel for rel in (p.relative_to(SRC_ROOT).as_posix()
                        for p in SRC_ROOT.rglob("*.py"))
        if layer_of_source(rel) is None)


def layer_of_file(filename: str) -> str:
    """Layer of a profiled function's file name.  Unmapped files of this
    repository raise, so a traced run cannot report a share for them
    under someone else's name."""
    path = pathlib.Path(filename)
    if not path.is_absolute():          # "~" (builtins), "<string>", ...
        return EXT
    path = path.resolve()
    if path.is_relative_to(SRC_ROOT):
        rel = path.relative_to(SRC_ROOT).as_posix()
        layer = layer_of_source(rel)
        if layer is None:
            raise LookupError(f"src/repro/{rel} maps to no layer; "
                              f"add it to LAYER_RULES")
        return layer
    if path.is_relative_to(PERF_DIR):
        return "bench"
    return EXT


def bucket_profile(profile) -> dict[str, dict[str, float]]:
    """``{layer: {"self_s", "calls", "share"}}`` from a finished
    ``cProfile.Profile``; shares are of the summed self time."""
    out = {layer: {"self_s": 0.0, "calls": 0} for layer in LAYERS}
    cache: dict[str, str] = {}
    for (filename, _line, _func), (_cc, ncalls, tottime, _ct, _callers) in (
            pstats.Stats(profile).stats.items()):
        layer = cache.get(filename)
        if layer is None:
            layer = cache[filename] = layer_of_file(filename)
        out[layer]["self_s"] += tottime
        out[layer]["calls"] += ncalls
    total = sum(row["self_s"] for row in out.values())
    for row in out.values():
        row["share"] = row["self_s"] / total if total else 0.0
    return out
