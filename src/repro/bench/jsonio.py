"""Strict-JSON serialization helpers for benchmark outputs.

``json.dumps`` happily emits bare ``NaN``/``Infinity``/``-Infinity`` — a
Python extension that is **not** JSON and breaks every strict parser (jq,
browsers).  Benchmark summaries legitimately
contain non-finite floats (a zero-completion traffic run has no FCT
statistics, so they are NaN), so every bench artifact is written through
:func:`json_safe`, which maps non-finite floats to ``null``, and read back
through :func:`load_json`, which leaves the ``None`` for the reader to
handle explicitly rather than silently coerce.
"""

from __future__ import annotations

import json
import math
import pathlib
from typing import Any

__all__ = ["json_safe", "dump_json", "load_json"]


def json_safe(value: Any) -> Any:
    """Recursively replace non-finite floats with ``None`` so the result
    round-trips through *strict* JSON; containers are rebuilt (tuples as
    lists, mapping keys stringified the way ``json.dumps`` would)."""
    if isinstance(value, float) and not math.isfinite(value):
        return None
    if isinstance(value, dict):
        return {key: json_safe(v) for key, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [json_safe(v) for v in value]
    return value


def dump_json(payload: Any, path: "pathlib.Path | str") -> None:
    """Write ``payload`` as strict JSON (non-finite floats become null).

    ``allow_nan=False`` is the guard: if a non-finite value ever slips
    past :func:`json_safe` (e.g. a numpy scalar), this raises instead of
    writing an unparseable artifact.
    """
    text = json.dumps(json_safe(payload), indent=1, sort_keys=True,
                      allow_nan=False)
    pathlib.Path(path).write_text(text + "\n", encoding="utf-8")


def load_json(path: "pathlib.Path | str") -> Any:
    """Read a bench artifact, rejecting the bare ``NaN``/``Infinity``
    tokens legacy files may contain — they must be regenerated, not
    silently reinterpreted."""
    def _reject(token: str) -> float:
        raise ValueError(
            f"{path}: contains bare {token!r}, which is not valid JSON; "
            f"regenerate this artifact (non-finite metrics serialize as "
            f"null now)")
    return json.loads(pathlib.Path(path).read_text(encoding="utf-8"),
                      parse_constant=_reject)
