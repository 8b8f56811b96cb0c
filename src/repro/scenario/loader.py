"""Scenario file I/O: YAML and JSON.

A scenario file is a plain mapping of the :meth:`Scenario.to_dict` shape.
JSON support is always available; YAML needs PyYAML and raises a clear
error when it is missing (the library keeps zero hard dependencies beyond
numpy).  The format is picked by extension (``.yaml``/``.yml`` vs
``.json``) and by sniffing for pathless text.

Fuzz repro files (``{"version": ..., "scenario": {...}}`` wrappers written
by ``repro fuzz``) are accepted transparently — the embedded scenario is
returned — so one loader serves every mode of ``repro run`` and
:meth:`Session.from_scenario`.

Loading validates: a file naming a node, channel or gateway its topology
does not have fails here with :class:`ValueError`, not mid-run.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Union

from .schema import Scenario

__all__ = ["load_scenario", "loads_scenario", "dump_scenario"]


def _yaml():
    try:
        import yaml
    except ImportError as exc:  # pragma: no cover - depends on environment
        raise RuntimeError(
            "YAML scenario files need PyYAML (pip install pyyaml); "
            "JSON scenarios work without it") from exc
    return yaml


def _from_doc(doc: object) -> Scenario:
    if not isinstance(doc, dict):
        raise ValueError(f"scenario document must be a mapping, "
                         f"got {type(doc).__name__}")
    if "scenario" in doc and "topology" not in doc:
        # A fuzz repro wrapper: {"version": 1, "scenario": {...}, ...}.
        if doc.get("version", 1) != 1:
            raise ValueError(f"unsupported repro version {doc['version']}")
        doc = doc["scenario"]
        if not isinstance(doc, dict):
            raise ValueError("repro file 'scenario' entry must be a mapping")
    scenario = Scenario.from_dict(doc)
    scenario.validate()
    return scenario


def loads_scenario(text: str, fmt: str = "auto") -> Scenario:
    """Parse a scenario from ``text``; ``fmt`` is ``json``, ``yaml``, or
    ``auto`` (try JSON first — every JSON document is also valid YAML)."""
    if fmt == "json":
        return _from_doc(json.loads(text))
    if fmt == "yaml":
        return _from_doc(_yaml().safe_load(text))
    if fmt != "auto":
        raise ValueError(f"unknown scenario format {fmt!r}")
    try:
        return _from_doc(json.loads(text))
    except json.JSONDecodeError:
        return _from_doc(_yaml().safe_load(text))


def load_scenario(path: Union[str, Path]) -> Scenario:
    """Load a scenario (or a fuzz repro file) from a YAML/JSON file."""
    path = Path(path)
    text = path.read_text()
    suffix = path.suffix.lower()
    if suffix in (".yaml", ".yml"):
        return loads_scenario(text, "yaml")
    if suffix == ".json":
        return loads_scenario(text, "json")
    return loads_scenario(text, "auto")


def dump_scenario(scenario: Scenario, path: Union[str, Path]) -> None:
    """Write ``scenario`` to ``path`` (format by extension, default JSON)."""
    path = Path(path)
    doc = scenario.to_dict()
    if path.suffix.lower() in (".yaml", ".yml"):
        path.write_text(_yaml().safe_dump(doc, sort_keys=False))
    else:
        path.write_text(json.dumps(doc, indent=2) + "\n")
