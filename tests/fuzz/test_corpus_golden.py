"""The committed corpus, pinned run by run.

``run_scenario(load_scenario(p))`` of every file under ``tests/fuzz/corpus/``:
its ``stats`` dict (simulated time, processed events, deliveries, fragment
and gateway counters) and its sorted coverage ``features``, compared with
``==`` against ``tests/data/fuzz_corpus_golden.json``.  The recording was
made on the commit before the traffic engine took over the executor's
senders and receivers, so a reordered spawn, a changed payload or one
extra timeout event in the shared driver fails here.

Re-record with ``python -m tests.fuzz.test_corpus_golden OUT.json``.
"""

import json
import pathlib
import sys

import pytest

from repro.fuzz import run_scenario
from repro.scenario import load_scenario

CORPUS = sorted((pathlib.Path(__file__).parent / "corpus").glob("*.json"))
RECORDING = (pathlib.Path(__file__).parent.parent / "data"
             / "fuzz_corpus_golden.json")


def _observe(path: pathlib.Path) -> dict:
    result = run_scenario(load_scenario(path))
    return {"ok": result.ok, "stats": result.stats,
            "features": sorted(result.features)}


def dump(path: str) -> None:
    note = ("recorded on c25a673 (fuzz/executor.py drives scenario.messages "
            "itself) by tests/fuzz/test_corpus_golden.py")
    doc = {"note": note, "runs": {p.name: _observe(p) for p in CORPUS}}
    with open(path, "w") as fh:
        fh.write(json.dumps(doc, indent=1, sort_keys=True) + "\n")


@pytest.fixture(scope="module")
def recording():
    return json.loads(RECORDING.read_text())["runs"]


def test_every_corpus_file_is_recorded(recording):
    assert sorted(recording) == [p.name for p in CORPUS]


@pytest.mark.parametrize("path", CORPUS, ids=lambda p: p.stem)
def test_corpus_run_matches_recording(recording, path):
    assert _observe(path) == recording[path.name]


if __name__ == "__main__":
    dump(sys.argv[1])
