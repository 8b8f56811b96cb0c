"""Repro files and the committed regression corpus.

Every file under ``tests/fuzz/corpus/`` is a scenario the fuzzer once
minimized from a real failure; replaying it must pass on the fixed stack.
"""

import pathlib

import pytest

from repro.fuzz import random_scenario, run_scenario, save_repro
from repro.fuzz.corpus import repro_name
from repro.scenario import load_scenario

CORPUS = sorted(
    (pathlib.Path(__file__).parent / "corpus").glob("*.json"))


def test_corpus_is_not_empty():
    assert CORPUS, "the regression corpus should hold every fixed bug"


@pytest.mark.parametrize("path", CORPUS, ids=lambda p: p.stem)
def test_corpus_replay_passes(path):
    scenario = load_scenario(path)
    result = run_scenario(scenario)
    assert result.ok, (
        f"regression: {path.name} fails again: "
        + "; ".join(str(f) for f in result.failures))


def test_save_load_roundtrip(tmp_path):
    scenario = random_scenario(7)
    result = run_scenario(scenario)
    path = tmp_path / repro_name(result)
    save_repro(path, result)
    assert load_scenario(path) == scenario


def test_unknown_version_rejected(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"version": 99, "scenario": {}}')
    with pytest.raises(ValueError, match="version 99"):
        load_scenario(path)
