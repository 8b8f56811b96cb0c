"""Retired names stay retired, and the one-way shapes stay one.

Each simplification of the code base removed a second way of doing
something: a harness, a runner verb, a knob, a record, a mode.  The table
below keeps each removal from coming back.  A row names a regular
expression, the paths it is checked under, why, and the section of
docs/migration.md that records what replaced the retired way.  What a row
expects of its pattern:

* ``absent`` (most rows): no line matches;
* ``only``: of the files under ``paths[1:]``, the one with a matching
  line is ``paths[0]`` (the one producer of something);
* ``once``: exactly one line matches (the one definition of something);
* ``present``: some line matches (a signature that must stay);
* ``no_call``: no Python call of an attribute whose name matches;
* ``no_static_call``: no Python call of a (dotted) name that matches made
  once per import — in a module or class body, a decorator or a default
  value — rather than inside a function.

``word`` rows match whole words only (as ``grep -w`` does); ``skip``
lists files that record a name on purpose.  This file is never searched:
it holds the table.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SELF = Path(__file__).resolve()

#: the prose a user reads.
DOCS = ("docs", "README.md", "DESIGN.md", "EXPERIMENTS.md")
#: the code, its tests and examples, and the prose around them.
EVERYWHERE = ("src", "tests", "examples") + DOCS + (".claude",)


@dataclass(frozen=True)
class Retired:
    pattern: str
    paths: tuple[str, ...]
    reason: str
    #: the docs/migration.md section that records the replacement.
    retired_by: str
    word: bool = False
    skip: tuple[str, ...] = ()
    expect: str = "absent"


RETIRED = (
    Retired(r"bench --regress|BENCH_PR3|bench_regress|run_regress",
            ("src", "tests", "docs", "README.md", "DESIGN.md", "Makefile"),
            "the paper cells are tier-1 tests against "
            "tests/data/paper_cells_golden.json; no band comparator, "
            "results file or baseline writer beside them",
            "The paper's figures are tier-1 tests"),
    Retired(r"benchmarks/bench_|pytest-benchmark|--benchmark-only|"
            r"benchmarks/results",
            ("src", "tests", "docs", "README.md", "DESIGN.md",
             "EXPERIMENTS.md", "Makefile", "pyproject.toml"),
            "no second figure harness (pytest-benchmark scripts and their "
            "results directory) beside the paper cells",
            "The paper's figures are tier-1 tests"),
    Retired(r"tools/chaos|load_config|madeleine\.config|collect_stats",
            ("src", "tests", "README.md", "DESIGN.md", "EXPERIMENTS.md",
             ".claude", "docs"),
            "a fault run is a scenario file, judged by the invariant "
            "catalog; the JSON session config and its stats are gone",
            "A chaos run is a scenario file"),
    Retired(r"solve --validate|solver_validate|compare_validate|"
            r"run_validate|solve_traffic_scenario|--mode solver|"
            r"bench --profile",
            ("src", "tests") + DOCS + (".claude",),
            "solver-vs-DES agreement is tests/solver/test_validate.py "
            "with literal bounds, and `repro run --solver` the solver's "
            "one CLI door",
            "The solver's accuracy is a tier-1 test", word=True),
    Retired(r"_forwarded_run|--spans-out|fuzz --replay|solve --scenario|"
            r"bench --scenario|repro stats|repro trace",
            ("src", "tests") + DOCS + (".claude",),
            "every scenario file runs through `repro run FILE`, and the "
            "paper's testbed is a Scenario",
            "Every world is a Scenario, and one verb runs it", word=True),
    Retired(r"tuner_slack|restripe_slack_us|default_packet_size|"
            r"test_legacy_params_select_the_same_periods",
            ("src", "tests", "docs", "examples", "README.md"),
            "the pipeline is set only in GatewayParams.pipeline and the "
            "paquet size only on the Session; unvaried values are "
            "module constants",
            "Every setting has one home", word=True),
    Retired(r"SpanTracker|spans_to_chrome|write_spans_chrome|"
            r"NULL_TELEMETRY|session.spans",
            EVERYWHERE,
            "a world has one metrics registry and one raw trace; the "
            "forward interval is a pair of trace records",
            "One record of what happened", word=True),
    Retired(r"BusMonitor|rate_observers|crosscheck_max_dev|load_repro|"
            r"pending_recv_count|hop_count",
            EVERYWHERE,
            "FluidNetwork and solve() each run one incremental loop, held "
            "to the oracles by the tests",
            "The fluid layer runs one way", word=True),
    Retired(r"(crosscheck|incremental)=",
            EVERYWHERE,
            "no second fluid mode or crosscheck switch",
            "The fluid layer runs one way"),
    Retired(r"generate_flows\(", ("src/repro/traffic/flows.py", "src"),
            "the traffic flow list has one producer",
            "Scenario files replace per-harness flags", expect="only"),
    Retired(r"def _payload", ("src",),
            "a traffic payload has one encoder",
            "Scenario files replace per-harness flags", expect="once"),
    Retired(re.escape('def __init__(self, session: "Session", '
                      'scenario: Scenario) -> None:'),
            ("src/repro/traffic/engine.py",),
            "the traffic engine drives the scenario's one flow list; no "
            "spec or endpoint arguments beside it",
            "Scenario files replace per-harness flags", expect="present"),
    Retired(r"_application_flows", ("src",),
            "the traffic engine reads the one flow list of "
            "traffic/flows.py",
            "Scenario files replace per-harness flags"),
    Retired(r"begin_packing|begin_unpacking|struct|def _payload",
            ("src/repro/fuzz/executor.py",),
            "the fuzz executor drives the traffic engine; it has no "
            "senders, receivers or framing of its own",
            "Scenario files replace per-harness flags"),
    Retired(r"InstrumentFamily|PulledCounter|pulled_counter|_OffCounter|"
            r"_OffGauge|_OffPulledCounter",
            ("src", "tests", "examples", "benchmarks") + DOCS + (".claude",),
            "every metric series is declared; a pulled counter is a "
            "family kind",
            "One way to make a metric series", word=True,
            skip=("docs/migration.md",)),
    Retired(r"Instrument|Counter|Gauge|_OffHistogram", ("src",),
            "the instrument classes are gone; a series is a family slot",
            "One way to make a metric series", word=True),
    Retired(r"counter|gauge|histogram", ("src",),
            "no library module makes a series by name: it declares its "
            "series and updates its families by slot",
            "One way to make a metric series", expect="no_call"),
    Retired(r"(itertools\.)?count", ("src",),
            "a counter shared by every run makes a run's ids depend on the "
            "runs before it; each world (or the object that keys a table "
            "by them) counts its own",
            "A run's ids belong to its world", expect="no_static_call"),
    Retired(r"def reset_global_ids\(", ("src", "tests", "examples",
                                         "benchmarks", "tools"),
            "the id reset is a no-op kept for the benchmark's workloads",
            "A run's ids belong to its world", expect="once"),
    Retired(r"reset_global_ids\(\)(?! ->)",
            ("benchmarks/perf/workloads.py", "src", "tests", "examples",
             "benchmarks", "tools", ".github", "Makefile"),
            "a run repeats without a reset; only the benchmark's workloads "
            "still call the no-op",
            "A run's ids belong to its world", expect="only"),
    Retired(r"TEST_HOOKS|leak_credits", ("src",),
            "no deliberate-bug switch in the library: the fuzz tests plant "
            "their known-bad gateway with a fixture",
            "A run's ids belong to its world"),
    Retired(r"Signal", ("src",),
            "no synchronization primitive that nothing uses",
            "A run's ids belong to its world", word=True),
)


def _files(paths):
    for rel in paths:
        path = ROOT / rel
        if path.is_file():
            yield path
        elif path.is_dir():
            for sub in sorted(path.rglob("*")):
                if (sub.is_file() and "__pycache__" not in sub.parts
                        and ".pytest_cache" not in sub.parts):
                    yield sub


def _text(path: Path):
    """The file's text, or None for a binary file (``grep -I``)."""
    data = path.read_bytes()
    if b"\0" in data:
        return None
    return data.decode("utf-8", errors="replace")


def _calls(regex, path: Path, text: str) -> list[str]:
    """Calls ``x.name(...)`` in a Python file, ``name`` matching."""
    if path.suffix != ".py":
        return []
    return [f"{path.relative_to(ROOT)}:{node.lineno}: .{node.func.attr}("
            for node in ast.walk(ast.parse(text))
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and regex.fullmatch(node.func.attr)]


def _static_calls(regex, path: Path, text: str) -> list[str]:
    """Calls ``name(...)`` in a Python file made once per import, outside
    every function body, ``name`` (dotted) matching."""
    if path.suffix != ".py":
        return []
    hits, todo = [], [ast.parse(text)]
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            todo += node.args.defaults + [d for d in node.args.kw_defaults
                                          if d is not None]
            todo += getattr(node, "decorator_list", [])
            continue
        if isinstance(node, ast.Call):
            name = ast.unparse(node.func)
            if regex.fullmatch(name):
                hits.append(f"{path.relative_to(ROOT)}:{node.lineno}: "
                            f"{name}(")
        todo += ast.iter_child_nodes(node)
    return sorted(hits)


def _hits(row: Retired) -> list[str]:
    """Every line (or call) under ``row.paths`` that matches."""
    regex = re.compile(rf"(?<!\w)(?:{row.pattern})(?!\w)" if row.word
                       else row.pattern)
    skip = {ROOT / rel for rel in row.skip} | {SELF}
    paths = row.paths[1:] if row.expect == "only" else row.paths
    hits = []
    for path in _files(paths):
        if path.resolve() in skip:
            continue
        text = _text(path)
        if text is None:
            continue
        if row.expect == "no_call":
            hits += _calls(regex, path, text)
            continue
        if row.expect == "no_static_call":
            hits += _static_calls(regex, path, text)
            continue
        for n, line in enumerate(text.splitlines(), 1):
            if regex.search(line):
                hits.append(f"{path.relative_to(ROOT)}:{n}: {line.strip()}")
    return hits


def _holds(row: Retired, hits: list[str]) -> bool:
    if row.expect == "only":
        return {hit.split(":")[0] for hit in hits} == {row.paths[0]}
    if row.expect == "once":
        return len(hits) == 1
    if row.expect == "present":
        return bool(hits)
    return not hits


@pytest.mark.parametrize("row", RETIRED, ids=lambda row: re.sub(
    r"\W+", "_", row.pattern)[:32].strip("_"))
def test_a_retired_name_stays_retired(row):
    assert all((ROOT / rel).exists() for rel in row.paths)
    hits = _hits(row)
    assert _holds(row, hits), (
        f"{row.expect}: {row.reason} (docs/migration.md, "
        f"\"{row.retired_by}\"):\n" + "\n".join(hits))
