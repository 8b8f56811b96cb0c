"""CLI tests."""

import pytest

from repro.cli import _parse_size, _parse_sizes, main


def test_parse_size():
    assert _parse_size("4") == 4
    assert _parse_size("8K") == 8192
    assert _parse_size("2M") == 2 << 20
    assert _parse_size("1.5K") == 1536
    with pytest.raises(Exception):
        _parse_size("oops")


def test_parse_size_gig_suffix_and_unit():
    assert _parse_size("1G") == 1 << 30
    assert _parse_size("2g") == 2 << 30
    assert _parse_size("1GB") == 1 << 30
    assert _parse_size("64KB") == 64 << 10
    assert _parse_size(" 4M ") == 4 << 20


def test_parse_size_rejects_trailing_garbage():
    import argparse
    for bad in ("4Q", "1Mx", "10KBs", "inf", "nan", "1e6", "-4K", "4 K", ""):
        with pytest.raises(argparse.ArgumentTypeError):
            _parse_size(bad)


def test_parse_sizes():
    assert _parse_sizes("1K,2K") == [1024, 2048]


def test_info(capsys):
    assert main(["info"]) == 0
    out = capsys.readouterr().out
    assert "myrinet" in out and "pio" in out


def test_ping(capsys):
    assert main(["ping", "--size", "256K", "--packet", "32K"]) == 0
    out = capsys.readouterr().out
    assert "bandwidth" in out and "MB/s" in out


@pytest.mark.parametrize("argv", [["--packet", "512"], ["--size", "0"]])
def test_ping_refuses_what_the_scenario_schema_rejects(argv, capsys):
    assert main(["ping", *argv]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("repro ping: "), err


def test_raw(capsys):
    assert main(["raw", "--protocol", "sci", "--sizes", "8K,64K"]) == 0
    out = capsys.readouterr().out
    assert "raw one-way bandwidth, sci" in out


def test_raw_unknown_protocol(capsys):
    assert main(["raw", "--protocol", "warp"]) == 2


def test_fig6_small(capsys):
    assert main(["fig6", "--packets", "16K", "--sizes", "64K,256K"]) == 0
    out = capsys.readouterr().out
    assert "Figure 6" in out
    assert "paquet 16 KB" in out


def test_fig7_small(capsys):
    assert main(["fig7", "--packets", "16K", "--sizes", "64K"]) == 0
    assert "Figure 7" in capsys.readouterr().out


def test_requires_command():
    with pytest.raises(SystemExit):
        main([])


TESTBED = "benchmarks/scenarios/testbed.json"


def _testbed(tmp_path, nbytes: int, drop: float = 0.0) -> str:
    """The testbed file with one ``nbytes`` transfer and a per-fragment
    drop probability, written under ``tmp_path``."""
    from repro.faults import ChannelFaults, FaultPlan
    from repro.scenario import MessageSpec, dump_scenario, load_scenario
    sc = load_scenario(TESTBED)
    (msg,) = sc.messages
    sc = sc.with_(messages=(MessageSpec(msg.src, msg.dst, nbytes),))
    if drop:
        sc = sc.with_(faults=FaultPlan(seed=1,
                                       default=ChannelFaults(drop_p=drop)))
    path = tmp_path / "testbed.json"
    dump_scenario(sc, path)
    return str(path)


def _rows(out: str) -> dict:
    return dict(line.split() for line in out.splitlines()
                if line.startswith("  ") and len(line.split()) == 2)


def test_stats_prints_metrics_snapshot(tmp_path, capsys):
    """`repro run` on the testbed: the summary row, and the telemetry
    snapshot in the --metrics file."""
    mpath = tmp_path / "m.json"
    assert main(["run", _testbed(tmp_path, 256 << 10),
                 "--metrics", str(mpath)]) == 0
    rows = _rows(capsys.readouterr().out)
    assert rows["flows"] == rows["completed"] == "1"
    assert rows["failed"] == "0"
    import json
    snapshot = json.loads(mpath.read_text())
    assert {"reliable.retransmits", "gateway.occupancy",
            "wire.bytes"} <= snapshot.keys()


def test_stats_writes_json_and_csv(tmp_path, capsys):
    jpath, cpath = tmp_path / "m.json", tmp_path / "m.csv"
    f = _testbed(tmp_path, 128 << 10)
    assert main(["run", f, "--metrics", str(jpath)]) == 0
    assert main(["run", f, "--metrics", str(cpath)]) == 0
    import json
    snapshot = json.loads(jpath.read_text())
    assert "reliable.attempts" in snapshot
    assert cpath.read_text().startswith("metric,kind,labels,field,value")


def test_stats_survives_fragment_drops(tmp_path, capsys):
    mpath = tmp_path / "m.json"
    f = _testbed(tmp_path, 128 << 10, drop=0.01)
    assert main(["run", f, "--metrics", str(mpath)]) == 0
    assert _rows(capsys.readouterr().out)["completed"] == "1"
    assert "faults.fragments_dropped" in mpath.read_text()


@pytest.mark.parametrize("command", ["stats", "trace"])
@pytest.mark.parametrize("bad", [("drop_p", 1.5), ("drop_p", -0.1),
                                 ("drop_p", float("nan")), ("nbytes", 0)],
                         ids=["drop-above-1", "drop-below-0", "drop-nan",
                              "size-0"])
def test_forwarded_run_rejects_bad_arguments_at_parse_time(command, bad,
                                                           tmp_path, capsys):
    """A drop probability or a size out of range is the testbed file's
    now: `repro run` refuses the file as it loads, with exit 2 and one
    stderr line, not a traceback, with or without a trace file."""
    import json
    key, value = bad
    doc = json.loads(open(TESTBED).read())
    if key == "nbytes":
        doc["messages"][0]["nbytes"] = value
    else:
        doc["faults"]["default"] = {"drop_p": value}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    argv = ["run", str(path)]
    if command == "trace":
        argv += ["--trace", str(tmp_path / "t.json")]
    assert main(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"repro run: {path}: "), err
    assert key.split("_")[0] in err[0]


@pytest.mark.parametrize("edit, field", [
    (lambda d: d["topology"].pop("kind"), "kind"),
    (lambda d: d["messages"][0].update(priority=1), "priority"),
    (lambda d: d["faults"].update(default={"drop_p": 0.0, "jitter_us": 5}),
     "jitter_us"),
    (lambda d: d["faults"].update(link_events=[{"channel": "c0"}]), "time"),
    (lambda d: d.update(topology=["chain"]), "topology"),
    (lambda d: d.update(header_batching="false"), "header_batching"),
    (lambda d: d.update(multirail="false"), "multirail"),
    (lambda d: d.update(pipeline=[2, 2, "false"]), "pipeline"),
    (lambda d: d.update(adaptive=[0, 3.0, 1.5, "false"]), "adaptive"),
    (lambda d: d.update(gw_stall_timout=d.pop("gw_stall_timeout")),
     "gw_stall_timout"),
], ids=["topology-without-kind", "message-unknown-key",
        "fault-default-unknown-key", "link-event-without-time",
        "topology-as-list", "header-batching-as-string",
        "multirail-as-string", "lockstep-as-string", "balance-as-string",
        "misspelt-top-level-key"])
def test_run_rejects_a_malformed_file_with_one_line(edit, field, tmp_path,
                                                     capsys):
    """A document of the wrong shape is a typed load error naming the
    field — exit 2 and one stderr line — not a KeyError or TypeError
    traceback."""
    import json
    doc = json.loads(open(TESTBED).read())
    edit(doc)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main(["run", str(path)]) == 2
    err = capsys.readouterr().err.splitlines()
    prefix = f"repro run: {path}: "
    assert len(err) == 1 and err[0].startswith(prefix), err
    assert field in err[0][len(prefix):], err


@pytest.mark.parametrize("command", ["stats", "trace"])
def test_forwarded_run_that_gives_up_is_a_typed_error(command, tmp_path,
                                                      capsys):
    """Total loss ends in one stderr line naming RetryExhausted and exit 1,
    not a ProcessCrashed traceback, with or without a trace file."""
    argv = ["run", _testbed(tmp_path, 64 << 10, drop=1.0)]
    if command == "trace":
        argv += ["--trace", str(tmp_path / "t.json")]
    assert main(argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "RetryExhausted" in err[0], err


def test_trace_writes_chrome_json(tmp_path, capsys):
    """One Chrome file holds the wire events and one ``forward`` event per
    message a gateway forwarded."""
    tpath, mpath = tmp_path / "t.json", tmp_path / "m.json"
    assert main(["run", _testbed(tmp_path, 128 << 10),
                 "--trace", str(tpath), "--metrics", str(mpath)]) == 0
    import json
    events = json.loads(tpath.read_text())["traceEvents"]
    forwarded = json.loads(mpath.read_text())["gateway.messages_forwarded"]
    assert any(e["cat"] == "wire" for e in events)
    assert (sum(e["name"] == "forward" for e in events)
            == sum(s["value"] for s in forwarded["series"]) > 0)


def test_solve_scenario_prints_flows_and_writes_json(tmp_path, capsys):
    out_path = tmp_path / "solve.json"
    assert main(["run", "benchmarks/scenarios/torus_uniform.yaml",
                 "--solver", "--metrics", str(out_path)]) == 0
    out = capsys.readouterr().out
    assert "FCT" in out and "busiest links" in out
    import json
    payload = json.loads(out_path.read_text())   # strict JSON by construction
    assert payload["summary"]["mode"] == "solver"
    assert payload["flows"]


@pytest.mark.parametrize("argv", [["--check", "--metrics", "m.json"],
                                  ["--check", "--trace", "t.json"],
                                  ["--solver", "--trace", "t.json"],
                                  ["--solver", "--metrics", "m.csv"]])
def test_run_refuses_an_output_its_mode_does_not_make(argv, capsys):
    assert main(["run", TESTBED, *argv]) == 2
    assert capsys.readouterr().err.startswith("repro run:")


def test_bench_without_an_action_lists_the_remaining_ones(capsys):
    assert main(["bench"]) == 2
    err = capsys.readouterr().err
    assert err.strip() == ("nothing to do: pass one of --sweep-pipeline/"
                           "--sweep-rails/--sweep-nodes")


def test_bench_rejects_the_removed_suite_flag():
    """The regress suite's flag and the solver-mode, pool, profiler and
    validation flags of `bench` and `solve` are argparse errors now."""
    f = "tests/data/messages_plus_incast.json"
    for argv in (["bench", "--regress"],
                 ["bench", "--scenario", f, "--mode", "solver"],
                 ["bench", "--sweep-rails", "--jobs", "2"],
                 ["bench", "--sweep-nodes", "--profile"],
                 ["solve", "--scenario", f, "--validate"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv


@pytest.mark.parametrize("argv", [
    ["stats"], ["trace"], ["solve", "--scenario", TESTBED],
    ["bench", "--scenario", TESTBED], ["fuzz", "--replay", TESTBED],
    ["run", TESTBED, "--solver", "--check"], ["run", TESTBED, "--out", "x"],
    ["run"]])
def test_removed_verbs_and_flags_are_argparse_errors(argv):
    """`repro run FILE` replaced the stats, trace and solve verbs and the
    scenario flags of bench and fuzz; its modes exclude each other."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2, argv


def test_fuzz_rejects_the_removed_scenario_alias():
    f = "benchmarks/scenarios/torus_uniform.yaml"
    with pytest.raises(SystemExit) as exc:
        main(["fuzz", "--scenario", f])
    assert exc.value.code == 2


def test_fuzz_replay_of_a_fault_run_exits_zero(capsys):
    """A committed fault run replays through the one runner, `repro run
    --check`: exit 0 and a PASS line when no invariant is violated."""
    assert main(["run", "--check",
                 "tests/faults/scenarios/acceptance.json"]) == 0
    out = capsys.readouterr().out
    assert "PASS: no invariant violated" in out
    assert "delivered    3" in out


def test_run_check_of_a_corpus_file_exits_zero(capsys):
    """A fuzz-repro wrapped file loads through the same loader."""
    assert main(["run", "--check",
                 "tests/fuzz/corpus/seed99-stripe-leak.json"]) == 0
    assert "PASS: no invariant violated" in capsys.readouterr().out


def test_fuzz_minimize_of_a_passing_file_reports_pass(capsys):
    assert main(["fuzz", "--minimize",
                 "tests/faults/scenarios/acceptance.json"]) == 0
    assert "PASS: no invariant violated" in capsys.readouterr().out


@pytest.mark.parametrize(("sweep", "rows", "cols"), [
    ("--sweep-rails", ["rails1", "rails2", "rails3"], ["4k", "8k", "16k"]),
    ("--sweep-pipeline", ["depth1", "depth2", "depth4", "depth8"],
     ["8k", "16k", "32k", "64k", "128k"])], ids=["rails", "pipeline"])
def test_bench_sweep_writes_its_grid(sweep, rows, cols, tmp_path, capsys):
    path = tmp_path / "sweep.json"
    assert main(["bench", sweep, "--sweep-out", str(path)]) == 0
    import json
    grid = json.loads(path.read_text())["grid"]
    assert sorted(grid) == sorted(rows)
    assert all(sorted(row) == sorted(cols) for row in grid.values())


@pytest.mark.parametrize("mode", ["des", "solver"])
def test_bench_scenario_runs_a_message_only_scenario(tmp_path, capsys, mode):
    """A scenario with messages and no traffic spec used to be refused
    (exit 2, "scenario has no traffic spec") by both engines; `repro run`
    runs it through either."""
    from repro.scenario import (MessageSpec, Scenario, Topology,
                                dump_scenario)
    path = tmp_path / "two_messages.json"
    dump_scenario(Scenario(
        seed=2,
        topology=Topology("chain", ("myrinet", "sci"), sizes=(2, 2),
                          gateways=(1,)),
        messages=(MessageSpec("a0", "b0", 30_000),
                  MessageSpec("a1", "b1", 12_000))), path)
    argv = ["run", str(path)] + (["--solver"] if mode == "solver" else [])
    assert main(argv) == 0
    rows = _rows(capsys.readouterr().out)
    assert rows["flows"] == "2" and rows["completed"] == "2"
