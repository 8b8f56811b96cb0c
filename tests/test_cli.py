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


def test_stats_prints_metrics_snapshot(capsys):
    assert main(["stats", "--direction", "sci-to-myri",
                 "--size", "256K"]) == 0
    out = capsys.readouterr().out
    assert "delivered in" in out and "MB/s" in out
    assert "reliable.retransmits" in out
    assert "gateway.occupancy" in out
    assert "wire.bytes" in out


def test_stats_writes_json_and_csv(tmp_path, capsys):
    jpath, cpath = tmp_path / "m.json", tmp_path / "m.csv"
    assert main(["stats", "--size", "128K",
                 "--json", str(jpath), "--csv", str(cpath)]) == 0
    import json
    snapshot = json.loads(jpath.read_text())
    assert "reliable.attempts" in snapshot
    assert cpath.read_text().startswith("metric,kind,labels,field,value")


def test_stats_survives_fragment_drops(capsys):
    assert main(["stats", "--size", "128K", "--drop", "0.01",
                 "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert "faults.fragments_dropped" in out


@pytest.mark.parametrize("command", ["stats", "trace"])
@pytest.mark.parametrize("bad", [["--drop", "1.5"], ["--drop", "-0.1"],
                                 ["--drop", "nan"], ["--size", "0"]],
                         ids=["drop-above-1", "drop-below-0", "drop-nan",
                              "size-0"])
def test_forwarded_run_rejects_bad_arguments_at_parse_time(command, bad,
                                                           capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, *bad])
    assert exc.value.code == 2
    assert bad[0] in capsys.readouterr().err


@pytest.mark.parametrize("command", ["stats", "trace"])
def test_forwarded_run_that_gives_up_is_a_typed_error(command, tmp_path,
                                                      capsys):
    """Total loss ends in one stderr line naming RetryExhausted and exit 1,
    not a ProcessCrashed traceback."""
    argv = [command, "--drop", "1.0", "--size", "64K"]
    if command == "trace":
        argv += ["--out", str(tmp_path / "t.json")]
    assert main(argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "RetryExhausted" in err[0], err


def test_trace_writes_chrome_json(tmp_path, capsys):
    tpath, spath = tmp_path / "t.json", tmp_path / "s.json"
    assert main(["trace", "--size", "128K",
                 "--out", str(tpath), "--spans-out", str(spath)]) == 0
    import json
    trace = json.loads(tpath.read_text())
    assert trace["traceEvents"]
    spans = json.loads(spath.read_text())
    assert any(e["name"] == "forward" for e in spans["traceEvents"])


def test_solve_scenario_prints_flows_and_writes_json(tmp_path, capsys):
    out_path = tmp_path / "solve.json"
    assert main(["solve", "--scenario", "benchmarks/scenarios/torus_uniform.yaml",
                 "--out", str(out_path)]) == 0
    out = capsys.readouterr().out
    assert "FCT" in out and "busiest links" in out
    import json
    payload = json.loads(out_path.read_text())   # strict JSON by construction
    assert payload["summary"]["mode"] == "solver"
    assert payload["flows"]


def test_bench_without_an_action_lists_the_remaining_ones(capsys):
    assert main(["bench"]) == 2
    err = capsys.readouterr().err
    assert err.strip() == ("nothing to do: pass --scenario or one of "
                           "--sweep-pipeline/--sweep-rails/--sweep-nodes")


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


def test_fuzz_rejects_the_removed_scenario_alias():
    f = "benchmarks/scenarios/torus_uniform.yaml"
    with pytest.raises(SystemExit) as exc:
        main(["fuzz", "--scenario", f])
    assert exc.value.code == 2


def test_fuzz_replay_of_a_fault_run_exits_zero(capsys):
    """A committed fault run replays through the one runner: exit 0 and a
    PASS line when no invariant is violated."""
    assert main(["fuzz", "--replay",
                 "tests/faults/scenarios/acceptance.json"]) == 0
    out = capsys.readouterr().out
    assert "PASS: no invariant violated" in out
    assert "delivered    3" in out


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
    (exit 2, "scenario has no traffic spec") by both engines; the DES runs
    it through `repro bench`, the solver through `repro solve`."""
    from repro.scenario import (MessageSpec, Scenario, Topology,
                                dump_scenario)
    path = tmp_path / "two_messages.json"
    dump_scenario(Scenario(
        seed=2,
        topology=Topology("chain", ("myrinet", "sci"), sizes=(2, 2),
                          gateways=(1,)),
        messages=(MessageSpec("a0", "b0", 30_000),
                  MessageSpec("a1", "b1", 12_000))), path)
    command = "bench" if mode == "des" else "solve"
    assert main([command, "--scenario", str(path)]) == 0
    rows = dict(line.split() for line in capsys.readouterr().out.splitlines()
                if line.startswith("  ") and len(line.split()) == 2)
    assert rows["flows"] == "2" and rows["completed"] == "2"
