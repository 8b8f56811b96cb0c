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


def test_bench_sweep_rails_solver_mode(capsys):
    assert main(["bench", "--sweep-rails", "--mode", "solver"]) == 0
    out = capsys.readouterr().out
    assert "solved | model" in out


@pytest.mark.parametrize("mode", ["des", "solver"])
def test_bench_scenario_runs_a_message_only_scenario(tmp_path, capsys, mode):
    """A scenario with messages and no traffic spec used to be refused
    (exit 2, "scenario has no traffic spec") in both modes."""
    from repro.scenario import (MessageSpec, Scenario, Topology,
                                dump_scenario)
    path = tmp_path / "two_messages.json"
    dump_scenario(Scenario(
        seed=2,
        topology=Topology("chain", ("myrinet", "sci"), sizes=(2, 2),
                          gateways=(1,)),
        messages=(MessageSpec("a0", "b0", 30_000),
                  MessageSpec("a1", "b1", 12_000))), path)
    assert main(["bench", "--scenario", str(path), "--mode", mode]) == 0
    rows = dict(line.split() for line in
                capsys.readouterr().out.splitlines()[1:])
    assert rows["flows"] == "2" and rows["completed"] == "2"
