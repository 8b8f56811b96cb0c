"""``run.py --compare A.json B.json``: is B worse than A?

A and B are ``--out`` files of two all-workloads runs (the parent commit
and a change, or the same commit twice).  Each end-to-end metric of
``BENCHMARK.json`` is held to its bound, one row per workload and metric:

* ``worse``       B is worse than A by more than the bound;
* ``unresolved``  it is not, but either run's own spread (how far its two
                  rounds sit apart; for set-up, the inter-quartile range of
                  its samples over their median) is wider than the bound,
                  so "unchanged" cannot be claimed;
* ``ok``          otherwise.

Simulated statistics repeat exactly for a fixed seed, so at equal seeds
they must be identical, and no workload may lose a flow.
"""

from __future__ import annotations

import json


def _load(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        report = json.load(fh)
    if "workloads" not in report:
        raise SystemExit(f"{path}: not an all-workloads --out file")
    return report


def compare_files(spec: dict, path_a: str, path_b: str) -> int:
    a, b = _load(path_a), _load(path_b)
    rows = []
    for w in spec["workloads"]:
        name = w["name"]
        ra, rb = a["workloads"].get(name), b["workloads"].get(name)
        if ra is None or rb is None:
            rows.append((name, "(ran)", "", "", "", "worse"))
            continue
        for m in spec["end_to_end"]:
            va = ra["values"].get(m["name"])
            vb = rb["values"].get(m["name"])
            if va is None or vb is None:
                rows.append((name, m["name"], va, vb, "", "worse"))
                continue
            change = (vb - va) / va
            worsening = change if m["better"] == "lower" else -change
            spread = max(ra.get("spread", {}).get(m["name"], 0.0),
                         rb.get("spread", {}).get(m["name"], 0.0))
            status = ("worse" if worsening > m["bound"]
                      else "unresolved" if spread > m["bound"] else "ok")
            rows.append((name, m["name"], va, vb, f"{change:+.1%}", status))
        failed = "worse" if rb["failed"] > ra["failed"] else "ok"
        rows.append((name, "failed", ra["failed"], rb["failed"], "", failed))
        if a["seed"] == b["seed"]:
            keys = sorted(k for k in set(ra["sim"]) | set(rb["sim"])
                          if ra["sim"].get(k) != rb["sim"].get(k))
            rows.append((name, "simulated statistics", len(ra["sim"]),
                         len(rb["sim"]),
                         " ".join(keys[:4]) + (" ..." if len(keys) > 4
                                               else ""),
                         "worse" if keys else "ok"))

    def cell(value):
        return f"{value:.6g}" if isinstance(value, float) else str(value)

    print(f"{'workload':16s} {'metric':22s} {'A':>12s} {'B':>12s} "
          f"{'change':>9s}  verdict")
    for name, metric, va, vb, change, status in rows:
        print(f"{name:16s} {metric:22s} {cell(va):>12s} {cell(vb):>12s} "
              f"{change:>9s}  {status}")
    if a["seed"] != b["seed"]:
        print(f"seeds differ ({a['seed']} vs {b['seed']}): simulated "
              f"statistics not compared")
    for label, report in (("A", a), ("B", b)):
        if report.get("noisy"):
            print(f"{label} is flagged NOISY: the calibration loop spread "
                  f"more than 10% inside one of its processes")
    worse = sum(1 for row in rows if row[-1] == "worse")
    unresolved = sum(1 for row in rows if row[-1] == "unresolved")
    print(f"{len(rows)} rows: {worse} worse, {unresolved} unresolved")
    return 1 if worse else 0
