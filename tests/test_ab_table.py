"""tools/ab_table.py on canned run reports in two checkouts."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "ab_table.py"
E2E = ("setup_s", "wall_s", "items_per_s", "peak_rss_mb")


def write_report(repo: Path, name: str, workload: str, seed: int, metrics: dict,
                 mtime: float, trace: int = 0) -> None:
    reports = repo / ".bench_work" / "reports"
    reports.mkdir(parents=True, exist_ok=True)
    path = reports / f"{name}.json"
    path.write_text(json.dumps({"workload": workload, "seed": seed, "trace": trace,
                                "metrics": metrics}))
    os.utime(path, (mtime, mtime))


def checkouts(tmp_path, pairs):
    """A parent and a change checkout holding one untraced report per side
    for each (workload, seed, parent metrics, change metrics, first side)."""
    parent, change = tmp_path / "parent", tmp_path / "change"
    for repo in (parent, change):
        repo.mkdir()
    shutil.copy(ROOT / "BENCHMARK.json", change / "BENCHMARK.json")
    for i, (workload, seed, p, c, first) in enumerate(pairs):
        t = 1e9 + 10 * i
        write_report(parent, f"p{i}", workload, seed, p, t if first == "parent" else t + 1)
        write_report(change, f"c{i}", workload, seed, c, t + 1 if first == "parent" else t)
    return parent, change


def run_tool(parent, change):
    return subprocess.run([sys.executable, str(TOOL), str(parent), str(change)],
                          capture_output=True, text=True)


def metrics(setup, wall, items, rss):
    return dict(zip(E2E, (setup, wall, items, rss)))


def test_pairs_rows_and_the_claim_rule(tmp_path):
    """Ten pairs: peak RSS and items/s win all ten by more than the parent's
    IQR (the rule holds); wall time wins 8 of 10 by a wide gap, and set-up
    all ten by less than the IQR (it does not). Ties count for neither."""
    pairs = []
    for i in range(10):
        p = metrics(0.3 + 0.01 * i, 7.0 + 0.1 * i, 400.0 + i, 50.0 + 0.01 * i)
        c = metrics(p["setup_s"] - 0.001, p["wall_s"] + (-1.0 if i < 8 else 0.05),
                    410.0 + i, 46.8 + 0.01 * i)
        pairs.append(("sample-eval", 2800 + i, p, c, "parent" if i % 2 == 0 else "change"))
    pairs.append(("train-eqm", 1, metrics(0.3, 0.6, 240.0, 46.9),
                  metrics(0.3, 0.6, 240.0, 46.8), "parent"))
    parent, change = checkouts(tmp_path, pairs)
    write_report(parent, "traced", "sample-eval", 2800, {"error_rate": 0.0}, 1e9, trace=1)
    write_report(change, "lonely", "sample-eval", 9999, pairs[0][3], 1e9)
    proc = run_tool(parent, change)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == "note: change run of sample-eval seed 9999 has no partner\n"
    lines = proc.stdout.splitlines()
    assert lines[0] == ("| workload | seed | first | setup_s P -> C | wall_s P -> C "
                        "| items_per_s P -> C | peak_rss_mb P -> C |")
    assert lines[2] == ("| sample-eval | 2800 | parent | 0.3 -> 0.299 | 7 -> 6 "
                        "| 400 -> 410 | 50 -> 46.8 |")
    assert lines[3].startswith("| sample-eval | 2801 | change |")
    assert lines[12] == ("| train-eqm | 1 | parent | 0.3 -> 0.3 | 0.6 -> 0.6 "
                         "| 240 -> 240 | 46.9 -> 46.8 |")
    verdicts = {line.split("`")[1] + " " + line.split()[1]: line
                for line in lines if line.startswith("- ")}
    rss = verdicts["peak_rss_mb sample-eval"]
    assert "parent 50.05 [50.02, 50.07] -> change 46.84 (-3.2, parent IQR 0.045)" in rss
    assert rss.endswith("change better in 10/10 pairs; rule holds")
    assert verdicts["wall_s sample-eval"].endswith("change better in 8/10 pairs; rule not met")
    assert verdicts["setup_s sample-eval"].endswith("change better in 10/10 pairs; "
                                                    "rule not met")
    assert verdicts["items_per_s sample-eval"].endswith("in 10/10 pairs; rule holds")
    assert verdicts["setup_s train-eqm"].endswith("change better in 0/1 pairs; rule not met")
    # one pair is too few for any claim
    assert verdicts["peak_rss_mb train-eqm"].endswith("change better in 1/1 pairs; "
                                                      "rule not met")


def test_no_shared_run_or_a_duplicate_is_an_error(tmp_path):
    parent, change = checkouts(tmp_path, [])
    write_report(parent, "a", "train-eqm", 1, metrics(1, 1, 1, 1), 1e9)
    proc = run_tool(parent, change)
    assert proc.returncode == 1 and "share no untraced run" in proc.stderr
    write_report(change, "a", "train-eqm", 1, metrics(1, 1, 1, 1), 1e9)
    write_report(change, "b", "train-eqm", 1, metrics(1, 1, 1, 1), 1e9)
    proc = run_tool(parent, change)
    assert proc.returncode == 1
    assert "two untraced reports of train-eqm seed 1" in proc.stderr
