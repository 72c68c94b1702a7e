"""tools/bench_summary.py on synthetic run reports."""

import hashlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "bench_summary.py"
ENV = {"python": "3.11", "numpy": "2.0", "cpu": "test"}


def report(seed, trace, metrics, sha="ab12"):
    return {"workload": "sample-eval", "seed": seed, "trace": trace, "attempted": 1,
            "failed": 0, "metrics": metrics, "environment": ENV,
            "fixture": {"sha256": sha}}


def git(tmp_path, *args) -> bytes:
    return subprocess.run(["git", "-C", str(tmp_path), "-c", "user.name=t", "-c",
                           "user.email=t@t", *args], check=True, capture_output=True).stdout


def checkout(tmp_path, reports):
    """A clean git checkout: BENCHMARK.json committed, and the given run
    reports in its ignored .bench_work/."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    (tmp_path / ".gitignore").write_text(".bench_work/\n")
    git(tmp_path, "init", "-q")
    git(tmp_path, "add", "BENCHMARK.json", ".gitignore")
    git(tmp_path, "commit", "-q", "-m", "x")
    rev = git(tmp_path, "rev-parse", "HEAD").decode().strip()
    reports_dir = tmp_path / ".bench_work" / "reports"
    reports_dir.mkdir(parents=True)
    for i, r in enumerate(reports):
        (reports_dir / f"r{i}.json").write_text(json.dumps(r))
    return rev


def run_tool(tmp_path):
    out = tmp_path / "BENCH.json"
    proc = subprocess.run([sys.executable, str(TOOL), "--repo", str(tmp_path),
                           "--out", str(out)], capture_output=True, text=True)
    return proc, out


def test_medians_seeds_environment_fixture_and_revision(tmp_path):
    e2e = {"setup_s": 1.0, "wall_s": 10.0, "items_per_s": 200.0, "peak_rss_mb": 600.0}
    rev = checkout(tmp_path, [
        report(2, 0, e2e),
        report(1, 0, {k: 3 * v for k, v in e2e.items()}),
        report(1, 1, {"sampler.useful_ratio": 0.97, "error_rate": 0.0}),
    ])
    proc, out = run_tool(tmp_path)
    assert proc.returncode == 0, proc.stderr
    summary = json.loads(out.read_text())
    assert summary["git_rev"] == rev and summary["environment"] == ENV
    entry = summary["workloads"]["sample-eval"]
    assert entry["attempted"] == 3 and entry["failed"] == 0
    assert entry["end_to_end"] == {k: 2 * v for k, v in e2e.items()}
    assert entry["end_to_end_quartiles"] == {k: [1.5 * v, 2.5 * v] for k, v in e2e.items()}
    assert entry["end_to_end_seeds"] == [1, 2] and entry["per_layer_seeds"] == [1]
    assert entry["per_layer"] == {"sampler.useful_ratio": 0.97, "error_rate": 0.0}
    assert entry["fixture_sha256"] == "ab12"
    assert summary["git_clean"] is True
    assert summary["git_diff_sha256"] == hashlib.sha256(b"").hexdigest()


@pytest.mark.parametrize("change", ["edited", "untracked"])
def test_a_dirty_tree_is_recorded_with_its_diff(tmp_path, change):
    """Runs made on uncommitted changes name the revision they were made on,
    say the tree was not clean and digest `git diff HEAD`, which holds the
    edits to tracked files (an untracked file shows only as not clean)."""
    rev = checkout(tmp_path, [report(1, 0, {"wall_s": 1.0})])
    if change == "edited":
        with open(tmp_path / "BENCHMARK.json", "a") as fh:
            fh.write("\n")
    else:
        (tmp_path / "new.py").write_text("")
    diff = git(tmp_path, "diff", "HEAD")
    assert bool(diff) == (change == "edited")
    proc, out = run_tool(tmp_path)
    assert proc.returncode == 0, proc.stderr
    summary = json.loads(out.read_text())
    assert summary["git_rev"] == rev and summary["git_clean"] is False
    assert summary["git_diff_sha256"] == hashlib.sha256(diff).hexdigest()


def test_mixed_fixtures_are_refused(tmp_path):
    checkout(tmp_path, [report(1, 0, {"wall_s": 1.0}),
                        report(2, 0, {"wall_s": 1.0}, sha="cd34")])
    proc, out = run_tool(tmp_path)
    assert proc.returncode == 1 and "fixtures" in proc.stderr and not out.exists()


def test_quartiles_interpolate_between_the_runs(tmp_path):
    """Quartiles as numpy.percentile's default gives them: four runs of 1, 2,
    3 and 4 s have 1.75 and 3.25; one run is its own quartiles."""
    checkout(tmp_path, [report(seed, 0, {"wall_s": float(seed), "peak_rss_mb": 50.0})
                        for seed in (3, 1, 4, 2)]
             + [dict(report(9, 0, {"wall_s": 7.0}), workload="train-eqm")])
    proc, out = run_tool(tmp_path)
    assert proc.returncode == 0, proc.stderr
    workloads = json.loads(out.read_text())["workloads"]
    assert workloads["sample-eval"]["end_to_end"] == {"wall_s": 2.5, "peak_rss_mb": 50.0}
    assert workloads["sample-eval"]["end_to_end_quartiles"] == \
        {"wall_s": [1.75, 3.25], "peak_rss_mb": [50.0, 50.0]}
    assert workloads["train-eqm"]["end_to_end_quartiles"] == {"wall_s": [7.0, 7.0]}
