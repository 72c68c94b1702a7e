"""tools/bench_summary.py on synthetic run reports."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "bench_summary.py"
ENV = {"python": "3.11", "numpy": "2.0", "cpu": "test"}


def report(seed, trace, metrics, sha="ab12"):
    return {"workload": "sample-eval", "seed": seed, "trace": trace, "attempted": 1,
            "failed": 0, "metrics": metrics, "environment": ENV,
            "fixture": {"sha256": sha}}


def checkout(tmp_path, reports):
    """A git checkout holding BENCHMARK.json and the given run reports."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    git = ["git", "-C", str(tmp_path), "-c", "user.name=t", "-c", "user.email=t@t"]
    subprocess.run(git[:3] + ["init", "-q"], check=True)
    subprocess.run(git + ["commit", "-q", "--allow-empty", "-m", "x"], check=True)
    rev = subprocess.run(git[:3] + ["rev-parse", "HEAD"], check=True,
                         capture_output=True, text=True).stdout.strip()
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
