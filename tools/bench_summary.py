"""Fold benchmark reports into one committed summary file.

    python tools/bench_summary.py --out BENCH_6.json [--repo DIR]

Reads every run report `bench/run.py` left in DIR/.bench_work/reports/ (DIR
defaults to this checkout) and writes, per workload, the median of each
end-to-end metric over the untraced runs and of each per-layer metric over
the traced runs (metric names from DIR/BENCHMARK.json), with the seeds of
each kind of run, the operation counts and, for sample-eval, the fixture's
SHA-256; plus the environment the runs shared and `git rev-parse HEAD` of
DIR. Beside each end-to-end median it records that metric's first and third
quartiles, so a comparison of medians against the spread of runs can be
checked from the summary alone. Only the standard library is used.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def quartiles(values: list[float]) -> list[float]:
    """[first, third] quartile, interpolated between the sorted values as
    numpy.percentile does by default; a single run is both."""
    if len(values) < 2:
        return [values[0], values[0]]
    first, _, third = statistics.quantiles(values, n=4, method="inclusive")
    return [first, third]


def summarize(repo: Path) -> dict:
    declared = json.loads((repo / "BENCHMARK.json").read_text())
    paths = sorted((repo / ".bench_work" / "reports").glob("*.json"))
    if not paths:
        raise ValueError(f"no run reports in {repo / '.bench_work' / 'reports'}")
    reports = [json.loads(p.read_text()) for p in paths]
    environments = {json.dumps(r["environment"], sort_keys=True) for r in reports}
    if len(environments) > 1:
        raise ValueError(f"the reports come from {len(environments)} different "
                         "environments; summarize one machine's runs at a time")
    workloads = {}
    for name in sorted({r["workload"] for r in reports}):
        runs = [r for r in reports if r["workload"] == name]
        entry = {"attempted": sum(r["attempted"] for r in runs),
                 "failed": sum(r["failed"] for r in runs)}
        for kind, trace in (("end_to_end", 0), ("per_layer", 1)):
            picked = [r for r in runs if r["trace"] == trace]
            if picked:
                values = {m["name"]: [r["metrics"][m["name"]] for r in picked]
                          for m in declared[kind]
                          if all(m["name"] in r["metrics"] for r in picked)}
                entry[kind] = {k: statistics.median(v) for k, v in values.items()}
                if kind == "end_to_end":
                    entry["end_to_end_quartiles"] = {k: quartiles(v)
                                                     for k, v in values.items()}
                entry[f"{kind}_seeds"] = sorted(r["seed"] for r in picked)
        shas = {r["fixture"]["sha256"] for r in runs if "fixture" in r}
        if len(shas) > 1:
            raise ValueError(f"{name} reports name {len(shas)} different fixtures")
        if shas:
            entry["fixture_sha256"] = shas.pop()
        workloads[name] = entry
    rev = subprocess.run(["git", "-C", str(repo), "rev-parse", "HEAD"], check=True,
                         capture_output=True, text=True).stdout.strip()
    return {"git_rev": rev, "environment": reports[0]["environment"],
            "workloads": workloads}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, help="summary file to write")
    parser.add_argument("--repo", default=str(ROOT),
                        help="checkout whose reports and revision to summarize")
    args = parser.parse_args(argv)
    try:
        summary = summarize(Path(args.repo))
    except (ValueError, OSError, subprocess.CalledProcessError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    Path(args.out).write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    print(f"wrote {args.out}: {', '.join(summary['workloads'])} at {summary['git_rev'][:12]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
