"""Pair two checkouts' benchmark runs and print the table a CHANGES entry carries.

    python tools/ab_table.py PARENT CHANGE

Reads the untraced run reports `bench/run.py` left in each checkout's
.bench_work/reports/ and pairs them by workload and seed. It prints a
markdown table with one row per pair: the side whose report was written
first, and each end-to-end metric of CHANGE/BENCHMARK.json as parent ->
change. Then, for each workload and metric, one line: the parent's median
with its quartiles, the change's median, the pairs the change wins (ties
count for neither), and whether a gain claim's rule holds. The rule: at
least 10 pairs, the change wins at least nine tenths of them, and the
medians differ in the change's favour by more than the parent's
interquartile range. Reports without a partner are named on stderr. Only
the standard library is used.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

from bench_summary import quartiles

#: the fewest pairs, and the share of them the change must win, for a claim
RULE_PAIRS = 10
RULE_SHARE = 0.9


def untraced_runs(repo: Path) -> dict[tuple[str, int], tuple[dict, float]]:
    """(workload, seed) -> (end-to-end metrics, when the report was written)."""
    runs = {}
    for path in sorted((repo / ".bench_work" / "reports").glob("*.json")):
        report = json.loads(path.read_text())
        if report["trace"]:
            continue
        key = (report["workload"], report["seed"])
        if key in runs:
            raise ValueError(f"{repo} holds two untraced reports of {key[0]} "
                             f"seed {key[1]}")
        runs[key] = (report["metrics"], path.stat().st_mtime)
    return runs


def verdict(parent: list[float], change: list[float], better: str) -> dict:
    """The medians, the parent's quartiles, the change's wins and the rule."""
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    medians = statistics.median(parent), statistics.median(change)
    q1, q3 = quartiles(parent)
    holds = (len(parent) >= RULE_PAIRS and wins >= RULE_SHARE * len(parent)
             and sign * (medians[1] - medians[0]) > q3 - q1)
    return {"medians": medians, "quartiles": (q1, q3), "wins": wins, "holds": holds}


def table(parent_dir: Path, change_dir: Path) -> list[str]:
    declared = json.loads((change_dir / "BENCHMARK.json").read_text())["end_to_end"]
    parent, change = untraced_runs(parent_dir), untraced_runs(change_dir)
    for side, runs, other in (("parent", parent, change), ("change", change, parent)):
        for workload, seed in sorted(runs.keys() - other.keys()):
            print(f"note: {side} run of {workload} seed {seed} has no partner",
                  file=sys.stderr)
    keys = sorted(parent.keys() & change.keys())
    if not keys:
        raise ValueError("the two checkouts share no untraced run (workload, seed)")
    lines = ["| workload | seed | first | "
             + " | ".join(f"{m['name']} P -> C" for m in declared) + " |",
             "| --- | --- | --- | " + " | ".join("---" for _ in declared) + " |"]
    for key in keys:
        (p, p_time), (c, c_time) = parent[key], change[key]
        cells = [f"{p[m['name']]:.4g} -> {c[m['name']]:.4g}" for m in declared]
        first = "parent" if p_time <= c_time else "change"
        lines.append(f"| {key[0]} | {key[1]} | {first} | " + " | ".join(cells) + " |")
    lines.append("")
    for workload in sorted({w for w, _ in keys}):
        pairs = [k for k in keys if k[0] == workload]
        for m in declared:
            name = m["name"]
            v = verdict([parent[k][0][name] for k in pairs],
                        [change[k][0][name] for k in pairs], m["better"])
            (pm, cm), (q1, q3) = v["medians"], v["quartiles"]
            lines.append(
                f"- {workload} `{name}` ({m['better']} is better): parent {pm:.4g} "
                f"[{q1:.4g}, {q3:.4g}] -> change {cm:.4g} ({cm - pm:+.4g}, parent IQR "
                f"{q3 - q1:.4g}); change better in {v['wins']}/{len(pairs)} pairs; "
                f"rule {'holds' if v['holds'] else 'not met'}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="the parent commit's checkout")
    parser.add_argument("change", help="the change's checkout")
    args = parser.parse_args(argv)
    try:
        lines = table(Path(args.parent), Path(args.change))
    except (ValueError, OSError, KeyError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
