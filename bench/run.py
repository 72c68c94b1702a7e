"""eqmatch benchmark: one workload per invocation, in its own processes.

    python3 bench/run.py --workload train-eqm --seed 1 --seconds 20 --trace 0

Workloads are listed in workloads.py and BENCHMARK.json. The run:

  1. writes the workload's input, the training config (train-*); sample-eval
     reads the committed fixture checkpoint in bench/fixture/;
  2. with --trace 0, times set-up `setup_reps` times, each a fresh
     interpreter that imports `eqmatch.cli` and loads the config or
     checkpoint, and reports the median as `setup_s`;
  3. runs worker.py, which repeats the workload's operation for --seconds
     (closed loop, one client) and checks every output; with --trace 1 it
     traces the calls into each eqmatch layer instead;
  4. prints every metric with its unit and, as the last line, one JSON
     object {"correct", "attempted", "failed", "metrics"}.

Every process runs with the same OpenBLAS thread count (BLAS_THREADS, at
most nproc). Working files live in .bench_work/ under the checkout; the
report and spans of each run are kept in .bench_work/reports/.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from workloads import (BLAS_THREADS, DEFAULT_TRAIN_STEPS, END_TO_END_UNITS, FULL,  # noqa: E402
                       PER_LAYER_UNITS, REFERENCE_S, SMOKE, WORKLOADS, train_config)

#: a run, set-up included, must end within 180 s
BUDGET_S = 170.0


class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    threads = str(max(1, min(BLAS_THREADS, os.cpu_count() or 1)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])])
    return env


def run_child(argv: list[str], deadline: float, capture: bool = False):
    """Run a child to completion; (wall seconds, captured stdout). Uncaptured
    stdout goes to our stderr so the result line stays last on stdout."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError(f"no time left to run {argv[1:3]}")
    start = time.perf_counter()
    try:
        proc = subprocess.run(argv, cwd=ROOT, env=child_env(), text=True,
                              stdout=subprocess.PIPE if capture else sys.stderr,
                              timeout=remaining)
    except subprocess.TimeoutExpired as e:  # run() has killed and reaped it
        raise BenchError(f"{argv[1:3]} exceeded the time budget") from e
    seconds = time.perf_counter() - start
    if proc.returncode != 0:
        raise BenchError(f"{argv[1:3]} exited with {proc.returncode}")
    return seconds, proc.stdout


def timed_setup(argv: list[str], deadline: float) -> tuple[float, float]:
    """(raw, scaled) set-up seconds of one fresh interpreter. The child runs
    the reference kernel after setting up; its time is taken out of the wall
    time and sets the scale, as for the operations."""
    seconds, out = run_child(argv, deadline, capture=True)
    kernel = float(out.split()[-1])
    return seconds - kernel, (seconds - kernel) * REFERENCE_S / kernel


def run(args) -> dict:
    deadline = time.monotonic() + BUDGET_S
    sizes = SMOKE if args.smoke else FULL
    work_root = ROOT / ".bench_work"
    reports = work_root / "reports"
    reports.mkdir(parents=True, exist_ok=True)
    tag = f"{args.workload}-s{args.seed}-t{args.trace}-p{os.getpid()}"
    work = work_root / tag
    work.mkdir()
    py = sys.executable
    worker = str(BENCH / "worker.py")
    flags = ["--workload", args.workload, "--work", str(work)] + (["--smoke"] if args.smoke else [])
    try:
        if args.workload != "sample-eval":
            cfg = work / "config.json"
            cfg.write_text(json.dumps(train_config(args.workload, args.seed, sizes),
                                      indent=1) + "\n")
        if not args.trace:  # the traced run reports no setup_s
            setups = [timed_setup([py, worker, "setup", *flags], deadline)
                      for _ in range(sizes.setup_reps)]
        report_path = reports / f"{tag}.json"
        run_child([py, worker, "run", *flags, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace),
                   "--report", str(report_path)], deadline)
        report = json.loads(report_path.read_text())
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if not args.trace:
        report["setup_runs_s"] = [raw for raw, _ in setups]
        report["setup_scaled_s"] = [scaled for _, scaled in setups]
        report["metrics"]["setup_s"] = statistics.median(report["setup_scaled_s"])
        report["unscaled"]["setup_s"] = statistics.median(report["setup_runs_s"])
    report_path.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    report["report"] = str(report_path.relative_to(ROOT))
    return report


def result_line(report: dict, trace: int) -> dict:
    units = PER_LAYER_UNITS if trace else END_TO_END_UNITS
    got = report["metrics"]
    if set(got) != set(units):
        raise BenchError(f"metrics {sorted(set(got) ^ set(units))} missing or unexpected")
    metrics = {}
    for name, unit in units.items():
        value = float(got[name])
        if value != value or value in (float("inf"), float("-inf")):
            raise BenchError(f"metric {name} is not finite")
        metrics[name] = {"value": value, "unit": unit}
    return {"correct": report["failed"] == 0, "attempted": report["attempted"],
            "failed": report["failed"], "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="bench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="how long the untraced closed loop runs")
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, for the benchmark's own smoke test")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "eqmatch" / "cli.py").is_file():
        print(f"error: no eqmatch sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        report = run(args)
        line = result_line(report, args.trace)
    except (BenchError, OSError, ValueError, KeyError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    print(f"{args.workload} seed {args.seed} trace {args.trace}: "
          f"{line['attempted']} operations, {line['failed']} failed")
    for op in report["operations"]:
        for err in op["errors"]:
            print(f"  failed: {err}")
    for name, m in line["metrics"].items():
        print(f"  {name:38s} {m['value']:14.6g} {m['unit']}")
    if "unscaled" in report:
        raw = report["unscaled"]
        print(f"unscaled: setup_s {raw['setup_s']:.6g} s, wall_s {raw['wall_s']:.6g} s, "
              f"items_per_s {raw['items_per_s']:.6g} 1/s; reference kernel "
              f"{report['reference_s']:.6g} s (times scaled to {REFERENCE_S:g} s)")
    print("environment: " + json.dumps(report["environment"], sort_keys=True))
    if "fixture" in report:
        fx = report["fixture"]
        print(f"fixture: sha256 {fx['sha256']} g_min {fx['g_min']!r} "
              f"(p{fx['g_min_percentile']:g} on fixed data)")
    print(f"the default {DEFAULT_TRAIN_STEPS}-step run trains "
          f"{report['scale_up_to_default_run']:g}x as long as this one; "
          f"report {report['report']}")
    print(json.dumps(line, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
