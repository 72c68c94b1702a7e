"""Smoke test of the benchmark at tiny sizes (about a minute):

    python3 -m pytest bench/test_bench.py

For every workload it checks that each metric BENCHMARK.json names is
printed with its unit, in the untraced and the traced mode, and that in the
traced run no span starts before or ends after its parent.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from tracer import nesting_violations  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(workload: str, trace: int) -> list[str]:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr[-3000:]
    return proc.stdout.strip().splitlines()


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_metrics_printed_with_units_and_spans_nest(workload, trace):
    lines = run_bench(workload, trace)
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1

    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in spec}
    printed = {line.split()[0]: line.split()[-1] for line in lines[:-1]
               if line.startswith("  ") and len(line.split()) == 3}
    for m in spec:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert printed.get(m["name"]) == m["unit"], m["name"]

    if trace:
        report_rel = lines[-2].rsplit("report ", 1)[1]
        report = json.loads((ROOT / report_rel).read_text())
        with open(report["spans"]) as fh:
            spans = [json.loads(line) for line in fh]
        assert spans
        tuples = [(s["name"], s["start_ns"], s["end_ns"], s["parent"], s["op"], s["detail"])
                  for s in spans]
        assert nesting_violations(tuples) == []
