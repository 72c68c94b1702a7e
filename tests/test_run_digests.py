"""tools/run_digests.py at a few steps."""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "run_digests.py"


INFERENCE = [["fixture", "sample-gd", "samples.csv"],
             ["fixture", "sample-adaptive", "samples.csv"],
             ["fixture", "eval-quality", "results.csv"],
             ["eqm-e", "sample-gd", "samples.csv"],
             ["fixture", "eval-quality-n1000", "results.csv"],
             ["fixture", "sweep-eta", "results.csv"],
             ["fixture", "sample-diverge", "stderr"],
             ["eqm-e", "sample-diverge", "stderr"]]


def test_prints_every_file_and_a_resume_reproduces_the_run():
    out = subprocess.run([sys.executable, str(TOOL), "--steps", "4",
                          "--checkpoint-every", "2", "--resume-from", "2"],
                         capture_output=True, text=True, check=True).stdout
    rows = [line.split() for line in out.splitlines()]
    files = ["losses.csv", "checkpoint.eqmckpt", "ckpt-000002.eqmckpt"]
    assert [r[:3] for r in rows] == [[objective, kind, name]
                                     for objective in ("eqm", "eqm-e")
                                     for kind in ("fresh", "resumed")
                                     for name in files] + INFERENCE
    assert all(re.fullmatch("[0-9a-f]{64}", r[3]) for r in rows)
    digest = {tuple(r[:3]): r[3] for r in rows}
    for objective in ("eqm", "eqm-e"):
        for name in files:
            assert digest[objective, "fresh", name] == digest[objective, "resumed", name]
    assert digest["eqm", "fresh", "losses.csv"] != digest["eqm-e", "fresh", "losses.csv"]
    samples = [digest[tuple(row)] for row in INFERENCE if row[2] == "samples.csv"]
    assert len(set(samples)) == len(samples)  # gd, adaptive, the energy head's field
    ledgers = [digest[tuple(row)] for row in INFERENCE if row[2] == "results.csv"]
    assert len(set(ledgers)) == len(ledgers)
    # the fixture's state overflows; the energy head's field fails first
    assert (digest["fixture", "sample-diverge", "stderr"]
            != digest["eqm-e", "sample-diverge", "stderr"])


def test_resume_step_must_be_a_checkpoint_before_the_end():
    out = subprocess.run([sys.executable, str(TOOL), "--steps", "4",
                          "--checkpoint-every", "2", "--resume-from", "3"],
                         capture_output=True, text=True)
    assert out.returncode == 2 and "--resume-from" in out.stderr
