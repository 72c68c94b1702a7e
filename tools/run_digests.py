"""Print the SHA-256 of every file default training and inference runs write.

    python tools/run_digests.py [--repo DIR] [--steps 150] [--checkpoint-every 50]
                                [--resume-from 50]

Trains the default eqm and eqm-e (dot head) configs (seed 0) with `eqmatch
train` from DIR/src (DIR defaults to this checkout), with the benchmark's run
length and checkpoint interval, then resumes a copy of each run from its
step `--resume-from` checkpoint. Each line is `<objective> <fresh|resumed>
<file> <sha256>`, for `losses.csv` and every checkpoint. Then it runs
`eqmatch sample` (gd, and adaptive at g_min 0.1) and `eqmatch eval --suite
quality` on this checkout's bench/fixture/checkpoint.eqmckpt, and `eqmatch
sample` on the eqm-e run's final checkpoint (an energy head's field), all at
`--n 200`, and `eval --suite quality` on the fixture again at the benchmark's
`--n 1000` (a pool of 2000 and 100 permutations), and `eqmatch sweep --axis
eta --values 0.01,0.02` on the fixture at `--n 200`, each printing
`<fixture|eqm-e> <operation> <file> <sha256>`. Last, `eqmatch sample --eta
1e308 --steps 3` on the fixture and on the eqm-e checkpoint diverges, and
`<fixture|eqm-e> sample-diverge stderr <sha256>` digests its exit code and
its whole stderr, the one line of the error message: on the fixture the
sampler's state overflows, and on the eqm-e checkpoint the field's pass
fails. Two checkouts that train and sample the same bits print the same
lines, so

    diff <(python tools/run_digests.py --repo A) <(python tools/run_digests.py --repo B)

compares them, and within one checkout a resumed run's lines must equal
its fresh run's. Runs use one OpenBLAS thread. Only the standard library is
used; eqmatch runs in a child process.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FIXTURE = ROOT / "bench" / "fixture" / "checkpoint.eqmckpt"
OBJECTIVES = {"eqm": "none", "eqm-e": "dot"}
N = 200  # points each inference command samples or evaluates
BENCH_N = 1000  # points the benchmark's sample-eval workload evaluates


def eqmatch(repo: Path, args: list[str], check: bool = True) -> subprocess.CompletedProcess:
    """Run eqmatch from `repo`/src; unless `check`, a failure returns with
    its stderr captured instead of raising."""
    env = {**os.environ, "PYTHONPATH": str(repo / "src"), "OPENBLAS_NUM_THREADS": "1"}
    return subprocess.run([sys.executable, "-m", "eqmatch.cli", *args], env=env,
                          check=check, stdout=subprocess.DEVNULL,
                          stderr=None if check else subprocess.PIPE, text=True)


def digests(run_dir: Path) -> dict[str, str]:
    files = [run_dir / "losses.csv", *sorted(run_dir.glob("*.eqmckpt"))]
    return {p.name: sha256(p) for p in files}


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_digests(repo: Path, work: Path, steps: int, every: int,
                resume_from: int) -> list[str]:
    lines = []
    for objective, head in OBJECTIVES.items():
        config = work / f"{objective}.json"
        config.write_text(json.dumps({
            "seed": 0, "objective": objective,
            "model": {"energy_kind": head, "init_seed": 0},
            "train": {"steps": steps, "checkpoint_every": every}}))
        fresh, resumed = work / objective, work / f"{objective}-resumed"
        eqmatch(repo, ["train", "--config", str(config), "--out", str(fresh)])
        start = f"ckpt-{resume_from:06d}.eqmckpt"
        resumed.mkdir()
        for name in ("losses.csv", start):
            shutil.copy(fresh / name, resumed / name)
        eqmatch(repo, ["train", "--resume", str(resumed / start)])
        for kind, run_dir in (("fresh", fresh), ("resumed", resumed)):
            lines += [f"{objective} {kind} {name} {sha}"
                      for name, sha in digests(run_dir).items()]
    fixture, bench = (["--checkpoint", str(FIXTURE), "--n", str(n)] for n in (N, BENCH_N))
    final = ["--checkpoint", str(work / "eqm-e" / "checkpoint.eqmckpt"), "--n", str(N)]
    for source, operation, args in (
            ("fixture", "sample-gd", ["sample", *fixture]),
            ("fixture", "sample-adaptive", ["sample", *fixture, "--method", "adaptive",
                                            "--g-min", "0.1"]),
            ("fixture", "eval-quality", ["eval", "--suite", "quality", *fixture]),
            ("eqm-e", "sample-gd", ["sample", *final]),
            ("fixture", f"eval-quality-n{BENCH_N}", ["eval", "--suite", "quality", *bench]),
            ("fixture", "sweep-eta", ["sweep", "--axis", "eta", "--values", "0.01,0.02",
                                      *fixture])):
        out = work / f"{source}-{operation}"
        out.mkdir()
        if args[0] == "sample":
            written = out / "samples.csv"
            eqmatch(repo, [*args, "--out", str(written)])
        else:
            written = out / "results.csv"
            eqmatch(repo, [*args, "--out-dir", str(out)])
        lines.append(f"{source} {operation} {written.name} {sha256(written)}")
    for source, checkpoint in (("fixture", fixture), ("eqm-e", final)):
        done = eqmatch(repo, ["sample", *checkpoint, "--eta", "1e308", "--steps", "3",
                              "--out", str(work / f"{source}-diverge.csv")], check=False)
        outcome = f"{done.returncode}\n{done.stderr}".encode()
        lines.append(f"{source} sample-diverge stderr {hashlib.sha256(outcome).hexdigest()}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repo", default=str(ROOT), help="checkout whose eqmatch trains")
    parser.add_argument("--steps", type=int, default=150)
    parser.add_argument("--checkpoint-every", type=int, default=50)
    parser.add_argument("--resume-from", type=int, default=50)
    args = parser.parse_args(argv)
    if not (0 < args.resume_from < args.steps
            and args.resume_from % args.checkpoint_every == 0):
        parser.error("--resume-from must be a checkpointed step before --steps")
    with tempfile.TemporaryDirectory() as work:
        try:
            lines = run_digests(Path(args.repo), Path(work), args.steps,
                                args.checkpoint_every, args.resume_from)
        except (OSError, subprocess.CalledProcessError) as e:
            print(f"error: {e}", file=sys.stderr)
            return 1
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
