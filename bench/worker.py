"""Benchmark worker: runs one workload in its own process.

    python3 bench/worker.py setup --workload W --work DIR [--smoke]
    python3 bench/worker.py run --workload W --seed N --seconds S --trace 0|1
                                --work DIR --report PATH [--smoke]

run.py starts this file; it is not meant to be run by hand. `setup` does
the work a command does before its first step (import, load the config or
checkpoint) and exits, so its wall time is the set-up cost. `run` repeats
the workload's operation in a closed loop (one client, each operation
waits for the previous one) through `eqmatch.cli.main`, checks every
output, and writes a JSON report.

With --trace 1 it runs an untraced warm-up operation, then pairs of an
untraced and a traced operation for --seconds (at least one pair), then the
traced extras: the training loop rebuilt from
public calls (train-*), and a probe of every layer the workload's own
commands never call, at the sizes the other workloads use.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import ctypes
import dataclasses
import gc
import glob
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

# Modules, not names: the tracer swaps module attributes, so every call
# below goes through them to be seen.
from eqmatch import (checkpoint, cli, config, data, evaluation, model,  # noqa: E402
                     ndtensor as nd, objective, optimizer, sampler, training)

from tracer import Tracer, layer_of, self_times_ns  # noqa: E402
from workloads import (CALIBRATION_SEED, DEFAULT_TRAIN_STEPS, FIXTURE, FULL,  # noqa: E402
                       G_MIN_PERCENTILE, LAYERS, OBJECTIVE, REFERENCE_S, SMOKE,
                       train_config)

NULL_PERMUTATIONS = 100  # what `eqmatch eval --suite quality` runs
QUALITY_METRICS = {"mmd", "mmd-null-p99", "covered-mode-fraction",
                   "in-mode-sample-fraction"}


# ---------------------------------------------------------------------------
# small helpers


def sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def median(values) -> float:
    values = list(values)
    if not values:
        raise ValueError("no samples")
    return float(statistics.median(values))


def tail(values) -> float:
    """The highest of p99.9/p99/p95/p90/p75/p50 that leaves at least ten
    samples beyond it; the maximum when none does."""
    values = np.asarray(list(values), dtype=np.float64)
    for p in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if len(values) * (1.0 - p / 100.0) >= 10.0:
            return float(np.percentile(values, p))
    return float(values.max())


_REF_A = np.random.default_rng(0).standard_normal((64, 256))
_REF_B = np.random.default_rng(1).standard_normal((256, 256)) / 16.0


def reference_kernel(segments: int = 5, iters: int = 50) -> float:
    """Seconds for a fixed mix of small matmuls, elementwise numpy and
    interpreter work that shares no code with eqmatch: `segments` times the
    median segment, so a burst of contention in one segment does not count.
    Run before and after each command, it measures how fast this core is
    at that moment: on a shared VM that drifts by 10-20% within seconds, far
    more than the regressions the benchmark has to catch."""
    times = []
    acc = 0.0
    for _ in range(segments):
        start = time.perf_counter()
        for _ in range(iters):
            h = _REF_A @ _REF_B
            h = h * (1.0 / (1.0 + np.exp(-h)))
            acc += float(h.sum())
            for j in range(20):
                acc += j * 0.5
        times.append(time.perf_counter() - start)
    return segments * statistics.median(times)


def gc_collections() -> int:
    return sum(gen["collections"] for gen in gc.get_stats())


def read_losses(path) -> np.ndarray:
    with open(path, newline="") as fh:
        return np.array([float(row["loss"]) for row in csv.DictReader(fh)])


def read_samples(path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    pts = np.array([[float(r["x0"]), float(r["x1"])] for r in rows]).reshape(-1, 2)
    steps = np.array([int(r["steps_used"]) for r in rows], dtype=np.int64)
    cap = np.array([int(r["cap_reached"]) for r in rows], dtype=np.int64)
    return pts, steps, cap


def calibration_data(run_config, n: int) -> np.ndarray:
    pts, _ = data.draw_from(run_config.dataset.distribution(), n,
                            np.random.default_rng(CALIBRATION_SEED))
    return pts


def openblas_threads() -> int | None:
    """Threads the loaded OpenBLAS will use, asked from the library itself."""
    libs = glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs" / "*openblas*"))
    for lib in libs:
        try:
            dll = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(dll, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment() -> dict:
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "blas_threads": openblas_threads(),
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
    }


# ---------------------------------------------------------------------------
# tracing targets


def _annotate_sample(args, kwargs, result):
    cfg = args[2] if len(args) > 2 else kwargs["config"]
    detail = {"method": cfg.method, "n": len(args[1])}
    if result is not None:
        detail["steps_used_sum"] = int(result.steps_used.sum())
    return detail


def _annotate_field(args, kwargs, result):
    return {"n": len(args[1])}


def _annotate_save(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])} if result is not None else None


TRACE_TARGETS = (
    ("training.train", training, "train", None),
    ("data.draw_from", data, "draw_from", None),
    ("data.sample_noise", data, "sample_noise", None),
    ("objective.draw_batch", objective, "draw_batch", None),
    ("objective.loss_for", objective, "loss_for", None),
    ("model.forward", model.GradientFieldModel, "forward", None),
    ("model.forward_values", model.GradientFieldModel, "forward_values", None),
    ("ndtensor.leaf", nd.Graph, "leaf", None),
    ("ndtensor.backward", nd, "backward", None),
    ("ndtensor.input_gradient", nd, "input_gradient", None),
    ("optimizer.step", optimizer.AdamW, "step", None),
    ("sampler.sample", sampler, "sample", _annotate_sample),
    ("sampler.field", sampler.ModelField, "__call__", _annotate_field),
    ("evaluation.mmd", evaluation, "mmd", None),
    ("evaluation.mmd_permutation_null", evaluation, "mmd_permutation_null", None),
    ("checkpoint.save", checkpoint, "save_checkpoint", _annotate_save),
    ("checkpoint.load", checkpoint, "load_checkpoint", None),
)


# ---------------------------------------------------------------------------
# the session: one workload, one seed, one process


class Session:
    def __init__(self, workload: str, seed: int, sizes, work: Path):
        self.workload = workload
        self.seed = seed
        self.sizes = sizes
        self.work = work
        self.ops: list[dict] = []
        self.reference: dict | None = None  # output digests of the first operation
        self.reference_dir: Path | None = None
        self.tracer = Tracer()
        self.op_meta: dict[int, dict] = {}
        self.extras: dict = {}
        if workload == "sample-eval":
            ck = checkpoint.load_checkpoint(FIXTURE)
            self.fixture_config = ck.config
            self.g_min = sampler.calibrate_g_min(
                ck.model, calibration_data(ck.config, sizes.n), G_MIN_PERCENTILE)
        else:
            self.config_path = work / "config.json"
            self.config = config.load_config(self.config_path)
        reference_kernel()  # first call pays one-off costs
        self.reference_times = [reference_kernel() for _ in range(5)]

    # -- commands --------------------------------------------------------------

    def _cli(self, op: dict, name: str, argv: list[str]) -> None:
        """Run one `eqmatch` command in-process and record its exit code and
        its wall time; then time the reference kernel once."""
        traced = op["traced"]
        out = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out):
                if traced:
                    with self.tracer.span("cli.main", {"command": argv[0]}):
                        code = cli.main(argv)
                else:
                    code = cli.main(argv)
        except Exception:  # a crash is a failed operation, not a failed benchmark
            traceback.print_exc()
            code = "exception"
        seconds = time.perf_counter() - start
        self.reference_times.append(reference_kernel())
        op["codes"][name] = code
        op["seconds"][name] = seconds
        op["kernel_s"].append(self.reference_times[-1])

    def _op_dir(self) -> Path:
        path = self.work / f"op{len(self.ops):03d}"
        path.mkdir()
        return path

    def _begin_traced(self, kind: str, objective_name: str | None) -> None:
        self.tracer.op = len(self.op_meta)
        self.op_meta[self.tracer.op] = {"kind": kind, "objective": objective_name}
        self.tracer.install(TRACE_TARGETS)

    def operation(self, traced: bool = False) -> None:
        """One closed-loop operation: the workload's commands, then checks."""
        op_dir = self._op_dir()
        if traced:
            objective_name = None if self.workload == "sample-eval" else OBJECTIVE[self.workload]
            self._begin_traced("cli", objective_name)
        op = {"traced": traced, "codes": {}, "seconds": {}, "items": {}, "errors": [],
              "kernel_s": [self.reference_times[-1]]}  # the kernel run just before
        gc_before = gc_collections()
        try:
            if self.workload == "sample-eval":
                self._sample_eval_commands(op, op_dir)
            else:
                self._train_commands(op, op_dir)
        finally:
            self.tracer.uninstall()
        op["gc_collections"] = gc_collections() - gc_before
        # the speed of this core around this operation
        op["scale"] = REFERENCE_S / statistics.fmean(op["kernel_s"])
        op["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        op["wall_s"] = sum(op["seconds"].values())
        op["errors"] += [f"{name} exited with {code}"
                         for name, code in op["codes"].items() if code != 0]
        if not op["errors"]:
            try:
                digests = (self._check_sample_eval(op_dir, op["errors"])
                           if self.workload == "sample-eval"
                           else self._check_train(op_dir, op["errors"]))
            except Exception as e:  # unreadable output is a failed check
                op["errors"].append(f"output check raised {type(e).__name__}: {e}")
                digests = None
            if digests is not None and not op["errors"]:
                if self.reference is None:
                    self.reference, self.reference_dir = digests, op_dir
                elif digests != self.reference:
                    changed = sorted(k for k in digests if digests[k] != self.reference.get(k))
                    op["errors"].append(f"outputs differ from the first repetition: {changed}")
        if op_dir != self.reference_dir:
            shutil.rmtree(op_dir)
        self.ops.append(op)

    def _train_commands(self, op: dict, op_dir: Path) -> None:
        self._cli(op, "train", ["train", "--config", str(self.config_path),
                                "--out", str(op_dir / "run")])
        op["items"] = {"train": self.sizes.train_steps}

    def _sample_eval_commands(self, op: dict, op_dir: Path) -> None:
        common = ["--checkpoint", str(FIXTURE), "--n", str(self.sizes.n),
                  "--seed", str(self.seed)]
        self._cli(op, "sample-gd", ["sample", *common, "--out", str(op_dir / "gd.csv")])
        self._cli(op, "sample-adaptive",
                  ["sample", *common, "--method", "adaptive", "--g-min", repr(self.g_min),
                   "--out", str(op_dir / "adaptive.csv")])
        self._cli(op, "eval-quality", ["eval", "--suite", "quality", *common,
                                       "--out-dir", str(op_dir / "eval")])
        op["items"] = {"sample-gd": self.sizes.n, "sample-adaptive": self.sizes.n}

    # -- output checks -----------------------------------------------------------

    def _check_train(self, op_dir: Path, errors: list[str]) -> dict:
        run = op_dir / "run"
        steps = self.sizes.train_steps
        losses = read_losses(run / "losses.csv")
        if len(losses) != steps or not np.all(np.isfinite(losses)):
            errors.append(f"losses.csv: {len(losses)} rows (want {steps}) or non-finite")
        ck = checkpoint.load_checkpoint(run / "checkpoint.eqmckpt")  # verifies the digest
        if ck.step != steps:
            errors.append(f"checkpoint step {ck.step} != {steps}")
        if not all(np.all(np.isfinite(p)) for p in ck.params.values()):
            errors.append("checkpoint holds non-finite parameters")
        every = self.sizes.checkpoint_every
        periodic = sorted(p.name for p in run.glob("ckpt-*.eqmckpt"))
        want = [f"ckpt-{s:06d}.eqmckpt" for s in range(every, steps, every)]
        if periodic != want:
            errors.append(f"periodic checkpoints {periodic} != {want}")
        names = ["losses.csv", "checkpoint.eqmckpt", *periodic]
        return {name: sha256(run / name) for name in names}

    def _check_sample_eval(self, op_dir: Path, errors: list[str]) -> dict:
        n, budgets = self.sizes.n, self.fixture_config.sampler
        gd, gd_steps, gd_cap = read_samples(op_dir / "gd.csv")
        if gd.shape != (n, 2) or not np.all(np.isfinite(gd)):
            errors.append(f"gd.csv: shape {gd.shape} or non-finite samples")
        if np.any(gd_steps != budgets.steps) or np.any(gd_cap != 0):
            errors.append("gd.csv: steps_used or cap_reached wrong")
        ad, ad_steps, ad_cap = read_samples(op_dir / "adaptive.csv")
        if ad.shape != (n, 2) or not np.all(np.isfinite(ad)):
            errors.append(f"adaptive.csv: shape {ad.shape} or non-finite samples")
        if np.any(ad_steps < 0) or np.any(ad_steps > budgets.max_steps) \
                or np.any((ad_cap == 1) & (ad_steps != budgets.max_steps)):
            errors.append("adaptive.csv: steps_used outside [0, max_steps] or cap flag wrong")
        ledger = op_dir / "eval" / "results.csv"
        with open(ledger, newline="") as fh:
            rows = list(csv.DictReader(fh))
        values = {r["metric"]: float(r["value"]) for r in rows}
        if set(values) != QUALITY_METRICS or len(rows) != len(QUALITY_METRICS) \
                or not all(np.isfinite(v) for v in values.values()):
            errors.append(f"results.csv: metrics {sorted(values)} or non-finite values")
        elif self.reference is None:
            # the eval samples with the same seed and sampler as `sample`, so
            # its MMD must be the MMD of gd.csv against the same reference
            dist = self.fixture_config.dataset.distribution()
            reference, _ = data.draw_from(dist, n, np.random.default_rng(self.seed + 1))
            raw = json.loads(next(r["aux"] for r in rows if r["metric"] == "mmd"))["raw"]
            if raw != evaluation.mmd(gd, reference):
                errors.append("eval mmd disagrees with the MMD of the sampled gd.csv")
        return {"gd.csv": sha256(op_dir / "gd.csv"),
                "adaptive.csv": sha256(op_dir / "adaptive.csv"),
                "results.csv": sha256(ledger)}

    # -- traced extras ------------------------------------------------------------

    def replica_train(self, run_config, save_path: Path) -> dict:
        """The training loop rebuilt from public calls, one span per step.
        Same calls in the same order as `eqmatch.training.train`, so the
        losses and the final checkpoint must match it bit for bit."""
        self._begin_traced("replica", run_config.objective)
        try:
            m = model.init_model(run_config.model)
            o = run_config.optimizer
            opt = optimizer.AdamW(lr=o.lr, beta1=o.beta1, beta2=o.beta2,
                                  weight_decay=o.weight_decay, epsilon=o.epsilon)
            rng = np.random.default_rng(run_config.seed)
            losses = np.empty(run_config.train.steps)
            nodes, nodes_after = [], []
            for i in range(run_config.train.steps):
                with self.tracer.span("training.step"):
                    x, _ = data.draw_from(run_config.dataset.distribution(),
                                          run_config.train.batch_size, rng)
                    batch = objective.draw_batch(rng, x)
                    loss = objective.loss_for(run_config.objective, m, batch,
                                              run_config.schedule,
                                              run_config.allow_non_equilibrium)
                    nodes.append(len(loss.graph))
                    grads = nd.backward(loss)
                    nodes_after.append(len(loss.graph))
                    # the parameter leaves the forward pass leased (memoized per tape)
                    leaves = m._bind(loss.graph)
                    opt.step(m.params, {name: nd.grad_values(grads, leaf)
                                        for name, leaf in leaves.items()})
                losses[i] = loss.item()
            checkpoint.save_checkpoint(save_path, run_config, m, opt,
                                       run_config.train.steps, rng.bit_generator.state)
        finally:
            self.tracer.uninstall()
        return {"losses": losses, "tape_nodes": median(nodes),
                "tape_nodes_after_backward": median(nodes_after)}

    def probe_inference(self) -> None:
        """Load, GD and adaptive sampling, MMD and its null on the fixture,
        as sample-eval runs them: the inference layers a training workload
        never calls."""
        self._begin_traced("probe", None)
        try:
            ck = checkpoint.load_checkpoint(FIXTURE)
            fld = sampler.ModelField(ck.model)
            n = self.sizes.n
            x0 = data.sample_noise(n, ck.config.model.input_dim, self.seed)
            final = sampler.sample(fld, x0, ck.config.sampler).final
            g_min = sampler.calibrate_g_min(ck.model, calibration_data(ck.config, n),
                                            G_MIN_PERCENTILE)
            sampler.sample(fld, x0, dataclasses.replace(ck.config.sampler,
                                                        method="adaptive", g_min=g_min))
            reference, _ = data.draw_from(ck.config.dataset.distribution(), n,
                                          np.random.default_rng(self.seed + 1))
            evaluation.mmd(final, reference)
            evaluation.mmd_permutation_null(final, reference,
                                            n_permutations=NULL_PERMUTATIONS, seed=self.seed)
        finally:
            self.tracer.uninstall()

    def traced_extras(self) -> None:
        """Training-loop replicas for both objectives, then (train-*) the
        inference probe. The replica of the workload's own run uses its full
        config and must reproduce the untraced run; the others are probes of
        probe_train_steps steps."""
        probe_sizes = dataclasses.replace(self.sizes,
                                          train_steps=self.sizes.probe_train_steps)
        for workload in ("train-eqm", "train-eqme"):
            own = workload == self.workload
            op = {"traced": True, "kind": f"replica-{workload}", "errors": []}
            try:
                run_config = self.config if own else config.RunConfig.from_dict(
                    train_config(workload, self.seed, probe_sizes))
                path = self.work / f"replica-{workload}.eqmckpt"
                rep = self.replica_train(run_config, path)
                if OBJECTIVE[workload] == OBJECTIVE[self.workload]:
                    self.extras["tape_nodes"] = rep["tape_nodes"]
                    self.extras["tape_nodes_after_backward"] = rep["tape_nodes_after_backward"]
                if own and self.reference_dir is not None:
                    run = self.reference_dir / "run"
                    if rep["losses"].tobytes() != read_losses(run / "losses.csv").tobytes():
                        op["errors"].append("replica losses differ from the untraced run")
                    if sha256(path) != sha256(run / "checkpoint.eqmckpt"):
                        op["errors"].append("replica checkpoint differs from the untraced run")
            except Exception as e:
                traceback.print_exc()
                op["errors"].append(f"{type(e).__name__}: {e}")
            self.ops.append(op)
        if self.workload != "sample-eval":
            op = {"traced": True, "kind": "probe-inference", "errors": []}
            try:
                self.probe_inference()
            except Exception as e:
                traceback.print_exc()
                op["errors"].append(f"{type(e).__name__}: {e}")
            self.ops.append(op)
        self.extras["dispatch_us"] = probe_dispatch_us()

    # -- metrics ---------------------------------------------------------------

    def reference_s(self) -> float:
        return median(self.reference_times)

    def end_to_end(self, scaled: bool = True) -> dict:
        """Medians over every timed operation, each scaled to a core that
        runs the reference kernel in REFERENCE_S by the kernel runs around
        it (or raw); failed operations are counted in `failed` and make the
        run incorrect rather than vanish. Peak memory is taken after the
        first operation, a fixed amount of work however many operations fit
        in --seconds."""
        timed = [op for op in self.ops if "seconds" in op]
        scale = [op["scale"] if scaled else 1.0 for op in timed]
        return {
            "wall_s": median(k * sum(op["seconds"].values()) for k, op in zip(scale, timed)),
            "items_per_s": median(sum(op["items"].values())
                                  / (k * sum(op["seconds"][c] for c in op["items"]))
                                  for k, op in zip(scale, timed)),
            "peak_rss_mb": timed[0]["peak_rss_mb"],
        }

    def per_layer(self) -> dict:
        spans = self.tracer.finished()
        untraced = [op for op in self.ops if "seconds" in op and not op["traced"]][1:]
        traced = [op for op in self.ops if "seconds" in op and op["traced"]]
        primary = OBJECTIVE[self.workload]
        metrics = layer_metrics(spans, self.op_meta, primary)
        metrics["ndtensor.dispatch_us"] = self.extras["dispatch_us"]
        metrics["ndtensor.tape_nodes"] = self.extras["tape_nodes"]
        metrics["ndtensor.tape_nodes_after_backward"] = self.extras["tape_nodes_after_backward"]
        # untraced operations after the warm-up against the traced ones
        # interleaved with them
        metrics["ndtensor.gc_collections"] = median(op["gc_collections"] for op in untraced)
        metrics["trace.overhead_ms"] = 1e3 * (median(op["wall_s"] for op in traced)
                                              - median(op["wall_s"] for op in untraced))
        cli_ops = {op for op, meta in self.op_meta.items() if meta["kind"] == "cli"}
        metrics["trace.spans"] = sum(1 for s in spans if s[4] in cli_ops) / len(cli_ops)
        metrics["error_rate"] = self.failed() / len(self.ops)
        return metrics

    def failed(self) -> int:
        return sum(1 for op in self.ops if op["errors"])


def layer_metrics(spans, op_meta: dict, primary: str) -> dict:
    """Per-layer numbers from the traced spans. Training-layer numbers come
    from operations with the workload's objective (eqm for sample-eval);
    backward and double backward from eqm and eqm-e operations."""
    dur = [(end - start) / 1e6 for (_n, start, end, _p, _o, _d) in spans]
    self_ms = [t / 1e6 for t in self_times_ns(spans)]
    by_name: dict[str, list[int]] = defaultdict(list)
    children: dict[int, list[int]] = defaultdict(list)
    for i, (name, _s, _e, parent, _o, _d) in enumerate(spans):
        by_name[name].append(i)
        if parent >= 0:
            children[parent].append(i)

    def parent_name(i):
        parent = spans[i][3]
        return spans[parent][0] if parent >= 0 else None

    def pick(name, objective_name=None, keep=None):
        return [dur[i] for i in by_name[name]
                if (objective_name is None
                    or op_meta[spans[i][4]]["objective"] == objective_name)
                and (keep is None or keep(i))]

    def outer(i):
        return parent_name(i) != "ndtensor.input_gradient"

    m = {
        "ndtensor.backward_ms": median(pick("ndtensor.backward", "eqm", outer)),
        "ndtensor.double_backward_ms": median(pick("ndtensor.backward", "eqm-e", outer)),
        "ndtensor.leaf_ms": median(sum(dur[k] for k in children[i]
                                       if spans[k][0] == "ndtensor.leaf")
                                   for i in by_name["model.forward"]),
        "model.forward_ms": median(pick("model.forward", primary,
                                        lambda i: parent_name(i) != "model.forward_values")),
        "model.forward_values_ms": median(pick("model.forward_values")),
        "objective.loss_ms": median(pick("objective.loss_for", primary)),
        "objective.draw_batch_ms": median(pick("objective.draw_batch", primary)),
        "optimizer.step_ms": median(pick("optimizer.step", primary)),
        "sampler.field_ms": median(pick("sampler.field")),
        "evaluation.mmd_ms": median(pick("evaluation.mmd")),
        "evaluation.mmd_null_ms": median(pick("evaluation.mmd_permutation_null")),
        "checkpoint.save_ms": median(pick("checkpoint.save", primary)),
        "checkpoint.bytes": median(spans[i][5]["bytes"] for i in by_name["checkpoint.save"]
                                   if op_meta[spans[i][4]]["objective"] == primary),
        "checkpoint.load_ms": median(pick("checkpoint.load")),
    }

    # a sampler step runs from one field call's start to the next (the last
    # to the end of the sample call); the loop is the step minus the field
    steps, loops, points, useful = [], [], [], []
    for i in by_name["sampler.sample"]:
        fields = [k for k in children[i] if spans[k][0] == "sampler.field"]
        starts = [spans[k][1] for k in fields] + [spans[i][2]]
        intervals = [(b - a) / 1e6 for a, b in zip(starts, starts[1:])]
        detail = spans[i][5]
        if detail["method"] == "adaptive":
            loops += [t - dur[k] for t, k in zip(intervals, fields)]
            evaluated = sum(spans[k][5]["n"] for k in fields)
            points.append(evaluated)
            useful.append(detail["steps_used_sum"] / evaluated)
        else:
            steps += intervals
    m["sampler.step_ms_p50"] = median(steps)
    m["sampler.step_ms_tail"] = tail(steps)
    m["sampler.loop_ms"] = median(loops)
    m["sampler.points_evaluated"] = median(points)
    m["sampler.useful_ratio"] = median(useful)

    train_steps = pick("training.step", primary)
    m["training.step_ms_p50"] = median(train_steps)
    m["training.step_ms_tail"] = tail(train_steps)

    # one traced operation's self time (the mean over them) plus the extras'
    n_cli = sum(1 for meta in op_meta.values() if meta["kind"] == "cli")
    totals = defaultdict(float)
    for i, span in enumerate(spans):
        weight = 1.0 / n_cli if op_meta[span[4]]["kind"] == "cli" else 1.0
        totals[layer_of(span[0])] += weight * self_ms[i]
    for layer in LAYERS:
        m[f"{layer}.self_ms"] = totals[layer]
    return m


def probe_dispatch_us(calls: int = 1000, repeats: int = 7) -> float:
    """Median cost of one op on a one-element operand recorded on a tape."""
    graph = nd.Graph()
    a, b = graph.leaf(np.ones(1)), graph.leaf(np.ones(1))
    per_call = []
    for _ in range(repeats):
        start = time.perf_counter_ns()
        for _ in range(calls):
            nd.add(a, b)
        per_call.append((time.perf_counter_ns() - start) / calls / 1e3)
    return median(per_call)


# ---------------------------------------------------------------------------
# entry points


def cmd_setup(args) -> int:
    """Set up as a command would, then print the reference kernel's time so
    run.py can scale the set-up time like the operations."""
    sizes = SMOKE if args.smoke else FULL
    work = Path(args.work)
    if args.workload == "sample-eval":
        ck = checkpoint.load_checkpoint(FIXTURE)
        sampler.calibrate_g_min(ck.model, calibration_data(ck.config, sizes.n),
                                G_MIN_PERCENTILE)
    else:
        run_config = config.load_config(work / "config.json")
        model.init_model(run_config.model)
    print(reference_kernel())
    return 0


def cmd_run(args) -> int:
    sizes = SMOKE if args.smoke else FULL
    session = Session(args.workload, args.seed, sizes, Path(args.work))
    if args.trace:
        session.operation(traced=False)  # warm-up: first-call costs land here
        start = time.perf_counter()
        session.operation(traced=False)
        session.operation(traced=True)
        while time.perf_counter() - start < args.seconds:
            session.operation(traced=False)
            session.operation(traced=True)
        session.traced_extras()
        metrics = session.per_layer()
        spans_path = Path(args.report).with_suffix(".spans.jsonl")
        session.tracer.write_jsonl(spans_path)
    else:
        start = time.perf_counter()
        session.operation()
        while time.perf_counter() - start < args.seconds:
            session.operation()
        metrics = session.end_to_end()
        unscaled = session.end_to_end(scaled=False)
        spans_path = None
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "attempted": len(session.ops),
        "failed": session.failed(),
        "metrics": metrics,
        "operations": session.ops,
        "environment": environment(),
        "scale_up_to_default_run": DEFAULT_TRAIN_STEPS / sizes.train_steps,
        "spans": str(spans_path) if spans_path else None,
        "reference_s": session.reference_s(),
        "reference_times_s": session.reference_times,
        "reference_nominal_s": REFERENCE_S,
    }
    if not args.trace:
        report["unscaled"] = {k: unscaled[k] for k in ("wall_s", "items_per_s")}
    if args.workload == "sample-eval":
        report["fixture"] = {"config": session.fixture_config.to_dict(),
                             "sha256": sha256(FIXTURE),
                             "g_min": session.g_min,
                             "g_min_percentile": G_MIN_PERCENTILE}
    else:
        report["config"] = session.config.to_dict()
    Path(args.report).write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="worker.py")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("setup", "run"):
        p = sub.add_parser(name)
        p.add_argument("--workload", required=True, choices=tuple(OBJECTIVE))
        p.add_argument("--work", required=True)
        p.add_argument("--smoke", action="store_true")
    run = sub.choices["run"]
    run.add_argument("--seed", type=int, required=True)
    run.add_argument("--seconds", type=float, required=True)
    run.add_argument("--trace", type=int, choices=(0, 1), required=True)
    run.add_argument("--report", required=True)
    args = parser.parse_args(argv)
    return cmd_setup(args) if args.command == "setup" else cmd_run(args)


if __name__ == "__main__":
    sys.exit(main())
