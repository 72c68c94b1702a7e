"""Workload definitions shared by run.py and worker.py.

Standard library only: run.py imports this module without numpy or eqmatch.

Workloads:
  train-eqm    `eqmatch train` on the default config (eqm, 256x3 SiLU MLP,
               gaussian mixture, batch 64, truncated schedule lambda=4) for a
               short run with periodic checkpoints. First-order tape, AdamW.
  train-eqme   the same run with objective eqm-e and the dot energy head:
               a second-order tape, so double backward dominates.
  sample-eval  inference only, on the fixture eqm checkpoint (the default
               20,000-step run, kept in fixture/): GD sampling, adaptive
               sampling, and the quality eval (MMD + null), n=1000.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("train-eqm", "train-eqme", "sample-eval")
OBJECTIVE = {"train-eqm": "eqm", "train-eqme": "eqm-e", "sample-eval": "eqm"}

#: the default run length; the benchmark trains for Sizes.train_steps
DEFAULT_TRAIN_STEPS = 20_000
#: the checkpoint sample-eval reads: `eqmatch train --config
#: fixture/config.json`, the default config run for the default 20,000 steps
FIXTURE = Path(__file__).resolve().parent / "fixture" / "checkpoint.eqmckpt"
#: adaptive stopping threshold: this percentile of the fixture's gradient
#: norm on fixed data (calibrate_g_min's default, as the pilot scripts use)
G_MIN_PERCENTILE = 5.0
CALIBRATION_SEED = 12345
#: OpenBLAS threads for every process the benchmark starts (capped at nproc);
#: one thread gave the steadier GD step on a shared 2-core machine
BLAS_THREADS = 1
#: end-to-end times are scaled to a core that runs the worker's
#: reference_kernel() in this many seconds (about what one core of the
#: 2-vCPU Xeon VM the benchmark was tuned on takes)
REFERENCE_S = 0.075


#: printed with --trace 0 (setup_s is measured by run.py, the rest by the worker)
END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "items_per_s": "1/s",
    "peak_rss_mb": "MB",
}

#: printed with --trace 1; each layer's self time is summed over the traced run
LAYERS = ("cli", "training", "data", "objective", "model", "ndtensor",
          "optimizer", "sampler", "evaluation", "checkpoint")
PER_LAYER_UNITS = {
    "ndtensor.backward_ms": "ms",
    "ndtensor.double_backward_ms": "ms",
    "ndtensor.leaf_ms": "ms",
    "ndtensor.dispatch_us": "us",
    "ndtensor.tape_nodes": "count",
    "ndtensor.tape_nodes_after_backward": "count",
    "ndtensor.gc_collections": "count",
    "model.forward_ms": "ms",
    "model.forward_values_ms": "ms",
    "objective.loss_ms": "ms",
    "objective.draw_batch_ms": "ms",
    "optimizer.step_ms": "ms",
    "sampler.field_ms": "ms",
    "sampler.step_ms_p50": "ms",
    "sampler.step_ms_tail": "ms",
    "sampler.loop_ms": "ms",
    "sampler.points_evaluated": "count",
    "sampler.useful_ratio": "ratio",
    "evaluation.mmd_ms": "ms",
    "evaluation.mmd_null_ms": "ms",
    "checkpoint.save_ms": "ms",
    "checkpoint.bytes": "bytes",
    "checkpoint.load_ms": "ms",
    "training.step_ms_p50": "ms",
    "training.step_ms_tail": "ms",
    **{f"{layer}.self_ms": "ms" for layer in LAYERS},
    "trace.overhead_ms": "ms",
    "trace.spans": "count",
    "error_rate": "ratio",
}


@dataclass(frozen=True)
class Sizes:
    train_steps: int = 150
    checkpoint_every: int = 50
    n: int = 1000
    probe_train_steps: int = 100
    setup_reps: int = 5


FULL = Sizes()
#: tiny sizes for the smoke test; every metric is still produced. Sampling
#: keeps the fixture's step budgets, which are cheap at n=64.
SMOKE = Sizes(train_steps=20, checkpoint_every=10, n=64, probe_train_steps=20,
              setup_reps=2)


def train_config(workload: str, seed: int, sizes: Sizes) -> dict:
    """The JSON config a user would pass to `eqmatch train`: the defaults,
    with the seed driving both the data stream and the init."""
    objective = OBJECTIVE[workload]
    return {
        "seed": seed,
        "objective": objective,
        "model": {"energy_kind": "dot" if objective == "eqm-e" else "none",
                  "init_seed": seed},
        "train": {"steps": sizes.train_steps,
                  "checkpoint_every": sizes.checkpoint_every},
    }

