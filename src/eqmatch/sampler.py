"""Optimization-based sampling on a learned gradient field.

Sampling is one descent loop with a step size, an optional Nesterov
look-ahead (factor mu, 0 for plain descent) and optional per-sample
stopping. Two methods pick its options: `gd` takes a fixed number of steps,
and `adaptive` stops each sample once its gradient norm is no longer above
g_min. With mu = 0, `gd` is also forward Euler on the velocity v = -grad,
and with mu > 0 it is Nesterov's accelerated gradient. Partial-noise
denoising is the same loop started from a corrupted batch instead of pure
noise.

Samplers act on a *field*: any callable (x [n,d], progress in [0,1]) -> grad
[n,d] whose row i depends only on row i of x. A model (with a fixed label, if
it is conditional) is a field through :class:`ModelField`, and a sum of
fields is one through :class:`ComposedField`. Every objective trains
its model toward a multiple of eps - x, so a model's field is its output (or
its energy's input-gradient) as it stands, whichever objective trained it.
Time-invariant fields ignore `progress`; it exists so the noise-conditioned
baseline can be driven along a fixed integration grid.

Adaptive sampling relies on that row contract: after its first step it
evaluates the field only on the rows still active (plus a few frozen rows,
see `BLAS_ROW_BLOCK`) and keeps each frozen row's last gradient, which is
what a fresh evaluation at its unmoved look-ahead point would give. The
same contract lets `sample` split a batch into shards, each descended in a
process of its own (`_on_shards`).
"""

from __future__ import annotations

import gc
import math
import os
import pickle
import signal
import threading
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import model
from .data import write_csv
from .model import GradientFieldModel, energy_gradient
from .ndtensor import NonFiniteError

METHODS = ("gd", "adaptive")

# OpenBLAS dgemm gives a row the same bits in a smaller batch only if the
# row sits in the same kind of kernel block (whole blocks of 8 rows, or the
# batch's last n % 8 rows) and both products take the same kernel. So a
# subset evaluation keeps the tail rows in place and pads with frozen rows to
# a length congruent to n mod 8 (see _subset_rows). Kernel choice also
# depends on size: one row takes the matrix-vector path, and cores with
# small-matrix kernels (SkylakeX) use them for products of at most 1e6
# multiply-adds. A model pass runs in row blocks of `model.INFERENCE_ROWS`, a
# multiple of 8, which keeps the default widths' size-dependent products on
# one kernel at any n; a narrow model's hidden product can still change
# kernel inside a block and round a subset differently (README).
BLAS_ROW_BLOCK = 8

#: the variables OpenBLAS reads its thread count from, in the order it reads
#: them
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


@dataclass(frozen=True)
class SamplerConfig:
    method: str = "gd"
    eta: float = 0.01
    mu: float = 0.0
    steps: int = 250
    g_min: float | None = None
    max_steps: int = 1000

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown sampler method '{self.method}', "
                             f"not one of {METHODS}")
        if not 0.0 <= self.eta < np.inf:
            raise ValueError(f"step size eta={self.eta} must be finite and >= 0")
        if not 0.0 <= self.mu < np.inf:
            raise ValueError(f"look-ahead factor mu={self.mu} must be finite and >= 0")
        if self.steps < 1:
            raise ValueError("steps must be >= 1")
        if self.max_steps < 1:
            raise ValueError("max_steps must be >= 1")
        if self.method == "adaptive" and not (self.g_min is not None
                                              and 0.0 < self.g_min < np.inf):
            raise ValueError("adaptive sampling needs a finite g_min > 0, "
                             f"got g_min={self.g_min}")
        if self.method != "adaptive" and self.g_min is not None:
            raise ValueError("g_min only applies to the adaptive method")


@dataclass
class Trajectory:
    final: np.ndarray
    steps_used: np.ndarray
    cap_reached: np.ndarray
    states: list[np.ndarray] | None = None
    grad_norms: list[np.ndarray] | None = None
    # rows passed to the field at each step (adaptive evaluates fewer),
    # summed over the shards
    points_evaluated: np.ndarray | None = None
    # the processes that sampled it, one a shard
    processes: int = 1


# ---------------------------------------------------------------------------
# fields


class ModelField:
    """Adapts a model (optionally with a fixed label) to the field protocol.

    The field is the model's output (at noise level `progress` for a
    noise-conditioned model), or the energy's input-gradient for an explicit
    energy head: the direction the sampler descends, for every objective.
    """

    def __init__(self, model: GradientFieldModel, label=None):
        self.model = model
        self.label = label
        self.dim = model.config.input_dim
        self.time_dependent = model.config.noise_conditioned

    def __call__(self, x: np.ndarray, progress: float = 0.0) -> np.ndarray:
        if self.model.config.energy_kind != "none":
            return energy_gradient(self.model, x, label=self.label)
        return self.model.forward_values(
            x, label=self.label, noise_level=progress if self.time_dependent else None)


class ComposedField:
    """Sum of member fields; adding gradients adds the underlying energy
    landscapes."""

    def __init__(self, fields: Sequence):
        if not fields:
            raise ValueError("a composed field needs at least one member")
        self.fields = [as_field(f) for f in fields]
        dims = {f.dim for f in self.fields if getattr(f, "dim", None) is not None}
        if len(dims) > 1:
            raise ValueError(f"composed fields disagree on input dim: {sorted(dims)}")
        self.dim = dims.pop() if dims else None
        self.time_dependent = any(getattr(f, "time_dependent", False) for f in self.fields)

    def __call__(self, x: np.ndarray, progress: float = 0.0) -> np.ndarray:
        total = self.fields[0](x, progress)
        for f in self.fields[1:]:
            total = total + f(x, progress)
        return total


def as_field(obj):
    """A model as its unlabelled ModelField; any other callable is a field as
    it stands."""
    if isinstance(obj, GradientFieldModel):
        return ModelField(obj)
    if callable(obj):
        return obj
    raise TypeError(f"cannot interpret {type(obj).__name__} as a gradient field")


# ---------------------------------------------------------------------------
# samplers


def inference_workers() -> int:
    """The processes `sample` may split a batch over: the usable cores over
    the threads each BLAS call takes, at least 1. BLAS takes the first
    positive value of `BLAS_THREAD_VARS`, or every core where none is set,
    so a batch is then sampled in one process, as BLAS fills the cores."""
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
        else os.cpu_count() or 1
    for var in BLAS_THREAD_VARS:
        try:
            threads = int(os.environ.get(var, ""))
        except ValueError:
            continue
        if threads > 0:
            return max(1, cores // threads)
    return 1


def _prepare(field, x0) -> tuple:
    field = as_field(field)
    x = np.array(x0, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError(f"x0 must be a batch [n, d], got shape {x.shape}")
    if getattr(field, "dim", None) is not None and x.shape[1] != field.dim:
        raise ValueError(f"x0 dimension {x.shape[1]} does not match field dim {field.dim}")
    return field, x


def _eval_field(field, x, progress, step):
    try:
        g = field(x, progress)
    except NonFiniteError as e:
        raise NonFiniteError(f"gradient evaluation failed at step {step}: {e}") from e
    if not np.all(np.isfinite(g)):
        raise NonFiniteError(f"non-finite gradient at step {step}")
    return g


def _subset_rows(active: np.ndarray) -> np.ndarray | None:
    """Rows to evaluate so that each gets the bits it gets in the full batch:
    the active rows, the batch's last n % BLAS_ROW_BLOCK rows and the first
    frozen rows that make the count congruent to n modulo BLAS_ROW_BLOCK.
    None when that is the whole batch."""
    n = len(active)
    rows = active.copy()
    rows[n - n % BLAS_ROW_BLOCK:] = True
    count = np.count_nonzero(rows)
    pad = (n - count) % BLAS_ROW_BLOCK
    if count + pad == 1:  # one row would take BLAS's matrix-vector path
        pad = BLAS_ROW_BLOCK
    if pad:
        rows[np.flatnonzero(~rows)[:pad]] = True
    idx = np.flatnonzero(rows)
    return None if len(idx) == n else idx


def check_time_grid(config: SamplerConfig) -> None:
    """Raise ValueError unless `config` can sample a time-dependent field:
    `gd` with eta * steps 1 (see `sample`)."""
    if config.method == "adaptive":
        raise ValueError("adaptive sampling needs a time-invariant field; "
                         "noise-conditioned baselines have no stopping rule")
    if not math.isclose(config.eta * config.steps, 1.0):
        raise ValueError(f"a time-dependent field integrates progress 0 to 1, so "
                         f"eta * steps must be 1; eta={config.eta} * "
                         f"steps={config.steps} = {config.eta * config.steps}")


def sample(field, x0, config: SamplerConfig, record: bool = False) -> Trajectory:
    """Look-ahead descent x <- x - eta * grad(x + mu * (x - x_prev)), with
    x_prev starting at x0, so the first step is a plain descent step.

    `gd` takes `steps` steps with every sample active and hands
    time-dependent fields progress k/steps, so it refuses one unless eta *
    steps is 1: Euler steps of size eta then integrate progress 0 to 1, the
    time the field was trained on. `adaptive` takes at most
    `max_steps` steps and freezes each sample once the gradient at its
    look-ahead point is no longer above g_min; one more gradient at the end
    point decides `cap_reached`. Frozen samples are masked out, so the batch
    stays deterministic while samples stop independently; after the first
    step only the active rows (see `_subset_rows`) go through the field.

    Unless it records, the batch is split over processes (`_on_shards`);
    rows are independent, so the bits are the serial run's.
    """
    field, x = _prepare(field, x0)
    if getattr(field, "time_dependent", False):
        check_time_grid(config)
    # a forked child would hold only the thread that forked it
    if not record and hasattr(os, "fork") and threading.active_count() == 1:
        shards = min(inference_workers(), len(x) // model.INFERENCE_ROWS)
        traj = _on_shards(field, x, config, shards) if shards > 1 else None
        if traj is not None:
            return traj
    return _descend(field, x, config, record)


def _descend(field, x, config: SamplerConfig, record: bool) -> Trajectory:
    """`sample`'s descent loop on the batch `x` in this process."""
    adaptive = config.method == "adaptive"
    n = len(x)
    budget = config.max_steps if adaptive else config.steps
    x_prev = x
    active = np.ones(n, dtype=bool)
    steps_used = np.zeros(n, dtype=np.int64)
    states = [x.copy()] if record else None
    norms = [] if record else None
    points = []
    for k in range(budget + 1 if adaptive else budget):
        # mu == 0 skips the look-ahead arithmetic, which would turn -0.0 into
        # +0.0; adaptive takes its first gradient at x0 itself
        if config.mu == 0.0 or (adaptive and k == 0):
            look = x
        else:
            with np.errstate(all="ignore"):  # the field or its check fails on inf
                look = x + config.mu * (x - x_prev)
        idx = _subset_rows(active) if adaptive and k > 0 else None
        if idx is None:
            g = _eval_field(field, look, k / budget, k)
            points.append(n)
        else:
            # a frozen row's x and x_prev no longer move, so its last
            # gradient is the one a fresh evaluation would give
            g = g.copy()
            g[idx] = _eval_field(field, look[idx], k / budget, k)
            points.append(len(idx))
        with np.errstate(all="ignore"):  # an inf norm or state is checked
            if record:
                norms.append(np.linalg.norm(g, axis=1))
            if adaptive:
                active &= np.linalg.norm(g, axis=1) > config.g_min
            if k == budget or not active.any():
                break
            moving = active[:, None]
            x_prev = np.where(moving, x, x_prev)
            x = np.where(moving, x - config.eta * g, x)
        if not np.all(np.isfinite(x)):
            raise NonFiniteError(f"non-finite sampler state at step {k}")
        steps_used += active
        if record:
            states.append(x.copy())
    cap_reached = active if adaptive else np.zeros(n, dtype=bool)
    return Trajectory(final=x, steps_used=steps_used, cap_reached=cap_reached,
                      states=states, grad_norms=norms,
                      points_evaluated=np.array(points, dtype=np.int64))


def _on_shards(field, x, config: SamplerConfig, shards: int) -> Trajectory | None:
    """`_descend` on `shards` contiguous shards of `x`, the first here and
    each other in a child from `os.fork`, which pipes its result back and
    leaves through `os._exit` whatever happens: it runs no exit handler and
    writes nothing. Every cut is a multiple of BLAS_ROW_BLOCK, so only the
    last shard holds the n % BLAS_ROW_BLOCK tail rows and each row keeps its
    kind of kernel block. `points_evaluated` sums the shards' counts step by
    step (each pads its own subsets). None where any shard fails; every
    child is reaped (killed first, if it still runs) before this returns."""
    whole = len(x) // BLAS_ROW_BLOCK
    cuts = [0, *(BLAS_ROW_BLOCK * (whole * i // shards) for i in range(1, shards)), len(x)]
    children = []  # (pid, the read end of its pipe)
    try:
        for a, b in zip(cuts[1:-1], cuts[2:]):
            read, write = os.pipe()
            pid = os.fork()
            if pid == 0:
                code = 1
                try:
                    gc.disable()  # the parent's garbage is the parent's to finalize
                    with open(write, "wb") as pipe:
                        pickle.dump(_shard(field, x[a:b], config), pipe)
                    code = 0
                finally:
                    os._exit(code)
            children.append((pid, read))
            os.close(write)
        parts = [_shard(field, x[:cuts[1]], config)]
        for _, read in children:
            with open(read, "rb", closefd=False) as pipe:
                parts.append(pickle.loads(pipe.read()))
    except Exception:  # the serial run decides what is raised
        return None
    finally:
        for pid, read in children:
            os.close(read)
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    final, steps_used, cap_reached, points = zip(*parts)
    steps = max(map(len, points))
    return Trajectory(final=np.concatenate(final), steps_used=np.concatenate(steps_used),
                      cap_reached=np.concatenate(cap_reached),
                      points_evaluated=sum(np.pad(p, (0, steps - len(p))) for p in points),
                      processes=shards)


def _shard(field, x, config: SamplerConfig) -> tuple:
    """`_descend` on one shard, as (final, steps_used, cap_reached,
    points_evaluated), where any warning, or floating-point error numpy does
    not ignore, raises: a run that would warn is the serial run."""
    strict = {kind: "raise" for kind, mode in np.geterr().items() if mode != "ignore"}
    with warnings.catch_warnings(), np.errstate(**strict):
        warnings.simplefilter("error")
        traj = _descend(field, x, config, False)
    return traj.final, traj.steps_used, traj.cap_reached, traj.points_evaluated


def calibrate_g_min(model_or_field, data: np.ndarray, percentile: float = 5.0) -> float:
    """Adaptive-stop threshold: a low percentile of the gradient norm over
    training data on the trained model (image-scale thresholds do not carry
    over to 2D units)."""
    field = as_field(model_or_field)
    norms = np.linalg.norm(field(np.asarray(data, dtype=np.float64), 0.0), axis=1)
    return float(np.percentile(norms, percentile))


def save_trajectory_csv(path, traj: Trajectory) -> None:
    """CSV rows (step, sample-id, coordinates..., grad-norm); needs a recorded
    trajectory."""
    if traj.states is None:
        raise ValueError("trajectory was not recorded (pass record=True)")
    d = traj.final.shape[1]
    norms = traj.grad_norms or []
    write_csv(path, ["step", "sample_id", *[f"x{i}" for i in range(d)], "grad_norm"],
              ([step, sid, *state[sid], norms[step][sid] if step < len(norms) else None]
               for step, state in enumerate(traj.states) for sid in range(len(state))))
