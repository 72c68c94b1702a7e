"""The training loop: stream batches, minimize the configured objective,
checkpoint deterministically.

One generator seeded by the run seed drives everything (data draws, noise,
interpolation factors), and its state is stored in checkpoints, so resuming
reproduces the uninterrupted run bit for bit.
"""

from __future__ import annotations

import ctypes
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import ndtensor as nd
from .checkpoint import (CheckpointError, load_checkpoint, load_params_into,
                         save_checkpoint)
from .config import RunConfig, ValidationError, to_dict
from .data import ToyDistribution, draw_from, read_csv, write_csv
from .model import GradientFieldModel, ModelConfig, init_model
from .objective import TrainBatch, draw_batch, loss_and_gradients
from .optimizer import AdamW

CHECKPOINT_NAME = "checkpoint.eqmckpt"
LOSSES_NAME = "losses.csv"
LOSSES_HEADER = ["step", "loss"]


@dataclass
class TrainResult:
    config: RunConfig
    model: GradientFieldModel
    optimizer: AdamW
    losses: np.ndarray
    checkpoint_path: Path | None


def _next_batch(config: RunConfig, rng: np.random.Generator,
                source: np.ndarray | ToyDistribution) -> TrainBatch:
    """A batch from `source`: the fixed memorization set, or a distribution."""
    if isinstance(source, np.ndarray):
        # memorization regime: the whole fixed set every step, tiled up to
        # batch_size so each point sees several corruption draws per step
        repeats = max(1, config.train.batch_size // len(source))
        x, labels = np.tile(source, (repeats, 1)), None
    else:
        x, labels = draw_from(source, config.train.batch_size, rng)
        if config.model.num_classes == 0:
            labels = None
    return draw_batch(rng, x, labels=labels)


def _require_same_model(given: ModelConfig, saved: ModelConfig, path) -> None:
    """A resume continues the checkpoint's parameters, so a config passed with
    it must describe the same model."""
    for f in fields(ModelConfig):
        a, b = getattr(given, f.name), getattr(saved, f.name)
        if a != b:
            raise ValidationError(f"{path}: the config's model.{f.name} = {a!r} differs "
                                  f"from the checkpoint's {b!r}; a resume keeps the "
                                  "checkpoint's model")


#: glibc's mallopt parameters and the values `set_heap_policy` gives them
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3
MMAP_THRESHOLD_BYTES = 32 << 20
TRIM_THRESHOLD_BYTES = 64 << 20


def set_heap_policy() -> bool:
    """Fix glibc's heap thresholds for the process: blocks under 32 MiB come
    from the heap, and the heap's free top goes back to the OS only past
    64 MiB. By default glibc maps each block over 128 KiB on its own, raises
    that threshold (and the trim threshold, twice it) only after it unmaps
    one, and trims the heap's free top past the trim threshold. A training
    step frees its gradients and the optimizer's temporaries (about 2 MB at
    the default size) and allocates them again, so under the default policy
    their pages are handed back and faulted in again on every step (about
    1600 minor faults a default eqm-e step). With the thresholds fixed they
    stay mapped.

    The setting holds for the rest of the process and also ends glibc's
    dynamic thresholds there; glibc offers no way to read or restore them.
    Returns whether `mallopt` took both values: False where libc has no
    `mallopt`, where nothing changes."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):  # no C library, or no mallopt in it
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    return all((mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD_BYTES),
                mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD_BYTES)))


def train(config: RunConfig | None = None, out_dir=None, init_from=None,
          resume_from=None, quiet: bool = True) -> TrainResult:
    """Run (or resume) a training run.

    init_from warm-starts parameters from another checkpoint (architectures
    must agree); resume_from continues an interrupted run exactly, including
    the data stream, and excludes init_from. A config given with resume_from
    must describe the checkpoint's model; its optimizer settings apply from
    the resumed step on, with the checkpoint's moments and step count. With
    out_dir None the run writes nothing.

    It first calls `set_heap_policy`, which fixes glibc's heap thresholds
    for the whole process and for good: whatever runs in it afterwards (a
    notebook, a test session, another library) keeps them.
    """
    set_heap_policy()
    if resume_from is not None and init_from is not None:
        raise ValidationError("resume_from (--resume) and init_from (--init-from) "
                              "exclude each other: a resume keeps the checkpoint's "
                              "parameters")
    start_step = 0
    if resume_from is not None:
        ck = load_checkpoint(resume_from)
        config = ck.config if config is None else config
        _require_same_model(config.model, ck.config.model, resume_from)
        config.validate()
        model = GradientFieldModel(config=config.model, params=ck.params)
        # the config's settings, with the checkpoint's moments and step count
        optimizer = replace(ck.optimizer, **to_dict(config.optimizer))
        rng = np.random.default_rng()
        try:
            rng.bit_generator.state = ck.rng_state
        except (KeyError, TypeError, ValueError) as e:
            raise CheckpointError(f"{resume_from}: rng_state does not restore the "
                                  f"generator ({e!r})") from None
        start_step = ck.step
        if start_step >= config.train.steps:
            raise ValidationError(f"{resume_from}: the run already finished "
                                  f"(step {start_step} of {config.train.steps})")
    else:
        if config is None:
            raise ValidationError("train needs a config or a checkpoint to resume")
        config.validate()
        model = init_model(config.model)
        if init_from is not None:
            load_params_into(init_from, model)
        optimizer = AdamW(**to_dict(config.optimizer))
        rng = np.random.default_rng(config.seed)

    source = (config.dataset.memorization_points()
              if config.dataset.kind == "memorization" else config.dataset.distribution())

    out_path = Path(out_dir) if out_dir is not None else None
    if out_path is not None:
        out_path.mkdir(parents=True, exist_ok=True)
        # a resume keeps the loss history of the steps before it; a fresh run
        # starts an empty table. A row without a loss was torn by a crash
        # during an append: its step may be a prefix of the one written.
        losses_path = out_path / LOSSES_NAME
        kept = read_csv(losses_path) if start_step and losses_path.exists() else []
        write_csv(losses_path, LOSSES_HEADER,
                  ([r["step"], r["loss"]] for r in kept
                   if r["loss"] and int(r["step"]) < start_step))

    losses = np.empty(config.train.steps - start_step)
    logged = 0  # entries of `losses` already in losses.csv
    for i, step in enumerate(range(start_step, config.train.steps)):
        batch = _next_batch(config, rng, source)
        try:
            losses[i], grads = loss_and_gradients(config.objective, model, batch,
                                                  config.schedule,
                                                  config.allow_non_equilibrium)
            optimizer.step(model.params, grads)
            del grads  # not alive while the next step computes its own
        except nd.NonFiniteError as e:
            raise nd.NonFiniteError(f"training aborted at step {step}: {e}") from e
        if not quiet and config.train.log_every and step % config.train.log_every == 0:
            print(f"step {step:6d}  loss {losses[i]:.6f}")
        every = config.train.checkpoint_every
        last = step + 1 == config.train.steps
        if out_path is not None and (last or every and (step + 1) % every == 0):
            # losses first, fsynced by write_csv: a crash between the two
            # writes leaves rows that a resume from the previous checkpoint
            # drops, never a gap
            write_csv(losses_path, LOSSES_HEADER,
                      ([start_step + j, losses[j]] for j in range(logged, i + 1)),
                      append=True)
            logged = i + 1
            name = CHECKPOINT_NAME if last else f"ckpt-{step + 1:06d}.eqmckpt"
            save_checkpoint(out_path / name, config, model, optimizer, step + 1,
                            rng.bit_generator.state)
    ckpt_path = out_path / CHECKPOINT_NAME if out_path is not None else None
    return TrainResult(config=config, model=model, optimizer=optimizer,
                       losses=losses, checkpoint_path=ckpt_path)
