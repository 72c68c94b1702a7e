"""Corruption process, matching targets, and the training loss.

Both objectives are one mean-squared error between a model output and a
target built from the same (x, eps, gamma) triple:

  eqm        f(x_gamma)        vs (eps - x) * c(gamma)
  eqm-e      grad g(x_gamma)   vs (eps - x) * c(gamma)   (input-gradient)

Every target is a multiple of eps - x, so every trained output (or energy
input-gradient) is the direction the sampler descends along. Flow matching
is the non-equilibrium case: eqm under the constant schedule (with
allow_non_equilibrium) matches the velocity eps - x itself, the negative of
the usual data-ward velocity x - eps, on a plain model or, as the
time-conditioned baseline, on a noise-conditioned one.

The interpolation factor gamma is drawn per sample and never shown to the
model, except to a noise-conditioned one, where it doubles as the noise
level input. Reduction is the mean over batch and coordinates so step sizes
stay comparable across batch sizes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import ndtensor as nd
from .model import GradientFieldModel, ModelConfig, _total_energy
from .schedule import Schedule, eval_schedule, is_equilibrium

OBJECTIVES = ("eqm", "eqm-e")


class ObjectiveError(ValueError):
    """Objective / model / schedule combination violates a precondition."""


@dataclass
class TrainBatch:
    """One training step's raw material. eps is standard normal, gamma is
    uniform on [0, 1], both drawn per sample from the run generator."""

    x: np.ndarray
    eps: np.ndarray
    gamma: np.ndarray
    labels: np.ndarray | None = None

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=np.float64)
        self.eps = np.asarray(self.eps, dtype=np.float64)
        self.gamma = np.asarray(self.gamma, dtype=np.float64)
        if self.x.shape != self.eps.shape:
            raise ObjectiveError(f"x {self.x.shape} and eps {self.eps.shape} disagree")
        if self.gamma.shape != (self.x.shape[0],):
            raise ObjectiveError(f"gamma shape {self.gamma.shape} is not per-sample")
        if np.any(self.gamma < 0.0) or np.any(self.gamma > 1.0):
            raise ObjectiveError("gamma outside [0, 1]")


def draw_batch(rng: np.random.Generator, x: np.ndarray,
               labels: np.ndarray | None = None) -> TrainBatch:
    """Attach fresh noise and per-sample interpolation factors to data."""
    x = np.asarray(x, dtype=np.float64)
    eps = rng.standard_normal(x.shape)
    gamma = rng.uniform(0.0, 1.0, x.shape[0])
    return TrainBatch(x=x, eps=eps, gamma=gamma, labels=labels)


def corrupt(x, eps, gamma) -> np.ndarray:
    """Interpolate gamma*x + (1-gamma)*eps, per sample."""
    x = np.asarray(x, dtype=np.float64)
    eps = np.asarray(eps, dtype=np.float64)
    gamma = np.asarray(gamma, dtype=np.float64)
    if x.shape != eps.shape:
        raise ObjectiveError(f"corrupt: x {x.shape} and eps {eps.shape} disagree")
    g = gamma if gamma.ndim == 0 else gamma[:, None]
    return g * x + (1.0 - g) * eps


def gradient_target(x, eps, gamma, sched: Schedule) -> np.ndarray:
    """(eps - x) scaled by the schedule: the direction that descends from
    noise toward data, vanishing at gamma=1 for equilibrium schedules."""
    x = np.asarray(x, dtype=np.float64)
    eps = np.asarray(eps, dtype=np.float64)
    if x.shape != eps.shape:
        raise ObjectiveError(f"target: x {x.shape} and eps {eps.shape} disagree")
    c = np.asarray(eval_schedule(sched, gamma), dtype=np.float64)
    c = c if c.ndim == 0 else c[:, None]
    return (eps - x) * c


def check_pairing(objective: str, model_config: ModelConfig) -> None:
    """Raise ObjectiveError unless `objective` can train a model built from
    `model_config`: eqm fits an implicit field, eqm-e an explicit energy
    head's input-gradient."""
    if objective not in OBJECTIVES:
        raise ObjectiveError(f"unknown objective '{objective}', not one of {OBJECTIVES}")
    has_energy = model_config.energy_kind != "none"
    if objective == "eqm" and has_energy:
        raise ObjectiveError("objective 'eqm' trains implicit-energy models only "
                             "(model.energy_kind='none')")
    if objective == "eqm-e" and not has_energy:
        raise ObjectiveError("objective 'eqm-e' needs an explicit energy head")


def _loss_inputs(objective: str, model: GradientFieldModel, batch: TrainBatch,
                 sched: Schedule, allow_non_equilibrium: bool):
    """The corrupted points, the target and the labels of a loss, after its
    precondition checks."""
    check_pairing(objective, model.config)
    if not is_equilibrium(sched) and not allow_non_equilibrium:
        raise ObjectiveError(
            "schedule does not vanish at gamma=1; pass allow_non_equilibrium=True "
            "to train a non-equilibrium control")
    target = gradient_target(batch.x, batch.eps, batch.gamma, sched)
    conditional = model.config.num_classes > 0
    if conditional and batch.labels is None:
        raise ObjectiveError("conditional model needs batch labels")
    label = batch.labels if conditional else None
    return corrupt(batch.x, batch.eps, batch.gamma), target, label


def loss_for(objective: str, model: GradientFieldModel, batch: TrainBatch,
             sched: Schedule, allow_non_equilibrium: bool = False) -> nd.Tensor:
    """The training loss of `objective` (table above) as a live scalar node.
    A schedule that does not vanish at gamma=1 is refused unless
    `allow_non_equilibrium`."""
    xg, target, label = _loss_inputs(objective, model, batch, sched,
                                     allow_non_equilibrium)
    graph = nd.Graph()
    if objective == "eqm-e":
        xt = graph.leaf(xg)
        field = nd.input_gradient(_total_energy(model, graph, xt, label=label), xt)
    else:
        level = batch.gamma if model.config.noise_conditioned else None
        field = model.forward(graph, xg, label=label, noise_level=level)
    return nd.tmean(nd.square(nd.sub(field, nd.constant(target))))


def loss_and_gradients(objective: str, model: GradientFieldModel, batch: TrainBatch,
                       sched: Schedule, allow_non_equilibrium: bool = False
                       ) -> tuple[float, dict[str, np.ndarray]]:
    """The loss of `objective` and its gradient with respect to every
    parameter, off the tape: `model._enter`, `model._forward_values` with a
    cache (for eqm-e, then `energy_input_gradient`), the mean squared error
    and its gradient written out, then `parameter_gradients` (eqm) or
    `energy_parameter_gradients` (eqm-e), as one pass (see `nd`'s
    docstring): the bits of `loss_for(objective, ...)` + `nd.backward`
    where they return. Of the values between the output and the gradients
    it scans only the loss, which bounds the difference and its square. An
    empty batch raises the tape's mean's error before any product."""
    xg, target, label = _loss_inputs(objective, model, batch, sched,
                                     allow_non_equilibrium)
    level = batch.gamma if model.config.noise_conditioned else None
    with np.errstate(all="ignore"):
        p, h, hot = model._enter(xg, label, level)
        if not len(h):
            raise nd.ShapeMismatchError("op 'mean': empty tensor")
        cache, keep = [], []
        field = model._forward_values(p, h, hot, cache)
        if objective == "eqm-e":
            field = model.energy_input_gradient(cache, keep)
        nd.check_finite(target, "constant", "in the target")
        diff = field - target
        squared = diff * diff
        scale = 1.0 / squared.size
        total = squared.sum(axis=(0, 1))
        nd.check_finite(total, "reduce_leading", "in the loss")
        grad = scale * diff  # (the tape's ones(()) * scale is scale exactly)
        grad *= 2.0
        if objective == "eqm-e":
            return float(total * scale), model.energy_parameter_gradients(cache, keep, grad)
        return float(total * scale), model.parameter_gradients(cache, grad)
