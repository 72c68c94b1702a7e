"""Gradient-magnitude schedules c(gamma) with a global multiplier.

A schedule shapes the norm of the matching target along the corruption path
from noise (gamma=0) to data (gamma=1). Every kind except `constant` vanishes
at gamma=1, which is what makes the trained field an equilibrium landscape:
data points become stationary.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

KINDS = ("constant", "linear", "truncated", "piecewise")


@dataclass(frozen=True)
class Schedule:
    """Magnitude function family.

    kind:
      constant   c(g) = 1                      (non-equilibrium control)
      linear     c(g) = 1 - g
      truncated  c(g) = 1 on [0, a], then linear down to 0 at g=1
      piecewise  c(g) = b at 0, linear to 1 at g=a, then linear to 0 at g=1
    `lam` (JSON key "lambda") multiplies every kind uniformly.
    """

    kind: str
    a: float = 0.8
    b: float = 1.0
    lam: float = field(default=1.0, metadata={"key": "lambda"})

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown schedule kind '{self.kind}'")
        for key, value in (("a", self.a), ("b", self.b), ("lambda", self.lam)):
            if not np.isfinite(value):
                raise ValueError(f"{key}={value} must be finite")
        if not 0.0 <= self.a < 1.0:
            raise ValueError(f"truncation point a={self.a} outside [0, 1)")
        if self.b < 0.0:
            raise ValueError(f"start value b={self.b} must be >= 0")
        if (self.kind == "piecewise" and self.a > 0.0
                and not np.isfinite((self.b - 1.0) / self.a)):
            raise ValueError(f"truncation point a={self.a} is too small: the head "
                             "slope (b - 1) / a overflows")
        if not self.lam > 0.0:
            raise ValueError(f"multiplier lambda={self.lam} must be > 0")


def _base(schedule: Schedule, gamma: np.ndarray) -> np.ndarray:
    kind = schedule.kind
    if kind == "constant":
        return np.ones_like(gamma)
    if kind == "linear":
        return 1.0 - gamma
    a = schedule.a
    # gamma == a takes the decay branch; both branches agree there, the
    # fixed choice just keeps evaluation deterministic
    decay = (1.0 - gamma) / (1.0 - a)
    if kind == "truncated":
        return np.where(gamma < a, 1.0, decay)
    head = schedule.b - (schedule.b - 1.0) / a * gamma if a > 0 else np.ones_like(gamma)
    return np.where(gamma < a, head, decay)


def eval_schedule(schedule: Schedule, gamma):
    """lambda * c_kind(gamma) for gamma in [0, 1]; scalar in, scalar out."""
    arr = np.asarray(gamma, dtype=np.float64)
    if np.any(arr < 0.0) or np.any(arr > 1.0):
        raise ValueError(f"gamma out of range [0, 1]: {gamma}")
    out = schedule.lam * _base(schedule, arr)
    if np.ndim(gamma) == 0:
        return float(out)
    return out


def is_equilibrium(schedule: Schedule) -> bool:
    """True iff the schedule vanishes exactly at gamma=1."""
    return eval_schedule(schedule, 1.0) == 0.0
