"""AdamW with decoupled weight decay over named parameter buffers."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .ndtensor import NonFiniteError, all_finite


class GradientError(ValueError):
    """Gradients missing or mis-keyed."""


@dataclass
class AdamW:
    """Standard decoupled-weight-decay Adam.

    Bias correction divides the moments before epsilon enters the
    denominator: update = lr * m_hat / (sqrt(v_hat) + epsilon).

    The optimizer's only state is its settings, its step count and the two
    moments of each parameter. A step works in two temporaries per tensor,
    freed before the next tensor, so nothing else outlives it.
    """

    lr: float = 1e-4
    beta1: float = 0.9
    beta2: float = 0.999
    weight_decay: float = 0.0
    epsilon: float = 1e-8
    step_count: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)

    def _ensure_buffers(self, params: dict[str, np.ndarray]) -> None:
        for name, p in params.items():
            if name not in self.m:
                self.m[name] = np.zeros_like(p)
                self.v[name] = np.zeros_like(p)

    def step(self, params: dict[str, np.ndarray],
             grads: dict[str, np.ndarray]) -> None:
        """Update `params` in place from same-keyed `grads`. Every gradient's
        key, shape and values are checked before anything changes, so a step
        that raises leaves the parameters, moments and step count as they were."""
        if set(params) != set(grads):
            missing = set(params) ^ set(grads)
            raise GradientError(f"gradient keys do not match parameters: {sorted(missing)}")
        checked = {}
        for name, p in params.items():
            g = np.asarray(grads[name], dtype=np.float64)
            if g.shape != p.shape:
                raise GradientError(f"gradient for '{name}' has shape {g.shape}, "
                                    f"parameter has {p.shape}")
            if not all_finite(g):
                raise NonFiniteError(f"non-finite gradient for '{name}'")
            checked[name] = g
        self._ensure_buffers(params)
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - self.beta1 ** t
        bc2 = 1.0 - self.beta2 ** t
        for name, p in params.items():
            g = checked[name]
            m = self.m[name]
            v = self.v[name]
            s = np.empty_like(p)
            if self.weight_decay != 0.0:
                np.multiply(p, self.lr * self.weight_decay, out=s)
                p -= s
            m *= self.beta1
            np.multiply(g, 1.0 - self.beta1, out=s)
            m += s
            v *= self.beta2
            np.multiply(g, 1.0 - self.beta2, out=s)
            s *= g
            v += s
            d = np.divide(v, bc2)
            np.sqrt(d, out=d)
            d += self.epsilon
            np.divide(m, bc1, out=s)
            s *= self.lr
            s /= d
            p -= s
