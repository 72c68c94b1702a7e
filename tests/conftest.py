"""Shared oracles and helpers.

The finite-difference functions below are the independent oracle for every
gradient assertion in the suite: they only ever evaluate forward passes.
"""

import warnings

import numpy as np
import pytest


def central_difference(fn, x: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Gradient of scalar-valued `fn` at `x` by central differences."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = grad.reshape(-1)
    xf = x.reshape(-1)
    for i in range(xf.size):
        orig = xf[i]
        xf[i] = orig + h
        fp = fn(x)
        xf[i] = orig - h
        fm = fn(x)
        xf[i] = orig
        flat[i] = (fp - fm) / (2.0 * h)
    return grad


def second_difference(fn, x: float, h: float = 1e-4) -> float:
    """Second derivative of scalar `fn` at scalar `x`: FD of FD."""
    return (fn(x + h) - 2.0 * fn(x) + fn(x - h)) / (h * h)


def rel_err(a: np.ndarray, b: np.ndarray) -> float:
    """Scale-relative worst-case error between two arrays."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    scale = max(np.max(np.abs(a), initial=0.0), np.max(np.abs(b), initial=0.0), 1e-12)
    return float(np.max(np.abs(a - b)) / scale)


def assert_raises_as_the_tape(call, tape) -> None:
    """`call()` raises the error that `tape()` raises, with the same
    RuntimeWarnings: a failed off-tape pass is silent, and the tape it hands
    the failure to decides what is raised."""
    def raised(fn):
        with warnings.catch_warnings(record=True) as caught, \
                pytest.raises(Exception) as error:
            warnings.simplefilter("always")
            fn()
        return type(error.value), str(error.value), [
            (w.category, str(w.message)) for w in caught]

    assert raised(call) == raised(tape)


def outcome(call) -> tuple:
    """`(call(), None)`, or `(None, the exception)` if it raises, with numpy's
    floating-point warnings off."""
    with np.errstate(all="ignore"):
        try:
            return call(), None
        except Exception as error:
            return None, error


def scale_by_powers_of_two(params: dict, exponents) -> None:
    """Multiply each parameter, in sorted name order, by 2^k for its k in
    `exponents`: exact, unless a value overflows."""
    for name, k in zip(sorted(params), exponents):
        params[name] *= 2.0 ** k


@pytest.fixture
def rng():
    return np.random.default_rng(20260809)
