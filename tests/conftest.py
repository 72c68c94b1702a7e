"""Shared oracles and helpers.

The finite-difference functions below are the independent oracle for every
gradient assertion in the suite: they only ever evaluate forward passes.
"""

import re
import warnings

import numpy as np
import pytest

from eqmatch import ndtensor as nd, sampler


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


#: a failed pass's message: the op and the place (layer, parameter, input,
#: target or loss) of the boundary scan that found the NaN or Inf
PASS_FAILURE = re.compile(r"non-finite values produced by op '\w+' (at|in) \S.*")


def assert_fails_as_the_tape(pass_error: Exception, tape_error: Exception) -> None:
    """A failed pass's error, where the tape raised `tape_error`: a
    NonFiniteError where the tape's is one, named by the pass's own boundary
    scan, and any other error, raised by a check the pass shares with the
    tape, the tape's own."""
    assert type(pass_error) is type(tape_error)
    if isinstance(tape_error, nd.NonFiniteError):
        assert PASS_FAILURE.fullmatch(str(pass_error)), str(pass_error)
    else:
        assert str(pass_error) == str(tape_error)


def assert_raises_as_the_tape(call, tape) -> str:
    """`call()`, an off-tape pass, raises where `tape()` raises, with no
    RuntimeWarning (it runs under `np.errstate(all="ignore")`), an error as
    `assert_fails_as_the_tape` says. Returns the pass's message."""
    with warnings.catch_warnings(record=True) as caught, \
            pytest.raises(Exception) as error:
        warnings.simplefilter("always")
        call()
    assert [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)] == []
    with np.errstate(all="ignore"), pytest.raises(Exception) as tape_error:
        tape()
    assert_fails_as_the_tape(error.value, tape_error.value)
    return str(error.value)


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


@pytest.fixture(params=[1, 2], ids=["1 worker", "2 workers"])
def workers(request, monkeypatch) -> int:
    """The processes `sampler.sample` splits a batch over, set by patching
    `sampler.inference_workers`: 1 is the serial loop that runs where no BLAS
    thread variable is set. Override with indirect parametrization."""
    monkeypatch.setattr(sampler, "inference_workers", lambda: request.param)
    return request.param


@pytest.fixture
def rng():
    return np.random.default_rng(20260809)
