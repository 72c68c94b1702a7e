import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from eqmatch.config import from_dict, to_dict
from eqmatch.schedule import KINDS, Schedule, eval_schedule, is_equilibrium

unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
kinds = st.sampled_from(["constant", "linear", "truncated", "piecewise"])


def make(kind, a=0.8, b=1.4, lam=1.0):
    return Schedule(kind=kind, a=a, b=b, lam=lam)


def test_linear_midpoint():
    assert eval_schedule(make("linear"), 0.5) == pytest.approx(0.5, abs=1e-12)


def test_truncated_decay_value():
    assert eval_schedule(make("truncated", a=0.8), 0.9) == pytest.approx(0.5, abs=1e-12)


def test_piecewise_head_value():
    assert eval_schedule(make("piecewise", a=0.8, b=1.4), 0.4) == pytest.approx(1.2, abs=1e-12)


def test_truncated_plateau_with_multiplier_4():
    # default production setting: truncated decay, a=0.8, multiplier 4
    assert eval_schedule(make("truncated", a=0.8, lam=4.0), 0.5) == pytest.approx(4.0, abs=1e-12)


@pytest.mark.parametrize("kind,expected", [
    ("constant", False),
    ("linear", True),
    ("truncated", True),
    ("piecewise", True),
])
def test_is_equilibrium(kind, expected):
    assert is_equilibrium(make(kind)) is expected


@pytest.mark.parametrize("kind", ["linear", "truncated", "piecewise"])
def test_vanishes_exactly_at_one(kind):
    assert eval_schedule(make(kind, lam=4.0), 1.0) == 0.0


@pytest.mark.parametrize("kind", ["truncated", "piecewise"])
def test_continuity_at_breakpoint(kind):
    s = make(kind, a=0.8, b=1.4)
    d = 1e-9
    assert abs(eval_schedule(s, 0.8 - d) - eval_schedule(s, 0.8 + d)) < 1e-6


@pytest.mark.parametrize("kind", ["truncated", "piecewise"])
def test_monotone_non_increasing_past_breakpoint(kind):
    s = make(kind, a=0.6, b=2.0, lam=3.0)
    gammas = np.linspace(0.6, 1.0, 257)
    vals = eval_schedule(s, gammas)
    assert np.all(np.diff(vals) <= 0.0)


def test_vectorized_matches_scalar():
    s = make("piecewise", a=0.5, b=0.8)
    gammas = np.linspace(0.0, 1.0, 101)
    vec = eval_schedule(s, gammas)
    np.testing.assert_array_equal(vec, [eval_schedule(s, g) for g in gammas])


@given(kind=kinds, gamma=unit, lam=st.floats(min_value=1e-3, max_value=100.0))
def test_scaling_law_exact(kind, gamma, lam):
    base = eval_schedule(make(kind, lam=1.0), gamma)
    scaled = eval_schedule(make(kind, lam=lam), gamma)
    assert scaled == lam * base


@given(kind=kinds, gamma=unit, a=st.floats(min_value=0.0, max_value=0.99),
       b=st.floats(min_value=0.0, max_value=5.0))
@example(kind="piecewise", gamma=0.0, a=5e-324, b=0.0)
def test_non_negative_everywhere(kind, gamma, a, b):
    try:
        s = Schedule(kind=kind, a=a, b=b)
    except ValueError as e:
        # the only schedule refused here: a piecewise head slope that overflows
        assert kind == "piecewise" and "a=" in str(e)
        return
    assert eval_schedule(s, gamma) >= 0.0



def test_gamma_out_of_range_rejected():
    with pytest.raises(ValueError, match="out of range"):
        eval_schedule(make("linear"), 1.5)
    with pytest.raises(ValueError, match="out of range"):
        eval_schedule(make("linear"), -0.01)


@pytest.mark.parametrize("bad", [
    dict(a=1.0), dict(a=-0.1), dict(b=-1.0), dict(lam=0.0), dict(lam=-2.0),
    dict(kind="cosine"),
    # (b - 1) / a overflows
    dict(kind="piecewise", a=5e-324, b=0.0), dict(kind="piecewise", a=1e-310, b=2.0),
])
def test_invalid_parameters_rejected(bad):
    kwargs = dict(kind="truncated", a=0.5, b=1.0, lam=1.0)
    kwargs.update(bad)
    with pytest.raises(ValueError):
        Schedule(**kwargs)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("key, field", [("a", "a"), ("b", "b"), ("lambda", "lam")])
@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
def test_non_finite_parameter_names_its_key(kind, key, field, value):
    """Every kind rejects a non-finite a, b or lambda, even one it does not
    read, by the key the JSON config uses."""
    with pytest.raises(ValueError, match=rf"^{key}=.* must be finite"):
        Schedule(**{"kind": kind, field: value})


def test_dict_round_trip():
    s = make("piecewise", a=0.8, b=1.4, lam=4.0)
    assert from_dict(Schedule, to_dict(s)) == s
    assert to_dict(s) == {"kind": "piecewise", "a": 0.8, "b": 1.4, "lambda": 4.0}
