from dataclasses import replace

import numpy as np
import pytest

from eqmatch.ndtensor import NonFiniteError
from eqmatch.optimizer import AdamW, GradientError


def reference_adamw(p, grads_seq, lr, b1, b2, wd, eps):
    """Independent scalar-loop oracle for the decoupled update."""
    p = np.array(p, dtype=np.float64)
    m = np.zeros_like(p)
    v = np.zeros_like(p)
    for t, g in enumerate(grads_seq, start=1):
        g = np.asarray(g, dtype=np.float64)
        if wd != 0.0:
            p = p - lr * wd * p
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        m_hat = m / (1 - b1 ** t)
        v_hat = v / (1 - b2 ** t)
        p = p - lr * m_hat / (np.sqrt(v_hat) + eps)
    return p


def test_zero_gradients_leave_parameters_unchanged():
    params = {"w": np.array([1.0, -2.0, 3.0])}
    before = params["w"].copy()
    AdamW(lr=0.1).step(params, {"w": np.zeros(3)})
    np.testing.assert_array_equal(params["w"], before)


def test_first_step_magnitude_is_roughly_lr():
    params = {"w": np.array([0.0, 0.0])}
    g = np.array([0.37, -5.1])
    opt = AdamW(lr=1e-3)
    opt.step(params, {"w": g.copy()})
    # at t=1 the update is lr * g / (|g| + eps) = lr * sign(g) up to eps
    np.testing.assert_allclose(params["w"], -1e-3 * np.sign(g), rtol=1e-6)


def test_matches_reference_simulation():
    rng = np.random.default_rng(11)
    grads_seq = [rng.standard_normal(4) for _ in range(25)]
    p0 = rng.standard_normal(4)
    for wd in (0.0, 0.01):
        params = {"w": p0.copy()}
        opt = AdamW(lr=3e-3, beta1=0.9, beta2=0.999, weight_decay=wd, epsilon=1e-8)
        for g in grads_seq:
            opt.step(params, {"w": g.copy()})
        want = reference_adamw(p0, grads_seq, 3e-3, 0.9, 0.999, wd, 1e-8)
        np.testing.assert_allclose(params["w"], want, rtol=0, atol=1e-15)


def written_out_adamw(p, m, v, g, t, lr, b1, b2, wd, eps):
    """One AdamW step as plain expressions, in `AdamW.step`'s op order."""
    if wd != 0.0:
        p = p - p * (lr * wd)
    m = m * b1 + g * (1.0 - b1)
    v = v * b2 + (g * (1.0 - b2)) * g
    d = np.sqrt(v / (1.0 - b2 ** t)) + eps
    p = p - ((m / (1.0 - b1 ** t)) * lr) / d
    return p, m, v


@pytest.mark.parametrize("wd", [0.0, 0.01])
def test_bits_equal_the_written_out_reference(wd):
    """Parameters and both moments, bit for bit, over 5 steps on a matrix
    and a vector of the default model's width."""
    rng = np.random.default_rng(21)
    start = {"w": rng.standard_normal((256, 256)), "b": rng.standard_normal(256)}
    params = {k: v.copy() for k, v in start.items()}
    want = {k: (v.copy(), np.zeros_like(v), np.zeros_like(v)) for k, v in start.items()}
    opt = AdamW(lr=3e-3, beta1=0.9, beta2=0.999, weight_decay=wd, epsilon=1e-8)
    for t in range(1, 6):
        grads = {k: rng.standard_normal(v.shape) for k, v in start.items()}
        opt.step(params, {k: g.copy() for k, g in grads.items()})
        want = {k: written_out_adamw(*want[k], grads[k], t, 3e-3, 0.9, 0.999, wd, 1e-8)
                for k in start}
    for k, (p, m, v) in want.items():
        assert params[k].tobytes() == p.tobytes()
        assert opt.m[k].tobytes() == m.tobytes()
        assert opt.v[k].tobytes() == v.tobytes()


def test_quadratic_loss_strictly_decreases():
    """Ten steps on ||theta||^2 from (1, 1): every step lowers the loss."""
    params = {"w": np.array([1.0, 1.0])}
    opt = AdamW(lr=0.05)
    losses = [float(np.sum(params["w"] ** 2))]
    for _ in range(10):
        opt.step(params, {"w": 2.0 * params["w"]})
        losses.append(float(np.sum(params["w"] ** 2)))
    assert all(b < a for a, b in zip(losses, losses[1:]))


def test_update_independent_of_parameter_values_without_decay():
    rng = np.random.default_rng(3)
    grads_seq = [rng.standard_normal(3) for _ in range(5)]
    pa = {"w": np.array([10.0, -4.0, 0.5])}
    pb = {"w": np.array([-1.0, 2.0, 33.0])}
    oa, ob = AdamW(lr=1e-2), AdamW(lr=1e-2)
    da, db = pa["w"].copy(), pb["w"].copy()
    for g in grads_seq:
        oa.step(pa, {"w": g.copy()})
        ob.step(pb, {"w": g.copy()})
    np.testing.assert_allclose(pa["w"] - da, pb["w"] - db, atol=1e-15)


def test_key_mismatch_rejected():
    with pytest.raises(GradientError, match="keys"):
        AdamW().step({"w": np.zeros(2)}, {"b": np.zeros(2)})


def test_non_finite_gradient_rejected():
    with pytest.raises(NonFiniteError, match="non-finite"):
        AdamW().step({"w": np.zeros(2)}, {"w": np.array([1.0, np.inf])})


def test_shape_mismatch_rejected():
    with pytest.raises(GradientError, match="shape"):
        AdamW().step({"w": np.zeros(2)}, {"w": np.zeros(3)})


def state_bytes(opt, params):
    return ({k: v.tobytes() for k, v in params.items()},
            {k: v.tobytes() for k, v in opt.m.items()},
            {k: v.tobytes() for k, v in opt.v.items()}, opt.step_count)


@pytest.mark.parametrize("stepped", [False, True], ids=["fresh", "after a step"])
@pytest.mark.parametrize("bad_b, error", [
    (np.array([1.0, np.nan]), NonFiniteError),
    (np.array([np.inf, 1.0]), NonFiniteError),
    (np.zeros(3), GradientError),
], ids=["nan", "inf", "shape"])
def test_a_rejected_step_changes_nothing(stepped, bad_b, error):
    """The bad gradient is the later tensor's, so a step that checked each
    gradient only as it reached it would already have moved `a`."""
    params = {"a": np.array([1.0]), "b": np.array([2.0, 3.0])}
    opt = AdamW(lr=0.1)
    if stepped:
        opt.step(params, {"a": np.array([0.5]), "b": np.array([1.0, -1.0])})
    before = state_bytes(opt, params)
    with pytest.raises(error):
        opt.step(params, {"a": np.array([1.0]), "b": bad_b})
    assert state_bytes(opt, params) == before


def test_step_count_increments():
    opt = AdamW()
    params = {"w": np.zeros(1)}
    for expected in (1, 2, 3):
        opt.step(params, {"w": np.ones(1)})
        assert opt.step_count == expected


def test_state_round_trip():
    rng = np.random.default_rng(5)
    opt = AdamW(lr=2e-3, weight_decay=0.01)
    params = {"w": rng.standard_normal(3), "b": rng.standard_normal(2)}
    for _ in range(4):
        opt.step(params, {k: rng.standard_normal(v.shape) for k, v in params.items()})
    clone = replace(opt, m={k: b.copy() for k, b in opt.m.items()},
                    v={k: b.copy() for k, b in opt.v.items()})
    p1 = {k: v.copy() for k, v in params.items()}
    p2 = {k: v.copy() for k, v in params.items()}
    g = {k: rng.standard_normal(v.shape) for k, v in params.items()}
    opt.step(p1, {k: v.copy() for k, v in g.items()})
    clone.step(p2, {k: v.copy() for k, v in g.items()})
    for k in params:
        np.testing.assert_array_equal(p1[k], p2[k])


def test_determinism():
    rng = np.random.default_rng(9)
    grads = [rng.standard_normal(4) for _ in range(10)]

    def run():
        params = {"w": np.linspace(-1, 1, 4)}
        opt = AdamW(lr=1e-2)
        for g in grads:
            opt.step(params, {"w": g.copy()})
        return params["w"]

    assert run().tobytes() == run().tobytes()
