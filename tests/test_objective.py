import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from eqmatch import ndtensor as nd
from eqmatch.config import RunConfig, ValidationError
from eqmatch.model import ModelConfig, energy, init_model
from eqmatch.objective import (OBJECTIVES, ObjectiveError, TrainBatch, check_pairing,
                               corrupt, draw_batch, gradient_target, loss_and_gradients,
                               loss_for)
from eqmatch.optimizer import AdamW
from eqmatch.schedule import Schedule
from conftest import (assert_fails_as_the_tape, assert_raises_as_the_tape,
                      central_difference, outcome, rel_err, scale_by_powers_of_two)
from test_model import EXPONENTS, X_EXPONENTS, hide_an_inf, random_model

LINEAR = Schedule(kind="linear")
CONST = Schedule(kind="constant")
TRUNC4 = Schedule(kind="truncated", a=0.8, lam=4.0)


def batch_of(rng, n=6, d=2, labels=None):
    return draw_batch(rng, rng.standard_normal((n, d)), labels=labels)


def fresh_model(**kw):
    cfg = dict(input_dim=2, hidden=(8, 8), activation="silu", init_seed=5)
    cfg.update(kw)
    return init_model(ModelConfig(**cfg))


# ---------------------------------------------------------------------------
# corruption and targets


def test_corrupt_endpoints():
    x = np.array([[2.0, 0.0]])
    eps = np.array([[0.0, 2.0]])
    np.testing.assert_array_equal(corrupt(x, eps, np.array([1.0])), x)
    np.testing.assert_array_equal(corrupt(x, eps, np.array([0.0])), eps)


def test_corrupt_midpoint():
    got = corrupt([[2.0, 0.0]], [[0.0, 2.0]], np.array([0.5]))
    np.testing.assert_array_equal(got, [[1.0, 1.0]])


def test_corrupt_shape_mismatch():
    with pytest.raises(ObjectiveError):
        corrupt(np.zeros((2, 2)), np.zeros((3, 2)), np.array([0.5, 0.5]))


def test_target_zero_at_gamma_one():
    for sched in (LINEAR, TRUNC4, Schedule(kind="piecewise", a=0.8, b=1.4)):
        t = gradient_target(np.ones((4, 2)), np.zeros((4, 2)), np.ones(4), sched)
        np.testing.assert_array_equal(t, np.zeros((4, 2)))


def test_target_direction_at_gamma_zero():
    t = gradient_target([[1.0, 0.0]], [[0.0, 0.0]], np.array([0.0]), LINEAR)
    np.testing.assert_array_equal(t, [[-1.0, 0.0]])


def test_target_plateau_value():
    t = gradient_target([[1.0, 0.0]], [[0.0, 0.0]], np.array([0.5]), TRUNC4)
    np.testing.assert_array_equal(t, [[-4.0, 0.0]])


def test_batch_validation():
    with pytest.raises(ObjectiveError, match="gamma"):
        TrainBatch(x=np.zeros((3, 2)), eps=np.zeros((3, 2)), gamma=np.array([0.5, 2.0, 0.1]))
    with pytest.raises(ObjectiveError, match="per-sample"):
        TrainBatch(x=np.zeros((3, 2)), eps=np.zeros((3, 2)), gamma=np.array(0.5))


# ---------------------------------------------------------------------------
# losses


def test_eqm_loss_zero_on_exact_fit(rng):
    # zero-init model output is identically zero; make the target zero too
    m = fresh_model()
    b = batch_of(rng)
    b.gamma = np.ones_like(b.gamma)
    assert loss_for("eqm", m, b, LINEAR).item() == 0.0


def test_eqm_loss_equals_mean_target_square_for_zero_model(rng):
    m = fresh_model()
    b = batch_of(rng)
    target = gradient_target(b.x, b.eps, b.gamma, LINEAR)
    assert loss_for("eqm", m, b, LINEAR).item() == pytest.approx(np.mean(target ** 2), rel=1e-12)


def test_eqm_rejects_non_equilibrium_without_override(rng):
    m = fresh_model()
    b = batch_of(rng)
    with pytest.raises(ObjectiveError, match="vanish"):
        loss_for("eqm", m, b, CONST)
    assert loss_for("eqm", m, b, CONST, allow_non_equilibrium=True).item() >= 0.0


def test_eqm_rejects_energy_models(rng):
    m = fresh_model(energy_kind="dot")
    with pytest.raises(ObjectiveError, match="implicit"):
        loss_for("eqm", m, batch_of(rng), LINEAR)


def test_uncond_fm_is_eqm_with_constant_schedule():
    """The unconditional flow-matching baseline is eqm under the constant
    schedule: it matches f(x_gamma) to the velocity eps - x itself."""
    for seed in range(50):
        rng = np.random.default_rng(seed)
        m = fresh_model(init_seed=seed)
        m.params["layers.2.w"] = 0.5 * rng.standard_normal((8, 2))
        m.params["layers.2.b"] = 0.1 * rng.standard_normal(2)
        b = batch_of(rng, n=16)
        out = m.forward_values(corrupt(b.x, b.eps, b.gamma))
        assert loss_for("eqm", m, b, CONST, allow_non_equilibrium=True).item() == \
            pytest.approx(np.mean((out - (b.eps - b.x)) ** 2), rel=1e-12)


def test_fm_target_is_velocity_not_zero_at_gamma_one(rng):
    """The flow-matching baseline is eqm under the constant schedule: its
    target at the data end is the velocity eps - x, not zero."""
    m = fresh_model()
    b = batch_of(rng)
    b.gamma = np.ones_like(b.gamma)
    fm = loss_for("eqm", m, b, CONST, allow_non_equilibrium=True).item()
    eq = loss_for("eqm", m, b, LINEAR).item()
    assert eq == 0.0 and fm == pytest.approx(np.mean((b.x - b.eps) ** 2), rel=1e-12)


def test_fm_loss_conditioning_contracts(rng):
    """The time-conditioned flow-matching baseline (a noise-conditioned model,
    constant schedule) matches its output at noise level gamma to eps - x."""
    m = fresh_model(noise_conditioned=True)
    m.params["layers.2.w"] = 0.5 * rng.standard_normal((8, 2))
    b = batch_of(rng, n=16)
    out = m.forward_values(corrupt(b.x, b.eps, b.gamma), noise_level=b.gamma)
    loss = loss_for("eqm", m, b, CONST, allow_non_equilibrium=True).item()
    assert loss == pytest.approx(np.mean((out - (b.eps - b.x)) ** 2), rel=1e-12)


def test_eqme_loss_zero_when_gradient_matches(rng):
    """Identity-field dot energy has gradient 2x at the corrupted point; with
    gamma=0 and x = -eps the target (eps - x) is exactly that gradient."""
    from test_model import identity_model
    m = identity_model("dot")
    eps = rng.standard_normal((4, 2))
    b = TrainBatch(x=-eps, eps=eps, gamma=np.zeros(4), labels=None)
    loss = loss_for("eqm-e", m, b, CONST, allow_non_equilibrium=True)
    assert loss.item() == pytest.approx(0.0, abs=1e-24)


def test_eqme_requires_energy_head(rng):
    with pytest.raises(ObjectiveError, match="energy"):
        loss_for("eqm-e", fresh_model(), batch_of(rng), LINEAR)


def test_eqme_parameter_gradients_match_fd():
    """Second-order path: gradients of the gradient-matching loss vs FD."""
    rng = np.random.default_rng(42)
    m = fresh_model(energy_kind="dot", hidden=(8,), init_seed=7)
    m.params["layers.1.w"] = 0.5 * rng.standard_normal((8, 2))
    b = batch_of(rng, n=3)

    loss = loss_for("eqm-e", m, b, LINEAR)
    grads = nd.backward(loss)
    bound = m._bind(loss.graph)
    for name in m.params:
        def fn(v, _name=name):
            saved = m.params[_name]
            m.params[_name] = v
            try:
                return loss_for("eqm-e", m, b, LINEAR).item()
            finally:
                m.params[_name] = saved

        want = central_difference(fn, m.params[name])
        got = nd.grad_values(grads, bound[name])
        assert rel_err(got, want) < 1e-4, name


@pytest.mark.parametrize("kind", ["dot", "l2norm"])
def test_eqme_smoke_training_reduces_loss(kind):
    """200 optimizer steps on one fixed point must cut the loss."""
    rng = np.random.default_rng(0)
    m = fresh_model(energy_kind=kind, init_seed=1)
    # break the zero init so the l2norm construction has signal to shape
    m.params["layers.2.w"] = 0.3 * rng.standard_normal((8, 2))
    opt = AdamW(lr=1e-2)
    x = np.array([[1.0, -0.5]])
    first = None
    for step in range(200):
        b = TrainBatch(x=x, eps=rng.standard_normal((1, 2)),
                       gamma=rng.uniform(0, 1, 1))
        loss = loss_for("eqm-e", m, b, LINEAR)
        if first is None:
            first = loss.item()
        grads = nd.backward(loss)
        bound = m._bind(loss.graph)
        opt.step(m.params, {k: nd.grad_values(grads, bound[k]) for k in m.params})
    last_rng = np.random.default_rng(123)
    b = TrainBatch(x=x, eps=last_rng.standard_normal((1, 2)),
                   gamma=last_rng.uniform(0, 1, 1))
    assert loss_for("eqm-e", m, b, LINEAR).item() < first


def test_loss_for_dispatch(rng):
    b = batch_of(rng)
    assert loss_for("eqm", fresh_model(), b, LINEAR).item() >= 0.0
    assert loss_for("eqm-e", fresh_model(energy_kind="dot"), b, LINEAR).item() >= 0.0
    assert OBJECTIVES == ("eqm", "eqm-e")
    for objective in ("score", "fm", "uncond-fm"):
        with pytest.raises(ObjectiveError, match="unknown objective"):
            loss_for(objective, fresh_model(), b, LINEAR)


def test_conditional_model_needs_labels(rng):
    m = fresh_model(num_classes=3)
    with pytest.raises(ObjectiveError, match="labels"):
        loss_for("eqm", m, batch_of(rng), LINEAR)
    b = batch_of(rng, labels=np.array([0, 1, 2, 0, 1, 2]))
    assert loss_for("eqm", m, b, LINEAR).item() >= 0.0


def tape_loss_and_gradients(m, b, sched, allow_non_equilibrium=False, objective="eqm"):
    loss = loss_for(objective, m, b, sched, allow_non_equilibrium)
    grads = nd.backward(loss)
    return loss.item(), {name: nd.grad_values(grads, leaf)
                         for name, leaf in m._bind(loss.graph).items()}


def assert_same_bits(got_loss, got, want_loss, want, names):
    assert np.float64(got_loss).tobytes() == np.float64(want_loss).tobytes()
    assert list(got) == list(want) == list(names)
    for name, g in got.items():
        assert g.shape == want[name].shape and g.tobytes() == want[name].tobytes()


def off_tape_twice(objective, m, b, sched):
    """`loss_and_gradients` twice on the same inputs: the second call returns
    the first one's bits, and the batch and the parameters stay
    bit-unchanged (each chain consumes only its own buffers)."""
    inputs = [b.x, b.eps, b.gamma, *([] if b.labels is None else [b.labels]),
              *m.params.values()]
    before = [a.tobytes() for a in inputs]
    loss, grads = loss_and_gradients(objective, m, b, sched, True)
    again_loss, again = loss_and_gradients(objective, m, b, sched, True)
    assert [a.tobytes() for a in inputs] == before
    assert_same_bits(again_loss, again, loss, grads, m.params)
    return loss, grads


def assert_the_tape_fails_first(objective, m, b, sched, op):
    """The tape raises NonFiniteError at `op` first, on a product that the
    pass does not make, since no gradient it returns uses it. The pass then
    returns a finite loss and finite gradients."""
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(nd.NonFiniteError) as tape:
        tape_loss_and_gradients(m, b, sched, objective=objective)
    assert str(tape.value) == f"non-finite values produced by op '{op}'"
    loss, grads = loss_and_gradients(objective, m, b, sched)
    assert np.isfinite(loss) and all(nd.all_finite(g) for g in grads.values())


def failed_step(objective, m, b, sched) -> str:
    """The message of a step whose pass raises where the tape raises
    (`assert_raises_as_the_tape`)."""
    return assert_raises_as_the_tape(
        lambda: loss_and_gradients(objective, m, b, sched),
        lambda: tape_loss_and_gradients(m, b, sched, objective=objective))


def non_finite(place: str) -> str:
    return f"non-finite values produced by {place}"


class TestLossAndGradients:
    """loss_and_gradients trains both objectives off the tape; loss_for +
    nd.backward is its oracle."""

    @settings(max_examples=60, deadline=None)
    @given(classes=st.sampled_from([0, 3]), noise=st.booleans(),
           n=st.sampled_from([1, 7, 9, 64]),
           hidden=st.sampled_from([(256, 256, 256), (16,), (64, 64)]),
           sched=st.sampled_from([TRUNC4, CONST]), seed=st.integers(0, 2**32 - 1))
    def test_bits_equal_the_tape(self, classes, noise, n, hidden, sched, seed):
        cfg = ModelConfig(hidden=hidden, num_classes=classes, noise_conditioned=noise)
        m = random_model(cfg, seed)
        rng = np.random.default_rng(seed + 1)
        labels = rng.integers(0, classes, n) if classes else None
        b = draw_batch(rng, 2.0 * rng.standard_normal((n, 2)), labels=labels)
        want_loss, want = tape_loss_and_gradients(m, b, sched, True)
        got_loss, got = off_tape_twice("eqm", m, b, sched)
        assert_same_bits(got_loss, got, want_loss, want, m.params)

    @settings(max_examples=60, deadline=None)
    @given(head=st.sampled_from(["dot", "l2norm"]), classes=st.sampled_from([0, 3]),
           n=st.sampled_from([1, 7, 9, 64]),
           hidden=st.sampled_from([(256, 256, 256), (16,), (64, 64)]),
           sched=st.sampled_from([TRUNC4, CONST]), seed=st.integers(0, 2**32 - 1))
    def test_eqm_e_bits_equal_the_tape(self, head, classes, n, hidden, sched, seed):
        cfg = ModelConfig(hidden=hidden, num_classes=classes, energy_kind=head)
        m = random_model(cfg, seed)
        rng = np.random.default_rng(seed + 1)
        labels = rng.integers(0, classes, n) if classes else None
        b = draw_batch(rng, 2.0 * rng.standard_normal((n, 2)), labels=labels)
        want_loss, want = tape_loss_and_gradients(m, b, sched, True, "eqm-e")
        got_loss, got = off_tape_twice("eqm-e", m, b, sched)
        assert_same_bits(got_loss, got, want_loss, want, m.params)

    @pytest.mark.parametrize("objective, head, limit_mib", [
        ("eqm", "none", 2.3), ("eqm-e", "dot", 5.0), ("eqm-e", "l2norm", 5.0)])
    def test_each_chain_consumes_what_it_reads(self, objective, head, limit_mib):
        """At batch 64 on the default widths, each backward chain pops the
        layers and adjoints it has read and sums into buffers it owns: the
        whole pass peaks at 1.64 MiB (eqm) and 4.52 MiB (eqm-e), against
        2.77 and 6.28-6.41 MiB while every buffer lived until the chain
        returned."""
        m = random_model(ModelConfig(energy_kind=head), 0)
        rng = np.random.default_rng(1)
        b = draw_batch(rng, rng.standard_normal((64, 2)))
        loss_and_gradients(objective, m, b, TRUNC4)  # first-call costs are not the pass's
        tracemalloc.start()
        try:
            loss_and_gradients(objective, m, b, TRUNC4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < limit_mib * 2**20

    @pytest.mark.parametrize("case", ["leaf", "matmul", "add", "nan input", "label",
                                      "hidden inf", "hidden -inf", "backward matmul",
                                      "backward mul", "first-layer backward mul",
                                      "schedule", "no labels", "energy head"])
    def test_errors_equal_the_tape(self, case):
        """Where the tape raises, the pass raises with no warning, except in
        `backward matmul`: there the first overflow is layer 0's input
        gradient, which the tape makes and checks but no parameter gradient
        uses, so the pass does not make it and returns finite gradients. A
        failed precondition or label raises the tape's error; a NaN or Inf
        raises a NonFiniteError naming the scan that found it: the forward
        pass's output (layer 2), or the first gradient scanned from the
        output down."""
        head = "dot" if case == "energy head" else "none"
        m = random_model(ModelConfig(hidden=(8, 8), num_classes=3, energy_kind=head), 0)
        x, eps = np.ones((5, 2)), np.ones((5, 2))
        labels, sched = np.array([0, 1, 2, 0, 1]), TRUNC4
        if case == "leaf":
            m.params["layers.1.b"][3] = np.inf
        elif case == "matmul":
            m.params["layers.0.w"][:] = 1e308
        elif case == "add":
            m.params["layers.0.w"][:] = 0.5e308
            m.params["layers.0.b"][:] = 1e308
        elif case == "nan input":
            x[2, 1] = np.nan
        elif case == "label":
            labels[4] = 3
        elif case in ("hidden inf", "hidden -inf"):
            hide_an_inf(m.params, -1.0 if case == "hidden -inf" else 1.0)
        elif case == "backward matmul":
            # layer 0 is finite on tiny inputs; only its input gradient overflows
            x, eps = np.full((5, 2), 1e-300), np.full((5, 2), 1e-300)
            m.params["layers.0.w"][:] = 1e308
        elif case == "backward mul":
            # SiLU at -1e160 outputs -0, so the huge last layer sees nothing
            # going forward but scales the gradient going back
            m.params["layers.0.w"][:] = 0.0
            m.params["layers.0.b"][:] = 1.0
            m.params["label_embed"][:] = 0.0
            m.params["layers.1.w"][:] = -1e160
            m.params["layers.2.w"][:] = 1e200
        elif case == "first-layer backward mul":
            # the same at layer 0: it outputs -0 into the 1e160 layer 1, whose
            # gradient meets layer 0's -1e160 pre-activation in SiLU's g * pre
            m.params["layers.0.w"][:] = m.params["label_embed"][:] = 0.0
            m.params["layers.0.b"][:] = -1e160
            m.params["layers.1.w"][:] = 1e160
            m.params["layers.1.b"][:] = 1.0
        elif case == "schedule":
            sched = CONST
        elif case == "no labels":
            labels = None
        b = TrainBatch(x=x, eps=eps, gamma=np.full(5, 0.5), labels=labels)
        if "backward" in case:
            with np.errstate(over="ignore"):
                loss_for("eqm", m, b, sched)  # the forward pass is finite
        if case == "backward matmul":
            assert_the_tape_fails_first("eqm", m, b, sched, "matmul")
            return
        message = failed_step("eqm", m, b, sched)
        place = {"leaf": "op 'leaf' at layers.1.b", "nan input": "op 'constant' at the input",
                 "backward mul": "op 'reduce_leading' in the gradient of layers.1.b",
                 "first-layer backward mul":
                     "op 'matmul' in the gradient of label_embed"}.get(
            case, "op 'add' in layer 2")
        if case not in ("label", "schedule", "no labels", "energy head"):
            assert message == non_finite(place)

    @pytest.mark.parametrize("case", ["leaf", "matmul", "add", "nan input", "label",
                                      "weight gradient", "schedule", "no labels",
                                      "no energy head", "hidden inf", "hidden -inf"])
    def test_eqm_e_errors_equal_the_tape(self, case):
        """As `test_errors_equal_the_tape`, for eqm-e with a dot head."""
        head = "none" if case == "no energy head" else "dot"
        m = random_model(ModelConfig(hidden=(8, 8), num_classes=3, energy_kind=head), 0)
        x, eps = np.ones((5, 2)), np.ones((5, 2))
        labels, sched = np.array([0, 1, 2, 0, 1]), TRUNC4
        if case == "leaf":
            m.params["layers.1.b"][3] = np.inf
        elif case == "matmul":
            m.params["layers.0.w"][:] = 1e308
        elif case == "add":
            m.params["layers.0.w"][:] = 0.5e308
            m.params["layers.0.b"][:] = 1e308
        elif case == "nan input":
            x[2, 1] = np.nan
        elif case == "label":
            labels[4] = 3
        elif case == "weight gradient":
            # SiLU outputs 1e308 into a tiny last layer, so the forward pass is
            # finite. The tape's first backward overflows first, in the last
            # layer's weight gradient, which sums five of them. The pass does
            # not make that gradient; it overflows in the double backward's
            # product of the same five with the loss gradient, also a matmul.
            m.params["layers.1.w"][:] = 0.0
            m.params["layers.1.b"][:] = 1e308
            m.params["layers.2.w"] *= 1e-300
        elif case == "schedule":
            sched = CONST
        elif case == "no labels":
            labels = None
        elif case in ("hidden inf", "hidden -inf"):
            hide_an_inf(m.params, -1.0 if case == "hidden -inf" else 1.0)
        b = TrainBatch(x=x, eps=eps, gamma=np.full(5, 0.5), labels=labels)
        if case == "weight gradient":
            energy(m, corrupt(x, eps, b.gamma), labels)  # the forward pass is finite
        message = failed_step("eqm-e", m, b, sched)
        place = {"leaf": "op 'leaf' at layers.1.b", "nan input": "op 'constant' at the input",
                 "weight gradient": "op 'add' in the gradient of layers.2.w"}.get(
            case, "op 'add' in layer 2")
        if case not in ("label", "schedule", "no labels", "no energy head"):
            assert message == non_finite(place)

    @pytest.mark.parametrize("classes", [3, 0], ids=["labelled", "unlabelled"])
    @pytest.mark.parametrize("head", ["dot", "l2norm"])
    @pytest.mark.parametrize("phase", ["first backward", "second backward",
                                       "head adjoint", "output adjoint"])
    def test_eqm_e_backward_errors_equal_the_tape(self, phase, head, classes):
        """Overflows that first appear past the forward pass, for each head,
        with and without a label embedding (zero where it matters, so both
        models give the same values). The second backward reaches SiLU's own
        checks. The head adjoint overflows first in each head's adjoint of
        the tape's ones: dot's `v * x`, l2norm's `v * f`. No parameter
        gradient uses those, so the pass does not make them. On dot the pass
        then returns finite gradients. On l2norm the output's adjoint
        `v * 2 * -0.5` is as large as `v`, and the last layer's input
        gradient carries it into every lower layer's gradients, so the pass
        fails, and the tape raises its `v * f`. With a target 8 times as
        far, the output adjoint overflows too: the tape's first failure is
        the matmul that makes `v`, and so is l2norm's; dot makes no `v` at
        the output (only x's adjoint uses it), and overflows in the next
        matmul, the last layer's `g.T @ g_pre`. The pass names the first
        scanned value the overflow reaches: the field in the first
        backward, the last layer's gradients where the output adjoint
        overflows, and else layer 1's bias gradient.
        Weights, biases and inputs that are powers of two keep each product
        exact, so the sizes below hold."""
        m = random_model(ModelConfig(hidden=(8, 8), num_classes=classes,
                                     energy_kind=head), 0)
        p, tiny = m.params, 2.0 ** -1000
        if phase == "first backward":
            # layer 1 outputs 0, so the output is the bias 1e100 and finite;
            # the 1e100 gradient at the output meets the 1e250 last layer
            p["layers.1.w"][:] = p["layers.1.b"][:] = 0.0
            p["layers.2.w"] *= 1e250
            p["layers.2.b"][:] = 1e100
            x = eps = np.full((5, 2), 1e100)
        elif phase == "second backward":
            # Layer 1 sits at -800: SiLU outputs 0 at slope 0, so the field
            # (dot: the output, about 2^504; l2norm: 0)
            # and the loss are finite. The gradient u at layer 1's output is
            # 2^522 (dot: x_t's 2^22 times the last layer's 2^500) or about
            # 2^1004 (l2norm: the output times the last layer). The adjoint v
            # there grows with the loss gradient (dot: about 2^502 from the
            # output; l2norm: 1.6 * 2^16 from the target), and v * u
            # overflows.
            w2 = 2.0 ** 500
            if classes:
                p["label_embed"][:] = 0.0
            p["layers.0.w"][:] = [[1.0], [0.0]]
            p["layers.1.w"][:] = 1.0
            p["layers.2.w"][:] = [w2, -w2]
            p["layers.0.b"][:], p["layers.1.b"][:] = tiny, -800.0
            p["layers.2.b"][:] = [16 * w2, -16 * w2]
            x = np.tile([-2.0 ** 16, 2.0 ** 22], (5, 1))
            eps = np.tile([2.0 ** 16, 2.0 ** 22], (5, 1))
        else:
            # Every weight is t = 2^254 and the hidden pre-activations are
            # tiny, so SiLU has slope 1/2. x_t = (t, -t) meets equal rows, and
            # the output (2^34, -2^34) equal columns, so the first backward
            # is 0. The target 8t's loss gradient reaches the output's adjoint
            # as v = 51.2 * 2^1016 = 3.6e307: dot's v * x overflows, or
            # l2norm's v * f.
            t = 2.0 ** 254
            if classes:
                p["label_embed"][:] = 0.0
            for i in range(3):
                p[f"layers.{i}.w"][:] = t
            p["layers.0.b"][:] = p["layers.1.b"][:] = tiny
            p["layers.2.b"][:] = [2.0 ** 34, -2.0 ** 34]
            k = 8.0 if phase == "output adjoint" else 1.0  # x_t stays on the zero line
            x, eps = np.tile([0.0, -2 * k * t], (5, 1)), np.tile([2 * k * t, 0.0], (5, 1))
        labels = np.array([0, 1, 2, 0, 1]) if classes else None
        b = TrainBatch(x=x, eps=eps, gamma=np.full(5, 0.5), labels=labels)
        if phase == "first backward":
            energy(m, corrupt(x, eps, b.gamma), labels)  # the forward pass is finite
        else:
            loss_for("eqm-e", m, b, TRUNC4)  # so are the first backward and the loss
        if phase == "head adjoint" and head == "dot":
            assert_the_tape_fails_first("eqm-e", m, b, TRUNC4, "mul")
            return
        message = failed_step("eqm-e", m, b, TRUNC4)
        place = {"first backward": {"dot": "op 'add' in layer 0's input gradient",
                                    "l2norm": "op 'matmul' in layer 0's input gradient"},
                 "output adjoint": {"dot": "op 'add' in the gradient of layers.2.w",
                                    "l2norm": "op 'reduce_leading' in the gradient of "
                                              "layers.2.b"}}
        assert message == non_finite(place.get(phase, {}).get(
            head, "op 'reduce_leading' in the gradient of layers.1.b"))

    @settings(max_examples=150, deadline=None)
    @given(case=st.sampled_from([("eqm", "none"), ("eqm-e", "dot"), ("eqm-e", "l2norm")]),
           exponents=st.lists(EXPONENTS, min_size=7, max_size=7), x_exponent=X_EXPONENTS,
           seed=st.integers(0, 2**32 - 1))
    def test_scaled_parameters_keep_the_contract(self, case, exponents, x_exponent,
                                                 seed):
        """Parameters scaled by 2^k, k in [0, 1000], and data by 2^j overflow
        anywhere in a step. Wherever the tape returns, the pass returns its
        bits; wherever the pass raises, the tape raises too, a NonFiniteError
        that the pass names by its own scan; wherever the pass returns, its
        loss and gradients are finite. The pass may return where the tape
        raises, on a product that no returned gradient uses."""
        objective, head = case
        m = random_model(ModelConfig(hidden=(8, 8), num_classes=3, energy_kind=head), seed)
        scale_by_powers_of_two(m.params, exponents)
        rng = np.random.default_rng(seed + 1)
        b = draw_batch(rng, 2.0 ** x_exponent * rng.standard_normal((5, 2)),
                       labels=rng.integers(0, 3, 5))
        want, tape_error = outcome(
            lambda: tape_loss_and_gradients(m, b, TRUNC4, objective=objective))
        got, pass_error = outcome(lambda: loss_and_gradients(objective, m, b, TRUNC4))
        if tape_error is None:
            assert pass_error is None
            assert_same_bits(*got, *want, m.params)
        elif pass_error is None:
            loss, grads = got
            assert np.isfinite(loss) and all(nd.all_finite(g) for g in grads.values())
        else:
            assert_fails_as_the_tape(pass_error, tape_error)

    @pytest.mark.parametrize("hidden, counts", [((256, 256, 256), (20, 21, 16)),
                                                ((16,), (12, 13, 12)),
                                                ((64, 64), (16, 17, 14))],
                             ids=["3 layers", "1 layer", "2 layers"])
    def test_finite_passes_scan_only_their_boundaries(self, monkeypatch, hidden,
                                                      counts):
        """`nd.check_finite` calls in a finite eqm step, eqm-e (dot) step and
        n=1000 forward. A pass scans what enters it and what leaves it, so
        the counts grow with the number of parameters P, not with the layers'
        inner ops. An eqm step scans the input, P parameters, the output, the
        target, the loss and P gradients (2P + 4). An eqm-e step scans x,
        P parameters, the output, the field, the target, the loss and P
        gradients (2P + 5). A forward pass scans the input, P parameters and
        the output of each of its 7 row blocks (P + 8; P + 14 while each
        block scanned its own input). The default three hidden layers have
        P = 8."""
        calls, check_finite = [], nd.check_finite

        def counted(values, op, place=""):
            calls.append(op)
            check_finite(values, op, place)

        monkeypatch.setattr(nd, "check_finite", counted)
        rng = np.random.default_rng(0)
        got = []
        for objective, head in (("eqm", "none"), ("eqm-e", "dot")):
            m = random_model(ModelConfig(hidden=hidden, energy_kind=head), 1)
            calls.clear()
            loss_and_gradients(objective, m, batch_of(rng, n=64), TRUNC4)
            got.append(len(calls))
        calls.clear()
        random_model(ModelConfig(hidden=hidden), 2).forward_values(
            rng.standard_normal((1000, 2)))
        assert (*got, len(calls)) == counts

    @pytest.mark.parametrize("objective, head", [("eqm", "none"), ("eqm-e", "dot"),
                                                 ("eqm-e", "l2norm")])
    def test_empty_batch_raises_the_tapes_error(self, objective, head):
        m = random_model(ModelConfig(hidden=(8, 8), energy_kind=head), 0)
        b = TrainBatch(x=np.zeros((0, 2)), eps=np.zeros((0, 2)), gamma=np.zeros(0))
        with pytest.raises(nd.ShapeMismatchError) as error:
            loss_and_gradients(objective, m, b, TRUNC4)
        assert str(error.value) == "op 'mean': empty tensor"


def test_run_config_states_the_same_pairing_rules():
    """RunConfig.validate accepts exactly the objective/model pairs that
    loss_for trains, and rejects the rest with the same message."""
    for objective in OBJECTIVES:
        for kw in ({}, {"energy_kind": "dot"}, {"noise_conditioned": True}):
            mc = ModelConfig(input_dim=2, hidden=(8,), **kw)
            cfg = RunConfig(objective=objective, model=mc)
            try:
                check_pairing(objective, mc)
            except ObjectiveError as e:
                with pytest.raises(ValidationError) as got:
                    cfg.validate()
                assert str(got.value) == str(e)
            else:
                cfg.validate()
