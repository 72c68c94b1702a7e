import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from eqmatch.config import from_dict, to_dict
from eqmatch.model import INFERENCE_ROWS, ModelConfig, init_model
from eqmatch.ndtensor import NonFiniteError
from eqmatch.objective import corrupt
from eqmatch.sampler import (BLAS_ROW_BLOCK, METHODS, ComposedField, ModelField,
                             SamplerConfig, _eval_field, _subset_rows, as_field,
                             calibrate_g_min, sample, save_trajectory_csv)
from test_model import identity_model


def linear_field(x, progress=0.0):  # energy 0.5 ||x||^2
    return x


def zero_field(x, progress=0.0):
    return np.zeros_like(x)


def cfg(**kw):
    return SamplerConfig(**kw)


class TestConfigValidation:
    def test_method_names(self):
        assert METHODS == ("gd", "adaptive")
        for method in ("langevin", "nag", "euler-ode"):
            with pytest.raises(ValueError, match="method"):
                cfg(method=method)

    def test_adaptive_needs_g_min(self):
        with pytest.raises(ValueError, match="g_min"):
            cfg(method="adaptive")

    @pytest.mark.parametrize("g_min", [0.0, -1.0, np.inf, np.nan])
    def test_adaptive_needs_a_finite_positive_g_min(self, g_min):
        with pytest.raises(ValueError, match=f"finite g_min > 0, got g_min={g_min}"):
            cfg(method="adaptive", g_min=g_min)

    def test_g_min_only_for_adaptive(self):
        with pytest.raises(ValueError, match="g_min"):
            cfg(method="gd", g_min=0.1)

    def test_every_method_takes_mu(self):
        cfg(method="gd", mu=0.35)
        cfg(method="adaptive", g_min=0.1, mu=0.35)
        with pytest.raises(ValueError, match="mu"):
            cfg(mu=-0.1)

    def test_negative_eta_rejected(self):
        with pytest.raises(ValueError, match="eta"):
            cfg(eta=-0.1)

    def test_round_trip(self):
        c = cfg(method="adaptive", g_min=0.25, mu=0.35, max_steps=400)
        assert from_dict(SamplerConfig, to_dict(c)) == c


class TestGradOf:
    def test_implicit_model_equals_forward(self, rng):
        m = init_model(ModelConfig(input_dim=2, hidden=(8,), init_seed=2))
        m.params["layers.1.w"] = rng.standard_normal((8, 2))
        x = rng.standard_normal((5, 2))
        np.testing.assert_array_equal(ModelField(m)(x), m.forward_values(x))

    def test_dot_energy_identity_gives_2x(self, rng):
        m = identity_model("dot")
        x = rng.standard_normal((4, 2))
        np.testing.assert_allclose(ModelField(m)(x), 2.0 * x, atol=1e-12)

    def test_composed_equals_sum_of_members(self, rng):
        f = ComposedField([linear_field, linear_field, zero_field])
        x = rng.standard_normal((7, 2))
        np.testing.assert_array_equal(f(x, 0.0), 2.0 * x)


class TestGD:
    def test_linear_field_closed_form(self, rng):
        x0 = rng.standard_normal((6, 2))
        eta, n = 0.125, 20
        traj = sample(linear_field, x0, cfg(eta=eta, steps=n))
        np.testing.assert_allclose(traj.final, (1.0 - eta) ** n * x0, rtol=1e-12)

    def test_zero_eta_returns_start(self, rng):
        x0 = rng.standard_normal((3, 2))
        traj = sample(linear_field, x0, cfg(eta=0.0, steps=10))
        np.testing.assert_array_equal(traj.final, x0)

    def test_zero_field_is_stationary(self, rng):
        x0 = rng.standard_normal((3, 2))
        traj = sample(zero_field, x0, cfg(eta=0.7, steps=50))
        np.testing.assert_array_equal(traj.final, x0)

    def test_records_states_and_norms(self, rng):
        x0 = rng.standard_normal((2, 2))
        traj = sample(linear_field, x0, cfg(eta=0.1, steps=5), record=True)
        assert len(traj.states) == 6 and len(traj.grad_norms) == 5

    def test_non_finite_state_reports_step(self):
        def exploding(x, progress):
            return np.full_like(x, 1e308)

        with np.errstate(over="ignore"), pytest.raises(NonFiniteError, match="step"):
            sample(exploding, np.ones((1, 2)), cfg(eta=10.0, steps=5))


class TestNAG:
    """Nesterov look-ahead: gd with mu > 0."""

    def test_mu_zero_bitwise_equals_gd(self, rng):
        """mu = 0 takes no look-ahead arithmetic: the loop is plain descent
        x <- x - eta * grad(x), bit for bit."""
        x0 = rng.standard_normal((4, 2))
        x = x0.copy()
        for _ in range(40):
            x = x - 0.05 * x
        a = sample(linear_field, x0, cfg(eta=0.05, mu=0.0, steps=40)).final
        assert a.tobytes() == x.tobytes()

    def test_first_step_equals_gd_for_any_mu(self, rng):
        x0 = rng.standard_normal((4, 2))
        a = sample(linear_field, x0, cfg(eta=0.1, mu=0.9, steps=1)).final
        b = sample(linear_field, x0, cfg(eta=0.1, steps=1)).final
        np.testing.assert_array_equal(a, b)

    def test_first_gradient_is_taken_at_x0_itself(self):
        """With mu == 0, and for adaptive, no look-ahead arithmetic touches x0,
        which would turn -0.0 into +0.0."""
        x0 = np.array([[-0.0, 2.0]])
        seen = []
        def spy(x, progress):
            seen.append(x.copy())
            return x

        for c in (cfg(eta=0.1, steps=2),
                  cfg(method="adaptive", eta=0.1, mu=0.35, g_min=0.01, max_steps=2)):
            seen.clear()
            sample(spy, x0, c)
            assert seen[0].tobytes() == x0.tobytes()

    def test_matches_hand_recurrence_on_quadratic(self, rng):
        """Five-line scalar oracle for the look-ahead recurrence."""
        eta, mu, n = 0.08, 0.35, 60
        x0 = rng.standard_normal((5, 2))
        x_prev, x = x0.copy(), x0.copy()
        for _ in range(n):
            look = x + mu * (x - x_prev)
            x_prev, x = x, x - eta * look
        traj = sample(linear_field, x0, cfg(eta=eta, mu=mu, steps=n))
        np.testing.assert_allclose(traj.final, x, atol=1e-12)


class TestEulerODE:
    """gd with mu = 0 read as forward Euler on the velocity v = -grad."""

    def test_unit_horizon(self, rng):
        """N steps of h=1/N integrate a constant velocity over total time 1."""
        c = np.array([0.3, -1.2])
        def const_field(x, progress):
            return -np.broadcast_to(c, x.shape)

        x0 = rng.standard_normal((4, 2))
        n = 125
        traj = sample(const_field, x0, cfg(eta=1.0 / n, steps=n))
        np.testing.assert_allclose(traj.final, x0 + c, atol=1e-12)

    def test_zero_step_size(self, rng):
        x0 = rng.standard_normal((3, 2))
        traj = sample(linear_field, x0, cfg(eta=0.0, steps=7))
        np.testing.assert_array_equal(traj.final, x0)

    @pytest.mark.parametrize("eta, steps, product", [(0.01, 250, "2.5"),
                                                     (0.02, 30, "0.6"), (0.5, 1, "0.5")])
    def test_a_time_dependent_field_needs_unit_time(self, rng, eta, steps, product):
        """Progress runs k/steps while x moves by eta, so a noise-conditioned
        model, trained on time 0 to 1, would integrate eta * steps units."""
        m = init_model(ModelConfig(input_dim=2, hidden=(8,), noise_conditioned=True))
        x0 = rng.standard_normal((2, 2))
        with pytest.raises(ValueError,
                           match=rf"eta={eta} \* steps={steps} = {product}"):
            sample(m, x0, cfg(eta=eta, steps=steps))
        assert np.all(np.isfinite(sample(m, x0, cfg(eta=1.0 / 3, steps=3)).final))


class TestAdaptive:
    def test_already_converged_takes_zero_steps(self):
        x0 = np.array([[1e-4, 0.0]])
        traj = sample(linear_field, x0,
                      cfg(method="adaptive", eta=0.1, g_min=0.01))
        assert traj.steps_used[0] == 0
        np.testing.assert_array_equal(traj.final, x0)

    def test_step_count_matches_closed_form(self):
        """|x_k| = (1-eta)^k |x0| on the linear field, so the stop step has a
        closed form."""
        eta, g = 0.25, 0.05
        for x0_val in (3.7, 1.3, 9.9):
            want = int(np.ceil(np.log(g / x0_val) / np.log(1.0 - eta)))
            traj = sample(linear_field, np.array([[x0_val, 0.0]]),
                          cfg(method="adaptive", eta=eta, g_min=g))
            assert traj.steps_used[0] == want, x0_val

    def test_per_sample_independent_stopping(self):
        x0 = np.array([[8.0, 0.0], [0.5, 0.0], [1e-6, 0.0]])
        traj = sample(linear_field, x0,
                      cfg(method="adaptive", eta=0.5, g_min=0.01))
        assert traj.steps_used[0] > traj.steps_used[1] > traj.steps_used[2] == 0
        assert not traj.cap_reached.any()

    def test_cap_flag_set_when_budget_exhausted(self):
        traj = sample(zero_field, np.full((2, 2), 5.0),
                      cfg(method="adaptive", eta=0.1, g_min=0.01, max_steps=3))
        # zero field never moves and never converges above... norm is 0 -> stops
        assert traj.steps_used.max() == 0
        def slow(x, progress):
            return np.full_like(x, 1.0)

        traj = sample(slow, np.full((2, 2), 5.0),
                      cfg(method="adaptive", eta=1e-6, g_min=0.5, max_steps=3))
        assert traj.cap_reached.all() and traj.steps_used.max() == 3

    def test_nag_lookahead_honored(self):
        """mu > 0 changes the adaptive path exactly like the fixed-step gd."""
        x0 = np.array([[4.0, -2.0]])
        c_ad = cfg(method="adaptive", eta=0.1, mu=0.35, g_min=1e-9, max_steps=25)
        traj = sample(linear_field, x0, c_ad)
        ref = sample(linear_field, x0, cfg(eta=0.1, mu=0.35, steps=25))
        assert traj.steps_used[0] == 25  # cap, g_min unreachable that fast
        np.testing.assert_array_equal(traj.final, ref.final)

    def test_rejects_time_dependent_field(self, rng):
        m = init_model(ModelConfig(input_dim=2, hidden=(8,), noise_conditioned=True))
        with pytest.raises(ValueError, match="time-invariant"):
            sample(m, rng.standard_normal((2, 2)),
                   cfg(method="adaptive", eta=0.1, g_min=0.1))


def seeded_mlp_field(seed: int) -> ModelField:
    m = init_model(ModelConfig(input_dim=2, hidden=(8,), init_seed=seed))
    m.params["layers.1.w"] = 0.5 * np.random.default_rng(seed).standard_normal((8, 2))
    return ModelField(m)


descent_cases = st.fixed_dictionaries({
    "seed": st.integers(0, 2**16),
    "n": st.integers(1, 6),
    "eta": st.floats(0.0, 0.3),
    "mu": st.floats(0.0, 0.9),
    "steps": st.integers(1, 12),
    "mlp": st.booleans(),
})


def start_and_field(case):
    """x0 from a seeded generator (no signed zeros), on the linear field or a
    seeded small MLP."""
    x0 = 2.0 * np.random.default_rng(case["seed"]).standard_normal((case["n"], 2))
    field = seeded_mlp_field(case["seed"] % 7) if case["mlp"] else linear_field
    return x0, field


class TestOneLoopProperties:
    @settings(max_examples=30, deadline=None)
    @given(descent_cases)
    def test_gd_nag_mu_zero_euler_bit_identical(self, case):
        """gd with mu = 0 is forward Euler x <- x + eta * v on the velocity
        v = -grad, bit for bit in every state and gradient norm."""
        x0, field = start_and_field(case)
        traj = sample(field, x0, cfg(eta=case["eta"], steps=case["steps"]), record=True)
        x, states, norms = x0.copy(), [x0.copy()], []
        for k in range(case["steps"]):
            v = -field(x, k / case["steps"])
            norms.append(np.linalg.norm(v, axis=1))
            x = x + case["eta"] * v
            states.append(x)
        assert [s.tobytes() for s in traj.states] == [s.tobytes() for s in states]
        assert [g.tobytes() for g in traj.grad_norms] == [g.tobytes() for g in norms]

    @settings(max_examples=30, deadline=None)
    @given(descent_cases)
    def test_adaptive_with_unreachable_g_min_is_nag(self, case):
        x0, field = start_and_field(case)
        ad = sample(field, x0, cfg(method="adaptive", eta=case["eta"], mu=case["mu"],
                                   g_min=np.finfo(float).tiny, max_steps=case["steps"]),
                    record=True)
        gd = sample(field, x0, cfg(eta=case["eta"], mu=case["mu"], steps=case["steps"]))
        assert ad.final.tobytes() == gd.final.tobytes()
        assert (ad.steps_used == case["steps"]).all() and ad.cap_reached.all()
        # one more gradient, at the end point, decided the cap
        assert len(ad.states) == len(ad.grad_norms) == case["steps"] + 1


def silu_256x3_field(energy_kind: str = "none") -> ModelField:
    """The default architecture with every weight and bias non-zero, so each
    matmul's BLAS path carries real bits."""
    m = init_model(ModelConfig(input_dim=2, hidden=(256, 256, 256), activation="silu",
                               energy_kind=energy_kind, init_seed=4))
    rng = np.random.default_rng(4)
    for name, p in m.params.items():
        if name.endswith(".b") or name == "layers.3.w":
            m.params[name] = 0.1 * rng.standard_normal(p.shape)
    return ModelField(m)


def full_batch_sample(field, x0, config: SamplerConfig) -> tuple:
    """The adaptive loop as it was before active-row evaluation: every step
    evaluates the whole batch. Kept as the oracle for the bit contract."""
    x = x_prev = np.array(x0, dtype=np.float64)
    n, budget = len(x), config.max_steps
    active = np.ones(n, dtype=bool)
    steps_used = np.zeros(n, dtype=np.int64)
    states, norms = [x.copy()], []
    for k in range(budget + 1):
        if config.mu == 0.0 or k == 0:
            look = x
        else:
            look = x + config.mu * (x - x_prev)
        g = _eval_field(field, look, k / budget, k)
        norms.append(np.linalg.norm(g, axis=1))
        active &= np.linalg.norm(g, axis=1) > config.g_min
        if k == budget or not active.any():
            break
        moving = active[:, None]
        x_prev = np.where(moving, x, x_prev)
        x = np.where(moving, x - config.eta * g, x)
        steps_used += active
        states.append(x.copy())
    return x, steps_used, active, states, norms


class TestActiveRows:
    """Adaptive sampling evaluates only the active rows; these pin that it
    gives the bits of evaluating the whole batch."""

    @pytest.fixture(scope="class")
    def field(self):
        return silu_256x3_field()

    @pytest.fixture(scope="class")
    def dot_field(self):
        return silu_256x3_field("dot")

    @pytest.mark.parametrize("head, n", [
        ("none", 37), ("none", 1000), ("none", 1001), ("none", 2000),
        ("dot", 1000), ("dot", 1001)],
        ids=["37", "1000", "1001", "2000", "dot-1000", "dot-1001"])
    def test_subset_rows_give_full_batch_bits(self, field, dot_field, head, n):
        """Row blocks keep every product of the default widths on one OpenBLAS
        kernel at any n. A whole-batch pass left it at 2000 rows (the output
        product) and, with a dot head, above 600 (the transposed layer-0
        product), where every subset here rounded differently."""
        field = dot_field if head == "dot" else field
        rng = np.random.default_rng(n)
        x = rng.standard_normal((n, 2))
        full = field(x)
        masks = []
        for k in range(1, 65):
            active = np.zeros(n, dtype=bool)
            active[rng.choice(n, min(k, n), replace=False)] = True
            masks.append(active)
        for row in (0, n - 1):  # a lone active row at either end
            active = np.zeros(n, dtype=bool)
            active[row] = True
            masks.append(active)
        subsets = 0
        for active in masks:
            idx = _subset_rows(active)
            if idx is None:
                continue
            subsets += 1
            assert active[idx].sum() == active.sum()
            assert len(idx) % BLAS_ROW_BLOCK == n % BLAS_ROW_BLOCK and len(idx) > 1
            assert set(range(n - n % BLAS_ROW_BLOCK, n)) <= set(idx.tolist())
            assert field(x[idx]).tobytes() == full[idx].tobytes()
        assert subsets >= 30

    def test_row_blocks_hold_whole_kernel_blocks(self):
        assert INFERENCE_ROWS % BLAS_ROW_BLOCK == 0

    def test_whole_batch_when_few_rows_are_frozen(self):
        active = np.ones(20, dtype=bool)
        assert _subset_rows(active) is None
        active[3] = False  # 19 rows, padded to 20 = n
        assert _subset_rows(active) is None

    @pytest.mark.parametrize("n", [37, 1001])
    @pytest.mark.parametrize("mu", [0.0, 0.35])
    def test_adaptive_equals_full_batch_loop(self, field, n, mu):
        def field_plus_linear(x, progress=0.0):  # descends toward the origin
            return x + field(x, progress)

        x0 = 2.0 * np.random.default_rng(n).standard_normal((n, 2))
        c = cfg(method="adaptive", eta=0.1, mu=mu, g_min=0.3, max_steps=25)
        traj = sample(field_plus_linear, x0, c, record=True)
        final, steps_used, cap, states, norms = full_batch_sample(field_plus_linear, x0, c)
        assert 0 < cap.sum() < n and len(set(steps_used.tolist())) > 5
        assert traj.final.tobytes() == final.tobytes()
        assert traj.steps_used.tobytes() == steps_used.tobytes()
        assert traj.cap_reached.tobytes() == cap.tobytes()
        assert [s.tobytes() for s in traj.states] == [s.tobytes() for s in states]
        assert [g.tobytes() for g in traj.grad_norms] == [g.tobytes() for g in norms]
        assert traj.points_evaluated.sum() < n * len(norms)

    def test_points_evaluated_counts_rows_given_to_the_field(self, rng):
        seen = []

        def counting(x, progress):
            seen.append(len(x))
            return x

        x0 = 3.0 * rng.standard_normal((50, 2))
        traj = sample(counting, x0, cfg(method="adaptive", eta=0.25, g_min=0.05))
        assert traj.points_evaluated.tolist() == seen
        assert seen[0] == 50 and min(seen) < 50
        seen.clear()
        traj = sample(counting, x0, cfg(eta=0.25, steps=7))
        assert traj.points_evaluated.tolist() == seen == [50] * 7


class TestCompose:
    def test_duplicate_model_doubles_gradient(self, rng):
        m = identity_model()
        f = ComposedField([m, m])
        x = rng.standard_normal((6, 2))
        np.testing.assert_array_equal(f(x, 0.0), 2.0 * x)

    def test_two_quadratics_share_midpoint_minimum(self):
        c1, c2 = np.array([2.0, 0.0]), np.array([0.0, 2.0])
        f = ComposedField([lambda x, progress: x - c1, lambda x, progress: x - c2])
        traj = sample(f, np.zeros((1, 2)), cfg(eta=0.2, steps=200))
        np.testing.assert_allclose(traj.final, [(c1 + c2) / 2.0], atol=1e-10)

    def test_composition_linearity_exact(self, rng):
        """Composed gradient equals the member sum at 1000 points."""
        m = identity_model()
        f = ComposedField([m, lambda x, progress: np.sin(x)])
        x = rng.standard_normal((1000, 2))
        want = m.forward_values(x) + np.sin(x)
        np.testing.assert_array_equal(f(x, 0.0), want)

    def test_equal_labels_half_step_matches_single(self, rng):
        m = init_model(ModelConfig(input_dim=2, hidden=(8,), num_classes=3, init_seed=8))
        m.params["layers.1.w"] = 0.3 * rng.standard_normal((8, 2))
        x0 = rng.standard_normal((4, 2))
        double = ComposedField([ModelField(m, label=1), ModelField(m, label=1)])
        a = sample(double, x0, cfg(eta=0.005, steps=30)).final
        b = sample(ModelField(m, label=1), x0, cfg(eta=0.01, steps=30)).final
        assert a.tobytes() == b.tobytes()

    def test_dimension_mismatch_rejected(self):
        models = [init_model(ModelConfig(input_dim=d, hidden=(4,))) for d in (2, 3)]
        with pytest.raises(ValueError, match="dim"):
            ComposedField([ModelField(m) for m in models])

    def test_as_field_rejects_a_non_callable(self):
        with pytest.raises(TypeError, match="gradient field"):
            as_field(np.zeros((2, 2)))


class TestDenoiseAndMisc:
    def test_gamma_zero_start_is_standard_generation(self, rng):
        """A partial-noise start at gamma 0 is the noise itself, so denoising
        from it is plain generation."""
        data, eps = rng.standard_normal((2, 5, 2))
        start = corrupt(data, eps, np.zeros(5))
        c = cfg(eta=0.1, steps=20)
        a = sample(linear_field, start, c).final
        b = sample(linear_field, eps, c).final
        assert a.tobytes() == b.tobytes()

    def test_zero_field_returns_partial_input(self, rng):
        xp = rng.standard_normal((5, 2))
        traj = sample(zero_field, xp, cfg(eta=0.3, steps=15))
        np.testing.assert_array_equal(traj.final, xp)

    def test_dispatch_covers_methods(self, rng):
        x0 = rng.standard_normal((2, 2))
        for mu in (0.0, 0.35):
            assert sample(linear_field, x0, cfg(eta=0.1, mu=mu, steps=3)).final.shape == (2, 2)
        assert sample(linear_field, x0,
                      cfg(method="adaptive", eta=0.1, g_min=0.5)).final.shape == (2, 2)

    def test_sampling_determinism(self, rng):
        m = init_model(ModelConfig(input_dim=2, hidden=(16, 16), init_seed=3))
        m.params["layers.2.w"] = 0.4 * rng.standard_normal((16, 2))
        x0 = rng.standard_normal((6, 2))
        c = cfg(eta=0.02, mu=0.35, steps=25)
        assert sample(m, x0, c).final.tobytes() == sample(m, x0, c).final.tobytes()

    def test_calibrate_g_min_percentile(self):
        data = np.array([[1.0, 0.0], [2.0, 0.0], [3.0, 0.0], [4.0, 0.0]])
        g = calibrate_g_min(linear_field, data, percentile=50.0)
        assert g == pytest.approx(2.5)

    def test_trajectory_csv(self, tmp_path, rng):
        traj = sample(linear_field, rng.standard_normal((3, 2)),
                      cfg(eta=0.1, steps=4), record=True)
        path = tmp_path / "traj.csv"
        save_trajectory_csv(path, traj)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "step,sample_id,x0,x1,grad_norm"
        assert len(lines) == 1 + 5 * 3
