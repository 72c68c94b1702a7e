import os
import tracemalloc
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from eqmatch import ndtensor as nd, sampler as sampler_module
from eqmatch.model import (INFERENCE_ROWS, ConditioningError, GradientFieldModel,
                           ModelConfig, _total_energy, energy, energy_gradient,
                           init_model, noise_features)
from eqmatch.sampler import ModelField, SamplerConfig, sample
from conftest import (assert_fails_as_the_tape, assert_raises_as_the_tape,
                      central_difference, outcome, rel_err, scale_by_powers_of_two)


def small_config(**kw):
    base = dict(input_dim=2, hidden=(8, 8), activation="silu", init_seed=3)
    base.update(kw)
    return ModelConfig(**base)


def identity_model(energy_kind="none") -> GradientFieldModel:
    """Exact identity map f(x) = x, built as (silu(a x) - silu(-a x)) / a with
    a = 2^40: past |z| of about 745 the sigmoid is exactly 1 or 0, so
    silu(z) - silu(-z) = z with slopes exactly 1 and 0, and scaling by a
    power of two is exact."""
    cfg = ModelConfig(input_dim=2, hidden=(4,), energy_kind=energy_kind)
    m = init_model(cfg)
    a = 2.0 ** 40
    m.params["layers.0.w"] = a * np.array([[1.0, 0.0, -1.0, 0.0],
                                           [0.0, 1.0, 0.0, -1.0]])
    m.params["layers.1.w"] = np.array([[1.0, 0.0], [0.0, 1.0],
                                       [-1.0, 0.0], [0.0, -1.0]]) / a
    return m


def random_model(cfg: ModelConfig, seed: int) -> GradientFieldModel:
    """Every parameter drawn at unit fan-in scale, including those init_model
    zeroes, so every op of the forward pass moves the output."""
    rng = np.random.default_rng(seed)
    m = init_model(cfg)
    for name, buf in m.params.items():
        fan_in = buf.shape[0] if buf.ndim == 2 else 1
        m.params[name] = rng.standard_normal(buf.shape) / np.sqrt(fan_in)
    return m


def hide_an_inf(params: dict, sign: float = 1.0) -> None:
    """Make layer 1's first unit overflow to sign * inf and zero the row of
    layer 2 that reads it: the tape fails at layer 1's matmul. SiLU keeps
    +inf, so the output is NaN (inf * 0 in layer 2's matmul); -inf it turns
    into NaN itself (-inf * sigmoid(-inf) = -inf * 0). For a model with
    labels and at least two hidden layers."""
    params["layers.0.w"][:] = params["label_embed"][:] = 0.0
    params["layers.0.b"][:] = 1.0
    params["layers.1.w"][:, 0] = sign * 1e308
    params["layers.2.w"][0] = 0.0


def row_blocks(n: int) -> list[slice]:
    """The row blocks of an inference pass over n rows: INFERENCE_ROWS each,
    the last with the remainder, so one block below 2 * INFERENCE_ROWS."""
    count = max(n // INFERENCE_ROWS, 1)
    bounds = [i * INFERENCE_ROWS for i in range(count)] + [n]
    return [slice(a, b) for a, b in zip(bounds[:-1], bounds[1:])]


def per_block(call, x, *per_row) -> np.ndarray:
    """`call(x[rows], ...)` on each row block, with the per-row arguments
    (arrays or None) sliced alike, stacked: a blocked pass's oracle."""
    return np.concatenate([call(x[rows], *(None if v is None else v[rows] for v in per_row))
                           for rows in row_blocks(len(x))])


#: rows either side of the row blocks' edges: one block (255), two whole
#: blocks, two blocks with the last longer, and many blocks
BLOCK_ROWS = [255, 256, 257, 383, 1000, 1001]

#: powers of two for the scaled-parameter tests: a parameter's 2^k, k in
#: [0, 1000], often 0 so that some steps stay finite, and the inputs' 2^j
EXPONENTS = st.one_of(st.just(0), st.integers(0, 1000))
X_EXPONENTS = st.integers(-1000, 1000)

#: the hidden-inf cases' rows, hidden widths and overflow sign: 1 row takes
#: BLAS's matrix-vector path, and 1000 rows at width 256 (the sampler's
#: shape) its blocked matrix-matrix kernels; each must carry the NaN on
HIDDEN_INF = {f"hidden {name}{where}": (n, hidden, sign)
              for name, sign in (("inf", 1.0), ("-inf", -1.0))
              for where, n, hidden in (("", 5, (8, 8)),
                                       (" 1 row", 1, (8, 8)),
                                       (" 1000 rows", 1000, (8, 8)),
                                       (" 1 row width 256", 1, (256, 256, 256)),
                                       (" 1000 rows width 256", 1000, (256, 256, 256)))}


class TestInit:
    def test_same_seed_bit_identical(self):
        a, b = init_model(small_config()), init_model(small_config())
        assert a.params.keys() == b.params.keys()
        for k in a.params:
            assert a.params[k].tobytes() == b.params[k].tobytes()

    def test_different_seed_differs(self):
        a = init_model(small_config(init_seed=1))
        b = init_model(small_config(init_seed=2))
        assert any(not np.array_equal(a.params[k], b.params[k]) for k in a.params)

    def test_embedding_rows_match_num_classes(self):
        m = init_model(small_config(num_classes=10))
        assert m.params["label_embed"].shape == (10, 8)

    def test_parameter_count_pure_function_of_config(self):
        cfg = small_config(num_classes=3)
        def count(m):
            return sum(p.size for p in m.params.values())

        assert count(init_model(cfg)) == count(init_model(cfg))
        # 2*8+8 + 8*8+8 + 8*2+2 + 3*8
        assert count(init_model(cfg)) == 24 + 72 + 18 + 24

    def test_noise_conditioned_widens_first_layer(self):
        m = init_model(small_config(noise_conditioned=True))
        assert m.params["layers.0.w"].shape == (2 + 16, 8)

    def test_invalid_configs_rejected(self):
        with pytest.raises(ValueError):
            small_config(hidden=())
        for name in ("gelu", "relu", "tanh"):  # SiLU is the only activation
            with pytest.raises(ValueError, match=f"^unknown activation '{name}'$"):
                small_config(activation=name)
        with pytest.raises(ValueError):
            small_config(noise_conditioned=True, energy_kind="dot")


class TestForward:
    def test_output_shape_matches_input(self, rng):
        m = init_model(small_config())
        x = rng.standard_normal((7, 2))
        assert m.forward_values(x).shape == (7, 2)

    def test_zero_final_layer_gives_zero_output(self, rng):
        # init_model zero-fills the last layer, so a fresh model is the zero field
        m = init_model(small_config())
        out = m.forward_values(rng.standard_normal((5, 2)))
        np.testing.assert_array_equal(out, np.zeros((5, 2)))

    def test_unconditional_rejects_label(self, rng):
        m = init_model(small_config())
        with pytest.raises(ConditioningError, match="unconditional"):
            m.forward_values(rng.standard_normal((3, 2)), label=1)

    def test_conditional_requires_label(self, rng):
        m = init_model(small_config(num_classes=4))
        with pytest.raises(ConditioningError, match="requires a label"):
            m.forward_values(rng.standard_normal((3, 2)))
        out = m.forward_values(rng.standard_normal((3, 2)), label=np.array([0, 1, 3]))
        assert out.shape == (3, 2)

    def test_label_out_of_range(self, rng):
        m = init_model(small_config(num_classes=4))
        with pytest.raises(ConditioningError, match="out of range"):
            m.forward_values(rng.standard_normal((3, 2)), label=4)

    def test_noise_level_contract(self, rng):
        m = init_model(small_config(noise_conditioned=True))
        x = rng.standard_normal((3, 2))
        with pytest.raises(ConditioningError, match="requires a noise level"):
            m.forward_values(x)
        assert m.forward_values(x, noise_level=0.5).shape == (3, 2)
        plain = init_model(small_config())
        with pytest.raises(ConditioningError, match="not noise-conditioned"):
            plain.forward_values(x, noise_level=0.5)
        graph = nd.Graph()
        with pytest.raises(nd.GraphError, match="constant"):
            m.forward(graph, graph.leaf(x), noise_level=0.5)

    def test_forward_deterministic(self, rng):
        m = init_model(small_config(init_seed=9))
        m.params["layers.2.w"] = rng.standard_normal((8, 2))
        x = rng.standard_normal((6, 2))
        assert m.forward_values(x).tobytes() == m.forward_values(x).tobytes()

    def test_noise_features_shape_and_determinism(self):
        f = noise_features(0.3, 5)
        assert f.shape == (5, 16)
        np.testing.assert_array_equal(f, noise_features(np.full(5, 0.3), 5))

    def test_identity_construction_is_exact(self, rng):
        m = identity_model()
        x = rng.standard_normal((10, 2))
        np.testing.assert_array_equal(m.forward_values(x), x)


class TestEnergy:
    def test_dot_energy_of_identity(self):
        m = identity_model("dot")
        np.testing.assert_allclose(energy(m, [[1.0, 2.0]]), [5.0], atol=1e-12)

    def test_l2_energy_of_identity(self):
        m = identity_model("l2norm")
        np.testing.assert_allclose(energy(m, [[1.0, 2.0]]), [-2.5], atol=1e-12)

    def test_zero_field_zero_dot_energy(self, rng):
        m = init_model(small_config(energy_kind="dot"))
        x = rng.standard_normal((6, 2))
        np.testing.assert_array_equal(energy(m, x), np.zeros(6))

    def test_energy_requires_head(self, rng):
        m = init_model(small_config())
        with pytest.raises(ValueError, match="energy"):
            energy(m, rng.standard_normal((2, 2)))
        with pytest.raises(ValueError, match="energy"):
            energy_gradient(m, rng.standard_normal((2, 2)))

    def test_dot_gradient_of_identity(self):
        m = identity_model("dot")
        np.testing.assert_allclose(energy_gradient(m, [[1.0, 2.0]]),
                                   [[2.0, 4.0]], atol=1e-12)

    def test_l2_gradient_of_identity(self):
        m = identity_model("l2norm")
        np.testing.assert_allclose(energy_gradient(m, [[1.0, 2.0]]),
                                   [[-1.0, -2.0]], atol=1e-12)

    @pytest.mark.parametrize("kind", ["dot", "l2norm"])
    def test_gradient_matches_fd_on_random_models(self, kind):
        """100 random (model, point) pairs: input-gradient vs FD of the energy."""
        for seed in range(100):
            rng = np.random.default_rng(seed)
            cfg = ModelConfig(input_dim=2, hidden=(8,), activation="silu",
                              energy_kind=kind, init_seed=seed)
            m = init_model(cfg)
            m.params["layers.1.w"] = 0.5 * rng.standard_normal((8, 2))
            m.params["layers.1.b"] = 0.1 * rng.standard_normal(2)
            x = rng.standard_normal((1, 2))
            got = energy_gradient(m, x)
            want = central_difference(lambda v: float(energy(m, v)[0]), x)
            assert rel_err(got, want) < 1e-4, (kind, seed)

    def test_batch_rows_are_independent(self, rng):
        m = init_model(small_config(energy_kind="dot", init_seed=11))
        m.params["layers.2.w"] = 0.3 * rng.standard_normal((8, 2))
        x = rng.standard_normal((5, 2))
        batch = energy_gradient(m, x)
        rows = np.vstack([energy_gradient(m, x[i:i + 1]) for i in range(5)])
        np.testing.assert_allclose(batch, rows, atol=1e-12)

    # energy_gradient runs off the tape; nd.input_gradient of the tape's
    # batch-summed energy is its oracle

    @staticmethod
    def tape_gradient(m, x, label=None):
        graph = nd.Graph()
        xt = graph.leaf(np.asarray(x, dtype=np.float64))
        return nd.input_gradient(_total_energy(m, graph, xt, label=label), xt).values

    @pytest.mark.parametrize("n", [1, 37, *BLOCK_ROWS])
    @pytest.mark.parametrize("classes", [0, 3])
    @pytest.mark.parametrize("head", ["dot", "l2norm"])
    def test_gradient_bits_equal_the_tape(self, head, classes, n):
        """The tape on the same row blocks is the oracle. Up to 600 rows the
        whole batch's tape gives the same bits with OpenBLAS 0.3.31's
        SkylakeX kernels; above it, its transposed layer-0 product leaves the
        small-matrix kernel, which no block leaves."""
        m = random_model(ModelConfig(num_classes=classes, energy_kind=head), n)
        rng = np.random.default_rng(n + 1)
        x = 2.0 * rng.standard_normal((n, 2))
        label = rng.integers(0, classes, n) if classes else None
        before = x.tobytes()
        got = energy_gradient(m, x, label)
        want = per_block(lambda xb, lb: self.tape_gradient(m, xb, lb), x, label)
        assert got.shape == want.shape == (n, 2)
        assert got.tobytes() == want.tobytes()
        if n <= 600:
            assert got.tobytes() == self.tape_gradient(m, x, label).tobytes()
        # the chain writes over the pass's own layers, never over x
        assert x.tobytes() == before
        assert energy_gradient(m, x, label).tobytes() == got.tobytes()

    @pytest.mark.parametrize("head", ["dot", "l2norm"])
    def test_gradient_holds_no_more_than_its_forward_cache(self, head, workers):
        """At n = 1000 on the default widths each row block's forward pass
        caches nine [rows, 256] arrays, and the chain down never holds more:
        the last block's 232 rows make 2.09 [1000, 256] arrays. The whole
        batch's chain held nine, and 14 while every layer lived to the
        end. The pass runs its blocks in turn at any worker count."""
        m = random_model(ModelConfig(energy_kind=head), 0)
        x = np.random.default_rng(1).standard_normal((1000, 2))
        energy_gradient(m, x)  # first-call costs are not the pass's
        tracemalloc.start()
        try:
            energy_gradient(m, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * 1000 * 256 * 8

    @settings(max_examples=100, deadline=None)
    @given(head=st.sampled_from(["dot", "l2norm"]),
           exponents=st.lists(EXPONENTS, min_size=7, max_size=7), x_exponent=X_EXPONENTS,
           seed=st.integers(0, 2**32 - 1))
    def test_scaled_parameters_keep_the_contract(self, head, exponents, x_exponent,
                                                 seed):
        """Parameters scaled by 2^k, k in [0, 1000], and inputs by 2^j:
        wherever the tape returns, `energy_gradient` returns its bits;
        wherever it raises, the tape raises too, a NonFiniteError that the
        pass names by its own scan; wherever it returns, the field is
        finite. It may return where the tape raises on the energy value,
        which it does not make."""
        m = random_model(ModelConfig(hidden=(8, 8), num_classes=3, energy_kind=head), seed)
        scale_by_powers_of_two(m.params, exponents)
        rng = np.random.default_rng(seed + 1)
        x = 2.0 ** x_exponent * rng.standard_normal((5, 2))
        label = rng.integers(0, 3, 5)
        want, tape_error = outcome(lambda: self.tape_gradient(m, x, label))
        got, pass_error = outcome(lambda: energy_gradient(m, x, label))
        if tape_error is None:
            assert pass_error is None and got.tobytes() == want.tobytes()
        elif pass_error is None:
            assert nd.all_finite(got)
        else:
            assert_fails_as_the_tape(pass_error, tape_error)

    @pytest.mark.parametrize("head", ["dot", "l2norm"])
    @pytest.mark.parametrize("case", ["leaf", "nan input", "matmul", *HIDDEN_INF,
                                      "label", "first backward", "no energy head"])
    def test_gradient_errors_equal_the_tape(self, case, head):
        """Where the tape raises, the pass raises with no warning: the
        tape's error where a check is shared (the label, the head), else a
        NonFiniteError naming the scan that found the value. A NaN or Inf
        inside the forward pass reaches its output, layer 1 + len(hidden)."""
        n, hidden, sign = HIDDEN_INF.get(case, (5, (8, 8), 1.0))
        cfg = ModelConfig(hidden=hidden, num_classes=3,
                          energy_kind="none" if case == "no energy head" else head)
        m = random_model(cfg, 0)
        p = m.params
        x, label = np.ones((n, 2)), np.arange(n) % 3
        if case == "leaf":
            p["layers.1.b"][3] = np.inf
        elif case == "nan input":
            x[2, 1] = np.nan
        elif case == "matmul":
            p["layers.0.w"][:] = 1e308
        elif case in HIDDEN_INF:
            hide_an_inf(p, sign)
        elif case == "label":
            label[4] = 3
        elif case == "first backward":
            # layer 1 outputs 0, so the output is the bias 1e100 and finite;
            # the head's 1e100 gradient at the output meets the 1e250 last layer
            p["layers.1.w"][:] = p["layers.1.b"][:] = 0.0
            p["layers.2.w"] *= 1e250
            p["layers.2.b"][:] = 1e100
            x = np.full((5, 2), 1e100)
        message = assert_raises_as_the_tape(lambda: energy_gradient(m, x, label),
                                            lambda: self.tape_gradient(m, x, label))
        first_backward = {"dot": "op 'add'", "l2norm": "op 'matmul'"}[head] \
            + " in layer 0's input gradient"
        place = {"leaf": "op 'leaf' at layers.1.b", "nan input": "op 'constant' at the input",
                 "first backward": first_backward}.get(case, f"op 'add' in layer {len(hidden)}")
        if case not in ("label", "no energy head"):
            assert message == f"non-finite values produced by {place}"

    @pytest.mark.parametrize("head", ["dot", "l2norm"])
    def test_gradient_builds_no_graph(self, monkeypatch, head):
        """A finite labelled input's field comes from the off-tape pass, with
        the tape's bits, and no graph is made."""
        m = random_model(ModelConfig(hidden=(16, 16), num_classes=3, energy_kind=head), 5)
        rng = np.random.default_rng(6)
        x, label = rng.standard_normal((9, 2)), rng.integers(0, 3, 9)
        want = self.tape_gradient(m, x, label)

        def no_tape():
            raise AssertionError("energy_gradient built a tape")

        monkeypatch.setattr(nd, "Graph", no_tape)
        assert energy_gradient(m, x, label).tobytes() == want.tobytes()


# 1 row takes BLAS's matrix-vector path; 8k and 8k+1 rows sit on either side
# of its row blocking
ROWS = st.one_of(st.integers(1, 40), st.sampled_from([8, 9, 64, 65, *BLOCK_ROWS]))


def conditioning(cfg: ModelConfig, n: int, seed: int, scalar: bool) -> dict:
    rng = np.random.default_rng(seed)
    kw = {}
    if cfg.num_classes:
        kw["label"] = 1 if scalar else rng.integers(0, cfg.num_classes, n)
    if cfg.noise_conditioned:
        kw["noise_level"] = 0.25 if scalar else rng.uniform(0.0, 1.0, n)
    return kw


def later_block_overflow(head: str) -> tuple:
    """(model, x, the pass, the tape on one block) where block 0 of x's two
    (128 and 172 rows) is finite and block 1's layer-0 product overflows."""
    m = random_model(ModelConfig(hidden=(8, 8), energy_kind=head), 0)
    m.params["layers.0.w"][:] = 1e300
    x = np.zeros((300, 2))
    x[200] = 1e10
    if head == "none":
        call, tape = m.forward_values, lambda xb: m.forward(nd.Graph(), xb)
    else:
        call, tape = (lambda xb: energy_gradient(m, xb),
                      lambda xb: TestEnergy.tape_gradient(m, xb))
    assert row_blocks(300)[1] == slice(128, 300)
    return m, x, call, tape


class TestForwardValues:
    """forward_values runs off the tape; forward(Graph(), ...) is its oracle."""

    @settings(max_examples=80, deadline=None)
    @given(classes=st.sampled_from([0, 3]), noise=st.booleans(), n=ROWS,
           scalar=st.booleans(), hidden=st.sampled_from([(256, 256, 256), (16,), (64, 64)]),
           seed=st.integers(0, 2**32 - 1))
    def test_bits_equal_the_tape(self, classes, noise, hidden, n, scalar, seed):
        cfg = ModelConfig(hidden=hidden, num_classes=classes, noise_conditioned=noise)
        m = random_model(cfg, seed)
        x = 3.0 * np.random.default_rng(seed + 1).standard_normal((n, 2))
        kw = conditioning(cfg, n, seed + 2, scalar)
        got = m.forward_values(x, **kw)
        want = m.forward(nd.Graph(), x, **kw).values
        assert got.shape == want.shape == (n, 2)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("input_dim, hidden, classes", [
        (16, (16, 16), 0), (16, (16, 16), 3), (2, (64, 32), 0), (2, (64, 32, 32), 3),
    ], ids=["input as wide as the layers", "labelled, as wide", "hidden 64-32",
            "labelled 64-32-32"])
    def test_leaves_its_input_alone(self, input_dim, hidden, classes):
        """The pass writes each hidden layer over the one before it, but never
        over `x`, even where x has the first layer's shape, and allocates
        where two layers' widths differ."""
        cfg = ModelConfig(input_dim=input_dim, hidden=hidden, num_classes=classes)
        m = random_model(cfg, 3)
        x = np.random.default_rng(4).standard_normal((50, input_dim))
        before = x.copy()
        kw = conditioning(cfg, 50, 5, scalar=False)
        got = m.forward_values(x, **kw)
        assert x.tobytes() == before.tobytes()
        assert got.tobytes() == m.forward(nd.Graph(), x, **kw).values.tobytes()

    @pytest.mark.parametrize("n", [*BLOCK_ROWS, 2000])
    def test_row_blocks_give_the_tapes_bits(self, n, workers):
        """The tape on the same row blocks, with per-row labels and noise
        levels, is the oracle. Up to 1953 rows the whole batch's tape gives
        the same bits with OpenBLAS 0.3.31's SkylakeX kernels; from 1954 on
        its output product leaves the small-matrix kernel, which no block
        leaves."""
        cfg = ModelConfig(num_classes=3, noise_conditioned=True)
        m = random_model(cfg, n)
        x = 3.0 * np.random.default_rng(n).standard_normal((n, 2))
        before = x.tobytes()
        kw = conditioning(cfg, n, n + 1, scalar=False)
        got = m.forward_values(x, **kw)
        want = per_block(lambda xb, lb, nl: m.forward(nd.Graph(), xb, lb, nl).values,
                         x, kw["label"], kw["noise_level"])
        assert got.tobytes() == want.tobytes()
        if n <= 1953:
            assert got.tobytes() == m.forward(nd.Graph(), x, **kw).values.tobytes()
        assert x.tobytes() == before

    @pytest.mark.parametrize("head", ["none", "dot"])
    def test_a_later_blocks_error_is_its_tapes(self, head, workers):
        """Block 0 is finite and block 1's layer-0 product overflows: the
        pass raises where block 1's tape raises, with no warning, at block
        1's output scan."""
        m, x, call, tape = later_block_overflow(head)
        tape(x[:128])  # block 0 is finite
        message = assert_raises_as_the_tape(lambda: call(x), lambda: tape(x[128:]))
        assert message == "non-finite values produced by op 'add' in layer 2"

    @pytest.mark.parametrize("head, name", [("none", "label"), ("none", "noise level"),
                                            ("dot", "label")])
    def test_a_bad_per_row_shape_names_the_batch(self, head, name):
        """The conditioning is checked on the whole batch, not on a block."""
        cfg = ModelConfig(hidden=(8, 8), num_classes=3, energy_kind=head,
                          noise_conditioned=head == "none")
        m = random_model(cfg, 0)
        x = np.zeros((300, 2))
        kw = conditioning(cfg, 300, 1, scalar=False)
        key = "label" if name == "label" else "noise_level"
        kw[key] = kw[key][:299]
        call = m.forward_values if head == "none" else partial(energy_gradient, m)
        with pytest.raises(ConditioningError) as error:
            call(x, **kw)
        assert str(error.value) == f"{name} shape (299,) does not match batch 300"

    @pytest.mark.parametrize("head", ["none", "dot", "l2norm"])
    @pytest.mark.parametrize("label", ["wrong shape", "out of range"])
    def test_a_bad_label_meets_a_bad_parameter_as_the_tape(self, label, head):
        """The tape leases every parameter's leaf before it reads the labels,
        so a non-finite parameter raises before a bad label, and so does the
        pass."""
        m = random_model(ModelConfig(hidden=(8, 8), num_classes=3, energy_kind=head), 0)
        m.params["layers.1.b"][3] = np.inf
        x = np.ones((5, 2))
        bad = np.arange(4) % 3 if label == "wrong shape" else np.array([0, 1, 2, 3, 0])
        if head == "none":
            call, tape = m.forward_values, lambda: m.forward(nd.Graph(), x, bad)
        else:
            call, tape = (partial(energy_gradient, m),
                          lambda: TestEnergy.tape_gradient(m, x, bad))
        message = assert_raises_as_the_tape(lambda: call(x, bad), tape)
        assert message == "non-finite values produced by op 'leaf' at layers.1.b"

    def test_holds_two_activation_arrays(self, workers):
        """At n = 1000 on the default widths the pass holds the previous
        layer's activations and the next product of one row block, two
        [rows, 256] arrays: the last block's 232 rows make 0.46 of a
        [1000, 256] array. The whole batch held two, and three while each
        layer's pre-activation outlived the next product. The pass runs its
        blocks in turn at any worker count."""
        m = random_model(ModelConfig(hidden=(256, 256, 256)), 0)
        x = np.random.default_rng(1).standard_normal((1000, 2))
        m.forward_values(x)  # first-call costs are not the pass's
        tracemalloc.start()
        try:
            m.forward_values(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.6 * 1000 * 256 * 8

    @pytest.mark.parametrize("case", ["leaf", "matmul", "add", "constant", "label",
                                      *HIDDEN_INF, "label add", "noise level",
                                      "input shape"])
    def test_errors_equal_the_tape(self, case):
        """Where the tape raises, the pass raises with no warning: the
        tape's error where a check is shared (conditioning, shape), else a
        NonFiniteError naming the scan that found the value. A NaN or Inf
        inside the pass reaches its output, layer len(hidden)."""
        n, hidden, sign = HIDDEN_INF.get(case, (5, (8, 8), 1.0))
        cfg = ModelConfig(hidden=hidden, num_classes=3,
                          noise_conditioned=case == "noise level")
        m = random_model(cfg, 0)
        x = np.ones((n, 2))
        kw = conditioning(cfg, n, 1, scalar=False)
        if case == "leaf":
            m.params["layers.1.b"][3] = np.inf
        elif case == "matmul":
            m.params["layers.0.w"][:] = 1e308
        elif case == "add":
            m.params["layers.0.w"][:] = 0.5e308
            m.params["layers.0.b"][:] = 1e308
        elif case == "constant":
            x[2, 1] = np.nan
        elif case == "label":
            kw["label"] = np.array([0, 1, 2, 3, 0])
        elif case in HIDDEN_INF:
            hide_an_inf(m.params, sign)
        elif case == "label add":
            # the bias and the label's embedding are finite, their sum -inf;
            # SiLU carries it on as NaN (-inf * 0)
            m.params["layers.0.w"][:] = 0.0
            m.params["layers.0.b"][:] = m.params["label_embed"][:] = -1e308
        elif case == "noise level":
            kw["noise_level"] = np.zeros(4)
        else:
            x = np.ones((5, 3))
        message = assert_raises_as_the_tape(lambda: m.forward_values(x, **kw),
                                            lambda: m.forward(nd.Graph(), x, **kw))
        if case not in ("label", "noise level", "input shape"):
            place = {"leaf": "op 'leaf' at layers.1.b",
                     "constant": "op 'constant' at the input"}.get(
                case, f"op 'add' in layer {len(hidden)}")
            assert message == f"non-finite values produced by {place}"

    @pytest.mark.parametrize("classes, noise", [(3, True), (0, False), (3, False),
                                                (0, True)],
                             ids=["labelled and noise", "unconditional", "labelled",
                                  "noise"])
    def test_builds_no_graph(self, monkeypatch, classes, noise):
        cfg = ModelConfig(hidden=(16, 16), num_classes=classes, noise_conditioned=noise)
        m = random_model(cfg, 5)
        x = np.random.default_rng(6).standard_normal((9, 2))
        kw = conditioning(cfg, 9, 7, scalar=False)
        want = m.forward(nd.Graph(), x, **kw).values

        def no_tape():
            raise AssertionError("forward_values built a tape")

        monkeypatch.setattr(nd, "Graph", no_tape)
        assert m.forward_values(x, **kw).tobytes() == want.tobytes()


class TestPassWorkers:
    """`sampler.inference_workers()` is the processes `sampler.sample`
    splits a batch over (tests/test_sampler.py, `TestShards`); an inference
    pass runs its row blocks in turn, and the count changes no bit."""

    @pytest.mark.parametrize("cores, env, want", [
        (2, {}, 1),
        (2, {"OPENBLAS_NUM_THREADS": "1"}, 2),
        (2, {"OPENBLAS_NUM_THREADS": "2"}, 1),
        (2, {"OPENBLAS_NUM_THREADS": "8"}, 1),
        (1, {"OPENBLAS_NUM_THREADS": "1"}, 1),
        (4, {"OMP_NUM_THREADS": "2"}, 2),
        (8, {"OPENBLAS_NUM_THREADS": "0", "GOTO_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"},
         4),
        (2, {"OPENBLAS_NUM_THREADS": "many", "OMP_NUM_THREADS": "1"}, 2),
    ], ids=["none set", "one thread", "a thread a core", "more threads than cores",
            "one core", "OMP", "the first positive value", "a value that is no number"])
    def test_usable_cores_over_blas_threads(self, monkeypatch, cores, env, want):
        for var in sampler_module.BLAS_THREAD_VARS:
            monkeypatch.delenv(var, raising=False)
        for var, value in env.items():
            monkeypatch.setenv(var, value)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)),
                            raising=False)
        assert sampler_module.inference_workers() == want

    @pytest.mark.parametrize("head", ["none", "dot", "l2norm"])
    @pytest.mark.parametrize("n", [1, 127, 128, 255, 256, 257, 1000, 1001, 2000])
    def test_two_workers_give_one_workers_bits(self, monkeypatch, head, n):
        """Per-row labels, and noise levels where there is no head."""
        cfg = ModelConfig(num_classes=3, noise_conditioned=head == "none",
                          energy_kind=head)
        m = random_model(cfg, n)
        x = 3.0 * np.random.default_rng(n).standard_normal((n, 2))
        kw = conditioning(cfg, n, n + 1, scalar=False)
        call = m.forward_values if head == "none" else partial(energy_gradient, m)
        got = []
        for count in (1, 2):
            monkeypatch.setattr(sampler_module, "inference_workers", lambda c=count: c)
            got.append(call(x, **kw).tobytes())
        assert got[0] == got[1]

    @pytest.mark.parametrize("workers", [4], indirect=True, ids=["4 workers"])
    def test_more_workers_than_cores_keep_the_bits(self, monkeypatch, workers):
        """Four shards, more processes than a 2-core machine has cores: each
        shard's rows still land in their own place, with the serial loop's
        bits."""
        field = ModelField(random_model(ModelConfig(), 5))
        x = np.random.default_rng(6).standard_normal((2000, 2))
        config = SamplerConfig(eta=0.05, steps=3)
        got = [sample(field, x, config) for _ in range(2)]
        monkeypatch.setattr(sampler_module, "inference_workers", lambda: 1)
        want = sample(field, x, config)
        assert [t.processes for t in got] == [4] * 2 and want.processes == 1
        assert [t.final.tobytes() for t in got] == [want.final.tobytes()] * 2
