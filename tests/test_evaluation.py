import ctypes
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from eqmatch import data
from eqmatch.evaluation import (DEFAULT_BANDWIDTHS, EvalReport, QuadraticEnergy,
                                _average_ranks, _kernel_matrix, _kernel_sum,
                                _sq_dists,
                                append_reports, auroc, component_energy, config_fingerprint,
                                convergence_bound_check, grad_norm_at_data,
                                ledger_has, local_minima_membership, mmd,
                                mmd_permutation_null, mode_coverage,
                                nearest_neighbor_audit, partial_noise_sweep)
from eqmatch.model import ModelConfig, init_model
from eqmatch.sampler import SamplerConfig, sample
from test_model import identity_model

SRC = Path(__file__).resolve().parent.parent / "src"


def nearest_point_field(points: np.ndarray):
    """Attraction toward the closest anchor: minima exactly at the anchors."""
    pts = np.asarray(points, dtype=np.float64)

    def fn(x, progress):
        d = ((x[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2)
        return x - pts[np.argmin(d, axis=1)]

    return fn


class TestGradNorms:
    def test_zero_model_all_zero(self, rng):
        m = init_model(ModelConfig(input_dim=2, hidden=(8,)))
        stats = grad_norm_at_data(m, rng.standard_normal((20, 2)))
        assert stats == {"at_data": 0.0, "at_half_corrupted": 0.0}

    def test_linear_field_zero_at_origin(self):
        stats = grad_norm_at_data(lambda x, progress: x, np.zeros((5, 2)))
        assert stats["at_data"] == 0.0


class TestLocalMinima:
    def test_anchor_field_membership_is_one(self):
        anchors = np.array([[3.0, 0.0], [-3.0, 0.0], [0.0, 3.0]])
        frac = local_minima_membership(
            nearest_point_field(anchors), anchors, n_inits=256, radius=0.25,
            config=SamplerConfig(method="adaptive", eta=0.2, g_min=1e-6, max_steps=500),
            seed=1)
        assert frac == 1.0

    def test_zero_field_matches_ball_measure(self):
        """With a zero field the endpoints are the inits, so the fraction is
        exactly the empirical ball measure of those same inits."""
        data = np.array([[0.5, 0.0], [-1.0, 1.0]])
        radius, n, seed = 0.8, 2048, 7
        frac = local_minima_membership(
            lambda x, progress: np.zeros_like(x), data, n_inits=n, radius=radius,
            config=SamplerConfig(method="adaptive", eta=0.1, g_min=1e-9, max_steps=10),
            seed=seed)
        inits = np.random.default_rng(seed).standard_normal((n, 2))
        d = np.sqrt(((inits[:, None] - data[None]) ** 2).sum(axis=2)).min(axis=1)
        assert frac == pytest.approx(np.mean(d <= radius), abs=0)


class TestConvergenceBound:
    def test_isotropic_one_step(self, rng):
        quad = QuadraticEnergy(np.eye(2))
        res = convergence_bound_check(quad, eta=1.0, horizons=[1, 10],
                                      x0s=rng.standard_normal((20, 2)))
        assert res.passed and res.worst_slack >= 0.0

    def test_anisotropic_many_horizons(self, rng):
        quad = QuadraticEnergy(np.diag([1.0, 4.0]))
        res = convergence_bound_check(quad, eta=0.25, horizons=[1, 10, 100],
                                      x0s=rng.standard_normal((50, 2)))
        assert res.passed

    def test_eta_zero_trivially_passes_flagged(self, rng):
        res = convergence_bound_check(QuadraticEnergy(np.eye(2)), eta=0.0,
                                      horizons=[10], x0s=rng.standard_normal((3, 2)))
        assert res.passed and res.trivial

    def test_eta_above_smoothness_rejected(self, rng):
        with pytest.raises(ValueError, match="1/L"):
            convergence_bound_check(QuadraticEnergy(np.diag([1.0, 4.0])), eta=0.3,
                                    horizons=[10], x0s=rng.standard_normal((3, 2)))

    def test_never_fails_on_random_psd(self):
        """The bound is a theorem for exact gradients; random PSD energies
        with eta <= 1/L can never violate it."""
        for seed in range(25):
            rng = np.random.default_rng(seed)
            b = rng.standard_normal((2, 2))
            quad = QuadraticEnergy(b @ b.T + 0.1 * np.eye(2))
            eta = float(rng.uniform(0.05, 1.0)) / quad.L
            res = convergence_bound_check(quad, eta=eta, horizons=[1, 10, 100],
                                          x0s=rng.standard_normal((10, 2)) * 3)
            assert res.passed, seed

    def test_invalid_quadratics_rejected(self):
        with pytest.raises(ValueError, match="symmetric"):
            QuadraticEnergy([[1.0, 2.0], [0.0, 1.0]])
        with pytest.raises(ValueError, match="definite"):
            QuadraticEnergy([[-1.0, 0.0], [0.0, 1.0]])


def gathered_null(x, y, n_permutations, seed):
    """The permutation null as three gathered blocks of the pooled kernel per
    permutation: the oracle for the K @ S form."""
    m, n = len(x), len(y)
    pool = np.concatenate([x, y])
    d2 = ((pool[:, None, :] - pool[None, :, :]) ** 2).sum(axis=2)
    k = sum(np.exp(-0.5 * d2 / (bw * bw)) for bw in DEFAULT_BANDWIDTHS)
    np.fill_diagonal(k, 0.0)
    rng = np.random.default_rng(seed)
    out = np.empty(n_permutations)
    for i in range(n_permutations):
        perm = rng.permutation(m + n)
        ix, iy = perm[:m], perm[m:]
        out[i] = (k[np.ix_(ix, ix)].sum() / (m * (m - 1))
                  + k[np.ix_(iy, iy)].sum() / (n * (n - 1))
                  - 2.0 * k[np.ix_(ix, iy)].sum() / (m * n))
    return out


def materialized_kernel(x, y):
    """The full kernel matrix, one exp per bandwidth over the whole distance
    matrix (`_sq_dists`, which has scipy's bits)."""
    d2 = _sq_dists(x, y)
    k = np.zeros_like(d2)
    for bw in DEFAULT_BANDWIDTHS:
        k += np.exp(-0.5 * d2 / (bw * bw))
    return k


def materialized_mmd(x, y):
    """`mmd` as it was with whole kernel matrices: the oracle for its bits."""
    if x.tobytes() > y.tobytes():
        x, y = y, x
    m, n = len(x), len(y)
    kxx = materialized_kernel(x, x)
    kyy = materialized_kernel(y, y)
    kxy = materialized_kernel(x, y)
    a = (kxx.sum() - np.trace(kxx)) / (m * (m - 1))
    b = (kyy.sum() - np.trace(kyy)) / (n * (n - 1))
    c = kxy.sum() / (m * n)
    return float(a + b - 2.0 * c)


def materialized_null(x, y, n_permutations, seed):
    """`mmd_permutation_null` as it was with the whole pooled kernel matrix
    and one product K @ S: the oracle for its bits."""
    m, n = len(x), len(y)
    pool = np.concatenate([x, y])
    k = materialized_kernel(pool, pool)
    np.fill_diagonal(k, 0.0)
    rng = np.random.default_rng(seed)
    s = np.zeros((m + n, n_permutations))
    for i in range(n_permutations):
        s[rng.permutation(m + n)[:m], i] = 1.0
    ks = k @ s
    sxx = np.sum(s * ks, axis=0)
    r = np.sum(ks, axis=0)
    kxx = sxx / (m * (m - 1))
    kyy = (k.sum() - 2.0 * r + sxx) / (n * (n - 1))
    kxy = (r - sxx) / (m * n)
    return kxx + kyy - 2.0 * kxy


def traced_peak_mb(fn) -> float:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def openblas_thread_setter() -> tuple[str, str] | None:
    """(library, symbol) of the OpenBLAS bundled with numpy's wheel and its
    `openblas_set_num_threads`, or None where numpy has none."""
    for lib in sorted(Path(np.__file__).parent.parent.glob("numpy.libs/*openblas*")):
        try:
            dll = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for prefix, suffix in (("scipy_", "64_"), ("", "64_"), ("", "")):
            setter = f"{prefix}openblas_set_num_threads{suffix}"
            if hasattr(dll, setter) and hasattr(dll, f"{prefix}openblas_get_num_threads{suffix}"):
                return str(lib), setter
    return None


# a child process: set the OpenBLAS thread count through the library, check
# that it took, and print the SHA-256 of `mmd` and of the null on the sets of
# `test_bits_equal_the_whole_matrices`
THREADED_DIGEST = """
import ctypes, hashlib, sys
import numpy as np
src, lib, setter, threads, m, n, perms = sys.argv[1:]
threads, m, n, perms = int(threads), int(m), int(n), int(perms)
sys.path.insert(0, src)
from eqmatch.evaluation import mmd, mmd_permutation_null
dll = ctypes.CDLL(lib)
getattr(dll, setter)(threads)
assert getattr(dll, setter.replace("_set_", "_get_"))() == threads
rng = np.random.default_rng(m * 1000 + n)
x = rng.standard_normal((m, 2))
y = 1.2 * rng.standard_normal((n, 2)) + 0.2
null = mmd_permutation_null(x, y, n_permutations=perms, seed=perms)
print(hashlib.sha256(np.float64(mmd(x, y)).tobytes() + null.tobytes()).hexdigest())
"""


class TestStreamedKernels:
    """`mmd` and the null reduce the kernel matrix one row block at a time,
    in an order of their own that no BLAS setting changes."""

    # (m, n, permutations): the smallest sets, a pool under 64 rows and pools
    # not a multiple of 8, one permutation, m != n, pools with a short last
    # row block, and the CLI's shape
    @pytest.mark.parametrize("m, n, perms", [
        (2, 2, 1), (2, 5, 3), (20, 17, 7), (37, 40, 1), (1000, 1000, 1), (250, 170, 60),
        (91, 300, 1), (75, 75, 60), (200, 200, 10), (128, 128, 20), (1000, 1000, 100),
    ])
    def test_bits_equal_the_whole_matrices(self, m, n, perms):
        rng = np.random.default_rng(m * 1000 + n)
        x = rng.standard_normal((m, 2))
        y = 1.2 * rng.standard_normal((n, 2)) + 0.2
        np.testing.assert_allclose(mmd(x, y), materialized_mmd(x, y), rtol=1e-8, atol=0)
        np.testing.assert_allclose(mmd_permutation_null(x, y, n_permutations=perms, seed=perms),
                                   materialized_null(x, y, perms, seed=perms),
                                   rtol=1e-8, atol=0)

    @pytest.mark.parametrize("m, n, perms", [(1000, 1000, 100), (1000, 1000, 200)])
    def test_bits_equal_at_every_blas_thread_count(self, m, n, perms):
        """Each count runs in its own child, set through the library: the
        OPENBLAS_NUM_THREADS variable is capped at the machine's cores."""
        found = openblas_thread_setter()
        if found is None:
            pytest.skip("numpy bundles no OpenBLAS whose thread count can be set")
        digests = set()
        for threads in (1, 2, 3, 4):
            child = subprocess.run(
                [sys.executable, "-c", THREADED_DIGEST, str(SRC), *found,
                 str(threads), str(m), str(n), str(perms)],
                capture_output=True, text=True, timeout=300)
            assert child.returncode == 0, (threads, child.stderr)
            digests.add(child.stdout)
        assert len(digests) == 1

    def test_peak_memory_holds_no_kernel_matrix(self):
        """At 1000 vs 1000 one kernel matrix is 8 MB and the pooled one 32 MB;
        the whole-matrix versions peaked at 24.8 and 35.1 MB."""
        rng = np.random.default_rng(0)
        x = rng.standard_normal((1000, 2))
        y = rng.standard_normal((1000, 2)) + 0.1
        assert traced_peak_mb(lambda: mmd(x, y)) <= 4.0
        assert traced_peak_mb(lambda: mmd_permutation_null(x, y, n_permutations=100)) <= 10.0

    def test_the_null_holds_three_row_blocks(self):
        """Beyond its [2000, 100] permutation indicators (1.6 MB) the null at
        1000 vs 1000 holds one [64, 2000] block of kernel rows (1 MB) and,
        while it fills them 16 rows at a time, their distances, one kernel
        term and one coordinate's differences, [16, 2000] each. It held
        three [64, 2000] blocks while the distances and terms were made 64
        rows at a time, and five before that."""
        rng = np.random.default_rng(0)
        x = rng.standard_normal((1000, 2))
        y = rng.standard_normal((1000, 2)) + 0.1
        block_mb, piece_mb = 64 * 2000 * 8 / 1e6, 16 * 2000 * 8 / 1e6
        s_mb = 2000 * 100 * 8 / 1e6
        peak = traced_peak_mb(lambda: mmd_permutation_null(x, y, n_permutations=100))
        assert peak <= s_mb + block_mb + 4 * piece_mb


def audit(x, y):
    return nearest_neighbor_audit(x, y, k=1)


def coverage(x, y):
    return mode_coverage(x, y, radius=1.0)


def shape_id(shape) -> str:
    return "x".join(map(str, shape))


# (metric, x's shape, y's shape, the error); the first ids read m-n-metric
REJECTED_SETS = [
    pytest.param(fn, (m, 2), (n, 2), "both sets need at least 2 points",
                 id=f"{m}-{n}-{fn.__name__}")
    for m, n in [(1, 5), (5, 1), (0, 3)] for fn in (mmd, mmd_permutation_null)
] + [
    pytest.param(fn, x_shape, y_shape, "sets must be 2-D with the same number of columns",
                 id=f"{shape_id(x_shape)}-{shape_id(y_shape)}-{fn.__name__}")
    for x_shape, y_shape in [((50, 2), (60, 3)), ((50, 3), (60, 2)), ((4, 2, 1), (5, 2))]
    for fn in (mmd, mmd_permutation_null, audit, coverage)
] + [
    # a 1-D set is one point to the audit and to coverage
    pytest.param(fn, (50,), (60, 2), "sets must be 2-D with the same number of columns",
                 id=f"50-60x2-{fn.__name__}")
    for fn in (mmd, mmd_permutation_null)
]


class TestMMD:
    def test_self_mmd_non_positive(self, rng):
        x = rng.standard_normal((200, 2))
        assert mmd(x, x) <= 1e-12

    def test_matching_distributions_within_null(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((1000, 2))
        y = rng.standard_normal((1000, 2))
        observed = mmd(x, y)
        null = mmd_permutation_null(x, y, n_permutations=100, seed=1)
        assert abs(observed) < 3.0 * null.std() + abs(null.mean())

    def test_disjoint_clusters_dominate_null(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((400, 2))
        y = rng.standard_normal((400, 2)) + 10.0
        observed = mmd(x, y)
        null = mmd_permutation_null(x, y, n_permutations=100, seed=2)
        assert observed > null.mean() + 10.0 * null.std()

    @pytest.mark.parametrize("m,n,seed", [(300, 300, 1), (250, 170, 2), (40, 90, 3)])
    def test_null_matches_gathered_blocks(self, m, n, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((m, 2))
        y = 1.2 * rng.standard_normal((n, 2)) + 0.2
        want = gathered_null(x, y, n_permutations=60, seed=seed)
        got = mmd_permutation_null(x, y, n_permutations=60, seed=seed)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-9 * np.max(np.abs(want))

    def test_symmetry_exact(self, rng):
        a = rng.standard_normal((150, 2))
        b = rng.standard_normal((130, 2)) + 0.3
        assert mmd(a, b) == mmd(b, a)

    @pytest.mark.parametrize("fn, x_shape, y_shape, match", REJECTED_SETS)
    def test_small_sets_rejected(self, fn, x_shape, y_shape, match):
        with pytest.raises(ValueError, match=match) as err:
            fn(np.zeros(x_shape), np.ones(y_shape))
        assert f"shapes {x_shape} and {y_shape}" in str(err.value)

    @pytest.mark.parametrize("perms", [0, -1])
    def test_null_needs_a_permutation(self, perms):
        with pytest.raises(ValueError, match="n_permutations must be >= 1"):
            mmd_permutation_null(np.zeros((3, 2)), np.ones((4, 2)), n_permutations=perms)


class TestModeCoverage:
    def test_samples_equal_modes(self):
        modes = np.array([[0.0, 0.0], [4.0, 4.0]])
        assert mode_coverage(modes, modes, 0.1) == (1.0, 1.0)

    def test_far_samples(self):
        modes = np.array([[0.0, 0.0]])
        samples = np.full((10, 2), 50.0)
        assert mode_coverage(samples, modes, 1.0) == (0.0, 0.0)

    def test_half_modes_hit(self):
        modes = np.array([[0.0, 0.0], [10.0, 0.0]])
        samples = np.array([[0.1, 0.0], [0.0, 0.1]])
        covered, in_mode = mode_coverage(samples, modes, 0.5)
        assert covered == 0.5 and in_mode == 1.0

    def test_empty_modes_rejected(self):
        with pytest.raises(ValueError):
            mode_coverage(np.zeros((2, 2)), np.zeros((0, 2)), 1.0)


class TestAUROC:
    def test_perfect_separation(self):
        assert auroc([0.0, 0.1, 0.2], [1.0, 2.0, 3.0]) == 1.0

    def test_identical_scores_half(self):
        assert auroc([1.0, 1.0], [1.0, 1.0]) == 0.5

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            auroc([], [1.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("side", ["id", "ood"])
    def test_non_finite_rejected(self, bad, side):
        scores = [0.0, bad, 1.0]
        args = (scores, [2.0, 3.0]) if side == "id" else ([2.0, 3.0], scores)
        with pytest.raises(ValueError, match="finite"):
            auroc(*args)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(min_value=0, max_value=2 ** 31 - 1))
    def test_invariant_under_monotone_transforms(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal(40)
        b = rng.standard_normal(35) + 0.5
        base = auroc(a, b)
        for f in (lambda s: 3.0 * s + 7.0, np.tanh, lambda s: s ** 3):
            assert auroc(f(np.asarray(a)), f(np.asarray(b))) == pytest.approx(base, abs=1e-15)


def point_sets(seed, d, m, n, log_scale, duplicates):
    rng = np.random.default_rng(seed)
    scale = 10.0 ** log_scale
    x = scale * rng.standard_normal((m, d))
    y = scale * rng.standard_normal((n, d))
    if duplicates:  # shared rows (zero distances) and repeated rows
        j = min(m, n) // 2
        y[:j] = x[:j]
        x[m // 2:] = x[0]
    return x, y


point_set_args = dict(seed=st.integers(0, 2 ** 32 - 1), m=st.integers(1, 150),
                      n=st.integers(1, 150), log_scale=st.floats(-3.0, 3.0),
                      duplicates=st.booleans())


class TestScipyOracle:
    """The numpy distances and ranks have scipy's bits; scipy is the oracle
    here and nowhere in the package."""

    @settings(max_examples=80, deadline=None)
    @given(d=st.integers(1, 8), **point_set_args)
    def test_sq_dists_equal_cdist(self, seed, d, m, n, log_scale, duplicates):
        distance = pytest.importorskip("scipy.spatial.distance")
        x, y = point_sets(seed, d, m, n, log_scale, duplicates)
        sq = _sq_dists(x, y)
        assert np.array_equal(sq, distance.cdist(x, y, "sqeuclidean"))
        assert np.array_equal(np.sqrt(sq), distance.cdist(x, y))

    @settings(max_examples=40, deadline=None)
    @given(**point_set_args)
    def test_kernel_matrix_equals_kernel_of_cdist(self, seed, m, n, log_scale, duplicates):
        distance = pytest.importorskip("scipy.spatial.distance")
        x, y = point_sets(seed, 2, m, n, log_scale, duplicates)
        want = _kernel_sum(distance.cdist(x, y, "sqeuclidean"))
        assert np.array_equal(_kernel_matrix(x, y), want)

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), size=st.integers(1, 300),
           levels=st.sampled_from([0, 1, 3, 20]))
    def test_average_ranks_equal_rankdata(self, seed, size, levels):
        """levels > 0 draws from that many distinct values (ties); 0 draws
        continuous values (no ties)."""
        stats = pytest.importorskip("scipy.stats")
        rng = np.random.default_rng(seed)
        a = (rng.integers(0, levels, size).astype(np.float64) if levels
             else rng.standard_normal(size))
        assert np.array_equal(_average_ranks(a), stats.rankdata(a))


class TestNearestNeighbors:
    def test_exact_match_distance_zero(self):
        train = np.array([[1.0, 2.0], [5.0, 5.0]])
        d = nearest_neighbor_audit(np.array([[1.0, 2.0]]), train, k=1)
        assert d[0, 0] == 0.0

    def test_k_too_large(self):
        with pytest.raises(ValueError, match="exceeds"):
            nearest_neighbor_audit(np.zeros((1, 2)), np.zeros((3, 2)), k=4)

    def test_against_bruteforce_oracle(self, rng):
        train = rng.standard_normal((50, 2))
        queries = rng.standard_normal((100, 2))
        got = nearest_neighbor_audit(queries, train, k=3)
        for i, q in enumerate(queries):
            d = sorted(float(((q - t) ** 2).sum()) for t in train)
            np.testing.assert_allclose(got[i], d[:3], rtol=1e-12)


class TestPartialNoiseSweep:
    def test_gamma_zero_equals_standard_generation(self, rng):
        def field(x, progress):
            return x

        holdout = rng.standard_normal((120, 2))
        reference = rng.standard_normal((120, 2))
        config = SamplerConfig(eta=0.2, steps=10)
        curves = partial_noise_sweep(field, field, [0.0], config, holdout,
                                     reference, seed=3)
        eps = np.random.default_rng(3).standard_normal(holdout.shape)
        direct = max(0.0, mmd(sample(field, eps, config).final, reference))
        assert curves["model"][0] == direct == curves["baseline"][0]


class TestLedger:
    def test_component_energy_identity(self, rng):
        m = identity_model()
        x = rng.standard_normal((6, 2))
        np.testing.assert_allclose(component_energy(m, x), (x * x).sum(axis=1),
                                   atol=1e-12)

    def test_append_and_lookup(self, tmp_path):
        path = tmp_path / "ledger.csv"
        fp = config_fingerprint({"seed": 1, "metric": "mmd"})
        append_reports(path, [EvalReport("mmd", 0.25, fp, 1, aux={"n": 10})])
        assert ledger_has(path, fp)
        assert not ledger_has(path, "deadbeef")

    def test_torn_row_neither_counts_nor_joins_the_next(self, tmp_path):
        """A crash inside an older version's append left a torn last row. It
        holds the fingerprint of the suite being written, but that suite's
        result is not in the ledger. The next append drops it, and its own
        rows stay whole."""
        path = tmp_path / "ledger.csv"
        append_reports(path, [EvalReport("mmd", 0.25, "fp1", 1)])
        with open(path, "a", newline="") as fh:
            fh.write("fp2,mmd-nu")
        assert not ledger_has(path, "fp2")
        append_reports(path, [EvalReport("mmd-null-p99", 0.5, "fp3", 0, aux={"n": 2}),
                              EvalReport("mmd", 0.125, "fp3", 0)])
        assert ledger_has(path, "fp1") and ledger_has(path, "fp3")
        assert not ledger_has(path, "fp2")
        whole = tmp_path / "whole.csv"
        append_reports(whole, [EvalReport("mmd", 0.25, "fp1", 1)])
        append_reports(whole, [EvalReport("mmd-null-p99", 0.5, "fp3", 0, aux={"n": 2}),
                               EvalReport("mmd", 0.125, "fp3", 0)])
        assert path.read_bytes() == whole.read_bytes()
        # an older version's next append joined its first row onto the torn one
        with open(path, "a", newline="") as fh:
            fh.write("fp2,mmd-nufp4,mmd,0.5,0,{}\r\n")
        assert not ledger_has(path, "fp2") and not ledger_has(path, "fp4")

    def test_failed_append_leaves_the_ledger_as_it_was(self, tmp_path, monkeypatch):
        path = tmp_path / "ledger.csv"
        append_reports(path, [EvalReport("mmd", 0.25, "fp1", 1)])
        before = path.read_bytes()

        def no_space(fd):
            raise OSError("no space left on device")

        monkeypatch.setattr(data.os, "fsync", no_space)  # after the rows are written
        with pytest.raises(OSError, match="no space"):
            append_reports(path, [EvalReport("mmd", 0.5, "fp2", 0)])
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ledger.csv"]

    def test_fingerprint_stable_and_order_free(self):
        assert config_fingerprint({"a": 1, "b": 2}) == config_fingerprint({"b": 2, "a": 1})

    def test_non_finite_metric_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            EvalReport("mmd", float("nan"), "ab", 0)
