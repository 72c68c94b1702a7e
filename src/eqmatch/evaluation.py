"""Quantitative checks: stationarity at data, local-minima membership,
the descent convergence bound, and desk-scale sample-quality metrics.

FID does not exist at 2D scale; quality is measured by an unbiased squared
MMD with a sum of RBF kernels (never presented as FID), with significance
judged against a permutation null. Neither holds a kernel matrix: each
makes it one block of ROW_BLOCK rows at a time, reduces every block with
`np.add.reduce` and adds the block results in row order, so memory is
O(block x n). That order is the estimator's own: the null's product with
the permutation indicators is an einsum, which calls no BLAS, so the bits
are the same at every BLAS thread count.

Distances and ranks are plain numpy, bit-identical to scipy's
`cdist(..., "sqeuclidean")`, `cdist(...)` and `rankdata(...)`; scipy is only
the test oracle, so importing eqmatch does not pay for loading it.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .data import write_csv
from .model import GradientFieldModel
from .objective import corrupt
from .sampler import SamplerConfig, as_field, sample

DEFAULT_BANDWIDTHS = (0.1, 0.5, 1.0, 2.0, 5.0)
# rows per distance and kernel block: the [64, n] temporaries stay in
# cache, where whole-matrix temporaries ran 4-6x slower than scipy's cdist,
# and the MMD sums one such block of the kernel matrix at a time
ROW_BLOCK = 64
# rows per piece that `_kernel_matrix` fills a block in, so its distances
# and kernel terms are [16, n]; the entries, and so every sum, keep their bits
KERNEL_ROWS = 16


def _sq_dists(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances [len(x), len(y)], accumulating
    (x_k - y_k)^2 one coordinate at a time in k order, as scipy's cdist does,
    so the bits equal `cdist(x, y, "sqeuclidean")`; `np.sqrt` of them equals
    `cdist(x, y)`."""
    out = np.empty((len(x), len(y)))
    yt = np.ascontiguousarray(y.T)
    for i in range(0, len(x), ROW_BLOCK):
        xb, blk = x[i:i + ROW_BLOCK], out[i:i + ROW_BLOCK]
        np.subtract(xb[:, :1], yt[0], out=blk)
        blk *= blk
        for k in range(1, x.shape[1]):
            diff = xb[:, k:k + 1] - yt[k]
            diff *= diff
            blk += diff
    return out


def _average_ranks(a: np.ndarray) -> np.ndarray:
    """1-based ranks with ties given their mean rank, by scipy's
    `rankdata(a)` formula and with its bits."""
    order = np.argsort(a, kind="mergesort")
    ordered = a[order]
    starts = np.concatenate([[True], ordered[1:] != ordered[:-1]])
    dense = np.empty(len(a), dtype=np.intp)
    dense[order] = np.cumsum(starts)
    count = np.concatenate([np.flatnonzero(starts), [len(a)]])
    return 0.5 * (count[dense] + count[dense - 1] + 1)


# ---------------------------------------------------------------------------
# stationarity / minima checks


def grad_norm_at_data(model_or_field, data: np.ndarray, seed: int = 0) -> dict[str, float]:
    """The mean gradient norm at data points, and at half-corrupted points as
    the contrast scale."""
    f = as_field(model_or_field)
    data = np.asarray(data, dtype=np.float64)
    at_data = np.linalg.norm(f(data, 0.0), axis=1)
    rng = np.random.default_rng(seed)
    halfway = corrupt(data, rng.standard_normal(data.shape), np.full(len(data), 0.5))
    at_half = np.linalg.norm(f(halfway, 0.0), axis=1)
    return {"at_data": float(at_data.mean()), "at_half_corrupted": float(at_half.mean())}


def local_minima_membership(model_or_field, data: np.ndarray, n_inits: int,
                            radius: float, config: SamplerConfig,
                            seed: int = 0) -> float:
    """Fraction of descent endpoints (from fresh noise) that land within
    `radius` of some data point."""
    data = np.asarray(data, dtype=np.float64)
    x0 = np.random.default_rng(seed).standard_normal((n_inits, data.shape[1]))
    endpoints = sample(model_or_field, x0, config).final
    d = np.sqrt(_sq_dists(endpoints, data))
    return float(np.mean(d.min(axis=1) <= radius))


# ---------------------------------------------------------------------------
# convergence bound on analytic quadratics


@dataclass
class QuadraticEnergy:
    """E(x) = 0.5 x^T A x for symmetric PSD A; smoothness constant is the
    largest eigenvalue and the infimum is 0."""

    A: np.ndarray

    def __post_init__(self):
        self.A = np.asarray(self.A, dtype=np.float64)
        if self.A.ndim != 2 or self.A.shape[0] != self.A.shape[1]:
            raise ValueError("A must be square")
        if not np.allclose(self.A, self.A.T):
            raise ValueError("A must be symmetric")
        eigs = np.linalg.eigvalsh(self.A)
        if eigs.min() < -1e-12:
            raise ValueError("A must be positive semi-definite")
        self.L = float(eigs.max())

    def energy(self, x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(x)
        return 0.5 * np.sum(x * (x @ self.A), axis=1)

    def grad(self, x: np.ndarray) -> np.ndarray:
        return np.atleast_2d(x) @ self.A

    e_inf: float = field(default=0.0, init=False)


@dataclass
class BoundCheckResult:
    passed: bool
    worst_slack: float  # min over cases of (bound - achieved); >= 0 iff passed
    trivial: bool       # eta == 0 makes the bound vacuous
    violations: int = 0


def convergence_bound_check(quad: QuadraticEnergy, eta: float,
                            horizons: list[int], x0s: np.ndarray) -> BoundCheckResult:
    """Assert min_{k<K} ||grad(x_k)||^2 <= 2 (E(x0) - E_inf) / (eta K) for
    every start and horizon; requires eta <= 1/L."""
    if eta < 0.0:
        raise ValueError("eta must be >= 0")
    if eta == 0.0:
        return BoundCheckResult(passed=True, worst_slack=np.inf, trivial=True)
    if eta > 1.0 / quad.L + 1e-12:
        raise ValueError(f"eta={eta} exceeds 1/L={1.0 / quad.L}")
    x0s = np.atleast_2d(np.asarray(x0s, dtype=np.float64))
    k_max = max(horizons)
    x = x0s.copy()
    sq_norms = np.empty((k_max, len(x0s)))
    for k in range(k_max):
        g = quad.grad(x)
        sq_norms[k] = np.sum(g * g, axis=1)
        x = x - eta * g
    e0 = quad.energy(x0s)
    worst = np.inf
    violations = 0
    for K in horizons:
        achieved = sq_norms[:K].min(axis=0)
        bound = 2.0 * (e0 - quad.e_inf) / (eta * K)
        slack = bound - achieved
        worst = min(worst, float(slack.min()))
        violations += int(np.sum(slack < 0))
    return BoundCheckResult(passed=violations == 0, worst_slack=worst,
                            trivial=False, violations=violations)


# ---------------------------------------------------------------------------
# two-sample quality metrics


def _kernel_sum(sq_dists: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The sum over DEFAULT_BANDWIDTHS of exp(-0.5 * sq_dists / bw^2), added
    in that order from 0.0 straight into `out` (of sq_dists' shape; else a
    fresh array), each term made in one reused buffer."""
    k = np.empty_like(sq_dists) if out is None else out
    k.fill(0.0)
    term = np.empty_like(sq_dists)
    for bw in DEFAULT_BANDWIDTHS:
        np.multiply(sq_dists, -0.5, out=term)
        term /= bw * bw
        np.exp(term, out=term)
        k += term
    return k


def _kernel_matrix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """`_kernel_sum(cdist(x, y, "sqeuclidean"))` with the same bits, filled
    KERNEL_ROWS rows at a time so no distance matrix of its size is held."""
    k = np.empty((len(x), len(y)))
    for i in range(0, len(x), KERNEL_ROWS):
        _kernel_sum(_sq_dists(x[i:i + KERNEL_ROWS], y), out=k[i:i + KERNEL_ROWS])
    return k


def _cross_sum(x: np.ndarray, y: np.ndarray) -> np.float64:
    """The sum of `_kernel_matrix(x, y)`, made one block of ROW_BLOCK rows
    at a time: each block is one `np.add.reduce`, added in row order."""
    total = np.float64(0.0)
    for a in range(0, len(x), ROW_BLOCK):
        total += np.add.reduce(_kernel_matrix(x[a:a + ROW_BLOCK], y), axis=None)
    return total


def _pair_sums(x: np.ndarray, s: np.ndarray | None = None):
    """Sums over the pairs i < j of K = `_kernel_matrix(x, x)`, which is
    symmetric to the bit. U is K above its diagonal: its rows a:b are
    `_kernel_matrix(x[a:b], x[a:])` with the entries on and below the
    diagonal set to 0.0, made once and reduced by `np.add.reduce`, and the
    block results are added in row order. Returns the sum of U and, for an
    [len(x), p] matrix `s` (else None), the row sums of U + U^T and the
    column sums of S * (U S); U S is an einsum, which calls no BLAS.
    """
    total = np.float64(0.0)
    degree = sus = None
    if s is not None:
        degree, sus = np.zeros(len(x)), np.zeros(s.shape[1])
    for a in range(0, len(x), ROW_BLOCK):
        u = _kernel_matrix(x[a:a + ROW_BLOCK], x[a:])
        b = a + len(u)
        u[np.tril_indices(len(u))] = 0.0
        total += np.add.reduce(u, axis=None)
        if s is not None:
            degree[a:b] += np.add.reduce(u, axis=1)
            degree[a:] += np.add.reduce(u, axis=0)
            sus += np.add.reduce(s[a:b] * np.einsum("ij,jp->ip", u, s[a:]), axis=0)
        del u  # before the next block's rows are made
    return total, degree, sus


def _check_sets(x: np.ndarray, y: np.ndarray, least: int = 0) -> None:
    """Both sets 2-D with the same number of columns, and at least `least`
    points each."""
    if x.ndim != 2 or y.ndim != 2 or x.shape[1] != y.shape[1]:
        raise ValueError(f"sets must be 2-D with the same number of columns, "
                         f"got shapes {x.shape} and {y.shape}")
    if len(x) < least or len(y) < least:
        raise ValueError(f"both sets need at least {least} points, "
                         f"got shapes {x.shape} and {y.shape}")


def mmd(samples: np.ndarray, reference: np.ndarray) -> float:
    """Unbiased squared MMD under a sum of RBF kernels. The estimator may go
    slightly negative on matching distributions; callers clamp for reporting."""
    x = np.asarray(samples, dtype=np.float64)
    y = np.asarray(reference, dtype=np.float64)
    _check_sets(x, y, least=2)
    # the estimator is symmetric; canonicalize operand order so the float
    # summation order is too, making mmd(a, b) == mmd(b, a) bit-exact
    if x.tobytes() > y.tobytes():
        x, y = y, x
    m, n = len(x), len(y)
    a = 2.0 * _pair_sums(x)[0] / (m * (m - 1))
    b = 2.0 * _pair_sums(y)[0] / (n * (n - 1))
    c = _cross_sum(x, y) / (m * n)
    return float(a + b - 2.0 * c)


def mmd_permutation_null(samples: np.ndarray, reference: np.ndarray,
                         n_permutations: int = 200, seed: int = 0) -> np.ndarray:
    """Null distribution of the estimator under pooled relabeling.

    K is the kernel matrix over the pool with a zero diagonal, U its part
    above the diagonal (K = U + U^T), and S the indicator [m+n, P] of each
    permutation's first m rows: per permutation, the x-x block sums to
    sxx = 2 sum(S * US), the x columns to r = 1^T KS = (row sums of K)^T S,
    so the x-y block is r - sxx and the y-y block K.sum() - 2r + sxx. U and
    US are reduced one row block at a time (`_pair_sums`).
    """
    x = np.asarray(samples, dtype=np.float64)
    y = np.asarray(reference, dtype=np.float64)
    _check_sets(x, y, least=2)
    m, n = len(x), len(y)
    if n_permutations < 1:
        raise ValueError(f"n_permutations must be >= 1, got {n_permutations}")
    pool = np.concatenate([x, y])
    rng = np.random.default_rng(seed)
    s = np.zeros((m + n, n_permutations))
    for i in range(n_permutations):
        s[rng.permutation(m + n)[:m], i] = 1.0
    pairs, degree, sus = _pair_sums(pool, s)
    k_sum, r, sxx = 2.0 * pairs, np.einsum("j,jp->p", degree, s), 2.0 * sus
    kxx = sxx / (m * (m - 1))
    kyy = (k_sum - 2.0 * r + sxx) / (n * (n - 1))
    kxy = (r - sxx) / (m * n)
    return kxx + kyy - 2.0 * kxy


def mode_coverage(samples: np.ndarray, modes: np.ndarray,
                  radius: float) -> tuple[float, float]:
    """(fraction of modes with >= 1 sample within radius,
        fraction of samples within radius of any mode)."""
    samples = np.atleast_2d(np.asarray(samples, dtype=np.float64))
    modes = np.atleast_2d(np.asarray(modes, dtype=np.float64))
    _check_sets(samples, modes)
    if len(modes) == 0:
        raise ValueError("modes must be non-empty")
    d = np.sqrt(_sq_dists(samples, modes))
    covered = float(np.mean(d.min(axis=0) <= radius))
    in_mode = float(np.mean(d.min(axis=1) <= radius))
    return covered, in_mode


def auroc(scores_id: np.ndarray, scores_ood: np.ndarray) -> float:
    """Rank AUROC with half credit for ties; higher score means more OOD."""
    scores_id = np.asarray(scores_id, dtype=np.float64)
    scores_ood = np.asarray(scores_ood, dtype=np.float64)
    if len(scores_id) == 0 or len(scores_ood) == 0:
        raise ValueError("both score sets must be non-empty")
    pooled = np.concatenate([scores_id, scores_ood])
    if not np.all(np.isfinite(pooled)):
        raise ValueError("scores must be finite")
    ranks = _average_ranks(pooled)
    n_id, n_ood = len(scores_id), len(scores_ood)
    r_ood = ranks[n_id:].sum()
    u = r_ood - n_ood * (n_ood + 1) / 2.0
    return float(u / (n_id * n_ood))


def nearest_neighbor_audit(samples: np.ndarray, train: np.ndarray,
                           k: int) -> np.ndarray:
    """Exact top-k squared Euclidean distances into the train set, ascending."""
    samples = np.atleast_2d(np.asarray(samples, dtype=np.float64))
    train = np.atleast_2d(np.asarray(train, dtype=np.float64))
    _check_sets(samples, train)
    if k < 1:
        raise ValueError("k must be >= 1")
    if k > len(train):
        raise ValueError(f"k={k} exceeds train set size {len(train)}")
    d = _sq_dists(samples, train)
    return np.sort(d, axis=1)[:, :k]


def component_energy(model: GradientFieldModel, x, label=None) -> np.ndarray:
    """Dot-construction energy x . f(x) applied to ANY field model, used to
    score composed samples against each member component."""
    x = np.asarray(x, dtype=np.float64)
    f = model.forward_values(x, label=label)
    return np.sum(x * f, axis=1)


def partial_noise_sweep(model_field, baseline_field, gammas, config: SamplerConfig,
                        holdout: np.ndarray, reference: np.ndarray,
                        seed: int = 0) -> dict:
    """Quality-vs-start-noise curves: corrupt held-out data at each start
    gamma, denoise with both fields, score MMD against the reference."""
    holdout = np.asarray(holdout, dtype=np.float64)
    curves = {"gamma": [float(g) for g in gammas], "model": [], "baseline": []}
    for i, g in enumerate(gammas):
        rng = np.random.default_rng(seed + i)
        eps = rng.standard_normal(holdout.shape)
        start = corrupt(holdout, eps, np.full(len(holdout), float(g)))
        for key, fld in (("model", model_field), ("baseline", baseline_field)):
            final = sample(fld, start, config).final
            curves[key].append(max(0.0, mmd(final, reference)))
    return curves


# ---------------------------------------------------------------------------
# results ledger


def config_fingerprint(payload: dict) -> str:
    """Stable id for (checkpoint, sampler config, dataset, seed) tuples."""
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


@dataclass
class EvalReport:
    metric: str
    value: float
    fingerprint: str
    seed: int
    aux: dict = field(default_factory=dict)

    def __post_init__(self):
        if not np.isfinite(self.value):
            raise ValueError(f"metric '{self.metric}' produced a non-finite value")


LEDGER_HEADER = ["fingerprint", "metric", "value", "seed", "aux"]


def _ledger_rows(path) -> list[list[str]]:
    """The rows of the ledger at `path` below its header that a newline ends
    and that have every column. A crash while an older version appended to
    a ledger could tear its last row, and that version's next append joined
    its first row onto the torn one: neither counts."""
    path = Path(path)
    if not path.exists():
        return []
    with open(path, newline="") as fh:
        text = fh.read()
    whole = text[:text.rfind("\n") + 1]
    return [row for row in list(csv.reader(io.StringIO(whole)))[1:]
            if len(row) == len(LEDGER_HEADER)]


def append_reports(path, reports: list[EvalReport]) -> None:
    """Add `reports` to the ledger at `path`. Its rows and the new ones are
    rewritten through `write_csv`'s temporary file, so a crash leaves all of
    the new rows or none of them."""
    write_csv(path, LEDGER_HEADER, _ledger_rows(path) + [
        [r.fingerprint, r.metric, float(r.value), r.seed, json.dumps(r.aux, sort_keys=True)]
        for r in reports])


def ledger_has(path, fingerprint: str) -> bool:
    """Whether the ledger at `path` holds a row of `fingerprint`."""
    return any(row[0] == fingerprint for row in _ledger_rows(path))
