"""Toy 2D data sources with deterministic seeding.

Data is standardized to roughly unit scale (modes inside [-4, 4]^2) so the
unit-Gaussian noise end of the corruption path lives on a comparable scale.
Labels are mixture-component (or moon) indices and double as class
conditions.

The module also owns the CSV format of every table eqmatch writes or reads
(`write_csv`, `read_csv`, `read_points`, `table_values`).
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

KINDS = ("gaussian-mixture", "two-moons", "checkerboard", "uniform-box")

FLOAT_FMT = "%.17g"  # round-trips float64 exactly


def default_modes(n_modes: int = 8, radius: float = 1.5) -> np.ndarray:
    """Equally spaced circle modes, offset so none sits on the x1=x2 diagonal
    (keeps the constant-point OOD set away from the data).

    The default radius keeps the mixture at roughly unit scale per
    coordinate, comparable to the standard-normal noise end of the
    corruption path; with data far outside the noise bulk the interior of
    the true equilibrium field degenerates into a spurious basin around the
    data mean and descent from noise never escapes it."""
    angles = np.pi / 8.0 + 2.0 * np.pi * np.arange(n_modes) / n_modes
    return radius * np.stack([np.cos(angles), np.sin(angles)], axis=1)


@dataclass
class ToyDistribution:
    kind: str = "gaussian-mixture"
    modes: np.ndarray = field(default_factory=default_modes)
    mode_std: float | np.ndarray = 0.3
    weights: np.ndarray | None = None
    box: tuple[float, float, float, float] = (-8.0, 8.0, -8.0, 8.0)
    noise_scale: float = 0.08

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown distribution kind '{self.kind}'")
        self.modes = _finite("modes", self.modes).reshape(-1, 2)
        if len(self.modes) == 0:
            raise ValueError("modes must hold at least one mode")
        stds = np.broadcast_to(_finite("mode_std", self.mode_std), (len(self.modes),))
        if np.any(stds <= 0.0):
            raise ValueError("mode_std must be > 0")
        if self.weights is None:
            self.weights = np.full(len(self.modes), 1.0 / len(self.modes))
        self.weights = _finite("weights", self.weights)
        if self.weights.shape != (len(self.modes),):
            raise ValueError("one weight per mode required")
        if abs(float(self.weights.sum()) - 1.0) > 1e-12 or np.any(self.weights < 0):
            raise ValueError("weights must be non-negative and sum to 1")
        box = _finite("box", self.box)
        if box.shape != (4,) or not (box[0] < box[1] and box[2] < box[3]):
            raise ValueError(f"box: {self.box} is not xmin, xmax, ymin, ymax "
                             "with xmin < xmax and ymin < ymax")


def _finite(name: str, value) -> np.ndarray:
    """`value` as a float64 array; ValueError naming `name` unless every
    entry is a finite number (not a string, null or boolean)."""
    try:
        arr = np.asarray(value)
    except ValueError:  # ragged nesting
        arr = np.array(None)
    if arr.dtype.kind not in "iuf" or not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must hold finite numbers, got {value!r:.60}")
    return np.asarray(arr, dtype=np.float64)


def _sample_mixture(dist: ToyDistribution, n: int, rng) -> tuple[np.ndarray, np.ndarray]:
    comp = rng.choice(len(dist.modes), size=n, p=dist.weights)
    stds = np.broadcast_to(np.asarray(dist.mode_std, dtype=np.float64),
                           (len(dist.modes),))
    pts = dist.modes[comp] + stds[comp, None] * rng.standard_normal((n, 2))
    return pts, comp.astype(np.int64)


def _sample_moons(dist: ToyDistribution, n: int, rng) -> tuple[np.ndarray, np.ndarray]:
    n_out = n - n // 2
    t_out = rng.uniform(0.0, np.pi, n_out)
    t_in = rng.uniform(0.0, np.pi, n // 2)
    outer = np.stack([np.cos(t_out), np.sin(t_out)], axis=1)
    inner = np.stack([1.0 - np.cos(t_in), 0.5 - np.sin(t_in)], axis=1)
    pts = 2.5 * np.concatenate([outer, inner]) - np.array([1.25, 0.6])
    pts = pts + dist.noise_scale * rng.standard_normal((n, 2))
    labels = np.concatenate([np.zeros(n_out, np.int64), np.ones(n // 2, np.int64)])
    return pts, labels


def _sample_checkerboard(n: int, rng) -> tuple[np.ndarray, np.ndarray]:
    x1 = rng.uniform(-2.0, 2.0, n)
    x2 = rng.uniform(0.0, 1.0, n) - rng.integers(0, 2, n) * 2.0
    x2 = x2 + np.floor(x1) % 2
    return 2.0 * np.stack([x1, x2], axis=1), np.zeros(n, np.int64)


def _sample_box(dist: ToyDistribution, n: int, rng) -> tuple[np.ndarray, np.ndarray]:
    xmin, xmax, ymin, ymax = dist.box
    pts = np.stack([rng.uniform(xmin, xmax, n), rng.uniform(ymin, ymax, n)], axis=1)
    return pts, np.zeros(n, np.int64)


def draw_from(dist: ToyDistribution, n: int, rng: np.random.Generator
              ) -> tuple[np.ndarray, np.ndarray]:
    """i.i.d. draws plus integer labels from a caller-owned generator (the
    training loop's stream)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if dist.kind == "gaussian-mixture":
        return _sample_mixture(dist, n, rng)
    if dist.kind == "two-moons":
        return _sample_moons(dist, n, rng)
    if dist.kind == "checkerboard":
        return _sample_checkerboard(n, rng)
    return _sample_box(dist, n, rng)


def sample_noise(n: int, d: int, seed: int) -> np.ndarray:
    """Standard normal [n, d], the gamma=0 endpoint of the corruption path."""
    if n < 1 or d < 1:
        raise ValueError("n and d must be >= 1")
    return np.random.default_rng(seed).standard_normal((n, d))


def fixed_memorization_set(k: int = 8, seed: int = 0) -> np.ndarray:
    """k well-separated fixed points (pairwise distance >= 2): one at the
    origin plus a seed-rotated ring. The overfitting fixture for the
    stationarity and local-minima checks.

    Placing a point at the set's mean matters: the true equilibrium field of
    a finite point set always has an interior critical point at the data
    mean (the noise-like region sees only the average pull), and descent
    started from standard noise passes through it. With this layout that
    critical point is itself a training point rather than a spurious
    minimum."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if k > 12:
        raise ValueError("memorization set is meant to be small (k <= 12)")
    center = np.zeros((1, 2))
    if k == 1:
        return center
    n_ring = k - 1
    radius = 2.4 if n_ring < 3 else max(2.4, 1.01 / np.sin(np.pi / n_ring))
    phase = np.random.default_rng(seed).uniform(0.0, 2.0 * np.pi)
    angles = phase + 2.0 * np.pi * np.arange(n_ring) / n_ring
    ring = radius * np.stack([np.cos(angles), np.sin(angles)], axis=1)
    return np.concatenate([center, ring])


# ---------------------------------------------------------------------------
# out-of-distribution sets


def ood_sets(dist: ToyDistribution, n: int, seed: int) -> dict[str, np.ndarray]:
    """Three OOD sets against an in-distribution mixture: the mixture shifted
    by +8 in both coordinates, a uniform box over [-8, 8]^2, and constant
    points (both coordinates equal)."""
    rng = np.random.default_rng(seed)
    shifted, _ = _sample_mixture(dist, n, rng)
    shifted = shifted + 8.0
    box = np.stack([rng.uniform(-8, 8, n), rng.uniform(-8, 8, n)], axis=1)
    c = rng.uniform(-8.0, 8.0, n)
    constant = np.stack([c, c], axis=1)
    return {"shifted-mixture": shifted, "uniform-box": box, "constant": constant}


# ---------------------------------------------------------------------------
# CSV tables


def write_csv(path, header: list[str], rows, append: bool = False) -> None:
    """Write a table: the header line, then one line per row. Float cells
    print as FLOAT_FMT, None as an empty cell and any other cell as str, so
    a caller that wants a float printed otherwise passes it as text. With
    `append`, an existing file keeps its header and rows and gains `rows`.

    The file is on disk when this returns. An append is fsynced in place;
    any other write goes to a temporary file beside `path`, which is fsynced
    and then renamed over it, so a failure leaves the old file as it was."""
    path = Path(path)
    fresh = not (append and path.exists())
    target = path.with_name(path.name + ".tmp") if fresh else path
    try:
        with open(target, "w" if fresh else "a", newline="") as fh:
            w = csv.writer(fh)
            if fresh:
                w.writerow(header)
            w.writerows([FLOAT_FMT % v if isinstance(v, float) else v for v in row]
                        for row in rows)
            fh.flush()
            os.fsync(fh.fileno())
        if fresh:
            os.replace(target, path)
    except BaseException:
        if fresh:
            target.unlink(missing_ok=True)
        raise


def read_csv(path) -> list[dict[str, str]]:
    """The rows of a table as dicts keyed by its header."""
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def read_points(path) -> np.ndarray:
    """The [n, d] points of a table, read by name from its columns x0 ...
    x{d-1}; any other column (sample id, label, steps) is ignored. Every
    coordinate must be a finite number (`table_values`)."""
    from .config import ValidationError  # config imports this module

    rows = read_csv(path)
    d = 0
    while rows and f"x{d}" in rows[0]:
        d += 1
    if d == 0:
        raise ValidationError(f"{path}: no points (a points table needs an x0 "
                              "column and at least one row)")
    return table_values(path, rows, [f"x{i}" for i in range(d)])


def table_values(path, rows: list[dict[str, str]], columns: list[str]) -> np.ndarray:
    """The [n, k] values of the named `columns` of `rows`, the table at
    `path` as `read_csv` reads it. A table without rows or without one of
    the columns, a cell missing from a short row and a cell that is not a
    finite number raise ValidationError naming the file, and for a cell its
    data row and column."""
    from .config import ValidationError  # config imports this module

    for name in columns:
        if not rows or name not in rows[0]:
            raise ValidationError(f"{path}: no {name} column (the table needs one "
                                  "and at least one row)")
    values = []
    for i, row in enumerate(rows, 1):
        for name in columns:
            cell = row[name]  # None where a short row ends
            try:
                value = float(cell)
            except (TypeError, ValueError):
                value = math.nan
            if not math.isfinite(value):
                what = "missing" if cell is None else f"'{cell}' is not a finite number"
                raise ValidationError(f"{path}: data row {i}, column {name}: {what}")
            values.append(value)
    return np.array(values, dtype=np.float64).reshape(len(rows), len(columns))


def default_mixture() -> ToyDistribution:
    """The standard experiment target: 8 circle modes, sigma 0.3."""
    return ToyDistribution(kind="gaussian-mixture")
