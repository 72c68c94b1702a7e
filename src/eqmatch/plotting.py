"""Deterministic SVG emission: fixed precision, no timestamps, no randomness,
so identical inputs give byte-identical files (diffable in tests)."""

from __future__ import annotations

from pathlib import Path

import numpy as np

NUM = "%.4f"
PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
           "#8c564b", "#17becf", "#7f7f7f")

PLOT_KINDS = ("vector-field", "scatter", "contour", "step-hist", "gamma-curves")


class PlotError(ValueError):
    """Inputs that do not fit the plot kind."""


def _fmt(v: float) -> str:
    return NUM % v


class _Canvas:
    """Maps data coordinates into a fixed-size SVG viewport."""

    def __init__(self, bounds, size=480, margin=20):
        self.xmin, self.xmax, self.ymin, self.ymax = bounds
        self.size = size
        self.margin = margin
        self.body: list[str] = []

    def to_px(self, x: float, y: float) -> tuple[float, float]:
        s = self.size - 2 * self.margin
        px = self.margin + (x - self.xmin) / (self.xmax - self.xmin) * s
        py = self.margin + (self.ymax - y) / (self.ymax - self.ymin) * s
        return px, py

    def add(self, element: str) -> None:
        self.body.append(element)

    def document(self) -> str:
        head = (f'<svg xmlns="http://www.w3.org/2000/svg" width="{self.size}" '
                f'height="{self.size}" viewBox="0 0 {self.size} {self.size}">')
        frame = (f'<rect x="{self.margin}" y="{self.margin}" '
                 f'width="{self.size - 2 * self.margin}" '
                 f'height="{self.size - 2 * self.margin}" '
                 'fill="white" stroke="#333333" stroke-width="1"/>')
        return "\n".join([head, frame, *self.body, "</svg>"]) + "\n"


def _write(path, canvas: _Canvas) -> None:
    Path(path).write_text(canvas.document())


def _spread(lo: float, hi: float) -> tuple[float, float]:
    """An axis's bounds with a width: one value gets 0.5 on each side, the
    padding `data_bounds` gives scatter plots."""
    return (lo - 0.5, hi + 0.5) if lo == hi else (lo, hi)


def data_bounds(points: np.ndarray, pad: float = 0.5) -> tuple:
    lo = points.min(axis=0) - pad
    hi = points.max(axis=0) + pad
    return (float(lo[0]), float(hi[0]), float(lo[1]), float(hi[1]))


def vector_field_svg(path, field, bounds=(-4.5, 4.5, -4.5, 4.5),
                     grid: int = 40, scale: float = 0.35) -> None:
    """One arrow <path> element per grid point (grid*grid total)."""
    cv = _Canvas(bounds)
    xs = np.linspace(bounds[0], bounds[1], grid)
    ys = np.linspace(bounds[2], bounds[3], grid)
    gx, gy = np.meshgrid(xs, ys)
    pts = np.stack([gx.ravel(), gy.ravel()], axis=1)
    vec = field(pts, 0.0)
    norms = np.linalg.norm(vec, axis=1)
    top = norms.max() if norms.max() > 0 else 1.0
    cell = (bounds[1] - bounds[0]) / grid
    for (x, y), (vx, vy), n in zip(pts, vec, norms):
        if n > 0:
            # unit direction scaled by relative magnitude, capped per cell
            ln = min(n / top, 1.0) * cell * 2.0 * scale
            ux, uy = vx / n * ln, vy / n * ln
        else:
            ux = uy = 0.0
        x0, y0 = cv.to_px(x, y)
        x1, y1 = cv.to_px(x + ux, y + uy)
        hx, hy = x1 - 0.3 * (x1 - x0), y1 - 0.3 * (y1 - y0)
        wx, wy = -0.15 * (y1 - y0), 0.15 * (x1 - x0)
        d = (f"M {_fmt(x0)} {_fmt(y0)} L {_fmt(x1)} {_fmt(y1)} "
             f"M {_fmt(hx + wx)} {_fmt(hy + wy)} L {_fmt(x1)} {_fmt(y1)} "
             f"L {_fmt(hx - wx)} {_fmt(hy - wy)}")
        cv.add(f'<path class="arrow" d="{d}" fill="none" stroke="#1f77b4" '
               'stroke-width="0.8"/>')
    _write(path, cv)


def scatter_svg(path, points: np.ndarray, labels=None, bounds=None,
                radius: float = 2.0) -> None:
    points = np.asarray(points, dtype=np.float64)
    cv = _Canvas(bounds or data_bounds(points))
    for i, (x, y) in enumerate(points):
        color = PALETTE[int(labels[i]) % len(PALETTE)] if labels is not None else PALETTE[0]
        px, py = cv.to_px(x, y)
        cv.add(f'<circle class="pt" cx="{_fmt(px)}" cy="{_fmt(py)}" '
               f'r="{_fmt(radius)}" fill="{color}" fill-opacity="0.6"/>')
    _write(path, cv)


def _marching_squares(values: np.ndarray, xs: np.ndarray, ys: np.ndarray,
                      level: float) -> list[tuple]:
    """Line segments of one iso-contour on a regular grid."""
    segs = []
    for j in range(values.shape[0] - 1):
        for i in range(values.shape[1] - 1):
            corners = [(xs[i], ys[j], values[j, i]), (xs[i + 1], ys[j], values[j, i + 1]),
                       (xs[i + 1], ys[j + 1], values[j + 1, i + 1]),
                       (xs[i], ys[j + 1], values[j + 1, i])]
            pts = []
            for (xa, ya, va), (xb, yb, vb) in zip(corners, corners[1:] + corners[:1]):
                if (va < level) != (vb < level):
                    t = (level - va) / (vb - va)
                    pts.append((xa + t * (xb - xa), ya + t * (yb - ya)))
            if len(pts) >= 2:
                segs.append((pts[0], pts[1]))
            if len(pts) == 4:  # saddle cell: connect the second pair too
                segs.append((pts[2], pts[3]))
    return segs


def contour_svg(path, model, bounds=(-4.5, 4.5, -4.5, 4.5), grid: int = 60,
                levels: int = 10, label=None) -> None:
    """Iso-energy contours; only explicit-energy models carry an energy."""
    from .model import energy
    if getattr(model, "config", None) is None or model.config.energy_kind == "none":
        raise PlotError("contour plots need a model with an explicit energy head")
    cv = _Canvas(bounds)
    xs = np.linspace(bounds[0], bounds[1], grid)
    ys = np.linspace(bounds[2], bounds[3], grid)
    gx, gy = np.meshgrid(xs, ys)
    pts = np.stack([gx.ravel(), gy.ravel()], axis=1)
    vals = energy(model, pts, label=label).reshape(grid, grid)
    for li, q in enumerate(np.linspace(5, 95, levels)):
        level = float(np.percentile(vals, q))
        color = PALETTE[li % len(PALETTE)]
        for (xa, ya), (xb, yb) in _marching_squares(vals, xs, ys, level):
            pa, pb = cv.to_px(xa, ya), cv.to_px(xb, yb)
            cv.add(f'<line class="iso" x1="{_fmt(pa[0])}" y1="{_fmt(pa[1])}" '
                   f'x2="{_fmt(pb[0])}" y2="{_fmt(pb[1])}" stroke="{color}" '
                   'stroke-width="0.7"/>')
    _write(path, cv)


def histogram_svg(path, values: np.ndarray, bins: int = 30,
                  title: str = "") -> None:
    values = np.asarray(values, dtype=np.float64)
    counts, edges = np.histogram(values, bins=bins)
    cv = _Canvas((edges[0], edges[-1], 0.0, max(1.0, counts.max() * 1.05)))
    for c, e0, e1 in zip(counts, edges[:-1], edges[1:]):
        x0, y0 = cv.to_px(e0, 0.0)
        x1, y1 = cv.to_px(e1, float(c))
        cv.add(f'<rect class="bar" x="{_fmt(x0)}" y="{_fmt(y1)}" '
               f'width="{_fmt(max(x1 - x0 - 1.0, 0.5))}" height="{_fmt(y0 - y1)}" '
               f'fill="{PALETTE[0]}"/>')
    if title:
        cv.add(f'<text x="24" y="16" font-size="12">{title}</text>')
    _write(path, cv)


def curves_svg(path, x: np.ndarray, series: dict[str, np.ndarray],
               title: str = "") -> None:
    x = np.asarray(x, dtype=np.float64)
    all_y = np.concatenate([np.asarray(v, dtype=np.float64) for v in series.values()])
    pad = 0.05 * (all_y.max() - all_y.min() + 1e-9)
    cv = _Canvas((*_spread(float(x.min()), float(x.max())),
                  *_spread(float(all_y.min() - pad), float(all_y.max() + pad))))
    for i, (name, ys) in enumerate(sorted(series.items())):
        color = PALETTE[i % len(PALETTE)]
        pts = " ".join(f"{_fmt(px)},{_fmt(py)}"
                       for px, py in (cv.to_px(a, b) for a, b in zip(x, ys)))
        cv.add(f'<polyline class="curve" points="{pts}" fill="none" '
               f'stroke="{color}" stroke-width="1.5"/>')
        cv.add(f'<text x="{24}" y="{16 + 14 * i}" font-size="11" '
               f'fill="{color}">{name}</text>')
    if title:
        cv.add(f'<text x="{cv.size - 160}" y="16" font-size="12">{title}</text>')
    _write(path, cv)
