import numpy as np
import pytest

from eqmatch.model import ModelConfig, init_model
from eqmatch.plotting import (PlotError, _marching_squares, contour_svg,
                              curves_svg, histogram_svg, scatter_svg,
                              vector_field_svg)


def test_vector_field_emits_grid_squared_arrows(tmp_path):
    out = tmp_path / "vf.svg"
    vector_field_svg(out, lambda x, progress: x, grid=40)
    assert out.read_text().count('<path class="arrow"') == 1600


def test_vector_field_other_grid(tmp_path):
    out = tmp_path / "vf.svg"
    vector_field_svg(out, lambda x, progress: x, grid=10)
    assert out.read_text().count('<path class="arrow"') == 100


def test_byte_identical_reruns(tmp_path, rng):
    pts = rng.standard_normal((50, 2))
    a, b = tmp_path / "a.svg", tmp_path / "b.svg"
    scatter_svg(a, pts, labels=np.arange(50) % 3)
    scatter_svg(b, pts, labels=np.arange(50) % 3)
    assert a.read_bytes() == b.read_bytes()


def test_contour_requires_energy_head(tmp_path):
    m = init_model(ModelConfig(input_dim=2, hidden=(8,)))
    with pytest.raises(PlotError, match="energy"):
        contour_svg(tmp_path / "c.svg", m)


def test_contour_draws_iso_lines(tmp_path, rng):
    m = init_model(ModelConfig(input_dim=2, hidden=(8,), energy_kind="dot", init_seed=2))
    m.params["layers.1.w"] = 0.5 * rng.standard_normal((8, 2))
    out = tmp_path / "c.svg"
    contour_svg(out, m, grid=24, levels=4)
    assert out.read_text().count('<line class="iso"') > 0


def test_marching_squares_circle_crossings():
    xs = np.linspace(-2, 2, 41)
    ys = np.linspace(-2, 2, 41)
    gx, gy = np.meshgrid(xs, ys)
    vals = gx ** 2 + gy ** 2
    segs = _marching_squares(vals, xs, ys, level=1.0)
    assert len(segs) > 20
    for (xa, ya), (xb, yb) in segs:
        for x, y in ((xa, ya), (xb, yb)):
            assert x * x + y * y == pytest.approx(1.0, abs=0.2)


def test_histogram_bar_count(tmp_path, rng):
    out = tmp_path / "h.svg"
    histogram_svg(out, rng.integers(0, 100, 500), bins=20, title="steps")
    assert out.read_text().count('<rect class="bar"') == 20


def test_curves_polylines(tmp_path):
    out = tmp_path / "c.svg"
    curves_svg(out, np.array([0.0, 0.5, 0.8]),
               {"model": np.array([0.3, 0.2, 0.1]),
                "baseline": np.array([0.3, 0.5, 0.9])})
    text = out.read_text()
    assert text.count('<polyline class="curve"') == 2
    assert "model" in text and "baseline" in text
