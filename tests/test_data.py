import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from eqmatch.config import ValidationError
from eqmatch.data import (ToyDistribution, default_mixture, default_modes, draw_from,
                          fixed_memorization_set, ood_sets, read_csv, read_points,
                          sample_noise, write_csv)


def test_same_seed_identical_arrays():
    dist = default_mixture()
    a, la = draw_from(dist, 100, np.random.default_rng(4))
    b, lb = draw_from(dist, 100, np.random.default_rng(4))
    np.testing.assert_array_equal(a, b)
    np.testing.assert_array_equal(la, lb)
    np.testing.assert_array_equal(sample_noise(50, 2, 7), sample_noise(50, 2, 7))


def test_degenerate_single_mode_collapses_to_center():
    dist = ToyDistribution(modes=np.zeros((1, 2)), mode_std=1e-12)
    pts, labels = draw_from(dist, 64, np.random.default_rng(0))
    assert np.all(np.linalg.norm(pts, axis=1) < 1e-9)
    assert np.all(labels == 0)


def test_two_mode_counts_binomial_concentration():
    """Equal-weight 2-mode mixture: per-mode counts stay within 3 binomial
    standard deviations of n/2."""
    n = 10_000
    dist = ToyDistribution(modes=[[-2.0, 0.0], [2.0, 0.0]], mode_std=0.1)
    _, labels = draw_from(dist, n, np.random.default_rng(13))
    counts = np.bincount(labels, minlength=2)
    slack = 3.0 * np.sqrt(n * 0.25)
    assert abs(counts[0] - n / 2) < slack and abs(counts[1] - n / 2) < slack


def test_noise_moments_clt():
    draws = sample_noise(1_000_000, 2, seed=99)
    assert np.all(np.abs(draws.mean(axis=0)) < 5e-3)
    assert np.all(np.abs(draws.var(axis=0) - 1.0) < 0.01)


def test_labels_match_nearest_mode_for_small_sigma():
    # modes >= 2 apart, sigma far below the separation
    dist = ToyDistribution(modes=default_modes(radius=3.0), mode_std=0.05)
    pts, labels = draw_from(dist, 20_000, np.random.default_rng(3))
    d2 = ((pts[:, None, :] - dist.modes[None, :, :]) ** 2).sum(axis=2)
    agreement = np.mean(np.argmin(d2, axis=1) == labels)
    assert agreement >= 0.999


def test_mixture_weights_validation():
    with pytest.raises(ValueError, match="sum to 1"):
        ToyDistribution(modes=[[0.0, 0.0], [1.0, 1.0]], weights=[0.9, 0.2])
    with pytest.raises(ValueError, match="mode_std"):
        ToyDistribution(modes=[[0.0, 0.0]], mode_std=0.0)
    with pytest.raises(ValueError, match="kind"):
        ToyDistribution(kind="spiral")


def test_all_generators_finite_and_shaped():
    for kind in ("gaussian-mixture", "two-moons", "checkerboard", "uniform-box"):
        pts, labels = draw_from(ToyDistribution(kind=kind), 257, np.random.default_rng(1))
        assert pts.shape == (257, 2) and labels.shape == (257,)
        assert np.all(np.isfinite(pts))


def test_moons_have_two_labels():
    _, labels = draw_from(ToyDistribution(kind="two-moons"), 100, np.random.default_rng(0))
    assert set(np.unique(labels)) == {0, 1}


def test_sample_size_validation():
    with pytest.raises(ValueError):
        draw_from(default_mixture(), 0, np.random.default_rng(0))
    with pytest.raises(ValueError):
        sample_noise(0, 2, seed=0)


class TestMemorizationSet:
    def test_single_point(self):
        assert fixed_memorization_set(1, seed=5).shape == (1, 2)

    @pytest.mark.parametrize("k", [2, 4, 8, 12])
    def test_pairwise_distances_at_least_two(self, k):
        pts = fixed_memorization_set(k, seed=7)
        d = np.linalg.norm(pts[:, None] - pts[None, :], axis=2)
        assert d[~np.eye(k, dtype=bool)].min() >= 2.0

    def test_reproducible_and_seed_sensitive(self):
        np.testing.assert_array_equal(fixed_memorization_set(8, 1),
                                      fixed_memorization_set(8, 1))
        assert not np.array_equal(fixed_memorization_set(8, 1),
                                  fixed_memorization_set(8, 2))

    def test_k_bounds(self):
        with pytest.raises(ValueError):
            fixed_memorization_set(0)
        with pytest.raises(ValueError):
            fixed_memorization_set(40)

    def test_inside_standardized_square(self):
        pts = fixed_memorization_set(8, seed=3)
        assert np.all(np.abs(pts) <= 4.0)


def test_ood_sets_shapes_and_placement():
    dist = default_mixture()
    sets = ood_sets(dist, 200, seed=11)
    assert set(sets) == {"shifted-mixture", "uniform-box", "constant"}
    for pts in sets.values():
        assert pts.shape == (200, 2) and np.all(np.isfinite(pts))
    # shifted mixture sits far from the original modes
    assert sets["shifted-mixture"].mean(axis=0) == pytest.approx([8.0, 8.0], abs=0.5)
    # constant points lie on the diagonal
    np.testing.assert_array_equal(sets["constant"][:, 0], sets["constant"][:, 1])


def points_table(path, pts, labels=None, append=False):
    header = [f"x{i}" for i in range(pts.shape[1])]
    rows = [list(row) for row in pts]
    if labels is not None:
        header.append("label")
        rows = [[*row, int(label)] for row, label in zip(rows, labels)]
    write_csv(path, header, rows, append=append)


def test_csv_round_trip_exact(tmp_path):
    pts, labels = draw_from(default_mixture(), 50, np.random.default_rng(21))
    p = tmp_path / "data.csv"
    points_table(p, pts, labels)
    np.testing.assert_array_equal(read_points(p), pts)
    assert [int(r["label"]) for r in read_csv(p)] == labels.tolist()
    points_table(p, pts)
    np.testing.assert_array_equal(read_points(p), pts)
    assert list(read_csv(p)[0]) == ["x0", "x1"]


@settings(max_examples=100, deadline=None)
@given(pts=arrays(np.float64, st.tuples(st.integers(1, 6), st.integers(1, 4)),
                  elements=st.floats(allow_nan=False, allow_infinity=False)
                  | st.sampled_from([-0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                                     1.7976931348623157e308, -1.7976931348623157e308])))
def test_points_round_trip_bit_exact(pts, tmp_path_factory):
    p = tmp_path_factory.mktemp("csv") / "points.csv"
    points_table(p, pts)
    assert read_points(p).tobytes() == pts.tobytes()


def test_cells_print_by_type(tmp_path):
    p = tmp_path / "t.csv"
    write_csv(p, ["a", "b", "c", "d"],
              [[0.1, "0.1", 3, None], [np.float64(-0.0), "x", True, ""]])
    assert p.read_bytes() == b"a,b,c,d\r\n0.10000000000000001,0.1,3,\r\n-0,x,True,\r\n"


def test_append_keeps_header_and_rows(tmp_path):
    p = tmp_path / "t.csv"
    write_csv(p, ["a"], [[1]], append=True)  # no file yet: written fresh
    write_csv(p, ["ignored"], [[2], [3]], append=True)
    assert p.read_bytes() == b"a\r\n1\r\n2\r\n3\r\n"
    write_csv(p, ["b"], [[4]])
    assert p.read_bytes() == b"b\r\n4\r\n"


def test_a_failed_rewrite_keeps_the_old_file(tmp_path):
    p = tmp_path / "t.csv"
    write_csv(p, ["a"], [[1], [2]])
    before = p.read_bytes()

    def rows():
        yield [3]
        raise OSError("no space left on device")

    with pytest.raises(OSError, match="no space"):
        write_csv(p, ["a"], rows())
    assert p.read_bytes() == before
    assert [q.name for q in tmp_path.iterdir()] == ["t.csv"]


def test_points_read_by_name(tmp_path):
    p = tmp_path / "samples.csv"
    write_csv(p, ["sample_id", "x0", "x1", "steps_used"],
              [[0, 1.5, -2.0, 7], [1, 0.25, 3.0, 9]])
    np.testing.assert_array_equal(read_points(p), [[1.5, -2.0], [0.25, 3.0]])


@pytest.mark.parametrize("text", ["a,b\n1,2\n", "x0,x1\n", "", "x0\nnot-a-number\n",
                                  "x0,x1\n1,2\n3\n"])
def test_points_table_errors_name_the_file(tmp_path, text):
    p = tmp_path / "bad.csv"
    p.write_text(text)
    with pytest.raises(ValidationError, match=str(p)):
        read_points(p)
