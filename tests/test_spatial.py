"""Sampling and seeding behaviour."""
import numpy as np
import pytest
from scipy import stats

from spatial_firewalls import Window, sample_ppp, split_seed, trial_seed


def test_window_properties():
    w = Window(0, 0, 100, 50)
    assert w.width == 100 and w.height == 50 and w.area == 5000
    assert Window.square(100).area == 10000


def test_window_degenerate():
    with pytest.raises(ValueError):
        Window(0, 0, 0, 10)
    with pytest.raises(ValueError):
        Window(0, 5, 10, 5)
    with pytest.raises(ValueError):
        Window(0, 0, float("inf"), 10)


def test_window_expand():
    w = Window.square(10).expand(2)
    assert (w.x_min, w.y_min, w.x_max, w.y_max) == (-2, -2, 12, 12)
    with pytest.raises(ValueError):
        Window.square(10).expand(-1)


def test_zero_intensity_empty():
    ps = sample_ppp(0.0, Window.square(100), 1)
    assert ps.n == 0
    assert ps.points.shape == (0, 2)


def test_sampling_deterministic():
    w = Window.square(50)
    a = sample_ppp(0.5, w, 123)
    b = sample_ppp(0.5, w, 123)
    assert a.n == b.n
    assert np.array_equal(a.points, b.points)
    c = sample_ppp(0.5, w, 124)
    assert c.n != a.n or not np.array_equal(c.points, a.points)


def test_points_inside_window():
    w = Window(-5, 10, 5, 30)
    ps = sample_ppp(1.0, w, 7)
    assert w.contains(ps.points).all()


def test_invalid_sampling_args():
    w = Window.square(10)
    with pytest.raises(ValueError):
        sample_ppp(-1.0, w, 0)
    with pytest.raises(ValueError):
        sample_ppp(float("nan"), w, 0)
    with pytest.raises(ValueError):
        sample_ppp(float("inf"), w, 0)


def test_poisson_count_moments():
    # intensity 0.8 on 100x100: counts should track Poisson(8000)
    w = Window.square(100)
    counts = np.array([sample_ppp(0.8, w, seed).n for seed in range(220)])
    assert abs(counts.mean() - 8000) < 30
    assert 6400 < counts.var(ddof=1) < 9600


def test_poisson_count_chi_square():
    # goodness of fit of counts vs Poisson(lambda * area) at significance 0.01
    lam = 0.5 * 100  # intensity 0.5 on a 10x10 window
    counts = np.array([sample_ppp(0.5, Window.square(10), 10_000 + s).n
                       for s in range(300)])
    lo, hi = int(stats.poisson.ppf(0.001, lam)), int(stats.poisson.ppf(0.999, lam))
    edges = np.arange(lo, hi + 2)
    observed = np.histogram(np.clip(counts, lo, hi), bins=edges)[0]
    expected = stats.poisson.pmf(edges[:-1], lam) * len(counts)
    # merge thin tail bins so every expected count is >= 5
    keep = expected >= 5
    obs = np.concatenate([[observed[~keep].sum()], observed[keep]])
    exp = np.concatenate([[expected[~keep].sum()], expected[keep]])
    exp *= obs.sum() / exp.sum()
    _, pvalue = stats.chisquare(obs, exp)
    assert pvalue > 0.01


def test_split_seed_deterministic_and_distinct():
    assert split_seed(42, 0) == split_seed(42, 0)
    assert split_seed(42, 0) != split_seed(42, 1)
    assert split_seed(42, 0, 1) != split_seed(42, 0, 2)
    assert trial_seed(7, 3) == split_seed(7, 3)
    with pytest.raises(ValueError):
        split_seed(-1, 0)
