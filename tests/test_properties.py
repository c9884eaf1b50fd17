"""Property tests on small random worlds: the bisected spanning-prefix
worker against probing every grid point, the nested-thinning monotonicity
it relies on, the slow reference path, worker-count invariance and the
closed-ball distance and strip rules."""
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from spatial_firewalls import (NetworkConfig, PointSet, Window, build_isg,
                               build_rgg, classify_devices, detect_spanning,
                               sweep_lambda_f, trial_seed)
from spatial_firewalls import percolation
from spatial_firewalls.percolation import (_strip_masks, _TrialState,
                                          _threshold_worker)

SETTINGS = settings(max_examples=40, deadline=None)


@st.composite
def worlds(draw):
    """(config, lambda_pool, trial seed) of a small world near the spanning
    threshold, so that both outcomes occur along a thinning grid."""
    r_r = draw(st.sampled_from([1.0, 1.5, 2.0]))
    cfg = NetworkConfig(
        lambda_r=draw(st.floats(0.2, 2.0)) / r_r ** 2 * 2.0, r_r=r_r,
        lambda_f=draw(st.floats(0.0, 0.3)), r_f=r_r * draw(st.floats(1.0, 2.0)),
        window=Window.square(draw(st.floats(6.0, 16.0))),
        master_seed=draw(st.integers(0, 2 ** 32)),
        firewall_margin=draw(st.sampled_from([0.0, 2.0])))
    return cfg, cfg.lambda_f, trial_seed(cfg.master_seed, draw(st.integers(0, 99)))


p_grids = st.lists(st.floats(0.0, 1.0), min_size=1, max_size=12, unique=True).map(sorted)


@SETTINGS
@given(worlds(), p_grids)
def test_worker_count_equals_probing_every_point(world, p_grid):
    cfg, lambda_pool, _ = world
    trials = 3
    counts = _threshold_worker((cfg, lambda_pool, tuple(p_grid), 0, trials))
    for t in range(trials):
        state = _TrialState(cfg, lambda_pool, trial_seed(cfg.master_seed, t))
        assert counts[t] == sum(state.spans_at(p) for p in p_grid)


@SETTINGS
@given(worlds(), p_grids)
def test_spans_at_monotone_along_grid(world, p_grid):
    cfg, lambda_pool, tseed = world
    state = _TrialState(cfg, lambda_pool, tseed)
    flags = [state.spans_at(p) for p in p_grid]
    assert all(a >= b for a, b in zip(flags, flags[1:]))


@SETTINGS
@given(worlds())
def test_spans_at_full_pool_matches_realization(world):
    cfg, _, tseed = world
    lr, bt = detect_spanning(build_isg(cfg, tseed))
    assert _TrialState(cfg, cfg.lambda_f, tseed).spans_at(1.0) == (lr and bt)


@SETTINGS
@given(worlds(), st.lists(st.floats(0.0, 0.3), min_size=1, max_size=6),
       st.randoms(use_true_random=False))
def test_sweep_unsorted_with_duplicate_matches_per_point(world, values, rnd):
    cfg, _, _ = world
    values = values + [values[0]]
    rnd.shuffle(values)
    trials = 3
    estimates = sweep_lambda_f(cfg, values, trials)
    pool = max(values)
    states = [_TrialState(cfg, pool, trial_seed(cfg.master_seed, t))
              for t in range(trials)]
    for v, est in zip(values, estimates):
        p = v / pool if pool > 0 else 0.0
        assert est.config.lambda_f == v
        assert est.n_spanning == sum(s.spans_at(p) for s in states)


@settings(max_examples=8, deadline=None)
@given(worlds(), st.lists(st.floats(0.0, 0.3), min_size=1, max_size=5))
def test_sweep_worker_count_invariant(world, values):
    cfg, _, _ = world
    one = sweep_lambda_f(cfg, values, 4, workers=1)
    two = sweep_lambda_f(cfg, values, 4, workers=2)
    assert [e.n_spanning for e in one] == [e.n_spanning for e in two]


# coordinates on a 1/8 grid and offsets of (5, 0) or (3, 4) times r / 5
# (a power of two) keep every coordinate and squared distance exact, so
# "exactly at the range" holds in floating point too
exact = st.integers(0, 40).map(lambda k: k / 8)
ranges = st.sampled_from([0.625, 1.25, 2.5])
offsets = st.sampled_from([(5, 0), (0, -5), (3, 4), (-4, 3)])


@SETTINGS
@given(exact, exact, ranges, offsets, st.floats(0.0, 0.99))
def test_closed_ball_rule(x, y, r, offset, mark):
    window = Window(-10.0, -10.0, 20.0, 20.0)
    at_range = (x + offset[0] * r / 5, y + offset[1] * r / 5)
    assert np.hypot(at_range[0] - x, at_range[1] - y) == r
    device = PointSet(np.array([[x, y]]), 0.0, window, 0)
    firewall = PointSet(np.array([at_range]), 0.0, window, 0)
    assert classify_devices(device, firewall, r).is_protected.all()
    pair = PointSet(np.array([[x, y], at_range]), 0.0, window, 0)
    assert build_rgg(pair, r).n_components == 1

    # the trial kernel: the pool firewall covers both devices, the pair links
    cfg = NetworkConfig(lambda_r=0.0, r_r=r, lambda_f=0.0, r_f=r, window=window)
    world = (pair, PointSet(np.array([[x, y]]), 0.0, window, 0), np.array([mark]))
    with mock.patch.object(percolation, "sample_world", return_value=world):
        state = _TrialState(cfg, 1.0, 0)
    assert state.min_mark[0] == mark and state.min_mark[1] == mark
    assert state.pairs.tolist() == [[0, 1]]

    # a device exactly r_r from a window edge lies in that edge's strip
    corners = np.array([[window.x_min + r, window.y_max - r],
                        [window.x_max - r, window.y_min + r]])
    assert _strip_masks(corners, cfg).tolist() == [[True, False], [False, True],
                                                   [False, True], [True, False]]
