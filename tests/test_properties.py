"""Property tests on small random worlds: the cell-graph trial kernel
against a device-level reference along any sequence of probes, its CSR
probe against canonical labelling of the same live edges, the pruning
of pair enumeration (and of every kd-tree) to the devices above the probe
floor, the bisected spanning-prefix worker against probing every grid
point, the nested-thinning monotonicity it relies on, the slow reference
path, worker-count invariance, the closed-ball distance and strip rules,
the cell-grid `min_mark` and `classify_devices` against brute force, the
open-edge coupling check against its per-edge reference, and the
protected-fraction sweep over r_f against one estimate per r_f."""
import importlib
import math
import pkgutil
from contextlib import ExitStack
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

import spatial_firewalls
from spatial_firewalls import (Classification, NetworkConfig, NoDevicesError,
                               PointSet, ProtectedFractionEstimate, Realization,
                               Window, build_isg, build_rgg, classify_devices,
                               detect_spanning, estimate_protected_fraction,
                               subcritical_sufficient_intensity, sweep_lambda_f,
                               sweep_protected_fraction, trial_seed,
                               verify_open_edge_coupling)
from spatial_firewalls import lattice, percolation
from spatial_firewalls.bounds import _ceil_ratio
from spatial_firewalls.lattice import OpenEdgeCheck, _any_pair_beyond
from spatial_firewalls.network import (_canonical_labels, _graph_from_pairs,
                                       radius_pairs, sample_world)
from spatial_firewalls.percolation import (_spans_from_labels, _strip_masks,
                                          _TrialState, _threshold_worker)

SETTINGS = settings(max_examples=40, deadline=None)
PACKAGE_MODULES = [importlib.import_module(f"spatial_firewalls.{info.name}")
                   for info in pkgutil.iter_modules(spatial_firewalls.__path__)]


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


def _device_level_spans(world, cfg, p):
    """Reference for `_TrialState.spans_at`: label every susceptible device
    pair of the world at thinning fraction p."""
    devices, pool, marks = world
    kept = PointSet(pool.points[marks < p], 0.0, pool.window, 0)
    xy = devices.points[~classify_devices(devices, kept, cfg.r_f).is_protected]
    labels, k = _canonical_labels(len(xy), radius_pairs(xy, cfg.r_r))
    lr, bt = _spans_from_labels(labels, k, _strip_masks(xy, cfg))
    return lr and bt


@st.composite
def edge_worlds(draw):
    """(config, world) on a non-square window, from narrower than r_r to
    ten r_r per side, with a few extra devices on the window's max edges."""
    r_r = draw(st.floats(0.3, 3.0))
    x0, y0 = draw(st.floats(-5.0, 5.0)), draw(st.floats(-5.0, 5.0))
    window = Window(x0, y0, x0 + r_r * draw(st.floats(0.5, 10.0)),
                    y0 + r_r * draw(st.floats(0.5, 10.0)))
    r_f = r_r * draw(st.floats(1.0, 2.0))
    cfg = NetworkConfig(lambda_r=draw(st.floats(0.5, 8.0)) / (np.pi * r_r ** 2),
                        r_r=r_r, lambda_f=0.0, r_f=r_f, window=window,
                        master_seed=draw(st.integers(0, 2 ** 32)),
                        firewall_margin=draw(st.sampled_from([0.0, r_r])))
    lambda_pool = draw(st.floats(0.0, 3.0)) / (np.pi * r_f ** 2)
    devices, pool, marks = sample_world(cfg, trial_seed(cfg.master_seed, 0),
                                        lambda_pool)
    on_edge = [(window.x_max, window.y_min + u * window.height) if side == 0
               else (window.x_min + u * window.width, window.y_max)
               for side, u in draw(st.lists(st.tuples(st.integers(0, 1),
                                                      st.floats(0.0, 1.0)),
                                            max_size=4))]
    xy = np.concatenate([devices.points, np.reshape(on_edge, (-1, 2))])
    return cfg, (PointSet(xy, cfg.lambda_r, window, 0), pool, marks)


@settings(max_examples=100, deadline=None)
@given(edge_worlds(), st.data())
def test_cell_graph_matches_device_level_reference(world, data):
    """One state probed along a sequence that descends (each probe below the
    floor rebuilds the edges), ascends (each reuses them) and repeats, at
    random fractions, 0, 1 and exact min_mark values."""
    cfg, sampled = world
    devices, pool, marks = sampled
    d2 = ((devices.points[:, None, :] - pool.points[None, :, :]) ** 2).sum(axis=2)
    min_mark = np.where(d2 <= cfg.r_f ** 2, marks, np.inf).min(axis=1, initial=np.inf)
    exact = sorted(set(min_mark[np.isfinite(min_mark)].tolist()))
    p = st.floats(0.0, 1.0)
    ps = data.draw(st.lists(st.one_of(p, st.sampled_from(exact)) if exact else p,
                            min_size=1, max_size=8))
    with mock.patch.object(percolation, "sample_world", return_value=sampled):
        state = _TrialState(cfg, 1.0, 0)
    for p in ps + sorted(ps, reverse=True) + sorted(ps) + [0.0, 1.0] + exact[::-1]:
        assert state.spans_at(p) == _device_level_spans(sampled, cfg, p)


def _canonical_probe(state, p):
    """Reference for `spans_at` on the state's current edges: canonical
    labels over the live ones, then the spanning flags."""
    live = state.edge_w >= p
    edges = np.stack([state.edge_a[live], state.edge_b[live]], axis=1)
    labels, k = _canonical_labels(len(state.cell_ids), edges)
    lr, bt = _spans_from_labels(labels, k, state.strip_w >= p)
    return lr and bt


@SETTINGS
@given(worlds(), st.lists(p_grids, min_size=1, max_size=4))
def test_csr_probe_matches_canonical_labelling(world, runs):
    """Along ascending runs of fractions, each run after the first starting
    below the floor more often than not, and a last probe at 0: every probe,
    and one at the least live edge weight, answers as canonical labelling
    of the same live edges, and every build leaves the first endpoints
    sorted, which the probe's CSR rows assume."""
    cfg, lambda_pool, tseed = world
    state = _TrialState(cfg, lambda_pool, tseed)
    builds = 0
    for p in [p for run in runs for p in run] + [0.0]:
        floor = state.floor
        spans = state.spans_at(p)
        builds += state.floor is not floor
        assert np.all(np.diff(state.edge_a) >= 0)
        assert state.edge_b.dtype == np.int32
        assert spans == _canonical_probe(state, p)
        tie = state.edge_w[state.edge_w >= p].min(initial=np.inf)
        if tie <= 1.0:
            assert state.spans_at(tie) == _canonical_probe(state, tie)
    assert builds >= 1 + (min(runs[0]) > 0)


def test_spans_from_labels_ignores_label_ids():
    """The flags depend on which nodes share a label, never on the ids."""
    labels = np.array([0, 0, 1, 1, 2, 2, 0])
    strips = np.array([[1, 0, 1, 0, 0, 0, 0],   # left
                       [0, 0, 0, 1, 0, 0, 1],   # right
                       [0, 0, 0, 0, 1, 0, 0],   # bottom
                       [0, 0, 0, 0, 0, 0, 1]],  # top
                      dtype=bool)
    # label 0 touches left and right, label 1 left and right, label 2
    # only bottom; top is label 0's
    cases = ((strips, (True, False)),
             (strips[[2, 3, 0, 1]], (False, True)),
             (strips[[0, 2, 2, 3]], (False, False)),
             (strips[[0, 1, 0, 1]], (True, True)))
    for rows, flags in cases:
        for perm in ([0, 1, 2], [0, 2, 1], [1, 0, 2], [1, 2, 0], [2, 0, 1], [2, 1, 0]):
            assert _spans_from_labels(np.take(perm, labels), 3, rows) == flags


def test_pairs_enumerated_only_among_devices_above_floor():
    """Pair enumeration, and every kd-tree the package builds, sees only
    the devices a probe can still find susceptible: on the grid (1.0,), the
    devices with no pool firewall within r_f; on the grid (0.0,), every
    device."""
    cfg = NetworkConfig(lambda_r=1.0, r_r=1.0, lambda_f=0.3, r_f=1.0,
                        window=Window.square(12.0), master_seed=5)
    trials = 3
    worlds = [sample_world(cfg, trial_seed(cfg.master_seed, t), cfg.lambda_f)
              for t in range(trials)]
    unprotected = [int((~classify_devices(devices, pool, cfg.r_f).is_protected).sum())
                   for devices, pool, _ in worlds]
    every = [devices.n for devices, _, _ in worlds]
    assert all(0 < u < n for u, n in zip(unprotected, every))

    for grid, expected in (((1.0,), unprotected), ((0.0,), every)):
        seen, trees = [], []

        def recording(xy, radius):
            seen.append(len(xy))
            return radius_pairs(xy, radius)

        class RecordingTree(cKDTree):
            def __init__(self, data, *args, **kwargs):
                trees.append(len(data))
                super().__init__(data, *args, **kwargs)

        with ExitStack() as patches:
            patches.enter_context(mock.patch.object(percolation, "radius_pairs",
                                                    recording))
            for module in PACKAGE_MODULES:
                if hasattr(module, "cKDTree"):
                    patches.enter_context(mock.patch.object(module, "cKDTree",
                                                            RecordingTree))
            _threshold_worker((cfg, cfg.lambda_f, grid, 0, trials))
        assert seen == expected
        # protection reads the cell grid: the one kd-tree of a trial is the
        # pair enumeration's, over the kept devices
        assert trees == expected


def test_pair_just_beyond_range_never_links():
    """No alignment of the cell grid links a pair more than r_r apart.

    Two devices on a diagonal, the direction in which a square cell holds
    its farthest pair, sit in a window where only the linked pair spans.
    The window's lower-left corner takes 24 x 24 positions relative to the
    pair, so a grid anchored to the window meets the pair at as many
    alignments: the pair must span at (1 - 1e-6) r_r and never at
    (1 + 1e-6) r_r.
    """
    r, steps = 1.0, 24
    for scale, spans in ((1 - 1e-6, True), (1 + 1e-6, False)):
        g = scale * r / np.sqrt(2)
        pair = np.array([[0.0, 0.0], [g, g]])
        for u in range(steps):
            for v in range(steps):
                # near pads in (r - g, r] and far pads of r - g / 2 leave
                # each device in one strip per axis
                pad = r - g * np.array([u, v]) / steps
                win = Window(-pad[0], -pad[1], r + g / 2, r + g / 2)
                cfg = NetworkConfig(lambda_r=0.0, r_r=r, lambda_f=0.0, r_f=r,
                                    window=win)
                world = (PointSet(pair, 0.0, win, 0),
                         PointSet(np.empty((0, 2)), 0.0, win, 0), np.empty(0))
                with mock.patch.object(percolation, "sample_world",
                                       return_value=world):
                    assert _TrialState(cfg, 1.0, 0).spans_at(0.5) == spans


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

    # the trial kernel: one pool firewall on the first device, of mark
    # `mark`, is kept for p above the mark and covers both devices there
    lo, hi = pair.points.min(axis=0), pair.points.max(axis=0)
    apart = hi > lo

    def kernel(pad):
        win = Window(*(lo - pad), *(hi + pad))
        cfg = NetworkConfig(lambda_r=0.0, r_r=r, lambda_f=0.0, r_f=r, window=win)
        world = (PointSet(pair.points, 0.0, win, 0),
                 PointSet(pair.points[:1], 0.0, win, 0), np.array([mark]))
        with mock.patch.object(percolation, "sample_world", return_value=world):
            return _TrialState(cfg, 1.0, 0)

    # no padding on the axes where the devices differ puts each device in
    # all four strips: each spans alone until the firewall is kept
    alone = kernel(np.where(apart, 0.0, r / 2))
    assert alone.spans_at(mark) and not alone.spans_at(np.nextafter(mark, 1.0))
    # padding r on those axes puts each device exactly r_r inside one strip
    # of the axis, so only the linked pair spans
    assert kernel(np.where(apart, r, r / 2)).spans_at(mark)

    # a device exactly r_r from a window edge lies in that edge's strip
    cfg = NetworkConfig(lambda_r=0.0, r_r=r, lambda_f=0.0, r_f=r, window=window)
    corners = np.array([[window.x_min + r, window.y_max - r],
                        [window.x_max - r, window.y_min + r]])
    assert _strip_masks(corners, cfg).tolist() == [[True, False], [False, True],
                                                   [False, True], [True, False]]


# the offsets above with every sign and turn: 12 points exactly r from a site
turns = np.array([(5, 0), (0, 5), (-5, 0), (0, -5), (3, 4), (4, 3), (-3, 4),
                  (-4, 3), (3, -4), (4, -3), (-3, -4), (-4, -3)])
units = st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0))


@settings(max_examples=100, deadline=None)
@given(ranges, st.data())
def test_min_mark_matches_brute_force(r_f, data):
    """Every device's `min_mark` is the smallest mark among the pool
    firewalls with dx*dx + dy*dy <= r_f*r_f, taken over all pairs.

    r_f runs from r_r to 6 r_r and the margin from 0 to 2 r_f, on offset
    non-square windows, so firewalls lie inside and outside the cell grid
    at many alignments of the grid. Besides the sampled world, firewalls
    on the 1/8 grid each get the devices exactly r_f from them.
    """
    draw = data.draw
    r_r = r_f / draw(st.floats(1.0, 6.0))
    x0, y0 = draw(st.floats(-20.0, 20.0)), draw(st.floats(-20.0, 20.0))
    window = Window(x0, y0, x0 + r_r * draw(st.floats(0.5, 12.0)),
                    y0 + r_r * draw(st.floats(0.5, 12.0)))
    cfg = NetworkConfig(lambda_r=draw(st.floats(0.2, 3.0)) / r_r ** 2, r_r=r_r,
                        lambda_f=0.0, r_f=r_f, window=window,
                        master_seed=draw(st.integers(0, 2 ** 32)),
                        firewall_margin=r_f * draw(st.floats(0.0, 2.0)))
    devices, pool, marks = sample_world(cfg, trial_seed(cfg.master_seed, 0),
                                        draw(st.floats(0.0, 2.0)) / r_f ** 2)
    fw = cfg.firewall_window()
    sites = np.round(np.reshape([(fw.x_min + u * fw.width, fw.y_min + v * fw.height)
                                 for u, v in draw(st.lists(units, max_size=6))],
                                (-1, 2)) * 8) / 8
    at_range = (sites[:, None, :] + turns * (r_f / 5)).reshape(-1, 2)
    assert (((at_range - sites.repeat(len(turns), axis=0)) ** 2).sum(axis=1)
            == r_f * r_f).all()
    pool_xy = np.concatenate([pool.points, sites])
    marks = np.concatenate([marks, draw(st.lists(st.floats(0.0, 0.99),
                                                 min_size=len(sites),
                                                 max_size=len(sites)))])
    world = (PointSet(np.concatenate([devices.points,
                                      at_range[window.contains(at_range)]]),
                      0.0, window, 0),
             PointSet(pool_xy, 0.0, fw.expand(1.0), 0), marks)
    with mock.patch.object(percolation, "sample_world", return_value=world):
        state = _TrialState(cfg, 1.0, 0)

    d = state.xy[:, None, :] - pool_xy[None, :, :]
    d2 = d[..., 0] * d[..., 0] + d[..., 1] * d[..., 1]
    expected = np.where(d2 <= r_f * r_f, marks, np.inf).min(axis=1, initial=np.inf)
    assert np.array_equal(state.min_mark, expected)


@SETTINGS
@given(ranges, st.lists(st.tuples(exact, exact), min_size=1, max_size=5),
       st.lists(units, max_size=30))
def test_classify_devices_matches_brute_force(r, sites, spots):
    """A device is protected exactly when some firewall is within r
    (closed), also for devices exactly r from a firewall and one ulp
    beyond it."""
    window = Window(-10.0, -10.0, 30.0, 30.0)
    sites = np.array(sites)
    at_range = (sites[:, None, :] + turns * (r / 5)).reshape(-1, 2)
    # the next double past x + r on each axis
    beyond = np.concatenate([np.stack([np.nextafter(sites[:, 0] + r, np.inf),
                                       sites[:, 1]], axis=1),
                             np.stack([sites[:, 0],
                                       np.nextafter(sites[:, 1] + r, np.inf)],
                                      axis=1)])
    xy = np.concatenate([at_range, beyond, np.reshape(spots, (-1, 2)) * 20.0 - 5.0])
    devices = PointSet(xy, 0.0, window, 0)
    firewalls = PointSet(sites, 0.0, window, 0)

    d = xy[:, None, :] - sites[None, :, :]
    dist = np.sqrt(d[..., 0] * d[..., 0] + d[..., 1] * d[..., 1])
    assert (dist[:len(at_range)].min(axis=1) <= r).all()
    own = np.tile(np.arange(len(sites)), 2)
    assert (dist[len(at_range) + np.arange(len(beyond)), own] > r).all()
    assert np.array_equal(classify_devices(devices, firewalls, r).is_protected,
                          dist.min(axis=1) <= r)


def _coupling_reference(realization):
    """Per-edge reference for `verify_open_edge_coupling(..., detail=True)`:
    the loop over lattice edges it replaced, with the lattice at the window
    corner."""
    cfg = realization.config
    w = cfg.window
    ox, oy = (w.x_min, w.y_min)
    s = cfg.r_r / math.sqrt(5.0)
    c = _ceil_ratio(cfg.r_f, s)
    n_cols = int(math.floor(w.width / s))
    n_rows = int(math.floor(w.height / s))
    if n_cols < 1 or n_rows < 2:
        return OpenEdgeCheck(0, 0, 0)

    dev_xy = realization.devices.points
    fw_xy = realization.firewalls.points

    # device indices grouped per cell
    dev_cells = np.floor((dev_xy - [ox, oy]) / s).astype(np.int64)
    dev_count = np.zeros((n_cols, n_rows), dtype=np.int64)
    cell_members: dict[tuple[int, int], list[int]] = {}
    for idx, (ci, cj) in enumerate(dev_cells):
        if 0 <= ci < n_cols and 0 <= cj < n_rows:
            dev_count[ci, cj] += 1
            cell_members.setdefault((int(ci), int(cj)), []).append(idx)

    # firewall counts on the extended grid reachable by dependency regions
    pad = c + 2
    fw_count = np.zeros((n_cols + 2 * pad, n_rows + 2 * pad), dtype=np.int64)
    if len(fw_xy):
        fcells = np.floor((fw_xy - [ox, oy]) / s).astype(np.int64) + pad
        inside = ((fcells[:, 0] >= 0) & (fcells[:, 0] < fw_count.shape[0])
                  & (fcells[:, 1] >= 0) & (fcells[:, 1] < fw_count.shape[1]))
        np.add.at(fw_count, (fcells[inside, 0], fcells[inside, 1]), 1)
    fw_cum = fw_count.cumsum(axis=0).cumsum(axis=1)

    def fw_in_cells(ci0, ci1, cj0, cj1):
        # inclusive cell ranges in padded coordinates
        ci0, ci1 = ci0 + pad, ci1 + pad
        cj0, cj1 = cj0 + pad, cj1 + pad
        total = fw_cum[ci1, cj1]
        if ci0 > 0:
            total = total - fw_cum[ci0 - 1, cj1]
        if cj0 > 0:
            total = total - fw_cum[ci1, cj0 - 1]
        if ci0 > 0 and cj0 > 0:
            total = total + fw_cum[ci0 - 1, cj0 - 1]
        return int(total)

    # local susceptible index and component label per device
    local = np.full(realization.devices.n, -1, dtype=np.int64)
    local[realization.isg.vertices] = np.arange(realization.isg.n_vertices)
    protected = realization.classification.is_protected
    labels = realization.isg.component_label
    r2 = cfg.r_r ** 2

    open_edges = 0
    edges_scanned = 0

    def check_edge(cells_a, cells_b, acell_range) -> int:
        nonlocal open_edges, edges_scanned
        edges_scanned += 1
        if fw_in_cells(*acell_range) != 0:
            return 0  # closed edge: nothing to assert
        open_edges += 1
        members = cell_members.get(cells_a, []) + cell_members.get(cells_b, [])
        pts = dev_xy[members]
        d2 = ((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2)
        if (d2 > r2).any():
            return 1
        if protected[members].any():
            return 1
        if len(set(labels[local[members]].tolist())) != 1:
            return 1
        return 0

    violations = 0
    # horizontal edges: squares (i, j-1) and (i, j)
    for i in range(n_cols):
        for j in range(1, n_rows):
            if dev_count[i, j - 1] and dev_count[i, j]:
                violations += check_edge((i, j - 1), (i, j),
                                         (i - c, i + c, j - 1 - c, j + c))
    # vertical edges: squares (i-1, j) and (i, j)
    for i in range(1, n_cols):
        for j in range(n_rows):
            if dev_count[i - 1, j] and dev_count[i, j]:
                violations += check_edge((i - 1, j), (i, j),
                                         (i - 1 - c, i + c, j - c, j + c))
    return OpenEdgeCheck(violations, open_edges, edges_scanned)


@st.composite
def coupling_worlds(draw):
    """A realization on an offset window of 0.5 to 20 r_r per side, with 0.1
    to 3 devices per lattice cell on average and firewalls from none to
    twice the subcritical sufficient intensity. The intensity's multiplier
    is 2 u**3 for u uniform on [0, 1], so that most worlds keep open edges
    next to firewalls."""
    r_r = draw(st.floats(0.3, 3.0))
    r_f = r_r * draw(st.floats(1.0, 2.5))
    x0, y0 = draw(st.floats(-5.0, 5.0)), draw(st.floats(-5.0, 5.0))
    window = Window(x0, y0, x0 + r_r * draw(st.floats(0.5, 20.0)),
                    y0 + r_r * draw(st.floats(0.5, 20.0)))
    cfg = NetworkConfig(lambda_r=draw(st.floats(0.1, 3.0)) * 5.0 / r_r ** 2, r_r=r_r,
                        lambda_f=2.0 * draw(st.floats(0.0, 1.0)) ** 3
                        * subcritical_sufficient_intensity(r_r),
                        r_f=r_f, window=window,
                        master_seed=draw(st.integers(0, 2 ** 32)),
                        firewall_margin=draw(st.sampled_from([0.0, r_f])))
    return build_isg(cfg, trial_seed(cfg.master_seed, 0))


def _perturbed(realization, data):
    """The realization with a few susceptible devices flagged protected and a
    few ISG labels reassigned, so that clauses (ii) and (iii) fail on the
    open edges they touch. Flags go one way only: a susceptible device that
    the ISG lacks never comes from `build_isg`, and the reference reads its
    label through index -1."""
    isg = realization.isg
    if isg.n_vertices == 0:
        return realization
    vertex = st.integers(0, isg.n_vertices - 1)
    flagged = data.draw(st.lists(vertex, min_size=1, max_size=6))
    relabelled = data.draw(st.lists(st.tuples(vertex, st.integers(0, isg.n_components)),
                                    min_size=1, max_size=6))
    protected = realization.classification.is_protected.copy()
    protected[isg.vertices[flagged]] = True
    labels = isg.component_label.copy()
    for v, label in relabelled:
        labels[v] = label
    return replace(realization,
                   classification=replace(realization.classification,
                                          is_protected=protected),
                   isg=replace(isg, component_label=labels))


def test_open_edge_coupling_matches_per_edge_reference():
    """The array-at-a-time coupling check returns the per-edge loop's
    (violations, open_edges, edges_scanned), on sampled and on perturbed
    realizations, and some perturbed ones do violate the coupling."""
    violations = []

    @settings(max_examples=60, deadline=None)
    @given(coupling_worlds(), st.data())
    def check(realization, data):
        for r in (realization, _perturbed(realization, data)):
            got = verify_open_edge_coupling(r, detail=True)
            assert got == _coupling_reference(r)
            assert verify_open_edge_coupling(r) == got.violations
        violations.append(got.violations)

    check()
    assert any(violations)


def _hand_made(r_r, origin, points):
    """A realization of the given devices, all susceptible and in one ISG
    component, with no firewalls, on a 25 x 25 window at `origin`."""
    window = Window(origin[0], origin[1], origin[0] + 25.0, origin[1] + 25.0)
    cfg = NetworkConfig(lambda_r=1.0, r_r=r_r, lambda_f=0.0, r_f=r_r, window=window)
    n = len(points)
    star = np.column_stack([np.zeros(n - 1, dtype=np.int64), np.arange(1, n)])
    return Realization(config=cfg, trial_seed=0,
                       devices=PointSet(points, 1.0, window, 0),
                       firewalls=PointSet(np.empty((0, 2)), 0.0, window, 0),
                       classification=Classification(np.zeros(n, dtype=bool)),
                       isg=_graph_from_pairs(np.arange(n), n, star))


def test_pair_test_decides_edges_whose_box_exceeds_range():
    """Clause (i) on one open edge at the limit of rounding. Binning devices
    into cells rounds, so two adjacent cells' devices can span a box a few
    ulps wider than r_r: there the pairs are tested, and one pair may lie
    beyond r_r. A box of exactly r_r needs no pair test."""
    r_r, origin = 1.9845375112356627, (0.9190278321411052, -1.596761426193336)
    s = r_r / math.sqrt(5.0)
    p = (9.794149390183492, 3.7283115086320966)
    q = (10.681661545987732, 5.503335820240574)
    cells = np.floor((np.array([p, q]) - origin) / s).astype(int).tolist()
    assert cells == [[10, 6], [10, 7]]
    d = np.subtract(q, p)
    assert d[0] * d[0] + d[1] * d[1] > r_r ** 2
    near_p = [(p[0], p[1] + 1e-6), (p[0] + 1e-6, p[1])]  # same cell as p
    exact_r_r = 1.001375
    exact_q = (0.4478285141937703, 0.8956570283875406)
    assert exact_q[0] * exact_q[0] + exact_q[1] * exact_q[1] == exact_r_r ** 2
    cases = [(_hand_made(r_r, origin, [p, q]), (1, 1, 1), 1),
             (_hand_made(r_r, origin, near_p + [q]), (0, 1, 1), 1),
             (_hand_made(exact_r_r, (0.0, 0.0), [(0.0, 0.0), exact_q]), (0, 1, 1), 0)]
    for realization, expected, pair_tested in cases:
        assert _coupling_reference(realization) == expected
        with mock.patch.object(lattice, "_any_pair_beyond",
                               wraps=lattice._any_pair_beyond) as pair_test:
            assert verify_open_edge_coupling(realization, detail=True) == expected
        groups = sum(len(call.args[1]) for call in pair_test.call_args_list)
        assert groups == pair_tested


def test_any_pair_beyond_hand_made_groups():
    """A group whose bounding box is wider than r_r with every pair within
    it passes; a two-cell group with one pair beyond r_r fails; a pair at
    exactly r_r is within range."""
    group = [(0.0, 0.5), (0.5, 0.0), (0.8, 0.8)]        # box 0.8 x 0.8 at r2 = 1
    edge = [(0.0, 0.0), (0.3, 0.2), (0.5, 0.9), (0.9, 0.6)]  # 0.81 + 0.36 > 1
    assert _any_pair_beyond(np.array(group + edge), np.array([3, 4]), 1.0).tolist() \
        == [False, True]
    assert _any_pair_beyond(np.array([(0.0, 0.0), (3.0, 4.0)]), np.array([2]),
                            25.0).tolist() == [False]


@SETTINGS
@given(st.lists(st.lists(units, max_size=6), max_size=8),
       st.integers(1, 40))
def test_any_pair_beyond_matches_brute_force(groups, chunk):
    """Any chunk size gives the per-group brute-force answer."""
    xy = np.reshape([pt for g in groups for pt in g], (-1, 2))
    sizes = np.array([len(g) for g in groups], dtype=np.int64)
    with mock.patch.object(lattice, "_CHUNK", chunk):
        got = _any_pair_beyond(xy, sizes, 0.5)
    expected = [any((a[0] - b[0]) * (a[0] - b[0]) + (a[1] - b[1]) * (a[1] - b[1]) > 0.5
                    for a in g for b in g) for g in groups]
    assert got.tolist() == expected


def _protected_reference(config, trials):
    """Reference for one point of `sweep_protected_fraction`: the per-trial
    loop it replaced, which samples and classifies every world at config.r_f
    alone. Raises NoDevicesError when every device set came up empty."""
    fractions = []
    for t in range(trials):
        devices, firewalls, _ = sample_world(
            config, trial_seed(config.master_seed, t), config.lambda_f)
        if devices.n:
            fractions.append(classify_devices(devices, firewalls,
                                              config.r_f).is_protected.mean())
    if not fractions:
        raise NoDevicesError("all trials produced empty device sets")
    kept, m = np.array(fractions), len(fractions)
    std_err = float(np.std(kept, ddof=1) / math.sqrt(m)) if m > 1 else 0.0
    return ProtectedFractionEstimate(float(kept.mean()), std_err, m, trials - m)


def _assert_sweep_matches_points(cfg, values, trials, workers=1):
    """The sweep equals, field for field, both the reference and the
    one-point estimate at every r_f, or raises NoDevicesError exactly when
    they do. Returns the sweep (None when it raised)."""
    try:
        expected = [_protected_reference(replace(cfg, r_f=v), trials) for v in values]
    except NoDevicesError:
        with pytest.raises(NoDevicesError):
            sweep_protected_fraction(cfg, values, trials, workers)
        for v in values:
            with pytest.raises(NoDevicesError):
                estimate_protected_fraction(replace(cfg, r_f=v), trials)
        return None
    got = sweep_protected_fraction(cfg, values, trials, workers)
    assert got == expected
    assert got == [estimate_protected_fraction(replace(cfg, r_f=v), trials)
                   for v in values]
    return got


@st.composite
def protected_sweeps(draw):
    """(config, r_f values, trials): unsorted r_f values with duplicates on
    small windows, where some trials draw no devices or no firewalls."""
    r_r = draw(st.sampled_from([1.0, 2.0]))
    distinct = draw(st.lists(st.floats(1.0, 3.0).map(lambda u: u * r_r),
                             min_size=1, max_size=4))
    values = draw(st.permutations(
        distinct + draw(st.lists(st.sampled_from(distinct), max_size=3))))
    cfg = NetworkConfig(
        lambda_r=draw(st.sampled_from([0.01, 0.1, 1.0])), r_r=r_r,
        lambda_f=draw(st.sampled_from([0.0, 0.005, 0.05, 0.3])), r_f=r_r,
        window=Window.square(draw(st.floats(3.0, 20.0))),
        master_seed=draw(st.integers(0, 2 ** 32)),
        firewall_margin=draw(st.sampled_from([0.0, 2.0])))
    return cfg, values, draw(st.integers(1, 8))


@settings(max_examples=60, deadline=None)
@given(protected_sweeps())
def test_protected_sweep_matches_per_point_estimates(sweep):
    _assert_sweep_matches_points(*sweep)


def _world_counts(cfg, trials):
    """(devices, firewalls) per trial of `cfg`."""
    worlds = [sample_world(cfg, trial_seed(cfg.master_seed, t), cfg.lambda_f)
              for t in range(trials)]
    return [(d.n, f.n) for d, f, _ in worlds]


def test_protected_sweep_directed_cases():
    """Hand-picked worlds for each case the property test may draw rarely:
    no firewalls in any trial, some trials with no firewall, some empty
    device sets, and every device set empty."""
    values = [3.0, 2.0, 3.0, 4.5, 2.0]
    base = NetworkConfig(lambda_r=0.5, r_r=2.0, lambda_f=0.0, r_f=2.0,
                         window=Window.square(12.0), master_seed=4,
                         firewall_margin=2.0)
    # lambda_f = 0: no firewall anywhere, every fraction is 0
    got = _assert_sweep_matches_points(base, values, 6)
    assert all(est.mean_fraction == 0.0 for est in got)
    # a few firewalls: some trials have none, others protect some devices
    sparse_fw = replace(base, lambda_f=0.003)
    counts = _world_counts(sparse_fw, 10)
    assert any(f == 0 for _, f in counts) and any(f > 0 for _, f in counts)
    got = _assert_sweep_matches_points(sparse_fw, values, 10)
    assert 0.0 < got[3].mean_fraction < 1.0
    # a few devices: some trials skip an empty device set
    sparse_dev = replace(base, lambda_r=0.01, lambda_f=0.1, window=Window.square(8.0))
    counts = _world_counts(sparse_dev, 12)
    assert any(d == 0 for d, _ in counts) and any(d > 0 for d, _ in counts)
    got = _assert_sweep_matches_points(sparse_dev, values, 12)
    assert all(est.trials_skipped == sum(d == 0 for d, _ in counts) for est in got)
    # every device set empty: NoDevicesError for every point, as for each alone
    empty = replace(base, lambda_r=1e-9, lambda_f=0.1, window=Window.square(5.0))
    assert all(d == 0 for d, _ in _world_counts(empty, 5))
    assert _assert_sweep_matches_points(empty, values, 5) is None


def test_protected_sweep_closed_ball():
    """Every r_f of a sweep counts a device exactly r_f from a firewall as
    protected and one an ulp beyond as not, as classify_devices does."""
    window = Window(-20.0, -20.0, 40.0, 40.0)
    xy = np.array([(3.0, 4.0), (0.0, 2.5), (6.0, 8.0), (np.nextafter(5.0, np.inf), 0.0)])
    world = (PointSet(xy, 0.0, window, 0), PointSet(np.zeros((1, 2)), 0.0, window, 0),
             np.zeros(1))
    cfg = NetworkConfig(lambda_r=1.0, r_r=1.0, lambda_f=1.0, r_f=1.0, window=window)
    with mock.patch.object(percolation, "sample_world", return_value=world):
        got = sweep_protected_fraction(cfg, [5.0, 2.5, 10.0, 5.0], 1)
    assert [est.mean_fraction for est in got] == [0.5, 0.25, 1.0, 0.5]


@settings(max_examples=6, deadline=None)
@given(protected_sweeps())
def test_protected_sweep_worker_count_invariant(sweep):
    cfg, values, trials = sweep
    try:
        one = sweep_protected_fraction(cfg, values, trials, workers=1)
    except NoDevicesError:
        with pytest.raises(NoDevicesError):
            sweep_protected_fraction(cfg, values, trials, workers=2)
        return
    assert sweep_protected_fraction(cfg, values, trials, workers=2) == one
