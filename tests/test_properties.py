"""Property tests on small random worlds: the cell-graph trial kernel
against a device-level reference along any sequence of probes, its probe
against SciPy's labelling of the same live edges, the pruning of pair
enumeration to the devices above the probe floor, the bisected
spanning-prefix worker against probing every grid point and a plain
bisection (through protection ceilings and galloping descents), its probe
placement, builds, ceilings and certificate choice on stub trials, a
state scanning below a ceiling against the device-level reference, band
extensions against one fresh build, labelling on
from a failed probe's
roots against the brute-force ISG, the nested-thinning monotonicity it
relies on, `build_isg` against a
brute-force ISG, worker-count invariance, the closed-ball distance and
strip rules, the cell-grid `min_mark` and `CellGrid.min_within`'s squared
distances against brute force, the
columnar binning against row binning and its order against the stable
sort of the cell ids, the spanning certificate of a one-probe trial against
a full probe, the device-level reference and per-device certificate links,
the upper certificate (`bounded`) against the device-level reference, the
worker's counts with and without both, each cell edge's far node against a
binary search of the node cell ids, a cell
edge's weight when its cells' top-mark devices are not linked, the
open-edge coupling check against its per-edge reference, the staged
blocking search against its `np.linalg.norm` reference, the
protected-fraction sweep over r_f against one estimate per r_f, and the
public surface: every module's `__all__` and the README quickstart.

SciPy, from the `test` extra, is the independent oracle of the cell
grid's pair enumeration and of the labelling: `cKDTree.query_pairs` for
the trial's edge weights and `connected_components` for
`_component_roots`. The device-level references (`oracles`) take every
distance from a full dx*dx + dy*dy matrix and every component from
`connected_components`, so none runs the cell grid, `min_within` or
`_component_roots`."""
import importlib
import math
import pkgutil
import re
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import (certificate_spans, covered, isg, min_within, same_partition,
                     squared_distances, world_spans)
from scipy import sparse
from scipy.sparse.csgraph import connected_components
from scipy.spatial import cKDTree

import spatial_firewalls
from spatial_firewalls import lattice, percolation
from spatial_firewalls.bounds import _ceil_ratio, subcritical_sufficient_intensity
from spatial_firewalls.lattice import (OpenEdgeCheck, _any_pair_beyond,
                                       verify_open_edge_coupling)
from spatial_firewalls.network import (CellGrid, NetworkConfig, Realization,
                                       _component_roots, sample_world)
from spatial_firewalls.percolation import (NoDevicesError,
                                          ProtectedFractionEstimate, _PROTECT_SIDE,
                                          _spans_from_labels, _strip_masks,
                                          _TrialState, _threshold_worker,
                                          build_isg, estimate_protected_fraction,
                                          sweep_lambda_f,
                                          sweep_protected_fraction)
from spatial_firewalls.spatial import PointSet, Window, trial_seed

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


def _state(cfg, lambda_pool, tseed):
    """The trial state of the world that trial seed `tseed` samples."""
    return _TrialState(cfg, *sample_world(cfg, tseed, lambda_pool))


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
    return cfg, (PointSet(xy, window), pool, marks)


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
    state = _TrialState(cfg, *sampled)
    for p in ps + sorted(ps, reverse=True) + sorted(ps) + [0.0, 1.0] + exact[::-1]:
        assert state.spans_at(p) == world_spans(cfg, *sampled, p)


@settings(max_examples=100, deadline=None)
@given(edge_worlds())
def test_build_isg_matches_brute_force(world):
    """`build_isg` on an edge world, every pool firewall kept, against the
    brute-force ISG: the protected flags by the squared test over the whole
    pool, the vertices, the partition into components and their count."""
    cfg, sampled = world
    with mock.patch.object(percolation, "sample_world", return_value=sampled):
        r = build_isg(cfg, 0)
    devices, pool, _ = sampled
    protected, vertices, labels, k = isg(devices.points, pool.points, cfg.r_r, cfg.r_f)
    got = np.flatnonzero(r.label >= 0)
    assert (r.label < 0).tolist() == protected.tolist()
    assert got.tolist() == vertices.tolist()
    assert same_partition(r.label.take(got), labels)
    assert len(np.unique(r.label.take(got))) == k


def _scipy_labels(n, a, b):
    """SciPy's component labels of the undirected graph on 0..n-1 with
    edges (a[k], b[k])."""
    graph = sparse.coo_matrix((np.ones(len(a)), (a, b)), shape=(n, n))
    return connected_components(graph, directed=False)


def _scipy_probe(state, p):
    """Reference for `spans_at` on the state's current edges: SciPy's
    labels of the live ones, then the spanning flags."""
    live = state.edge_w >= p
    k, labels = _scipy_labels(len(state.cell_ids), state.edge_a[live], state.edge_b[live])
    return _spans_from_labels(labels, k, state.strip_w >= p)


@SETTINGS
@given(worlds(), st.lists(p_grids, min_size=1, max_size=4))
def test_csr_probe_matches_canonical_labelling(world, runs):
    """Along ascending runs of fractions, each run after the first starting
    below the floor more often than not, and a last probe at 0: every probe,
    and one at the least live edge weight, answers as SciPy's
    `connected_components` on the same live edges, and every build leaves
    the first endpoints sorted, ahead of their second."""
    cfg, lambda_pool, tseed = world
    state = _state(cfg, lambda_pool, tseed)
    builds = 0
    for p in [p for run in runs for p in run] + [0.0]:
        floor = state.floor
        spans = state.spans_at(p)
        builds += state.floor is not floor
        assert np.all(np.diff(state.edge_a) >= 0)
        assert np.all(state.edge_a < state.edge_b)
        assert spans == _scipy_probe(state, p)
        tie = state.edge_w[state.edge_w >= p].min(initial=np.inf)
        if tie <= 1.0:
            assert state.spans_at(tie) == _scipy_probe(state, tie)
    assert builds >= 1 + (min(runs[0]) > 0)


@SETTINGS
@given(st.integers(0, 60), st.data())
def test_component_roots_partition_matches_scipy(n, data):
    """`_component_roots` gives each vertex its component's smallest vertex,
    and so SciPy's partition, on random graphs with self-loops, repeated
    edges and edges in either orientation; and so does labelling the edges
    after a cut on from the roots of those before it, which it leaves as
    they were."""
    edges = data.draw(st.lists(st.tuples(st.integers(0, max(n - 1, 0)),
                                         st.integers(0, max(n - 1, 0))),
                               max_size=3 * n if n else 0))
    a, b = np.reshape(np.array(edges, dtype=np.int64), (-1, 2)).T
    roots = _component_roots(n, a, b)
    k, labels = _scipy_labels(n, a, b)
    smallest = np.full(k, n)
    np.minimum.at(smallest, labels, np.arange(n))
    assert roots.tolist() == smallest[labels].tolist()
    cut = data.draw(st.integers(0, len(a)))
    start = _component_roots(n, a[:cut], b[:cut])
    before = start.tolist()
    assert _component_roots(n, a[cut:], b[cut:], start).tolist() == roots.tolist()
    assert start.tolist() == before


@SETTINGS
@given(worlds(), st.floats(0.0, 1.0), st.lists(st.floats(0.0, 1.0), min_size=1, max_size=5))
def test_labelling_from_a_failure_matches_components(world, p_hi, ps):
    """Once a probe at p_hi has failed, `roots(p)` at any p < p_hi labels on
    from that probe's roots, through rebuilds below the floor and reuses
    above it: mapped to the devices, its roots give the ISG at p the
    partition of the brute-force `oracles.isg`, and the failure's roots
    stay as they were."""
    cfg, lambda_pool, tseed = world
    devices, pool, marks = sample_world(cfg, tseed, lambda_pool)
    state = _TrialState(cfg, devices, pool, marks)
    failed = state.roots(p_hi)
    before = failed.tolist()
    state.fail_p, state.fail_roots = p_hi, failed  # as a failed probe at p_hi leaves them
    for p in (q for q in ps if q < p_hi):
        roots = np.empty(devices.n, dtype=np.int64)
        roots[state.order] = state.roots(p).take(state.node)
        _, vertices, labels, _ = isg(devices.points, pool.points[marks < p], cfg.r_r, cfg.r_f)
        assert same_partition(roots[vertices], labels)
    assert failed.tolist() == before


def test_spans_from_labels_ignores_label_ids():
    """The read depends on which nodes share a label, never on the ids, and
    spanning one axis only is no span."""
    labels = np.array([0, 0, 1, 1, 2, 2, 0])
    strips = np.array([[1, 0, 1, 0, 0, 0, 0],   # left
                       [0, 0, 0, 1, 0, 0, 1],   # right
                       [0, 0, 0, 0, 1, 0, 0],   # bottom
                       [0, 0, 0, 0, 0, 0, 1]],  # top
                      dtype=bool)
    # label 0 touches left and right, label 1 left and right, label 2
    # only bottom; top is label 0's
    cases = ((strips, False),                  # left-right only
             (strips[[2, 3, 0, 1]], False),    # bottom-top only
             (strips[[0, 2, 2, 3]], False),
             (strips[[0, 1, 0, 1]], True))
    for rows, spanned in cases:
        for perm in ([0, 1, 2], [0, 2, 1], [1, 0, 2], [1, 2, 0], [2, 0, 1], [2, 1, 0]):
            assert _spans_from_labels(np.take(perm, labels), 3, rows) is spanned


def test_pairs_enumerated_only_among_devices_above_floor():
    """Pair enumeration, the grid's forward scan, sees only the devices a
    probe can still find susceptible: on the grid (1.0,), the devices with
    no pool firewall within r_f; on the grid (0.0,), every device. The
    other scans of a trial, one per trial for protection, query the
    firewall pool. The certificates are off, so that every trial builds."""
    cfg = NetworkConfig(lambda_r=1.0, r_r=1.0, lambda_f=0.3, r_f=1.0,
                        window=Window.square(12.0), master_seed=5)
    trials = 3
    worlds = [sample_world(cfg, trial_seed(cfg.master_seed, t), cfg.lambda_f)
              for t in range(trials)]
    unprotected = [int((~covered(devices.points, pool.points, cfg.r_f)).sum())
                   for devices, pool, _ in worlds]
    every = [devices.n for devices, _, _ in worlds]
    assert all(0 < u < n for u, n in zip(unprotected, every))

    scan = CellGrid.scan
    for grid, expected in (((1.0,), unprotected), ((0.0,), every)):
        forward, queries = [], []

        def recording(self, qx, qy, r, first=None):
            if first is None:
                queries.append(len(qx))
            else:
                assert qx is self.x and qy is self.y
                forward.append(len(self.x))
            return scan(self, qx, qy, r, first)

        # with both certificates off, every trial's one probe builds
        with mock.patch.object(CellGrid, "scan", recording), \
                mock.patch.object(_TrialState, "certified", lambda self, p: False), \
                mock.patch.object(_TrialState, "bounded", lambda self, p: False):
            _threshold_worker((cfg, cfg.lambda_f, grid, 0, trials))
        assert forward == expected
        assert queries == [pool.n for _, pool, _ in worlds]


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
                world = (PointSet(pair, win),
                         PointSet(np.empty((0, 2)), win), np.empty(0))
                assert _TrialState(cfg, *world).spans_at(0.5) == spans


def test_scan_pad_covers_binning_rounding():
    """A linked pair that only the scan's pad keeps in view.

    At r_r = 1 the cells have side 0.7. Device b sits one ulp left of
    24.5, the rounded left edge of column 35, yet b / 0.7 rounds to 35, so
    the binning puts b in column 35, two columns right of device a's 33.
    The x-gap to that edge then exceeds the pair's true dx, and the pair's
    dy reaches b's row, 2, only through the pad: with the pad at 0, the row
    window ends in row 1 and both the pair and the cell edge are lost.
    """
    a, b = (23.630405554356944, 0.9062333546028525), (24.499999999999996, 1.4)
    assert b[0] < 35 * 0.7 and np.floor(b[0] / 0.7) == 35 and np.floor(a[0] / 0.7) == 33
    d = np.subtract(b, a)
    assert d[0] * d[0] + d[1] * d[1] <= 1.0

    window = Window(0.0, 0.0, 30.0, 3.0)
    cfg = NetworkConfig(lambda_r=0.0, r_r=1.0, lambda_f=0.0, r_f=1.0, window=window)
    world = (PointSet(np.array([a, b]), window), PointSet(np.empty((0, 2)), window),
             np.empty(0))
    state = _TrialState(cfg, *world)
    state._build_edges(0.0)
    assert state.edge_a.tolist() == [0] and state.edge_b.tolist() == [1]


def test_cell_edge_weight_from_best_linked_pair():
    """The weight of a cell edge is the best min(min_mark_i, min_mark_j)
    over its linked pairs, even when the two cells' highest-mark devices
    are not linked.

    Cells have side 0.7 at r_r = 1. Cell A holds devices at x = 0.02 (mark
    0.9) and 0.68 (0.5); cell B at x = 1.12 (0.3) and 1.38 (0.8). The two
    top-mark devices are 1.36 apart, so the edge weight is 0.5, from the
    pair (0.68, 1.38), and not the bound min(0.9, 0.8). Each device has a
    firewall of its mark outside the window, on a margin of 0.75, within
    r_f = r_r of that device alone. The window is 2.1 by 0.7: every device
    lies in the bottom and top strips, cell A in the left one only and cell
    B in the right one only, so the trial spans exactly while the edge is
    live.
    """
    r_r = r_f = 1.0
    xy = np.array([[0.02, 0.05], [0.68, 0.4], [1.12, 0.3], [1.38, 0.65]])
    fw = np.array([[-0.6, -0.6], [0.55, 1.38], [1.2, -0.68], [2.0, 1.4]])
    marks = np.array([0.9, 0.5, 0.3, 0.8])
    window = Window(0.0, 0.0, 2.1, 0.7)
    cfg = NetworkConfig(lambda_r=0.0, r_r=r_r, lambda_f=0.0, r_f=r_f, window=window,
                        firewall_margin=0.75)
    assert not window.contains(fw).any()
    assert ((squared_distances(xy, fw) <= r_f * r_f) == np.eye(4, dtype=bool)).all()
    world = (PointSet(xy, window), PointSet(fw, cfg.firewall_window()), marks)
    state = _TrialState(cfg, *world)
    assert state.min_mark.tolist() == marks.tolist()  # already in cell order

    in_a = xy[:, 0] < 0.7
    d = xy[in_a][:, None, :] - xy[~in_a][None, :, :]
    linked = (d * d).sum(axis=2) <= r_r * r_r
    assert not linked[0, 1]  # the top-mark devices are out of range
    best = np.where(linked, np.minimum.outer(marks[in_a], marks[~in_a]),
                    -np.inf).max()
    assert best == 0.5

    assert state.spans_at(0.0)  # builds the edges over every device
    assert state.edge_a.tolist() == [0] and state.edge_b.tolist() == [1]
    assert state.edge_w.tolist() == [best]
    assert best < min(marks[in_a].max(), marks[~in_a].max())
    assert state.spans_at(best)
    assert not state.spans_at(np.nextafter(best, 1.0))
    assert not state.spans_at(0.75)  # both strips live, the edge is not


@SETTINGS
@given(worlds(), p_grids)
def test_worker_count_equals_probing_every_point(world, p_grid):
    """Eight trials in one call, so the later ones warm-start their search
    from the counts of the earlier ones."""
    cfg, lambda_pool, _ = world
    trials = 8
    counts = _threshold_worker((cfg, lambda_pool, tuple(p_grid), 0, trials))
    for t in range(trials):
        state = _state(cfg, lambda_pool, trial_seed(cfg.master_seed, t))
        assert counts[t] == sum(state.spans_at(p) for p in p_grid)


@SETTINGS
@given(worlds(), p_grids, st.integers(1, 15))
def test_worker_counts_do_not_depend_on_chunking(world, p_grid, cut):
    """Trials 0..16 in one call and split at `cut` into two calls, each of
    which warm-starts from its own history, give the same counts."""
    cfg, lambda_pool, _ = world
    common = (cfg, lambda_pool, tuple(p_grid))
    whole = _threshold_worker(common + (0, 16))
    split = np.concatenate([_threshold_worker(common + (0, cut)),
                            _threshold_worker(common + (cut, 16))])
    assert whole.tolist() == split.tolist()


def _stub_worker(monkeypatch, grid, counts, t0, t1, ceilings=None):
    """(counts, probes, builds, tries) of `_threshold_worker` over trials
    t0..t1 of stub trials: trial t spans at grid index j exactly when
    j < counts[t]. Per trial, `probes` holds its probe indices, `builds` the
    index of the floor each probe below the trial's floor names for its
    build, and `tries` (j, certificate) for each probe that tries one, as
    `_TrialState.spans_at` tries them (only the probe that makes the
    trial's first build): "lower" for `certified`, "upper" for `bounded`.
    No certificate decides, so every probe below the floor builds. The
    protection ceiling each trial is given goes to the list `ceilings` when
    one is passed."""
    probes, builds, tries = ([[] for _ in counts] for _ in range(3))

    class StubState:
        def __init__(self, config, devices, pool, marks, ceiling=1.0):
            self.t, self.floor = devices, math.nan  # the stub's "world" is its trial index
            if ceilings is not None:
                ceilings.append(ceiling)

        def spans_at(self, p, ends=None, floor=None):
            j = grid.index(p)
            probes[self.t].append(j)
            if not p >= self.floor:
                assert floor is not None and floor <= p
                if ends is not None and math.isnan(self.floor):
                    tries[self.t].append((j, "lower" if ends else "upper"))
                self.floor = floor
                builds[self.t].append(grid.index(floor))
            return j < counts[self.t]

    monkeypatch.setattr(percolation, "_TrialState", StubState)
    seeds = {trial_seed(0, t): t for t in range(len(counts))}
    monkeypatch.setattr(percolation, "sample_world",
                        lambda config, tseed, lambda_pool: (seeds[tseed], None, None))
    cfg = NetworkConfig(lambda_r=1.0, r_r=1.0, lambda_f=0.0, r_f=1.0,
                        window=Window.square(10.0), master_seed=0)
    out = _threshold_worker((cfg, 1.0, grid, t0, t1))
    return out.tolist(), probes[t0:t1], builds[t0:t1], tries[t0:t1]


def test_warm_start_first_probes_with_stub_trials(monkeypatch):
    """Each trial's first probe splits the earlier nonzero counts as evenly
    as any grid index can (the midpoint while there is none), and builds at
    warm = min(midpoint, least - 1), least the smallest earlier nonzero
    count; every count is still the trial's own.

    The counts cover trials that never span (1, 6), one that spans at every
    point (2), and trials below every earlier count (3, 5 and 8). Trial 1
    splits its prior at 7, then 6, and below every count gallops down from
    its failure at 6: 5 (the warm floor), 3 and 0, extending its edges at
    3 and 0.
    """
    grid = tuple(j / 10 for j in range(11))  # midpoint index 5
    counts = [7, 0, 11, 3, 5, 2, 0, 9, 1, 4]
    out, probes, builds, _ = _stub_worker(monkeypatch, grid, counts, 0, len(counts))
    assert out == counts

    def imbalance(earlier, m):  # the earlier counts a probe at m fails, minus those it spans
        return abs(sum(c <= m for c in earlier) - sum(c > m for c in earlier))

    for t, count in enumerate(counts):
        earlier = [c for c in counts[:t] if c]
        if earlier:
            assert imbalance(earlier, probes[t][0]) == min(
                imbalance(earlier, m) for m in range(len(grid)))
        warm = min(5, min(earlier, default=11) - 1)
        assert builds[t][0] == min(probes[t][0], warm)
        if count >= min(earlier, default=11):
            assert len(builds[t]) == 1
    assert [p[0] for p in probes] == [5, 7, 7, 7, 7, 5, 5, 5, 5, 5]
    assert builds == [[5], [5, 3, 0], [5], [5, 3, 0], [2], [2, 1], [1, 0], [1], [1, 0], [0]]
    assert probes[1] == [7, 6, 5, 3, 0]


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 40).flatmap(lambda k: st.tuples(
           st.just(k), st.lists(st.one_of(st.just(0), st.just(k), st.integers(0, k)),
                                min_size=1, max_size=24))),
       st.data())
def test_threshold_search_with_stub_trials(sized, data):
    """On any grid of 1 to 40 points and any counts (0 and K included), cut
    anywhere into two calls: each trial gets its own count, every probe
    lies in the open interval [lo, hi) of what its earlier probes proved,
    and a trial whose count is at least the smallest earlier nonzero count
    of its call builds its edges once. The probe that makes a trial's
    first build tries `bounded` when a failure ends the search (j == lo)
    and the call's previous trial failed at j, else `certified` when a
    span ends it (j == hi - 1), else neither; no later probe tries one. A
    trial that has failed below every
    earlier count and not spanned probes hi - 1, hi - 2, hi - 4, ...
    (clamped at 0). Once the call has two nonzero counts, a trial's
    ceiling is the grid point of the largest, and it probes above that
    point only after spanning there."""
    k, counts = sized
    cut = data.draw(st.integers(0, len(counts)))
    grid = tuple(j / k for j in range(k))
    ceilings = []
    with pytest.MonkeyPatch.context() as monkeypatch:
        parts = [_stub_worker(monkeypatch, grid, counts, t0, t1, ceilings)
                 for t0, t1 in ((0, cut), (cut, len(counts)))]
    assert parts[0][0] + parts[1][0] == counts
    for (t0, t1), (_, probes, builds, tries) in zip(((0, cut), (cut, len(counts))), parts):
        for t in range(t0, t1):
            lo, hi, floor, expected, step = 0, k, None, [], 1
            top = max(counts[t0:t], default=0)
            ceiling = grid[top] if sum(c > 0 for c in counts[t0:t]) > 1 and top < k else 1.0
            assert ceilings[t] == ceiling
            built = iter(builds[t - t0])
            for j in probes[t - t0]:
                assert lo <= j < hi
                assert grid[j] <= ceiling or lo > top
                if lo == 0 < hi < k and all(c == 0 or c > hi for c in counts[t0:t]):
                    assert j == max(hi - step, 0)
                    step *= 2
                if floor is None:  # the first build: it may try a certificate
                    if j == lo and t > t0 and counts[t - 1] <= j:
                        expected.append((j, "upper"))
                    elif j == hi - 1:
                        expected.append((j, "lower"))
                if floor is None or j < floor:  # below the floor: it builds
                    floor = next(built)
                lo, hi = (j + 1, hi) if j < counts[t] else (lo, j)
            assert lo == hi == counts[t]
            assert tries[t - t0] == expected
            earlier = [c for c in counts[t0:t] if c]
            if counts[t] >= min(earlier, default=k):
                assert len(builds[t - t0]) <= 1


def test_certificate_tried_follows_the_previous_trial(monkeypatch):
    """Which certificate each stub trial tries, per call. On the one-point
    grid, outcomes span, fail, fail, span, span, fail, span, fail: a trial
    whose call's previous trial failed tries `bounded` ("upper"), any other
    `certified` ("lower"), the first trial of each call included. On a
    4-point grid only the probe of a trial's first build tries one, where
    it ends the search: trials 3 and 4 split the earlier count 3 at index
    3, the top of [0, 4), and try `certified`; their descents below that
    build, and those of trials 0 and 1 below the midpoint, try none."""
    one = [1, 0, 0, 1, 1, 0, 1, 0]
    L, U = [(0, "lower")], [(0, "upper")]
    assert _stub_worker(monkeypatch, (1.0,), one, 0, 8)[3] == [L, L, U, U, L, L, U, L]
    assert [_stub_worker(monkeypatch, (1.0,), one, t0, t1)[3]
            for t0, t1 in ((0, 3), (3, 8))] == [[L, L, U], [L, L, L, U, L]]
    four = [0, 0, 3, 0, 1, 4]
    out, probes, _, tries = _stub_worker(monkeypatch, (0.0, 0.25, 0.5, 0.75), four, 0, 6)
    assert out == four
    assert probes == [[2, 1, 0], [2, 1, 0], [2, 3], [3, 2, 1, 0], [3, 2, 1, 0], [1, 3]]
    assert tries == [[], [], [], [(3, "lower")], [(3, "lower")], []]


def _plain_bisection(state, p_grid) -> int:
    """The spanning prefix length by bisection from the grid's midpoint."""
    lo, hi = 0, len(p_grid)
    while lo < hi:
        mid = (lo + hi) // 2
        if state.spans_at(p_grid[mid]):
            lo = mid + 1
        else:
            hi = mid
    return lo


def test_warm_start_builds_fewer_edge_sets():
    """Where every trial's threshold lies below the midpoint of a 31-point
    grid, a plain bisection builds each trial's edges at least twice (at the
    midpoint, then extended below it). The warm start gives the same counts
    from fewer enumerated pairs: the first trial builds at the midpoint as
    the plain bisection does, and a later trial whose count is at least the
    smallest earlier one spans at its first probe and builds once. Either
    way each trial enumerates its pairs from scratch once and extends them
    after that. Trials 1 and 4 set a new smallest count; trial 5 equals
    it."""
    cfg = NetworkConfig(lambda_r=0.8, r_r=2.0, lambda_f=0.15, r_f=2.0,
                        window=Window.square(30.0), master_seed=5)
    grid, trials = tuple(j / 30 for j in range(31)), 6
    builds = []  # per trial, (floor, fresh) of its edge builds
    pairs = [0]  # the linked pairs its scans enumerate
    init, build_edges, scan = _TrialState.__init__, _TrialState._build_edges, CellGrid.scan

    def new_trial(self, *args):
        builds.append([])
        init(self, *args)

    def counting(self, floor):
        builds[-1].append((floor, self.best is None))
        with mock.patch.object(CellGrid, "scan", counted_scan):
            build_edges(self, floor)

    def counted_scan(self, qx, qy, r, first=None):
        for i, j, d2 in scan(self, qx, qy, r, first):
            pairs[0] += int(np.count_nonzero(d2 <= r * r))
            yield i, j, d2

    with mock.patch.object(_TrialState, "__init__", new_trial), \
            mock.patch.object(_TrialState, "_build_edges", counting):
        plain = [_plain_bisection(_state(cfg, cfg.lambda_f,
                                         trial_seed(cfg.master_seed, t)), grid)
                 for t in range(trials)]
        plain_builds, plain_pairs = builds[:], pairs[0]
        builds.clear()
        pairs[0] = 0
        warm = _threshold_worker((cfg, cfg.lambda_f, grid, 0, trials)).tolist()
        warm_builds = builds[:]
    assert plain == [12, 10, 12, 11, 8, 8]
    assert all(0 < c <= 15 for c in plain)  # every midpoint probe fails
    assert all(len(b) >= 2 for b in plain_builds)
    assert warm == plain
    assert warm_builds[0][0] == plain_builds[0][0] == (grid[15], True)
    for b in plain_builds + warm_builds:
        assert [fresh for _, fresh in b] == [True] + [False] * (len(b) - 1)
    for t in range(1, trials):
        if plain[t] >= min(plain[:t]):
            assert len(warm_builds[t]) == 1
    assert pairs[0] < plain_pairs


def _scaled_worlds(cfg, devices, pool, marks, scales):
    """Per trial seed of `cfg`'s trials 0.., the world (devices, pool,
    marks * scale): thinning the pool by marks scaled down by s keeps at p
    what the world keeps at p / s, so a trial's count rises with its
    scale."""
    return {trial_seed(cfg.master_seed, t): (devices, pool, marks * s)
            for t, s in enumerate(scales)}


@SETTINGS
@given(worlds(), p_grids, st.lists(st.floats(0.05, 1.0), min_size=2, max_size=5), st.data())
def test_worker_counts_through_ceilings_and_galloping(world, p_grid, scales, data):
    """Trials on one world with its marks scaled by `scales`, then by 1 and
    0.1, so that the call's counts end with one at least every earlier one
    (a probe above the ceiling finishes the protection scan) and one at most
    every earlier one (a trial below them gallops down, extending its
    edges): `_threshold_worker` gives each trial a plain bisection's count
    on a fresh state, in one call and cut into two."""
    cfg, lambda_pool, tseed = world
    scales = scales + [1.0, 0.1]
    worlds_by_seed = _scaled_worlds(cfg, *sample_world(cfg, tseed, lambda_pool), scales)
    plain = [_plain_bisection(_TrialState(cfg, *worlds_by_seed[trial_seed(cfg.master_seed, t)]),
                              p_grid) for t in range(len(scales))]
    common = (cfg, lambda_pool, tuple(p_grid))
    cut = data.draw(st.integers(1, len(scales) - 1))
    with mock.patch.object(percolation, "sample_world",
                           lambda config, ts, pool_intensity: worlds_by_seed[ts]):
        whole = _threshold_worker(common + (0, len(scales))).tolist()
        split = np.concatenate([_threshold_worker(common + (0, cut)),
                                _threshold_worker(common + (cut, len(scales)))]).tolist()
    assert whole == split == plain


def test_worker_completes_the_scan_and_gallops():
    """On the 31-point grid of `test_warm_start_builds_fewer_edge_sets`,
    trials on its trial-0 world with marks scaled by 0.8, 0.9, 1 and 0.3
    count 10, 11, 12 and 4. The third trial's ceiling is grid point 11,
    where it spans, so one probe above it finishes its protection scan;
    the fourth fails below every count and gallops down, extending its
    edges below its failed build. The counts are a plain bisection's."""
    cfg = NetworkConfig(lambda_r=0.8, r_r=2.0, lambda_f=0.15, r_f=2.0,
                        window=Window.square(30.0), master_seed=5)
    grid = tuple(j / 30 for j in range(31))
    worlds_by_seed = _scaled_worlds(cfg, *sample_world(cfg, trial_seed(5, 0), cfg.lambda_f),
                                    (0.8, 0.9, 1.0, 0.3))
    calls = {"ceilings": [], "completions": 0, "probes": [], "extensions": 0}
    init, complete, build_edges = (_TrialState.__init__, _TrialState._complete,
                                   _TrialState._build_edges)

    def new_trial(self, config, devices, pool, marks, ceiling=1.0):
        calls["ceilings"].append(ceiling)
        calls["probes"].append([])
        init(self, config, devices, pool, marks, ceiling)

    def completing(self):
        calls["completions"] += 1
        complete(self)

    def building(self, floor):
        calls["extensions"] += self.best is not None
        build_edges(self, floor)

    spans_at = _TrialState.spans_at

    def probing(self, p, *args):
        calls["probes"][-1].append(grid.index(p))
        return spans_at(self, p, *args)

    with mock.patch.object(percolation, "sample_world",
                           lambda config, ts, pool_intensity: worlds_by_seed[ts]), \
            mock.patch.object(_TrialState, "__init__", new_trial), \
            mock.patch.object(_TrialState, "_complete", completing), \
            mock.patch.object(_TrialState, "_build_edges", building), \
            mock.patch.object(_TrialState, "spans_at", probing):
        counts = _threshold_worker((cfg, cfg.lambda_f, grid, 0, 4)).tolist()
    plain = [_plain_bisection(_TrialState(cfg, *worlds_by_seed[trial_seed(5, t)]), grid)
             for t in range(4)]
    assert counts == plain == [10, 11, 12, 4]
    assert calls["ceilings"] == [1.0, 1.0, grid[11], grid[12]]
    assert calls["completions"] == 1 and max(calls["probes"][2]) > 11
    assert calls["extensions"] > 0
    # below the counts 10 to 12, trial 3 gallops from its failure at hi: hi - 1, ...
    lo, hi, step = 0, 31, 1
    for j in calls["probes"][3]:
        if lo == 0 and hi < 10:
            assert j == max(hi - step, 0)
            step *= 2
        lo, hi = (j + 1, hi) if j < 4 else (lo, j)


@settings(max_examples=100, deadline=None)
@given(edge_worlds(), st.floats(0.0, 1.0, exclude_max=True), st.data())
def test_ceiling_state_answers_as_the_full_scan(world, ceiling, data):
    """A state that scans only the pool firewalls with mark < `ceiling`
    has the full scan's min_mark wherever that is below the ceiling and
    inf elsewhere, and answers every probe at p <= ceiling (descending,
    then ascending, then at the ceiling) as the device-level reference
    does. A probe above the ceiling finishes the scan: min_mark and the
    strip weights are then the full scan's, and every later probe, at any
    p, answers as the reference."""
    cfg, sampled = world
    state, full = _TrialState(cfg, *sampled, ceiling), _TrialState(cfg, *sampled)
    below = full.min_mark < ceiling
    assert state.min_mark[below].tolist() == full.min_mark[below].tolist()
    assert np.isinf(state.min_mark[~below]).all()
    ps = data.draw(st.lists(st.floats(0.0, ceiling), min_size=1, max_size=5))
    for p in sorted(ps, reverse=True) + sorted(ps) + [ceiling]:
        assert state.spans_at(p) == world_spans(cfg, *sampled, p)
    above = data.draw(st.floats(ceiling, 1.0, exclude_min=True))
    assert state.spans_at(above) == world_spans(cfg, *sampled, above)
    assert state.min_mark.tolist() == full.min_mark.tolist()
    assert np.array_equal(state.strip_w, full.strip_w)
    for p in data.draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=5)):
        assert state.spans_at(p) == world_spans(cfg, *sampled, p)


@settings(max_examples=60, deadline=None)
@given(edge_worlds(), st.data())
def test_band_extensions_equal_one_fresh_build(world, data):
    """Builds at descending floors (random fractions and exact min_mark
    values), each below the last adding only the band of devices between
    the two floors, leave the edges of one fresh build at the last floor."""
    cfg, sampled = world
    state, fresh = _TrialState(cfg, *sampled), _TrialState(cfg, *sampled)
    exact = sorted(set(state.min_mark[np.isfinite(state.min_mark)].tolist()))
    p = st.floats(0.0, 1.0)
    floors = data.draw(st.lists(st.one_of(p, st.sampled_from(exact)) if exact else p,
                                min_size=1, max_size=5, unique=True))
    for floor in sorted(floors, reverse=True):
        state._build_edges(floor)
    fresh._build_edges(min(floors))
    for name in ("edge_a", "edge_b", "edge_w"):
        assert np.array_equal(getattr(state, name), getattr(fresh, name))


@SETTINGS
@given(worlds(), p_grids)
def test_certificate_is_sound(world, p_grid):
    """Wherever the certificate of a state says it spans, a fresh state of
    the same world spans at that p, through a probe that builds every
    edge."""
    cfg, lambda_pool, tseed = world
    state = _state(cfg, lambda_pool, tseed)
    for p in p_grid:
        if state.certified(p):
            assert _state(cfg, lambda_pool, tseed).spans_at(p)


@settings(max_examples=60, deadline=None)
@given(edge_worlds(), st.floats(0.0, 1.0))
def test_certificate_implies_device_level_spanning(world, p):
    """The certificate against the device-level reference, on windows from
    narrower than r_r to ten r_r per side with devices on their max edges."""
    cfg, sampled = world
    state = _TrialState(cfg, *sampled)
    for q in (p, 0.0, 1.0):
        if state.certified(q):
            assert world_spans(cfg, *sampled, q)


@settings(max_examples=100, deadline=None)
@given(edge_worlds(), st.floats(0.0, 1.0))
def test_bounded_implies_device_level_failure(world, p):
    """`bounded` against the device-level reference: wherever it claims a
    failure, the brute-force ISG does not span, on windows from narrower
    than r_r to ten r_r per side with devices on their max edges."""
    cfg, sampled = world
    state = _TrialState(cfg, *sampled)
    for q in (p, 0.0, 1.0):
        if state.bounded(q):
            assert not world_spans(cfg, *sampled, q)


@SETTINGS
@given(worlds(), p_grids)
def test_node_links_certify_as_device_links(world, p_grid):
    """`certified(p)`, which labels one link per node and neighbour cell,
    answers as the per-device certificate links of the reference do, on
    the devices kept at p in the state's cell order."""
    cfg, lambda_pool, tseed = world
    state = _state(cfg, lambda_pool, tseed)
    grid = state.grid
    for p in (0.0, *p_grid):
        kept = state.min_mark >= p
        assert state.certified(p) == certificate_spans(
            np.column_stack([grid.x, grid.y])[kept], grid.cell_id[kept], grid.stride,
            grid.n_cols * grid.stride, cfg.window, cfg.r_r)


# grids of one point (the sweep over lambda_r probes (1.0,)), two and K
sized_p_grids = st.one_of(st.just([1.0]), p_grids.map(lambda g: g[:1]),
                          p_grids.map(lambda g: g[:2]), p_grids)


@SETTINGS
@given(worlds(), sized_p_grids, st.integers(0, 16))
def test_worker_counts_do_not_depend_on_the_certificate(world, p_grid, cut):
    """Trials 0..16, split at `cut` into two calls, give the same counts
    with both certificates (`certified` and `bounded`) disabled. They are
    tried only at probes that would make a trial's first build (no slot
    weights yet), and each probe one decides spares exactly one edge
    build: it changes no other build."""
    cfg, lambda_pool, _ = world
    common = (cfg, lambda_pool, tuple(p_grid))
    build_edges = _TrialState._build_edges

    def checked(certificate):
        def call(self, p):
            assert self.best is None and not p >= self.floor
            return certificate(self, p)
        return call

    off = lambda self, p: False  # noqa: E731
    runs = []
    for certify, bound in ((checked(_TrialState.certified), checked(_TrialState.bounded)),
                           (off, off)):
        decided, builds = [], []

        def recording(certificate):
            def call(self, p):
                decided.append(certificate(self, p))
                return decided[-1]
            return call

        def counting(self, floor):
            builds.append(floor)
            build_edges(self, floor)

        with mock.patch.object(_TrialState, "certified", recording(certify)), \
                mock.patch.object(_TrialState, "bounded", recording(bound)), \
                mock.patch.object(_TrialState, "_build_edges", counting):
            counts = np.concatenate([_threshold_worker(common + (0, cut)),
                                     _threshold_worker(common + (cut, 16))])
        runs.append((counts.tolist(), sum(decided), len(builds)))
    (on, decided, builds_on), (off, _, builds_off) = runs
    assert on == off
    assert builds_on + decided == builds_off


@SETTINGS
@given(worlds(), p_grids)
def test_spans_at_monotone_along_grid(world, p_grid):
    cfg, lambda_pool, tseed = world
    state = _state(cfg, lambda_pool, tseed)
    flags = [state.spans_at(p) for p in p_grid]
    assert all(a >= b for a, b in zip(flags, flags[1:]))


@SETTINGS
@given(worlds())
def test_spans_at_full_pool_matches_realization(world):
    """A trial probed at p = 1 spans exactly when the brute-force ISG of
    `build_isg`'s world at the same seed, every firewall kept, does."""
    cfg, _, tseed = world
    r = build_isg(cfg, tseed)
    kept = np.zeros(r.firewalls.n)
    assert _state(cfg, cfg.lambda_f, tseed).spans_at(1.0) == \
        world_spans(cfg, r.devices, r.firewalls, kept, 1.0)


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
    states = [_state(cfg, pool, trial_seed(cfg.master_seed, t))
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
    pair = PointSet(np.array([[x, y], at_range]), window)

    # the trial kernel: one pool firewall on the first device, of mark
    # `mark`, is kept for p above the mark and covers both devices there
    lo, hi = pair.points.min(axis=0), pair.points.max(axis=0)
    apart = hi > lo

    def kernel(pad):
        win = Window(*(lo - pad), *(hi + pad))
        cfg = NetworkConfig(lambda_r=0.0, r_r=r, lambda_f=0.0, r_f=r, window=win)
        world = (PointSet(pair.points, win),
                 PointSet(pair.points[:1], win), np.array([mark]))
        return _TrialState(cfg, *world)

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
    assert _strip_masks(*corners.T, cfg).tolist() == [[True, False], [False, True],
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
                                      at_range[window.contains(at_range)]]), window),
             PointSet(pool_xy, fw.expand(1.0)), marks)
    state = _TrialState(cfg, *world)

    dx = state.grid.x[:, None] - pool_xy[None, :, 0]
    dy = state.grid.y[:, None] - pool_xy[None, :, 1]
    d2 = dx * dx + dy * dy
    expected = np.where(d2 <= r_f * r_f, marks, np.inf).min(axis=1, initial=np.inf)
    assert np.array_equal(state.min_mark, expected)


@SETTINGS
@given(ranges, st.lists(st.tuples(exact, exact), min_size=1, max_size=5),
       st.lists(units, max_size=30))
def test_classify_devices_matches_brute_force(r, sites, spots):
    """`CellGrid.min_within` on the protected fractions' cells gives each
    device its least squared distance to a firewall within r (closed), bit
    for bit, also for devices exactly r from a firewall and one ulp beyond
    it."""
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
    devices = PointSet(xy, window)
    firewalls = PointSet(sites, window)

    d2 = squared_distances(xy, sites)
    assert (d2[:len(at_range)].min(axis=1) <= r * r).all()
    own = np.tile(np.arange(len(sites)), 2)
    assert (d2[len(at_range) + np.arange(len(beyond)), own] > r * r).all()
    got = _grid_min_d2(devices, firewalls, r)
    assert got.tobytes() == min_within(xy, sites, r).tobytes()
    assert np.isfinite(got[:len(at_range)]).all()


def _grid_min_d2(devices, firewalls, r):
    """`CellGrid.min_within` of the firewalls over the devices, binned as
    the protected fractions bin them (cells of `_PROTECT_SIDE` r from the
    window's corner), in the devices' order."""
    grid, order = CellGrid.binned(*devices.points.T.copy(),
                                  (devices.window.x_min, devices.window.y_min),
                                  _PROTECT_SIDE * r)
    d2 = np.empty(devices.n)
    d2[order] = grid.min_within(*firewalls.points.T.copy(), r)
    return d2


def _boundary_points(r, x0, y0, w, h, spots):
    """Sites on the 1/8 grid inside the box (x0, y0, w, h), the 12 points
    exactly r from each (r / 5 a power of two keeps every coordinate and
    squared distance exact) and the next double past r on each axis."""
    sites = np.round(np.reshape([(x0 + u * w, y0 + v * h) for u, v in spots],
                                (-1, 2)) * 8) / 8
    at_range = (sites[:, None, :] + turns * (r / 5)).reshape(-1, 2)
    beyond = np.concatenate([np.stack([np.nextafter(sites[:, 0] + r, np.inf),
                                       sites[:, 1]], axis=1),
                             np.stack([sites[:, 0],
                                       np.nextafter(sites[:, 1] + r, np.inf)],
                                      axis=1)])
    return sites, at_range, beyond


@SETTINGS
@given(ranges, st.data())
def test_min_within_matches_brute_force(r, data):
    """Every device's `CellGrid.min_within` is the least squared distance to
    a firewall within r over all pairs, bit for bit, and inf where none is.
    Devices sit exactly r from firewall sites and one ulp beyond, on an
    offset non-square window with firewalls in a margin around it; windows
    up to 2000 r wide make the devices' grid a sparse one."""
    draw = data.draw
    x0, y0 = draw(st.floats(-20.0, 20.0)), draw(st.floats(-20.0, 20.0))
    window = Window(x0, y0, x0 + r * draw(st.one_of(st.floats(0.5, 12.0),
                                                    st.floats(500.0, 2000.0))),
                    y0 + r * draw(st.floats(0.5, 12.0)))
    fw = window.expand(r * draw(st.floats(0.0, 2.0)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32)))
    n, m = draw(st.integers(0, 300)), draw(st.integers(0, 40))
    sites, at_range, beyond = _boundary_points(r, window.x_min, window.y_min,
                                               window.width, window.height,
                                               draw(st.lists(units, max_size=4)))
    xy = np.concatenate([np.column_stack([window.x_min + window.width * rng.random(n),
                                          window.y_min + window.height * rng.random(n)]),
                         at_range, beyond])
    devices = PointSet(xy[window.contains(xy)], window)
    firewalls = PointSet(np.concatenate([np.column_stack(
        [fw.x_min + fw.width * rng.random(m), fw.y_min + fw.height * rng.random(m)]),
        sites[fw.contains(sites)]]), fw)
    expected = min_within(devices.points, firewalls.points, r)
    assert _grid_min_d2(devices, firewalls, r).tobytes() == expected.tobytes()


@settings(max_examples=60, deadline=None)
@given(edge_worlds(), st.one_of(st.just(0.0), st.floats(0.0, 1.0)))
def test_edge_weights_match_kdtree_pair_fold(world, floor):
    """The cell edges built at any floor are those of a fold, computed here,
    of `cKDTree.query_pairs` over the devices with min_mark >= floor: per
    pair of distinct cells, the max over linked pairs of the smaller
    min_mark."""
    cfg, sampled = world
    state = _TrialState(cfg, *sampled)
    state._build_edges(floor)
    xy, min_mark = np.column_stack([state.grid.x, state.grid.y]), state.min_mark
    node = np.searchsorted(state.cell_ids, state.grid.cell_id)
    keep = np.flatnonzero(min_mark >= floor)
    pairs = cKDTree(xy[keep]).query_pairs(cfg.r_r, output_type="ndarray")
    i, j = keep[pairs[:, 0]], keep[pairs[:, 1]]
    fold = {}
    for a, b, weight in zip(node[i].tolist(), node[j].tolist(),
                            np.minimum(min_mark[i], min_mark[j]).tolist()):
        if a != b:
            key = (min(a, b), max(a, b))
            fold[key] = max(fold.get(key, -np.inf), weight)
    built = dict(zip(zip(state.edge_a.tolist(), state.edge_b.tolist()),
                     state.edge_w.tolist()))
    assert len(built) == len(state.edge_w)
    assert built == fold


@st.composite
def binning_clouds(draw):
    """(x, y, origin, side): points at random offsets into their cells and
    exactly on cell edges, over a non-square block of cells above an
    offset origin."""
    side = draw(st.floats(0.05, 5.0))
    origin = (draw(st.floats(-1e3, 1e3)), draw(st.floats(-1e3, 1e3)))
    n = draw(st.integers(0, 60))
    ks = [st.lists(st.integers(0, draw(st.integers(0, 40))), min_size=n, max_size=n)
          for _ in range(2)]
    fs = st.lists(st.one_of(st.just(0.0), st.floats(0.0, 1.0, exclude_max=True)),
                  min_size=n, max_size=n)
    x, y = ((o + (np.array(draw(k), dtype=float) + draw(fs)) * side).reshape(-1)
            for o, k in zip(origin, ks))
    return x, y, origin, side


@SETTINGS
@given(binning_clouds())
def test_columnar_binning_matches_row_binning(cloud):
    """`CellGrid.binned` on the x and y columns gives the cell ids, the
    order and the columns that floor((xy - origin) / side) gives on the
    (n, 2) array; the order is the stable sort of the ids, so a cell's
    points keep their order."""
    x, y, origin, side = cloud
    cell = np.floor((np.column_stack([x, y]) - origin) / side).astype(np.int64)
    stride = int(cell[:, 1].max(initial=0)) + 1
    ids = cell[:, 0] * stride + cell[:, 1]
    order = np.argsort(ids, kind="stable")
    grid, got = CellGrid.binned(x, y, origin, side)
    assert np.array_equal(got, order)
    assert (grid.stride, grid.n_cols) == (stride, int(cell[:, 0].max(initial=0)) + 1)
    assert np.array_equal(grid.cell_id, ids[order])
    assert np.array_equal(grid.x, x[order]) and np.array_equal(grid.y, y[order])


@SETTINGS
@given(st.sampled_from([256, 300, 65_536, 65_537]), st.integers(1, 300), st.data())
def test_binning_order_is_the_stable_sort_of_the_ids(top, n, data):
    """On grids of at most 2**16 cells (sorted as 16-bit keys) and of more
    (sorted as int64), `CellGrid.binned` orders the points as the stable
    sort of their cell ids. Points share a
    few cells, so ties are many, and the corner point makes the grid
    `top` x `top`: 2**16 cells, 300**2, 2**32 or just above, once over
    every point and once over the corner and one other point."""
    cells = data.draw(st.lists(st.tuples(st.integers(0, top - 1), st.integers(0, top - 1)),
                               min_size=1, max_size=8))
    pick = data.draw(st.lists(st.integers(0, len(cells) - 1), min_size=n, max_size=n))
    for xy in ([(top - 1, top - 1)] + [cells[k] for k in pick],
               [(top - 1, top - 1), cells[0]]):
        xy = np.array(xy, dtype=float) + 0.5
        grid, order = CellGrid.binned(xy[:, 0].copy(), xy[:, 1].copy(), (0.0, 0.0), 1.0)
        assert grid.n_cols * grid.stride == top * top
        ids = (xy[:, 0] // 1).astype(np.int64) * top + (xy[:, 1] // 1).astype(np.int64)
        assert np.array_equal(order, np.argsort(ids, kind="stable"))


def _searchsorted_edges(state, floor):
    """The cell edges `_TrialState._build_edges` builds at `floor`, with each
    far node found by a binary search of the node cell ids; the slot columns
    head and tail are derived here, as the build derives them."""
    keep = np.flatnonzero(state.min_mark >= floor)
    grid = state.grid.subset(keep)
    min_mark, node = state.min_mark[keep], state.node[keep]
    cx, cy = grid.cell_id // grid.stride, grid.cell_id % grid.stride
    tail = 5 * cx + cy
    head = 13 * node - tail
    best = np.full(len(state.cell_ids) * 13, -np.inf)
    for i, j, d2 in grid.scan(grid.x, grid.y, state.r_r,
                              first=grid.start(grid.cell_id + 1)):
        i, j = i[d2 <= state.r_r ** 2], j[d2 <= state.r_r ** 2]
        np.maximum.at(best, head[i] + tail[j], np.minimum(min_mark[i], min_mark[j]))
    slots = np.flatnonzero(best > -np.inf)
    slots = slots[slots % 13 != 0]
    a, off = np.divmod(slots, 13)
    dx = (off + 2) // 5
    far = state.cell_ids[a] + dx * state.grid.stride + off - 5 * dx
    return a, np.searchsorted(state.cell_ids, far), best[slots]


@settings(max_examples=60, deadline=None)
@given(st.booleans(), st.floats(0.3, 3.0), st.floats(2.0, 8.0),
       st.integers(0, 2 ** 32), st.one_of(st.just(0.0), st.floats(0.0, 1.0)))
def test_far_nodes_match_binary_search(sparse, r_r, degree, seed, floor):
    """The edges built at any floor, far nodes included, equal those of a
    binary search of the node cell ids, on a dense world whose grid reads
    the start table and on a sparse one, a cluster in a window 60 r_r wide
    (above 16 cells per point), whose grid binary-searches."""
    rng = np.random.default_rng(seed)
    x0, y0 = rng.uniform(-5.0, 5.0, 2)
    width = r_r * (60.0 if sparse else 8.0)
    window = Window(x0, y0, x0 + width, y0 + 0.75 * width)
    cluster = 5.0 * r_r  # devices and firewalls fill this lower-left square
    n = rng.poisson(degree / (np.pi * r_r ** 2) * cluster ** 2)
    devices, pool = (PointSet((x0, y0) + rng.uniform(0.0, cluster, (m, 2)), window)
                     for m in (n, rng.integers(0, 12)))
    cfg = NetworkConfig(lambda_r=1.0, r_r=r_r, lambda_f=0.0, r_f=1.5 * r_r,
                        window=window)
    # a device at the far corner spreads the grid over the whole window
    corner = PointSet(np.vstack([devices.points, (window.x_max, window.y_max)]), window)
    world = (corner, pool, rng.random(pool.n))
    state = _TrialState(cfg, *world)
    assert (state.grid._table is None) == sparse
    state._build_edges(floor)
    a, b, w = _searchsorted_edges(state, floor)
    assert np.array_equal(state.edge_a, a) and np.array_equal(state.edge_w, w)
    assert np.array_equal(state.edge_b, b)


def _coupling_reference(realization):
    """Per-edge reference for `verify_open_edge_coupling`:
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

    # component label per device, -1 when protected
    label = realization.label
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
        if (label[members] < 0).any():
            return 1
        if len(set(label[members].tolist())) != 1:
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
    """The realization with a few susceptible devices' ISG labels reassigned
    and a few of them flagged protected (label -1), so that clauses (ii) and
    (iii) fail on the open edges they touch."""
    vertices = np.flatnonzero(realization.label >= 0)
    if len(vertices) == 0:
        return realization
    n_components = len(np.unique(realization.label.take(vertices)))
    vertex = st.integers(0, len(vertices) - 1)
    flagged = data.draw(st.lists(vertex, min_size=1, max_size=6))
    relabelled = data.draw(st.lists(st.tuples(vertex, st.integers(0, n_components)),
                                    min_size=1, max_size=6))
    label = realization.label.copy()
    for v, component in relabelled:
        label[vertices[v]] = component
    label[vertices[flagged]] = -1
    return replace(realization, label=label)


def test_open_edge_coupling_matches_per_edge_reference():
    """The array-at-a-time coupling check returns the per-edge loop's
    (violations, open_edges, edges_scanned), on sampled and on perturbed
    realizations, and some perturbed ones do violate the coupling."""
    violations = []

    @settings(max_examples=60, deadline=None)
    @given(coupling_worlds(), st.data())
    def check(realization, data):
        for r in (realization, _perturbed(realization, data)):
            got = verify_open_edge_coupling(r)
            assert got == _coupling_reference(r)
        violations.append(got.violations)

    check()
    assert any(violations)


def _uncovered_close_pairs_reference(face, trials, seed):
    """The blocking search's generator as first written: every distance of
    every pair by `np.linalg.norm` over (trials, 3, 2) arrays, then one
    joint mask, four pairs per trial. Draws the same random stream as
    `_uncovered_close_pairs`."""
    rng = np.random.default_rng(seed)
    side = face.side
    fw = np.stack([lattice._sample_triangle(t, trials, rng)
                   for t in face.triangles()], axis=1)
    for _ in range(4):
        p = lattice._sample_hexagon(face, trials, rng)
        q = lattice._sample_hexagon(face, trials, rng)
        dp = np.linalg.norm(fw - p[:, None, :], axis=2).min(axis=1)
        dq = np.linalg.norm(fw - q[:, None, :], axis=2).min(axis=1)
        dist = np.linalg.norm(p - q, axis=1)
        hit = (dp > side) & (dq > side) & (dist <= side)
        for i in np.flatnonzero(hit):
            yield (p[i], q[i], fw[i], float(dp[i]), float(dq[i]), float(dist[i]),
                   (int(face.sector(p[i])[0]), int(face.sector(q[i])[0])))


def test_blocking_search_matches_norm_reference():
    """The staged blocking search (pair distance first, clearances only
    where still needed) yields the reference's tuples bit for bit, and
    `pocket_pair_survey` counts them as the reference does; some searches
    yield same-sector pocket pairs."""
    pockets = []

    @settings(max_examples=30, deadline=None)
    @given(st.floats(0.01, 100.0), st.integers(0, 2 ** 32 - 1))
    @example(2.0, 7)  # a same-sector pocket pair among 2000 x 4 pairs
    @example(0.3, 7)
    def check(side, seed):
        face = lattice.HexFace(side=side)
        got = list(lattice._uncovered_close_pairs(face, 2000, seed))
        want = list(_uncovered_close_pairs_reference(face, 2000, seed))
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert all(np.array_equal(a, b) for a, b in zip(g[:3], w[:3]))
            assert g[3:] == w[3:]
        same = sum(s[0] == s[1] for *_, s in want)
        survey = lattice.pocket_pair_survey(side, 2000, seed)
        assert (survey.same_sector_pairs, survey.crossing_pairs) == (same, len(want) - same)
        pockets.append(same)

    check()
    assert any(pockets)


def _hand_made(r_r, origin, points):
    """A realization of the given devices, all susceptible and in one ISG
    component, with no firewalls, on a 25 x 25 window at `origin`."""
    window = Window(origin[0], origin[1], origin[0] + 25.0, origin[1] + 25.0)
    cfg = NetworkConfig(lambda_r=1.0, r_r=r_r, lambda_f=0.0, r_f=r_r, window=window)
    n = len(points)
    return Realization(config=cfg, devices=PointSet(points, window),
                       firewalls=PointSet(np.empty((0, 2)), window),
                       label=np.zeros(n, dtype=np.int64))


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
            assert verify_open_edge_coupling(realization) == expected
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
    loop it replaced, which samples every world and classifies it at
    config.r_f alone, by brute-force distances. Raises NoDevicesError when
    every device set came up empty."""
    fractions = []
    for t in range(trials):
        devices, firewalls, _ = sample_world(
            config, trial_seed(config.master_seed, t), config.lambda_f)
        if devices.n:
            fractions.append(covered(devices.points, firewalls.points,
                                     config.r_f).mean())
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
    protected and one an ulp beyond as not, by the squared test
    d2 <= r_f*r_f."""
    window = Window(-20.0, -20.0, 40.0, 40.0)
    xy = np.array([(3.0, 4.0), (0.0, 2.5), (6.0, 8.0), (np.nextafter(5.0, np.inf), 0.0)])
    world = (PointSet(xy, window), PointSet(np.zeros((1, 2)), window),
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


def test_module_all_names_resolve():
    """No module's `__all__` entry outlives the name it lists."""
    assert len(PACKAGE_MODULES) == 6
    stale = [f"{module.__name__}.{name}" for module in PACKAGE_MODULES
             for name in module.__all__ if not hasattr(module, name)]
    assert stale == []


def test_readme_quickstart_runs():
    """The README's `python` quickstart block runs as written against the
    package's top-level names."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"^```python\n(.*?)^```$", readme, flags=re.M | re.S)
    assert len(blocks) == 1
    scope = {}
    exec(compile(blocks[0], "README.md", "exec"), scope)
    assert 0.0 <= scope["est"].theta_hat <= 1.0
    assert scope["crit"].lambda_f_critical >= 0.0
    assert len(scope["world"].label) == scope["world"].devices.n
