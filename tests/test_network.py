"""Classification, geometric graph components, and ISG invariants."""
from unittest import mock

import numpy as np
import pytest
from oracles import components, covered, min_within, same_partition

from spatial_firewalls import percolation
from spatial_firewalls.bounds import protected_fraction
from spatial_firewalls.network import CellGrid, NetworkConfig
from spatial_firewalls.percolation import build_isg, sweep_protected_fraction
from spatial_firewalls.spatial import PointSet, Window, sample_ppp, trial_seed


def _pset(points, side=100.0):
    return PointSet(np.reshape(np.asarray(points, dtype=float), (-1, 2)),
                    Window.square(side))


def _isg_of(xy, r, firewalls=()):
    """`build_isg` of a hand-made world on a 100 m window: devices xy and
    firewalls, every firewall kept, r_r = r_f = r."""
    cfg = NetworkConfig(lambda_r=0.0, r_r=r, lambda_f=0.0, r_f=r,
                        window=Window.square(100.0))
    world = (_pset(xy), _pset(firewalls), np.zeros(len(firewalls)))
    with mock.patch.object(percolation, "sample_world", return_value=world):
        return build_isg(cfg, 0)


def _isg(r):
    """The ISG of realization r: its vertices (the devices labelled >= 0),
    their labels and its number of components (of distinct labels)."""
    vertices = np.flatnonzero(r.label >= 0)
    labels = r.label.take(vertices)
    return vertices, labels, len(np.unique(labels))


def _min_d2(devices, firewalls, r, side):
    """`CellGrid.min_within` of the firewalls over the devices, binned on
    cells of `side` from the corner of their window, in the devices' order."""
    grid, order = CellGrid.binned(*devices.points.T.copy(),
                                  (devices.window.x_min, devices.window.y_min), side)
    d2 = np.empty(devices.n)
    d2[order] = grid.min_within(*firewalls.points.T.copy(), r)
    return d2


def _protected_share(devices, firewalls, r_f):
    """`sweep_protected_fraction` at r_f of one trial whose world is the
    devices and firewalls."""
    cfg = NetworkConfig(lambda_r=1.0, r_r=r_f, lambda_f=0.0, r_f=r_f,
                        window=devices.window)
    world = (devices, firewalls, np.zeros(firewalls.n))
    with mock.patch.object(percolation, "sample_world", return_value=world):
        return sweep_protected_fraction(cfg, [r_f], 1)[0].mean_fraction


def _bfs_partition(xy, radius):
    """Brute-force component partition from the all-pairs distance matrix."""
    n = len(xy)
    d2 = ((xy[:, None, :] - xy[None, :, :]) ** 2).sum(axis=2)
    adj = d2 <= radius * radius
    labels = -np.ones(n, dtype=int)
    label = 0
    for start in range(n):
        if labels[start] >= 0:
            continue
        stack = [start]
        labels[start] = label
        while stack:
            v = stack.pop()
            for u in np.flatnonzero(adj[v]):
                if labels[u] < 0:
                    labels[u] = label
                    stack.append(u)
        label += 1
    return labels


def test_config_validation():
    w = Window.square(10)
    with pytest.raises(ValueError):
        NetworkConfig(lambda_r=-1, r_r=2, lambda_f=0, r_f=2, window=w)
    with pytest.raises(ValueError):
        NetworkConfig(lambda_r=1, r_r=0, lambda_f=0, r_f=2, window=w)
    with pytest.raises(ValueError, match="r_f < r_r"):
        NetworkConfig(lambda_r=1, r_r=2, lambda_f=0, r_f=1, window=w)
    assert NetworkConfig(lambda_r=1, r_r=2, lambda_f=0, r_f=2, window=w).r_f == 2
    with pytest.raises(ValueError):
        NetworkConfig(lambda_r=1, r_r=2, lambda_f=0, r_f=2, window=w,
                      firewall_margin=-0.5)


def test_classify_no_firewalls():
    devices = sample_ppp(0.5, Window.square(20), 3)
    d2 = _min_d2(devices, _pset(np.empty((0, 2))), 2.0, 0.8)
    assert len(d2) == devices.n
    assert np.isinf(d2).all()


def test_classify_boundary_inclusive():
    """A device exactly r_f = 2 from a firewall is protected and one 1e-9
    beyond is not, by the protected fractions and by `build_isg` alike. So
    is a device at (2, 3e-8): its distance rounds to 2.0, but its
    dx*dx + dy*dy rounds to nextafter(4, inf) > r_f*r_f."""
    xy = [[2.0, 0.0], [2.0 + 1e-9, 0.0], [2.0, 3e-8]]
    d2 = 2.0 * 2.0 + 3e-8 * 3e-8
    assert d2 == np.nextafter(4.0, np.inf) and np.sqrt(d2) == 2.0
    fw = _pset([[0.0, 0.0]])
    assert _min_d2(_pset(xy), fw, 2.0, 0.8).tolist() == [4.0, np.inf, np.inf]
    assert _protected_share(_pset(xy), fw, 2.0) == 1 / 3
    assert (_isg_of(xy, 2.0, [[0.0, 0.0]]).label < 0).tolist() == [True, False, False]


def test_classify_partition():
    cfg = NetworkConfig(lambda_r=0.8, r_r=2, lambda_f=0.05, r_f=2,
                        window=Window.square(40), master_seed=11)
    r = build_isg(cfg, trial_seed(11, 0))
    protected = r.label < 0
    # one read-only label per device index
    assert r.label.shape == (r.devices.n,) and r.label.dtype == np.int64
    assert 0 < protected.sum() < r.devices.n
    assert not r.label.flags.writeable


def test_classify_matches_coverage_formula():
    # empirical protected share vs 1 - exp(-pi lf rf^2), margin removes edge bias
    lf, rf = 0.1, 2.0
    w = Window.square(100)
    fractions = []
    for t in range(60):
        devices = sample_ppp(0.5, w, trial_seed(21, 2 * t))
        firewalls = sample_ppp(lf, w.expand(rf), trial_seed(21, 2 * t + 1))
        fractions.append((_min_d2(devices, firewalls, rf, 0.4 * rf) <= rf * rf).mean())
    fractions = np.array(fractions)
    se = fractions.std(ddof=1) / np.sqrt(len(fractions))
    assert abs(fractions.mean() - protected_fraction(lf, rf)) <= 3 * se


def test_rgg_edge_at_exact_radius():
    """Without firewalls the ISG is the device graph: two devices exactly
    r_r apart (offsets 3, 4 at r_r = 5) are linked, and a third one ulp
    beyond r_r of the second is not."""
    r = _isg_of([[10.0, 10.0], [13.0, 14.0], [13.0, np.nextafter(19.0, np.inf)]], 5.0)
    vertices, labels, k = _isg(r)
    assert vertices.tolist() == [0, 1, 2]
    assert same_partition(labels, [0, 0, 1]) and k == 2


def test_tiny_range_on_a_normal_window():
    """A range of 1e-8 on a 100 m window, some 2**33 cells of side r per
    axis, which the protected-fraction scan coarsens: on cells of 2**-30 of
    the devices' extent, each device with a firewall r/2 away reads that
    squared distance bit for bit, and one with a firewall 2r away reads inf;
    the fraction counts the first 50 of 200 devices."""
    r = 1e-8
    dev = 1.0 + 98.0 * np.random.default_rng(5).random((200, 2))
    near, far = dev[:50] + [r / 2, 0.0], dev[50:100] + [0.0, 2 * r]
    devices, firewalls = _pset(dev), _pset(np.concatenate([near, far]))
    d2 = _min_d2(devices, firewalls, r, float(dev.max()) * 2.0 ** -30)
    assert d2.tobytes() == min_within(dev, firewalls.points, r).tobytes()
    assert np.isfinite(d2[:50]).all() and np.isinf(d2[50:]).all()
    assert _protected_share(devices, firewalls, r) == 0.25


def test_rgg_coincident_points_are_linked():
    # floating-point duplicates are tolerated: distance 0 <= radius is an edge
    _, labels, k = _isg(_isg_of([[1.0, 1.0], [50.0, 50.0], [1.0, 1.0]], 0.5))
    assert same_partition(labels, [0, 1, 0]) and k == 2


def test_rgg_all_singletons():
    _, labels, k = _isg(_isg_of([[10.0, 10.0], [20.0, 10.0], [10.0, 20.0], [20.0, 20.0]],
                                5.0))
    assert k == 4 and same_partition(labels, [0, 1, 2, 3])


def test_rgg_components_match_bfs():
    for seed in range(10):
        cfg = NetworkConfig(lambda_r=0.6, r_r=1.5, lambda_f=0, r_f=1.5,
                            window=Window.square(22), master_seed=400 + seed)
        r = build_isg(cfg, trial_seed(cfg.master_seed, 0))  # ~290 devices
        vertices, labels, _ = _isg(r)
        assert r.devices.n <= 500 and len(vertices) == r.devices.n
        assert same_partition(labels, _bfs_partition(r.devices.points, 1.5))


def test_isg_equals_rgg_without_firewalls():
    cfg = NetworkConfig(lambda_r=0.6, r_r=2, lambda_f=0, r_f=2,
                        window=Window.square(40), master_seed=5)
    r = build_isg(cfg, trial_seed(5, 0))
    assert r.firewalls.n == 0
    assert not (r.label < 0).any()
    vertices, got, n_components = _isg(r)
    assert np.array_equal(vertices, np.arange(r.devices.n))
    labels, k = components(r.devices.points, cfg.r_r)
    assert same_partition(got, labels) and n_components == k


def test_isg_empty_under_dense_firewalls():
    # void probability exp(-pi * 2.5 * 4) ~ 2e-14 per device
    cfg = NetworkConfig(lambda_r=0.8, r_r=2, lambda_f=10 / 4.0, r_f=2,
                        window=Window.square(50), master_seed=6)
    for t in range(3):
        r = build_isg(cfg, trial_seed(6, t))
        vertices, _, k = _isg(r)
        assert len(vertices) == 0 and k == 0


def test_isg_matches_vertex_deletion():
    cfg = NetworkConfig(lambda_r=0.8, r_r=2, lambda_f=0.05, r_f=2,
                        window=Window.square(50), master_seed=9)
    r = build_isg(cfg, trial_seed(9, 0))
    susceptible = np.flatnonzero(r.label >= 0)
    oracle = _bfs_partition(r.devices.points[susceptible], cfg.r_r)
    vertices, labels, _ = _isg(r)
    assert np.array_equal(vertices, susceptible)
    assert same_partition(labels, oracle)


def test_adding_firewalls_only_shrinks_components():
    cfg = NetworkConfig(lambda_r=0.7, r_r=2, lambda_f=0.03, r_f=2,
                        window=Window.square(40), master_seed=14)
    r = build_isg(cfg, trial_seed(14, 0))
    extra = sample_ppp(0.03, cfg.window, 999)
    grown = PointSet(np.vstack([r.firewalls.points, extra.points]), cfg.window)
    susceptible2 = np.flatnonzero(~covered(r.devices.points, grown.points, cfg.r_f))
    vertices, labels, _ = _isg(r)
    assert len(susceptible2) <= len(vertices)
    assert np.isin(susceptible2, vertices).all()

    labels2, _ = components(r.devices.points[susceptible2], cfg.r_r)
    comp_before = {}
    for local, dev in enumerate(vertices):
        comp_before.setdefault(labels[local], set()).add(dev)
    pos_in_old = {dev: local for local, dev in enumerate(vertices)}
    for local, dev in enumerate(susceptible2):
        new_members = {susceptible2[u] for u in
                       np.flatnonzero(labels2 == labels2[local])}
        old_members = comp_before[labels[pos_in_old[dev]]]
        assert new_members <= old_members

