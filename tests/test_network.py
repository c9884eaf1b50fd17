"""Classification, geometric graph components, and ISG invariants."""
from unittest import mock

import numpy as np
import pytest
from oracles import components, covered

from spatial_firewalls import percolation
from spatial_firewalls.bounds import protected_fraction
from spatial_firewalls.network import (NetworkConfig, nearest_firewall_distance,
                                       save_realization_csv)
from spatial_firewalls.percolation import build_isg
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


def _same_partition(a, b):
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        return False
    pairs = {}
    for x, y in zip(a.tolist(), b.tolist()):
        if pairs.setdefault(x, y) != y:
            return False
    return len(set(pairs.values())) == len(pairs)


def test_config_validation():
    w = Window.square(10)
    with pytest.raises(ValueError):
        NetworkConfig(lambda_r=-1, r_r=2, lambda_f=0, r_f=2, window=w)
    with pytest.raises(ValueError):
        NetworkConfig(lambda_r=1, r_r=0, lambda_f=0, r_f=2, window=w)
    with pytest.raises(ValueError):
        NetworkConfig(lambda_r=1, r_r=2, lambda_f=0, r_f=1, window=w)
    cfg = NetworkConfig(lambda_r=1, r_r=2, lambda_f=0, r_f=1, window=w,
                        allow_small_firewall_range=True)
    assert cfg.r_f == 1
    with pytest.raises(ValueError):
        NetworkConfig(lambda_r=1, r_r=2, lambda_f=0, r_f=2, window=w,
                      firewall_margin=-0.5)


def test_classify_no_firewalls():
    devices = sample_ppp(0.5, Window.square(20), 3)
    dist = nearest_firewall_distance(devices, _pset(np.empty((0, 2))), 2.0)
    assert len(dist) == devices.n
    assert np.isinf(dist).all()


def test_classify_boundary_inclusive():
    """A device exactly r_f from a firewall is protected, by the nearest
    distance of `protected` and by `build_isg`'s squared test alike."""
    xy = [[2.0, 0.0], [2.0 + 1e-9, 0.0]]
    dist = nearest_firewall_distance(_pset(xy), _pset([[0.0, 0.0]]), 2.0)
    assert dist[0] <= 2.0        # exactly at r_f: protected
    assert not dist[1] <= 2.0
    assert _isg_of(xy, 2.0, [[0.0, 0.0]]).is_protected.tolist() == [True, False]


def test_classify_partition():
    cfg = NetworkConfig(lambda_r=0.8, r_r=2, lambda_f=0.05, r_f=2,
                        window=Window.square(40), master_seed=11)
    r = build_isg(cfg, trial_seed(11, 0))
    protected = r.is_protected
    # one read-only flag per device index
    assert protected.shape == (r.devices.n,) and protected.dtype == bool
    assert 0 < protected.sum() < r.devices.n
    assert not protected.flags.writeable


def test_classify_matches_coverage_formula():
    # empirical protected share vs 1 - exp(-pi lf rf^2), margin removes edge bias
    lf, rf = 0.1, 2.0
    w = Window.square(100)
    fractions = []
    for t in range(60):
        devices = sample_ppp(0.5, w, trial_seed(21, 2 * t))
        firewalls = sample_ppp(lf, w.expand(rf), trial_seed(21, 2 * t + 1))
        fractions.append((nearest_firewall_distance(devices, firewalls, rf) <= rf).mean())
    fractions = np.array(fractions)
    se = fractions.std(ddof=1) / np.sqrt(len(fractions))
    assert abs(fractions.mean() - protected_fraction(lf, rf)) <= 3 * se


def test_rgg_edge_at_exact_radius():
    """Without firewalls the ISG is the device graph: two devices exactly
    r_r apart (offsets 3, 4 at r_r = 5) are linked, and a third one ulp
    beyond r_r of the second is not."""
    r = _isg_of([[10.0, 10.0], [13.0, 14.0], [13.0, np.nextafter(19.0, np.inf)]], 5.0)
    assert r.isg.vertices.tolist() == [0, 1, 2]
    assert r.isg.component_label.tolist() == [0, 0, 1] and r.isg.n_components == 2


def test_tiny_range_on_a_normal_window():
    """A range of 1e-8 on a 100 m window, some 2**33 cells of side r per
    axis, which the nearest-firewall scan coarsens: each device with a
    firewall r/2 away reads that distance, and one with a firewall 2r away
    reads more than r."""
    r = 1e-8
    dev = 1.0 + 98.0 * np.random.default_rng(5).random((200, 2))
    near, far = dev[:50] + [r / 2, 0.0], dev[50:100] + [0.0, 2 * r]
    devices, firewalls = _pset(dev), _pset(np.concatenate([near, far]))
    dist = nearest_firewall_distance(devices, firewalls, r)
    d2 = ((dev[:50] - near) ** 2).sum(axis=1)
    assert dist[:50].tobytes() == np.sqrt(d2).tobytes()
    assert np.all(dist[50:] > r)


def test_rgg_coincident_points_are_linked():
    # floating-point duplicates are tolerated: distance 0 <= radius is an edge
    r = _isg_of([[1.0, 1.0], [50.0, 50.0], [1.0, 1.0]], 0.5)
    assert r.isg.component_label.tolist() == [0, 1, 0] and r.isg.n_components == 2


def test_rgg_all_singletons():
    r = _isg_of([[10.0, 10.0], [20.0, 10.0], [10.0, 20.0], [20.0, 20.0]], 5.0)
    assert r.isg.n_components == 4 and r.isg.component_label.tolist() == [0, 1, 2, 3]


def test_rgg_components_match_bfs():
    for seed in range(10):
        cfg = NetworkConfig(lambda_r=0.6, r_r=1.5, lambda_f=0, r_f=1.5,
                            window=Window.square(22), master_seed=400 + seed)
        r = build_isg(cfg, trial_seed(cfg.master_seed, 0))  # ~290 devices
        assert r.devices.n <= 500 and len(r.isg.vertices) == r.devices.n
        assert _same_partition(r.isg.component_label,
                               _bfs_partition(r.devices.points, 1.5))


def test_component_labels_canonical():
    # label k is the component of the smallest vertex not in labels < k
    cfg = NetworkConfig(lambda_r=0.5, r_r=1.2, lambda_f=0.05, r_f=1.2,
                        window=Window.square(20), master_seed=8)
    isg = build_isg(cfg, trial_seed(8, 0)).isg
    labels, k = isg.component_label, isg.n_components
    assert k > 1
    first_of_label = [np.flatnonzero(labels == j)[0] for j in range(k)]
    assert first_of_label == sorted(first_of_label)


def test_isg_equals_rgg_without_firewalls():
    cfg = NetworkConfig(lambda_r=0.6, r_r=2, lambda_f=0, r_f=2,
                        window=Window.square(40), master_seed=5)
    r = build_isg(cfg, trial_seed(5, 0))
    assert r.firewalls.n == 0
    assert not r.is_protected.any()
    assert np.array_equal(r.isg.vertices, np.arange(r.devices.n))
    labels, k = components(r.devices.points, cfg.r_r)
    assert np.array_equal(r.isg.component_label, labels) and r.isg.n_components == k


def test_isg_empty_under_dense_firewalls():
    # void probability exp(-pi * 2.5 * 4) ~ 2e-14 per device
    cfg = NetworkConfig(lambda_r=0.8, r_r=2, lambda_f=10 / 4.0, r_f=2,
                        window=Window.square(50), master_seed=6)
    for t in range(3):
        r = build_isg(cfg, trial_seed(6, t))
        assert len(r.isg.vertices) == 0 and r.isg.n_components == 0


def test_isg_matches_vertex_deletion():
    cfg = NetworkConfig(lambda_r=0.8, r_r=2, lambda_f=0.05, r_f=2,
                        window=Window.square(50), master_seed=9)
    r = build_isg(cfg, trial_seed(9, 0))
    susceptible = np.flatnonzero(~r.is_protected)
    oracle = _bfs_partition(r.devices.points[susceptible], cfg.r_r)
    assert np.array_equal(r.isg.vertices, susceptible)
    assert _same_partition(r.isg.component_label, oracle)


def test_adding_firewalls_only_shrinks_components():
    cfg = NetworkConfig(lambda_r=0.7, r_r=2, lambda_f=0.03, r_f=2,
                        window=Window.square(40), master_seed=14)
    r = build_isg(cfg, trial_seed(14, 0))
    extra = sample_ppp(0.03, cfg.window, 999)
    grown = PointSet(np.vstack([r.firewalls.points, extra.points]), cfg.window)
    susceptible2 = np.flatnonzero(~covered(r.devices.points, grown.points, cfg.r_f))
    assert len(susceptible2) <= len(r.isg.vertices)
    assert np.isin(susceptible2, r.isg.vertices).all()

    labels2, _ = components(r.devices.points[susceptible2], cfg.r_r)
    comp_before = {}
    for local, dev in enumerate(r.isg.vertices):
        comp_before.setdefault(r.isg.component_label[local], set()).add(dev)
    pos_in_old = {dev: local for local, dev in enumerate(r.isg.vertices)}
    for local, dev in enumerate(susceptible2):
        new_members = {susceptible2[u] for u in
                       np.flatnonzero(labels2 == labels2[local])}
        old_members = comp_before[r.isg.component_label[pos_in_old[dev]]]
        assert new_members <= old_members


def test_realization_csv(tmp_path):
    cfg = NetworkConfig(lambda_r=0.5, r_r=2, lambda_f=0.05, r_f=2,
                        window=Window.square(30), master_seed=2)
    r = build_isg(cfg, trial_seed(2, 0))
    path = tmp_path / "world.csv"
    save_realization_csv(r, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "x,y,kind,component"
    assert len(lines) == 1 + r.devices.n + r.firewalls.n
    kinds = {"firewall": 0, "protected": 0, "susceptible": 0}
    for line in lines[1:]:
        x, y, kind, comp = line.split(",")
        kinds[kind] += 1
        if kind != "susceptible":
            assert comp == "-1"
    assert kinds["firewall"] == r.firewalls.n
    assert kinds["susceptible"] == len(r.isg.vertices)
