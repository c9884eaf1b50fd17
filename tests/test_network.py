"""Classification, geometric graph construction, and ISG invariants."""
import numpy as np
import pytest

from spatial_firewalls import (NetworkConfig, PointSet, Window, build_isg,
                               build_rgg, classify_devices, protected_fraction,
                               sample_ppp, save_realization_csv, trial_seed)


def _pset(points, side=100.0):
    return PointSet(np.asarray(points, dtype=float), 0.0, Window.square(side), 0)


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
    cls = classify_devices(devices, _pset(np.empty((0, 2))), 2.0)
    assert len(cls.susceptible_idx) == devices.n
    assert len(cls.protected_idx) == 0


def test_classify_boundary_inclusive():
    devices = _pset([[2.0, 0.0], [2.0 + 1e-9, 0.0]])
    firewalls = _pset([[0.0, 0.0]])
    cls = classify_devices(devices, firewalls, 2.0)
    assert cls.is_protected[0]          # exactly at r_f: protected
    assert not cls.is_protected[1]


def test_classify_partition():
    devices = sample_ppp(0.8, Window.square(40), 11)
    firewalls = sample_ppp(0.05, Window.square(40), 12)
    cls = classify_devices(devices, firewalls, 2.0)
    merged = np.sort(np.concatenate([cls.protected_idx, cls.susceptible_idx]))
    assert np.array_equal(merged, np.arange(devices.n))


def test_classify_matches_coverage_formula():
    # empirical protected share vs 1 - exp(-pi lf rf^2), margin removes edge bias
    lf, rf = 0.1, 2.0
    w = Window.square(100)
    fractions = []
    for t in range(60):
        devices = sample_ppp(0.5, w, trial_seed(21, 2 * t))
        firewalls = sample_ppp(lf, w.expand(rf), trial_seed(21, 2 * t + 1))
        fractions.append(classify_devices(devices, firewalls, rf).is_protected.mean())
    fractions = np.array(fractions)
    se = fractions.std(ddof=1) / np.sqrt(len(fractions))
    assert abs(fractions.mean() - protected_fraction(lf, rf)) <= 3 * se


def test_rgg_edge_at_exact_radius():
    g = build_rgg(_pset([[0, 0], [3, 4]]), 5.0)
    assert g.n_components == 1
    assert g.neighbors(0).tolist() == [1]


def test_rgg_coincident_points_are_linked():
    # floating-point duplicates are tolerated: distance 0 <= radius is an edge
    g = build_rgg(_pset([[1.0, 1.0], [1.0, 1.0]]), 0.5)
    assert g.n_components == 1


def test_rgg_all_singletons():
    g = build_rgg(_pset([[0, 0], [10, 0], [0, 10], [10, 10]]), 5.0)
    assert g.n_components == 4
    assert all(g.neighbors(v).size == 0 for v in range(4))


def test_rgg_components_match_bfs():
    for seed in range(10):
        ps = sample_ppp(0.6, Window.square(22), 400 + seed)  # ~290 points
        assert ps.n <= 500
        g = build_rgg(ps, 1.5)
        assert _same_partition(g.component_label, _bfs_partition(ps.points, 1.5))


def test_adjacency_symmetric():
    ps = sample_ppp(0.8, Window.square(25), 31)
    g = build_rgg(ps, 2.0)
    for v in range(g.n_vertices):
        for u in g.neighbors(v):
            assert v in g.neighbors(int(u))


def test_component_labels_canonical():
    # label k is the component of the smallest vertex not in labels < k
    ps = sample_ppp(0.5, Window.square(20), 8)
    g = build_rgg(ps, 1.2)
    first_of_label = [np.flatnonzero(g.component_label == k)[0]
                      for k in range(g.n_components)]
    assert first_of_label == sorted(first_of_label)


def test_isg_equals_rgg_without_firewalls():
    cfg = NetworkConfig(lambda_r=0.6, r_r=2, lambda_f=0, r_f=2,
                        window=Window.square(40), master_seed=5)
    r = build_isg(cfg, trial_seed(5, 0))
    assert r.firewalls.n == 0
    assert len(r.classification.susceptible_idx) == r.devices.n
    full = build_rgg(r.devices, cfg.r_r)
    assert _same_partition(r.isg.component_label, full.component_label)


def test_isg_empty_under_dense_firewalls():
    # void probability exp(-pi * 2.5 * 4) ~ 2e-14 per device
    cfg = NetworkConfig(lambda_r=0.8, r_r=2, lambda_f=10 / 4.0, r_f=2,
                        window=Window.square(50), master_seed=6)
    for t in range(3):
        r = build_isg(cfg, trial_seed(6, t))
        assert r.isg.n_vertices == 0


def test_isg_matches_vertex_deletion():
    cfg = NetworkConfig(lambda_r=0.8, r_r=2, lambda_f=0.05, r_f=2,
                        window=Window.square(50), master_seed=9)
    r = build_isg(cfg, trial_seed(9, 0))
    susceptible = r.classification.susceptible_idx
    oracle = _bfs_partition(r.devices.points[susceptible], cfg.r_r)
    assert np.array_equal(r.isg.vertices, susceptible)
    assert _same_partition(r.isg.component_label, oracle)


def test_adding_firewalls_only_shrinks_components():
    cfg = NetworkConfig(lambda_r=0.7, r_r=2, lambda_f=0.03, r_f=2,
                        window=Window.square(40), master_seed=14)
    r = build_isg(cfg, trial_seed(14, 0))
    extra = sample_ppp(0.03, cfg.window, 999)
    grown = PointSet(np.vstack([r.firewalls.points, extra.points]),
                     0.06, cfg.window, 0)
    cls2 = classify_devices(r.devices, grown, cfg.r_f)
    assert len(cls2.susceptible_idx) <= len(r.classification.susceptible_idx)
    assert np.isin(cls2.susceptible_idx, r.classification.susceptible_idx).all()

    g2 = build_rgg(_pset(r.devices.points[cls2.susceptible_idx]), cfg.r_r)
    comp_before = {}
    for local, dev in enumerate(r.isg.vertices):
        comp_before.setdefault(r.isg.component_label[local], set()).add(dev)
    pos_in_old = {dev: local for local, dev in enumerate(r.isg.vertices)}
    for local, dev in enumerate(cls2.susceptible_idx):
        new_members = {cls2.susceptible_idx[u] for u in
                       np.flatnonzero(g2.component_label == g2.component_label[local])}
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
    assert kinds["susceptible"] == r.isg.n_vertices
