"""Spanning detection, Monte Carlo estimation, and the critical search."""
import math

import numpy as np
import pytest

from spatial_firewalls import (NetworkConfig, NoDevicesError, PointSet,
                               Realization, SearchExhaustedError, Window,
                               build_isg, build_rgg, classify_devices,
                               detect_spanning, estimate_percolation_probability,
                               estimate_protected_fraction,
                               find_critical_firewall_intensity,
                               sweep_lambda_f, trial_seed, write_critical_csv,
                               write_sweep_csv)


def _chain_realization(ys=(50.0,), step=2.0, side=100.0):
    """Hand-built world: susceptible chains across the window at given heights."""
    pts = []
    for y in ys:
        x = 0.0
        while x <= side:
            pts.append((x, y))
            x += step
    window = Window.square(side)
    devices = PointSet(np.array(pts), 0.0, window, 0)
    firewalls = PointSet(np.empty((0, 2)), 0.0, window, 0)
    cfg = NetworkConfig(lambda_r=0.0, r_r=step, lambda_f=0.0, r_f=step,
                        window=window, master_seed=0)
    cls = classify_devices(devices, firewalls, cfg.r_f)
    isg = build_rgg(devices, cfg.r_r)
    return Realization(config=cfg, trial_seed=0, devices=devices,
                       firewalls=firewalls, classification=cls, isg=isg)


def test_detect_spanning_empty():
    cfg = NetworkConfig(lambda_r=0.0, r_r=2, lambda_f=0, r_f=2,
                        window=Window.square(50), master_seed=0)
    r = build_isg(cfg, trial_seed(0, 0))
    assert detect_spanning(r) == (False, False)


def test_detect_spanning_horizontal_chain_only():
    r = _chain_realization()
    assert detect_spanning(r) == (True, False)


def test_deep_supercritical_spans():
    # far above the percolation threshold: expect every trial to span
    cfg = NetworkConfig(lambda_r=5.0, r_r=2, lambda_f=0, r_f=2,
                        window=Window.square(100), master_seed=4)
    est = estimate_percolation_probability(cfg, 20)
    assert est.theta_hat == 1.0


def test_no_devices_theta_zero():
    cfg = NetworkConfig(lambda_r=0.0, r_r=2, lambda_f=0, r_f=2,
                        window=Window.square(100), master_seed=0)
    est = estimate_percolation_probability(cfg, 20)
    assert est.theta_hat == 0.0


def test_subcritical_device_intensity():
    # 0.25 * 2^2 = 1.0 sits below the percolation threshold 1.44
    cfg = NetworkConfig(lambda_r=0.25, r_r=2, lambda_f=0, r_f=2,
                        window=Window.square(100), master_seed=1)
    est = estimate_percolation_probability(cfg, 100)
    assert est.theta_hat <= 0.05


def test_supercritical_with_sparse_firewalls():
    cfg = NetworkConfig(lambda_r=0.8, r_r=2, lambda_f=0.02, r_f=2,
                        window=Window.square(100), master_seed=1)
    est = estimate_percolation_probability(cfg, 100)
    assert est.theta_hat > 0.5


def test_estimate_invariants():
    cfg = NetworkConfig(lambda_r=0.5, r_r=2, lambda_f=0.03, r_f=2,
                        window=Window.square(50), master_seed=8)
    est = estimate_percolation_probability(cfg, 40)
    assert est.theta_hat == est.n_spanning / est.trials
    assert est.std_err == math.sqrt(est.theta_hat * (1 - est.theta_hat) / 40)
    assert 0.0 <= est.theta_hat <= 1.0


def test_estimate_deterministic_and_worker_invariant():
    cfg = NetworkConfig(lambda_r=0.4, r_r=2, lambda_f=0.02, r_f=2,
                        window=Window.square(40), master_seed=13)
    a = estimate_percolation_probability(cfg, 8)
    b = estimate_percolation_probability(cfg, 8)
    c = estimate_percolation_probability(cfg, 8, workers=2)
    assert a.theta_hat == b.theta_hat == c.theta_hat


def test_engine_matches_realization_path():
    # the sweep engine at a single intensity reproduces build_isg trials exactly
    cfg = NetworkConfig(lambda_r=0.6, r_r=2, lambda_f=0.04, r_f=2,
                        window=Window.square(60), master_seed=3)
    trials = 12
    manual = 0
    for t in range(trials):
        r = build_isg(cfg, trial_seed(cfg.master_seed, t))
        lr, bt = detect_spanning(r)
        manual += int(lr and bt)
    est = estimate_percolation_probability(cfg, trials)
    assert est.n_spanning == manual


def test_sweep_monotone_in_lambda_f():
    # coupled thinning makes the sweep exactly non-increasing
    cfg = NetworkConfig(lambda_r=0.8, r_r=2, lambda_f=0, r_f=2,
                        window=Window.square(60), master_seed=2)
    grid = [0.0, 0.02, 0.04, 0.06, 0.08, 0.12]
    estimates = sweep_lambda_f(cfg, grid, trials=30)
    thetas = [e.theta_hat for e in estimates]
    assert all(a >= b for a, b in zip(thetas, thetas[1:]))
    assert [e.config.lambda_f for e in estimates] == grid


def test_theta_nondecreasing_in_lambda_r():
    window = Window.square(60)
    thetas = []
    ses = []
    for lr in (0.4, 0.6, 0.8, 1.2):
        cfg = NetworkConfig(lambda_r=lr, r_r=2, lambda_f=0.02, r_f=2,
                            window=window, master_seed=10)
        est = estimate_percolation_probability(cfg, 40)
        thetas.append(est.theta_hat)
        ses.append(est.std_err)
    for i in range(len(thetas) - 1):
        combined = math.hypot(ses[i], ses[i + 1])
        assert thetas[i + 1] >= thetas[i] - 2 * combined


def test_firewall_removal_preserves_components():
    # deleting a firewall never shrinks a susceptible component
    cfg = NetworkConfig(lambda_r=0.7, r_r=2, lambda_f=0.05, r_f=2,
                        window=Window.square(40), master_seed=16)
    r = build_isg(cfg, trial_seed(16, 0))
    assert r.firewalls.n > 1
    fewer = PointSet(r.firewalls.points[:-1], 0.0, cfg.window, 0)
    cls2 = classify_devices(r.devices, fewer, cfg.r_f)
    assert np.isin(r.classification.susceptible_idx, cls2.susceptible_idx).all()
    g2 = build_rgg(PointSet(r.devices.points[cls2.susceptible_idx], 0.0,
                            cfg.window, 0), cfg.r_r)
    new_pos = {dev: i for i, dev in enumerate(cls2.susceptible_idx)}
    new_comp_members = {}
    for i, dev in enumerate(cls2.susceptible_idx):
        new_comp_members.setdefault(g2.component_label[i], set()).add(dev)
    for local, dev in enumerate(r.isg.vertices):
        old_members = {int(r.isg.vertices[u]) for u in np.flatnonzero(
            r.isg.component_label == r.isg.component_label[local])}
        new_members = new_comp_members[g2.component_label[new_pos[dev]]]
        assert old_members <= new_members


def test_critical_returns_zero_below_threshold():
    cfg = NetworkConfig(lambda_r=0.25, r_r=2, lambda_f=0, r_f=2,
                        window=Window.square(100), master_seed=1)
    res = find_critical_firewall_intensity(cfg, step=0.02, trials=30)
    assert res.lambda_f_critical == 0.0
    assert res.evaluated[0][0] == 0.0


def test_critical_search_exhausted():
    cfg = NetworkConfig(lambda_r=0.8, r_r=2, lambda_f=0, r_f=2,
                        window=Window.square(50), master_seed=1)
    with pytest.raises(SearchExhaustedError) as err:
        find_critical_firewall_intensity(cfg, lambda_f_max=0.008, step=0.004,
                                         trials=10)
    assert len(err.value.evaluated) >= 1


@pytest.mark.parametrize("r_f", [1.0, 0.8])
def test_critical_default_ceiling_needs_wide_firewall_range(r_f):
    """The default ceiling 1.5 * 1.44 / (4 r_f^2 - r_r^2) exists only for
    2 r_f > r_r; below that the caller has to pass lambda_f_max."""
    cfg = NetworkConfig(lambda_r=0.1, r_r=2, lambda_f=0, r_f=r_f,
                        window=Window.square(20), master_seed=1,
                        allow_small_firewall_range=True)
    with pytest.raises(ValueError, match=r"needs 2 \* r_f > r_r; pass lambda_f_max"):
        find_critical_firewall_intensity(cfg, trials=2)
    res = find_critical_firewall_intensity(cfg, lambda_f_max=0.5, trials=2)
    assert res.lambda_f_max == pytest.approx(0.5)


def test_critical_search_result_invariants():
    cfg = NetworkConfig(lambda_r=0.8, r_r=2, lambda_f=0, r_f=2,
                        window=Window.square(50), master_seed=7)
    res = find_critical_firewall_intensity(cfg, step=0.02, trials=30)
    assert 0 < res.lambda_f_critical <= res.lambda_f_max
    assert res.resolution == res.step / 8
    by_lambda = dict((lam, est) for lam, est in res.evaluated)
    assert by_lambda[res.lambda_f_critical].theta_hat <= res.epsilon
    below = [lam for lam in by_lambda if lam < res.lambda_f_critical]
    assert by_lambda[max(below)].theta_hat > res.epsilon
    # probed estimates are non-increasing in lambda_f (exact, coupled pool)
    lams = sorted(by_lambda)
    thetas = [by_lambda[l].theta_hat for l in lams]
    assert all(a >= b for a, b in zip(thetas, thetas[1:]))


def test_protected_fraction_zero_without_firewalls():
    cfg = NetworkConfig(lambda_r=0.5, r_r=2, lambda_f=0, r_f=2,
                        window=Window.square(40), master_seed=0)
    est = estimate_protected_fraction(cfg, 10)
    assert est.mean_fraction == 0.0
    assert est.trials_skipped == 0


def test_protected_fraction_requires_devices():
    cfg = NetworkConfig(lambda_r=0.0, r_r=2, lambda_f=0.1, r_f=2,
                        window=Window.square(40), master_seed=0)
    with pytest.raises(ValueError):
        estimate_protected_fraction(cfg, 10)
    # positive intensity but (almost surely) empty window realizations
    tiny = NetworkConfig(lambda_r=1e-9, r_r=2, lambda_f=0.1, r_f=2,
                         window=Window.square(5), master_seed=0)
    with pytest.raises(NoDevicesError):
        estimate_protected_fraction(tiny, 10)


def test_sweep_csv_format(tmp_path):
    cfg = NetworkConfig(lambda_r=0.5, r_r=2, lambda_f=0, r_f=2,
                        window=Window.square(40), master_seed=5)
    estimates = sweep_lambda_f(cfg, [0.0, 0.05], trials=5)
    path = tmp_path / "sweep.csv"
    write_sweep_csv(estimates, path, header_lines=["tool: test"])
    lines = path.read_text().splitlines()
    assert lines[0] == "# tool: test"
    assert lines[1] == ("lambda_r,r_r,lambda_f,r_f,window_size,trials,"
                        "theta_hat,std_err,seed")
    assert len(lines) == 4
    for line in lines[2:]:
        fields = line.split(",")
        assert len(fields) == 9
        [float(f) for f in fields]  # all numeric


def test_critical_csv_format(tmp_path):
    cfg = NetworkConfig(lambda_r=0.25, r_r=2, lambda_f=0, r_f=2,
                        window=Window.square(60), master_seed=1)
    res = find_critical_firewall_intensity(cfg, step=0.02, trials=10)
    path = tmp_path / "crit.csv"
    write_critical_csv([(0.25, res)], path)
    lines = path.read_text().splitlines()
    assert lines[0] == "lambda_r,lambda_f_critical,epsilon,step,trials_per_point"
    fields = lines[1].split(",")
    assert len(fields) == 5
    assert float(fields[1]) == 0.0


def test_sweep_csv_rejects_rectangles(tmp_path):
    cfg = NetworkConfig(lambda_r=0.5, r_r=2, lambda_f=0, r_f=2,
                        window=Window(0, 0, 40, 30), master_seed=5)
    est = estimate_percolation_probability(cfg, 2)
    with pytest.raises(ValueError):
        write_sweep_csv([est], tmp_path / "bad.csv")


def test_spanning_crosses_half_at_continuum_threshold():
    """Without firewalls the device graph is a Gilbert disc graph, whose
    percolation threshold is lambda_c r_r^2 = 1.4363 (eta_c = 1.12809,
    Mertens & Moore, PRE 86, 061109, 2012), a value owed nothing by the
    paper's bounds. On the 100 m window at r_r = 2 the spanning frequency
    must cross 1/2 between 0.95 and 1.05 lambda_c. Bracket, trial count and
    seed were fixed before the first run."""
    lambda_c = 1.4363 / 2.0 ** 2
    theta = [estimate_percolation_probability(
                 NetworkConfig(lambda_r=mult * lambda_c, r_r=2.0, lambda_f=0.0,
                               r_f=2.0, window=Window.square(100.0),
                               master_seed=2026), 200).theta_hat
             for mult in (0.95, 1.05)]
    assert theta[0] < 0.5 < theta[1], theta
