"""Spanning detection, Monte Carlo estimation, the spanning certificates of
a one-probe trial (`certified` and `bounded`), and the critical search."""
import contextlib
import io
import math
from unittest import mock

import numpy as np
import pytest
from oracles import components, covered, spans, world_spans

from spatial_firewalls import cli, percolation
from spatial_firewalls.network import NetworkConfig, sample_world
from spatial_firewalls.percolation import (NoDevicesError, SearchExhaustedError,
                                          _spans_from_labels, _threshold_worker,
                                          _TrialState, build_isg,
                                          estimate_percolation_probability,
                                          estimate_protected_fraction,
                                          find_critical_firewall_intensity,
                                          sweep_lambda_f, write_critical_csv,
                                          write_sweep_csv)
from spatial_firewalls.spatial import PointSet, Window, trial_seed


def _spans(state, p):
    """The spanning read of a trial state's labelling at p."""
    return _spans_from_labels(state.roots(p), len(state.cell_ids), state.strip_w >= p)


def test_trial_refuses_a_cell_grid_beyond_int64():
    """A D2D range so small for the window that the trial's cell ids
    (cells of side 0.7 r_r, which the cell graph needs) would overflow int64
    is refused, not answered with wrong edges."""
    cfg = NetworkConfig(lambda_r=0.01, r_r=1e-9, lambda_f=0.0, r_f=1e-9,
                        window=Window.square(100.0))
    world = sample_world(cfg, 0, 0.0)
    assert world[0].n > 0
    with pytest.raises(ValueError, match="2\\*\\*62"):
        _TrialState(cfg, *world)


def test_detect_spanning_empty():
    cfg = NetworkConfig(lambda_r=0.0, r_r=2, lambda_f=0, r_f=2,
                        window=Window.square(50), master_seed=0)
    world = sample_world(cfg, trial_seed(0, 0), 0.0)
    assert world[0].n == 0
    assert _spans(_TrialState(cfg, *world), 1.0) is False


def _chain_spans(xy):
    """(the oracle's (left-right, bottom-top) flags, the spanning read) of
    the devices xy on a 100 m window at r_r = r_f = 2, with no firewall."""
    window = Window.square(100.0)
    cfg = NetworkConfig(lambda_r=0.0, r_r=2.0, lambda_f=0.0, r_f=2.0, window=window)
    world = (PointSet(xy, window), PointSet(np.empty((0, 2)), window), np.empty(0))
    return spans(xy, components(xy, 2.0)[0], window, 2.0), _spans(_TrialState(cfg, *world), 1.0)


_ACROSS = np.arange(0.0, 101.0, 2.0)  # 51 devices 2 m apart, r_r = 2


def test_detect_spanning_horizontal_chain_only():
    """A chain of devices 2 m apart (r_r = 2) across the window at mid
    height spans left-right but not bottom-top, so the trial does not
    span."""
    xy = np.column_stack([_ACROSS, np.full(51, 50.0)])
    assert _chain_spans(xy) == ((True, False), False)


def test_detect_spanning_vertical_chain_and_cross():
    """The chain at mid width spans bottom-top only, which is no span
    either; the two chains together, crossing at a shared device, span."""
    vertical = np.column_stack([np.full(51, 50.0), _ACROSS])
    assert _chain_spans(vertical) == ((False, True), False)
    cross = np.concatenate([vertical, np.column_stack([_ACROSS, np.full(51, 50.0)])])
    assert _chain_spans(cross) == ((True, True), True)


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
    """The engine at a single intensity counts the trials whose realization
    (`build_isg` at the same trial seed) spans, by a brute-force ISG of its
    devices and firewalls; both outcomes occur."""
    cfg = NetworkConfig(lambda_r=0.6, r_r=2, lambda_f=0.04, r_f=2,
                        window=Window.square(60), master_seed=3)
    trials = 12
    manual = []
    for t in range(trials):
        r = build_isg(cfg, trial_seed(cfg.master_seed, t))
        kept = np.zeros(r.firewalls.n)
        manual.append(world_spans(cfg, r.devices, r.firewalls, kept, 1.0))
    assert 0 < sum(manual) < trials
    est = estimate_percolation_probability(cfg, trials)
    assert est.n_spanning == sum(manual)


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
    fewer = PointSet(r.firewalls.points[:-1], cfg.window)
    susceptible2 = np.flatnonzero(~covered(r.devices.points, fewer.points, cfg.r_f))
    vertices = np.flatnonzero(r.label >= 0)
    assert np.isin(vertices, susceptible2).all()
    labels2, _ = components(r.devices.points[susceptible2], cfg.r_r)
    new_pos = {dev: i for i, dev in enumerate(susceptible2)}
    new_comp_members = {}
    for i, dev in enumerate(susceptible2):
        new_comp_members.setdefault(labels2[i], set()).add(dev)
    for dev in vertices:
        old_members = {int(u) for u in np.flatnonzero(r.label == r.label[dev])}
        new_members = new_comp_members[labels2[new_pos[dev]]]
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


@pytest.mark.parametrize("n, epsilon", [(1, 0.02), (4, 0.02), (60, 0.02), (100, 0.02),
                                        (400, 0.02), (1000, 0.02), (50, 0.3), (200, 0.5)])
def test_rank_interval_matches_binomial_tails(n, epsilon):
    """The ranks are those that SciPy's binomial distribution gives at the
    0.95 level: lo the largest with P(B < lo) <= 2.5 % (0 for none), hi the
    smallest with P(B >= hi) <= 2.5 % (n + 1 for none), B ~ Bin(n,
    1 - epsilon)."""
    from scipy.stats import binom
    b = binom(n, 1.0 - epsilon)
    lo = max((r for r in range(1, n + 1) if b.cdf(r - 1) <= 0.025), default=0)
    hi = min((r for r in range(1, n + 1) if b.sf(r - 1) <= 0.025), default=n + 1)
    assert percolation._rank_interval(n, epsilon) == (lo, hi)


def test_critical_interval_brackets_the_estimate():
    """The interval holds lambda_f_critical, its lower limit is the counts'
    order statistic at the lower rank, and its upper limit is unbounded
    where the upper rank exceeds the trials (4 and 100 trials at epsilon =
    0.02) and finite at 400."""
    cfg = NetworkConfig(lambda_r=0.8, r_r=2, lambda_f=0, r_f=2,
                        window=Window.square(20), master_seed=7)
    for trials in (4, 100, 400):
        res = find_critical_firewall_intensity(cfg, step=0.04, trials=trials)
        grid_n = len(res.evaluated) - 1
        counts = np.sort(_threshold_worker(
            (cfg, res.lambda_f_max, tuple(j / grid_n for j in range(grid_n + 1)), 0, trials)))
        lo, hi = percolation._rank_interval(trials, 0.02)
        assert res.interval[0] == counts[lo - 1] * res.resolution
        assert res.interval[0] <= res.lambda_f_critical <= res.interval[1]
        assert math.isinf(res.interval[1]) == (trials < 400)
        if trials == 400:
            assert res.interval[1] == counts[hi - 1] * res.resolution


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
    with pytest.raises(ValueError, match="square window"):
        write_sweep_csv([est], tmp_path / "bad.csv")
    assert not (tmp_path / "bad.csv").exists()      # refused before any write


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


def _two_cell_world(b_first):
    """Three devices on a 2.1 m by 0.7 m window at r_r = 1 (cells of side
    0.7), no firewalls: device a at x = 0.2 in cell A, and in cell B the
    devices 1.12 (0.92 from a, linked) and 1.38 (1.18 from a, not linked),
    the one at x = `b_first` first in cell order. Every device lies in the
    bottom and top strips, a alone in the left strip and B's devices alone
    in the right one, so the trial spans exactly through the link of a and
    1.12."""
    window = Window(0.0, 0.0, 2.1, 0.7)
    b = [b_first, 1.12 + 1.38 - b_first]
    xy = np.array([(0.2, 0.35), (b[0], 0.35), (b[1], 0.35)])
    cfg = NetworkConfig(lambda_r=0.0, r_r=1.0, lambda_f=0.0, r_f=1.0, window=window)
    world = (PointSet(xy, window), PointSet(np.empty((0, 2)), window), np.empty(0))
    state = _TrialState(cfg, *world)
    assert state.grid.x.tolist() == xy[:, 0].tolist()  # cell order is a, B's first, B's other
    return cfg, world, state


def _recording(calls, fn):
    """`fn`, appending the result of each call to `calls`."""
    def recorded(*args):
        calls.append(fn(*args))
        return calls[-1]
    return recorded


def _count_builds(cfg, world):
    """(counts, edge builds) of one trial of `world` on the grid (1.0,)."""
    builds = []
    with mock.patch.object(percolation, "sample_world", return_value=world), \
            mock.patch.object(_TrialState, "_build_edges",
                              _recording(builds, _TrialState._build_edges)):
        counts = _threshold_worker((cfg, 1.0, (1.0,), 0, 1)).tolist()
    return counts, len(builds)


def test_certificate_falls_back_to_the_build():
    """The certificate pairs a with B's first device, 1.38, which is out of
    range, and so finds no link across the two cells; the trial still spans
    through the build, which finds the pair (a, 1.12)."""
    cfg, world, state = _two_cell_world(1.38)
    assert not state.certified(1.0)
    assert _count_builds(cfg, world) == ([1], 1)


def test_certified_trial_builds_no_edges():
    """With 1.12 first in cell B the certificate links a to it, and the
    trial counts as spanning without an edge build."""
    cfg, world, state = _two_cell_world(1.12)
    assert state.certified(1.0)
    assert _count_builds(cfg, world) == ([1], 0)


def test_certificate_decides_lambda_r_sweep_trials():
    """On a reduced `sweep --axis lambda_r` (one probe per trial), each
    certificate decides some trials, so edge builds number fewer than the
    trials, and the CSV body is the one without the certificates. A trial
    tries one certificate: the lower one (`certified`) decides a span, the
    upper one (`bounded`) a failure, and a trial neither decides builds."""
    argv = ["sweep", "--lambda-f", "0.05", "--axis", "lambda_r", "--start", "0.8",
            "--stop", "2.0", "--step", "0.6", "--trials", "4", "--seed", "2"]

    def run(certify, bound):
        calls = {"trials": [], "certified": [], "bounded": [], "builds": []}
        out = io.StringIO()
        with mock.patch.object(_TrialState, "__init__",
                               _recording(calls["trials"], _TrialState.__init__)), \
                mock.patch.object(_TrialState, "certified",
                                  _recording(calls["certified"], certify)), \
                mock.patch.object(_TrialState, "bounded",
                                  _recording(calls["bounded"], bound)), \
                mock.patch.object(_TrialState, "_build_edges",
                                  _recording(calls["builds"], _TrialState._build_edges)), \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            assert cli.main(argv) == 0
        body = [line for line in out.getvalue().splitlines() if not line.startswith("#")]
        return (body, len(calls["trials"]), sum(calls["certified"]), sum(calls["bounded"]),
                len(calls["builds"]))

    body, trials, lower, upper, builds = run(_TrialState.certified, _TrialState.bounded)
    assert trials == 12 and lower > 0 and upper > 0 and builds < trials
    assert lower + upper + builds == trials  # one probe per trial
    off = lambda self, p: False  # noqa: E731
    assert run(off, off) == (body, trials, 0, 0, trials)


def _stencil_world(a, b, size):
    """Two halves of devices, the list a in one cell and b in another, on
    the window (0, 0) to `size` at r_r = 1 (cells of side 0.7), no
    firewalls, with the state and the cell offset (dx, dy) from a's cell to
    b's."""
    window = Window(0.0, 0.0, *size)
    cfg = NetworkConfig(lambda_r=0.0, r_r=1.0, lambda_f=0.0, r_f=1.0, window=window)
    world = (PointSet(np.array(a + b), window), PointSet(np.empty((0, 2)), window),
             np.empty(0))
    state = _TrialState(cfg, *world)
    (ax, bx), (ay, by) = np.divmod(state.grid.cell_id[[0, -1]], state.grid.stride)
    return cfg, world, state, (int(bx - ax), int(by - ay))


# On the 2.2 m window, (0.699, 1.401) touches the left and top strips and
# (1.401, 0.699) the right and bottom ones. On the 1.4 by 2.2 m window the
# devices at y = 0.69 touch the left, right and bottom strips, those at
# y = 1.41 the left, right and top ones; on the 0.7 by 2.2 m window the
# same holds at y = 0.5 and 1.45, where each half spans its cell's width,
# so the halves' boxes overlap in x. Each pair of halves is linked (0.993,
# 0.72 and 0.95 apart), and moved apart within the same cells it is not
# (1.063, 1.06 and 1.25).
_STENCIL_CASES = [
    ([(0.699, 1.401)], [(1.401, 0.699)], (2.2, 2.2), (2, -2), True),
    ([(0.699, 1.401)], [(1.451, 0.649)], (2.2, 2.2), (2, -2), False),
    ([(0.5, 0.69)], [(0.5, 1.41)], (1.4, 2.2), (0, 2), True),
    ([(0.5, 0.69)], [(0.5, 1.75)], (1.4, 2.2), (0, 2), False),
    ([(0.01, 0.5), (0.69, 0.5)], [(0.01, 1.45), (0.69, 1.45)], (0.7, 2.2), (0, 2), True),
    ([(0.01, 0.5), (0.69, 0.5)], [(0.01, 1.75), (0.69, 1.75)], (0.7, 2.2), (0, 2), False)]


@pytest.mark.parametrize("a,b,size,offset,linked", _STENCIL_CASES)
def test_bounded_reaches_the_stencil_corners(a, b, size, offset, linked):
    """The only link joining two halves that cross the window together sits
    at the far corner of a lane: cell offset (2, -2), the lowest row of
    column +2, or (0, 2), the top of the own column, once with boxes that
    overlap in x (a gap of 0 there, not a negative one). `bounded` must
    keep the link (and so not claim a failure) exactly when the halves are
    linked; the world spans exactly then."""
    cfg, world, state, at = _stencil_world(a, b, size)
    assert at == offset
    assert world_spans(cfg, *world, 0.5) == linked
    assert state.bounded(0.5) == (not linked)
    assert state.spans_at(0.5) == linked


@pytest.mark.parametrize("case", _STENCIL_CASES[:2])
def test_trial_after_a_failure_tries_bounded(case):
    """A one-point search whose previous trial failed tries `bounded`: after
    the unlinked (2, -2) world, the linked one still spans through a build,
    and a second unlinked one fails with no build."""
    a, b, size, _, linked = case
    _, unlinked, _, _ = _stencil_world(*_STENCIL_CASES[1][:3])
    cfg, world, _, _ = _stencil_world(a, b, size)
    builds = []
    with mock.patch.object(percolation, "sample_world", side_effect=[unlinked, world]), \
            mock.patch.object(_TrialState, "_build_edges",
                              _recording(builds, _TrialState._build_edges)):
        counts = _threshold_worker((cfg, 1.0, (1.0,), 0, 2)).tolist()
    assert counts == [0, int(linked)]
    # the first trial tries `certified`, which fails, and builds
    assert len(builds) == 1 + linked
