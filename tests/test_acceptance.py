"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The Monte Carlo criteria pin master seeds, trial counts, and tolerances, so
every run is deterministic. The heavyweight critical-intensity searches are
shared across criteria through a module fixture.
"""
import math
import time

import pytest

from spatial_firewalls import (LambdaC1, NetworkConfig, Window,
                               blocking_counterexample_search, build_isg,
                               closed_face_mc_frequency,
                               closed_face_probability,
                               count_dependent_edges_bruteforce,
                               critical_intensity_upper_bound,
                               critical_protected_fraction,
                               estimate_percolation_probability,
                               estimate_protected_fraction,
                               find_critical_firewall_intensity,
                               protected_fraction,
                               subcritical_sufficient_intensity, sweep_lambda_f,
                               trial_seed, verify_open_edge_coupling)
from spatial_firewalls.cli import main as cli_main

WINDOW = Window.square(100.0)


def _report(num, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num:02d}: {detail}")
    assert ok, f"criterion {num:02d}: {detail}"


def _cfg(lambda_r, lambda_f=0.0, r_f=2.0, seed=0, margin=0.0):
    return NetworkConfig(lambda_r=lambda_r, r_r=2.0, lambda_f=lambda_f,
                         r_f=r_f, window=WINDOW, master_seed=seed,
                         firewall_margin=margin)


@pytest.fixture(scope="module")
def critical_searches():
    """The critical search per device intensity at r_r = r_f = 2, seed 0."""
    return {lam_r: find_critical_firewall_intensity(
                _cfg(lam_r), step=0.02, trials=trials, epsilon=0.02)
            for lam_r, trials in ((0.4, 100), (0.8, 100), (2.0, 100), (4.0, 60), (7.0, 60))}


@pytest.fixture(scope="module")
def critical_results(critical_searches):
    """lambda_f_critical per device intensity at r_r = r_f = 2, seed 0."""
    return {lam_r: res.lambda_f_critical for lam_r, res in critical_searches.items()}


def _intervals(searches, lam_rs):
    """The searches' 95 % intervals, for the report line; they do not enter
    a pass condition."""
    return ", ".join(f"{lr}: [{res.interval[0]:.4f}, "
                     + (f"{res.interval[1]:.4f}]" if math.isfinite(res.interval[1])
                        else "unbounded]")
                     for lr, res in ((lr, searches[lr]) for lr in lam_rs))


def test_criterion_01_phase_transition():
    t0 = time.perf_counter()
    grid = [round(0.005 * k, 10) for k in range(31)]       # 0 .. 0.15
    estimates = sweep_lambda_f(_cfg(0.8, seed=1), grid, trials=100)
    elapsed = time.perf_counter() - t0
    thetas = [e.theta_hat for e in estimates]
    ses = [e.std_err for e in estimates]
    starts_high = thetas[0] > 0.9
    monotone = all(thetas[i + 1] <= thetas[i]
                   + 2 * math.hypot(ses[i], ses[i + 1])
                   for i in range(len(thetas) - 1))
    dead_before = next((lam for lam, th in zip(grid, thetas) if th <= 0.02),
                       None)
    ok = (starts_high and monotone and dead_before is not None
          and dead_before < 0.13 and elapsed < 300.0)
    _report(1, ok, f"theta(0)={thetas[0]:.2f}, monotone={monotone}, "
                   f"theta<=0.02 from lambda_f={dead_before}, {elapsed:.0f}s")


def test_criterion_02_critical_values(critical_results, critical_searches):
    got_08, got_2 = critical_results[0.8], critical_results[2.0]
    ok = abs(got_08 - 0.067) <= 0.015 and abs(got_2 - 0.102) <= 0.015
    _report(2, ok, f"crit(0.8)={got_08:.4f} (0.067+-0.015), "
                   f"crit(2)={got_2:.4f} (0.102+-0.015); 95% intervals "
                   + _intervals(critical_searches, (0.8, 2.0)))


def test_criterion_03_upper_bound_saturation(critical_results, critical_searches):
    lc1_144 = critical_intensity_upper_bound(2.0, 2.0, LambdaC1.approximation())
    lc1_337 = critical_intensity_upper_bound(2.0, 2.0, LambdaC1.upper())
    saturate = all(critical_results[lr] <= lc1_144 + 0.01 for lr in (4.0, 7.0))
    dominated = all(v <= lc1_144 + 0.01 for v in critical_results.values())
    below_337 = all(v < lc1_337 for v in critical_results.values())
    ok = saturate and dominated and below_337
    _report(3, ok, f"crit(4)={critical_results[4.0]:.4f}, "
                   f"crit(7)={critical_results[7.0]:.4f} vs {lc1_144}+0.01; "
                   f"all {len(critical_results)} values < {lc1_337:.3f}: {below_337}; "
                   "95% intervals " + _intervals(critical_searches, (4.0, 7.0)))


def test_criterion_04_immune_regime():
    low = estimate_percolation_probability(_cfg(0.25, seed=3), 100)
    high = estimate_percolation_probability(_cfg(0.45, seed=3), 100)
    ok = low.theta_hat <= 0.05 and high.theta_hat >= 0.5
    _report(4, ok, f"theta(0.25)={low.theta_hat:.3f} <=0.05, "
                   f"theta(0.45)={high.theta_hat:.3f} >=0.5")


def test_criterion_05_protected_fraction():
    details = []
    ok = True
    for lam_f, r_f in ((0.05, 2.0), (0.1, 2.0), (0.1, 4.0)):
        est = estimate_protected_fraction(
            _cfg(0.5, lambda_f=lam_f, r_f=r_f, seed=5, margin=r_f), 100)
        formula = protected_fraction(lam_f, r_f)
        dev = abs(est.mean_fraction - formula)
        ok &= dev <= 3 * est.std_err
        details.append(f"({lam_f},{r_f}): |{est.mean_fraction:.4f}-{formula:.4f}|"
                       f"={dev:.4f} vs 3se={3 * est.std_err:.4f}")
        if (lam_f, r_f) == (0.1, 4.0):
            susceptible = 1.0 - est.mean_fraction
            ok &= susceptible <= 0.01
            details.append(f"susceptible={susceptible:.4f} <=0.01")
    _report(5, ok, "; ".join(details))


def test_criterion_06_critical_protected_percentage():
    lc1 = LambdaC1.approximation()
    at_equal = critical_protected_fraction(2.0, 2.0, lc1)
    at_large = critical_protected_fraction(2.0, 200.0, lc1)
    ok = abs(at_equal - 0.779) <= 0.001 and abs(at_large - 0.677) <= 0.001
    _report(6, ok, f"f(r_f=r_r)={at_equal:.4f} (0.779+-0.001), "
                   f"f(ratio 100)={at_large:.4f} (0.677+-0.001)")


def test_criterion_07_subcritical_constant():
    ok = True
    details = []
    for r_r in (1.0, 2.0, 3.5):
        coeff = subcritical_sufficient_intensity(r_r) * r_r ** 2
        ok &= abs(coeff - 3.645) <= 0.005
        details.append(f"r_r={r_r}: {coeff:.4f}")
    _report(7, ok, ", ".join(details) + " (3.645+-0.005, rounded constant 3.65)")


def test_criterion_08_dependent_edge_oracle():
    mismatches = [(a, b) for a in range(2, 9) for b in range(2, 9)
                  if count_dependent_edges_bruteforce(a, b)
                  != 8 * a * b - 2 * a - 6 * b + 1]
    example = count_dependent_edges_bruteforce(4, 3)
    ok = not mismatches and example == 71
    _report(8, ok, f"(4,3)->{example} (expect 71); mismatches={mismatches}")


def test_criterion_09_closed_face_mc():
    base = subcritical_sufficient_intensity(2.0)
    ok = True
    details = []
    for k, mult in enumerate((0.5, 1.0, 2.0)):
        lam = mult * base
        freq = closed_face_mc_frequency(lam, 2.0, samples=2000, seed=40 + k)
        p = closed_face_probability(lam, 2.0)
        se = math.sqrt(p * (1 - p) / 2000)
        ok &= abs(freq - p) <= 3 * se
        details.append(f"x{mult:g}: |{freq:.4f}-{p:.4f}|<={3 * se:.4f}")
    _report(9, ok, "; ".join(details))


def test_criterion_10_lattice_couplings():
    violations = 0
    open_edges = 0
    k = 0
    base = subcritical_sufficient_intensity(2.0)
    for seed in range(5):
        for lam_r in (0.3, 0.8, 1.5, 3.0):
            for mult in (0.0, 0.25, 0.5, 1.0, 1.25):
                cfg = NetworkConfig(lambda_r=lam_r, r_r=2.0,
                                    lambda_f=mult * base, r_f=2.0,
                                    window=Window.square(50.0),
                                    master_seed=30 + seed)
                check = verify_open_edge_coupling(
                    build_isg(cfg, trial_seed(30 + seed, k)))
                violations += check.violations
                open_edges += check.open_edges
                k += 1
    counterexample = blocking_counterexample_search(2.0, 100000, seed=11)
    ok = (violations == 0 and k == 100 and open_edges > 0
          and counterexample is None)
    _report(10, ok, f"open-edge violations={violations}/100 realizations "
                    f"({open_edges} open edges); "
                    f"blocking counterexample={counterexample}")


def test_criterion_11_deterministic_csv(tmp_path):
    args = ["sweep", "--lambda-r", "0.8", "--window-size", "50",
            "--trials", "12", "--seed", "17", "--axis", "lambda_f",
            "--start", "0", "--stop", "0.04", "--step", "0.02"]
    bodies = []
    for run, workers in enumerate((1, 4, 8, 1)):
        out = tmp_path / f"run{run}.csv"
        assert cli_main(args + ["--workers", str(workers), "--out", str(out)]) == 0
        bodies.append("\n".join(l for l in out.read_text().splitlines()
                                if not l.startswith("#")))
    ok = all(b == bodies[0] for b in bodies[1:])
    _report(11, ok, f"bodies identical across workers 1/4/8 and re-run: {ok}")
