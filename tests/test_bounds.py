"""Closed-form bound values, oracles, and the aggregate report."""
import math

import numpy as np
import pytest
from scipy.optimize import brentq

from oracles import SquareEdge, dependent_edges

from spatial_firewalls.bounds import (CIRCUIT_BASE, LambdaC1, classify_regime,
                                      closed_face_probability,
                                      critical_intensity_upper_bound,
                                      critical_protected_fraction,
                                      dependency_counts,
                                      device_percolation_threshold, evaluate_all,
                                      protected_fraction, safe_d2d_range,
                                      subcritical_sufficient_intensity,
                                      supercritical_sufficient_bound)
from spatial_firewalls.network import NetworkConfig
from spatial_firewalls.spatial import Window

LC1 = LambdaC1.approximation()


def test_lambda_c1_constructors():
    assert LC1.value == 1.44
    assert LambdaC1.upper().value == 3.37
    assert LambdaC1.lower().value == 0.768
    assert LambdaC1.parse("1.44").provenance == "approximation_1_44"
    assert LambdaC1.parse("3.37").provenance == "upper_3_37"
    assert LambdaC1.parse("2.0").provenance == "custom"
    assert LambdaC1.custom(5.0).value == 5.0
    with pytest.raises(ValueError):
        LambdaC1(0.5, "approximation_1_44")
    with pytest.raises(ValueError):
        LambdaC1(-1.0, "custom")


def test_device_threshold_values():
    assert device_percolation_threshold(2.0, LC1) == pytest.approx(0.36)
    assert device_percolation_threshold(1.0, LC1) == pytest.approx(1.44)
    assert device_percolation_threshold(2.0, LambdaC1.upper()) == pytest.approx(0.8425)


def test_subcritical_exact_root():
    exact = subcritical_sufficient_intensity(1.0)
    assert abs(exact - 3.645) <= 0.005
    # independent oracle: solve (1 - e^-x)^3 = 1/2 numerically
    x_root = brentq(lambda x: (1 - math.exp(-x)) ** 3 - 0.5, 0.1, 10.0,
                    xtol=1e-12)
    assert exact == pytest.approx(x_root / (math.sqrt(3) / 4), rel=1e-9)


def test_closed_face_probability():
    assert closed_face_probability(0.0, 2.0) == 0.0
    for r in (1.0, 2.0):
        at_threshold = closed_face_probability(3.65 / r ** 2, r)
        assert 0.5 < at_threshold < 0.502
    assert 0 <= closed_face_probability(5.0, 2.0) < 1


def test_dependency_counts_unit_ratio():
    geom = dependency_counts(2.0, 2.0)
    assert (geom.a, geom.b) == (8, 7)
    assert geom.region_cell_count == 56
    assert geom.dependent_edge_count == 391
    assert geom.side == pytest.approx(2.0 / math.sqrt(5))


def test_dependency_counts_formula_consistency():
    for rf_over_rr in (1.0, 1.3, 2.0, 3.7):
        geom = dependency_counts(2.0 * rf_over_rr, 2.0)
        a, b = geom.a, geom.b
        assert geom.region_cell_count == a * b
        assert geom.dependent_edge_count == 8 * a * b - 2 * a - 6 * b + 1
        assert a == b + 1


@pytest.mark.parametrize("ratio, c", [(0.67, 1), (1.0, 1), (1.68, 2), (2.0, 2),
                                      (2.24, 3), (3.0, 3), (3.35, 4), (4.0, 4)])
@pytest.mark.parametrize("orientation", ["h", "v"])
def test_dependent_edge_count_counts_overlapping_regions(ratio, c, orientation):
    """At r_r = 2 (side s = 2 / sqrt 5) and r_f = ratio * s, the edges whose
    dependency regions overlap a reference edge's, counted geometrically,
    number what `dependency_counts` gives. It refuses r_f < r_r, so at
    c = 1 and 2 the count is held to 8ab - 2a - 6b + 1 written out (71 and
    199)."""
    side = 2.0 / math.sqrt(5.0)
    reference = SquareEdge(orientation, 3, -2, side, ratio * side, origin=(0.5, -1.25))
    assert math.ceil(ratio - 1e-9) == c
    expected = ({1: 71, 2: 199}.get(c)
                or dependency_counts(ratio * side, 2.0).dependent_edge_count)
    assert dependent_edges(reference) == expected


def test_dependency_counts_requires_rf_geq_rr():
    with pytest.raises(ValueError):
        dependency_counts(1.0, 2.0)


def test_circuit_base_constant():
    assert abs(CIRCUIT_BASE - 0.17316) < 1e-4


def test_supercritical_vacuous_at_moderate_intensity():
    res = supercritical_sufficient_bound(0.8, 2.0, 2.0)
    assert res.vacuous
    assert res.bound == 0.0
    assert res.beta == pytest.approx(math.exp(391 * math.log(CIRCUIT_BASE)))
    assert res.log_beta == pytest.approx(391 * math.log(CIRCUIT_BASE))


def test_supercritical_limit_positive():
    # with the device term saturated the bound tends to a tiny positive value
    res = supercritical_sufficient_bound(1e6, 2.0, 2.0)
    assert not res.vacuous
    assert res.bound > 0
    expected = 10.0 / (56 * 4.0) * (res.beta / 2.0)
    assert res.bound == pytest.approx(expected, rel=1e-6)


def test_critical_upper_bound_values():
    assert critical_intensity_upper_bound(2.0, 2.0, LC1) == pytest.approx(0.12)
    assert critical_intensity_upper_bound(2.0, 2.0, LambdaC1.upper()) == \
        pytest.approx(0.280833, abs=1e-4)
    # doubling the firewall range cuts the bound five-fold
    for r in (1.0, 2.0):
        ratio = (critical_intensity_upper_bound(r, r, LC1)
                 / critical_intensity_upper_bound(r, 2 * r, LC1))
        assert ratio == pytest.approx(5.0)
    with pytest.raises(ValueError):
        critical_intensity_upper_bound(2.0, 0.9, LC1)


def test_safe_d2d_range():
    assert safe_d2d_range(1.44, 0.12, 2.0, LC1) == pytest.approx((1.0, 2.0))
    lo, hi = safe_d2d_range(1.44, 1e9, 2.0, LC1)
    assert hi == pytest.approx(4.0, abs=1e-6)
    assert safe_d2d_range(1e-4, 0.12, 2.0, LC1) is None      # lo > hi
    assert safe_d2d_range(1.44, 0.05, 2.0, LC1) is None      # hi^2 < 0


def test_protected_fraction_values():
    assert protected_fraction(0.0, 2.0) == 0.0
    assert protected_fraction(0.1, 2.0) == pytest.approx(0.7154, abs=2e-4)
    grid = np.linspace(0.01, 0.5, 20)
    vals = [protected_fraction(lf, 2.0) for lf in grid]
    assert all(a < b for a, b in zip(vals, vals[1:]))
    vals_rf = [protected_fraction(0.1, rf) for rf in np.linspace(1, 6, 15)]
    assert all(a < b for a, b in zip(vals_rf, vals_rf[1:]))


def test_critical_protected_fraction_values():
    assert critical_protected_fraction(2.0, 2.0, LC1) == pytest.approx(0.779, abs=1e-3)
    assert critical_protected_fraction(2.0, 200.0, LC1) == pytest.approx(0.677, abs=1e-3)
    assert critical_protected_fraction(2.0, 2.0, LambdaC1.upper()) == \
        pytest.approx(0.9706, abs=5e-4)
    with pytest.raises(ValueError):
        critical_protected_fraction(2.0, 1.0, LC1)


def test_critical_protected_fraction_decreasing_and_bracketed():
    vals = [critical_protected_fraction(2.0, rf, LC1)
            for rf in np.linspace(2.0, 200.0, 40)]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert all(0.67 <= v <= 0.78 + 1e-9 for v in vals)


def test_bound_ordering_at_equal_ranges():
    # lower certificate <= critical upper bound <= sub-critical certificate
    for r in (1.0, 2.0):
        for lam_r in (0.8, 10.0, 1e6):
            sup = supercritical_sufficient_bound(lam_r, r, r)
            upper = critical_intensity_upper_bound(r, r, LC1)
            sub = subcritical_sufficient_intensity(r)
            assert sup.bound <= upper <= sub


def test_regime_classifier():
    w = Window.square(100)
    mk = lambda lr, lf: NetworkConfig(lambda_r=lr, r_r=2, lambda_f=lf, r_f=2,
                                      window=w, master_seed=0)
    assert classify_regime(mk(0.25, 0.0), LC1) == "immune"
    assert classify_regime(mk(0.8, 0.02), LC1) == "at_risk"
    assert classify_regime(mk(0.8, 0.13), LC1) == "safeguarded"


def test_evaluate_all_delegates():
    cfg = NetworkConfig(lambda_r=0.8, r_r=2, lambda_f=0.05, r_f=2,
                        window=Window.square(100), master_seed=0)
    rep = evaluate_all(cfg, LC1)
    assert rep.device_percolation_threshold == device_percolation_threshold(2.0, LC1)
    assert rep.subcritical_sufficient_lambda_f == subcritical_sufficient_intensity(2.0)
    assert rep.closed_face_prob == closed_face_probability(0.05, 2.0)
    assert rep.critical_upper_bound == pytest.approx(0.12)
    assert rep.critical_protected_fraction == pytest.approx(0.779, abs=1e-3)
    assert rep.protected_fraction == protected_fraction(0.05, 2.0)
    assert rep.d2d_range_window == safe_d2d_range(0.8, 0.05, 2.0, LC1)
    assert rep.regime == "at_risk"
    assert rep.errors == {}


def test_evaluate_all_records_field_errors():
    """At lambda_f = 0 the safe D2D range has no upper end, and at
    r_f / r_r = 1e160 the dependent-edge count overflows a float: both
    fields are recorded as errors, and the others are still computed."""
    cfg = NetworkConfig(lambda_r=0.8, r_r=1e-150, lambda_f=0.0, r_f=1e10,
                        window=Window.square(100), master_seed=0)
    rep = evaluate_all(cfg, LC1)
    assert rep.d2d_range_window is None              # needs lambda_f > 0
    assert rep.supercritical_bound is None           # the count overflows
    assert rep.beta is None and rep.supercritical_vacuous is None
    assert set(rep.errors) == {"d2d_range_window", "supercritical"}
    assert "overflows a float" in rep.errors["supercritical"]
    assert rep.protected_fraction == 0.0             # unaffected fields survive
    assert rep.critical_upper_bound is not None
    assert rep.critical_protected_fraction is not None


def test_report_json_round_trip():
    import json
    cfg = NetworkConfig(lambda_r=0.8, r_r=2, lambda_f=0.05, r_f=2,
                        window=Window.square(100), master_seed=0)
    data = json.loads(evaluate_all(cfg, LC1).to_json())
    assert data["critical_upper_bound"] == 0.12
    assert data["regime"] == "at_risk"
    assert data["lc1_provenance"] == "approximation_1_44"
    assert data["d2d_range_lo"] is None          # infeasible at lambda_f=0.05
    feasible = json.loads(evaluate_all(
        NetworkConfig(lambda_r=0.8, r_r=2, lambda_f=0.12, r_f=2,
                      window=Window.square(100), master_seed=0),
        LC1).to_json())
    assert feasible["regime"] == "safeguarded"
    assert feasible["d2d_range_lo"] == pytest.approx(math.sqrt(1.44 / 0.8))
    assert feasible["d2d_range_hi"] == pytest.approx(2.0)
