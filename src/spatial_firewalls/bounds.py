"""Closed-form thresholds, bounds, and design formulas.

Everything here is a pure function of the model parameters and of the
unit-range critical intensity, which is known only approximately and is
therefore carried as an explicit first-class value with its provenance.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

from .network import NetworkConfig

__all__ = [
    "LambdaC1",
    "DependencyGeometry",
    "SupercriticalBound",
    "BoundsReport",
    "device_percolation_threshold",
    "subcritical_sufficient_intensity",
    "closed_face_probability",
    "dependency_counts",
    "supercritical_sufficient_bound",
    "critical_intensity_upper_bound",
    "safe_d2d_range",
    "protected_fraction",
    "critical_protected_fraction",
    "classify_regime",
    "evaluate_all",
]

LC1_APPROX = 1.44
LC1_UPPER = 3.37
LC1_LOWER = 0.768

# per-triangle area factor of the hexagonal construction
_TRIANGLE_AREA = math.sqrt(3.0) / 4.0
# decay base of the closed-circuit union bound on the square lattice
CIRCUIT_BASE = (11.0 - 2.0 * math.sqrt(10.0)) / 27.0


@dataclass(frozen=True)
class LambdaC1:
    """Critical intensity for unit-range continuum percolation.

    No exact value is known; the usable approximation is 1.44 and the proven
    bracket is (0.768, 3.37). Non-custom values must stay in that bracket.
    """

    value: float
    provenance: str = "custom"

    _KNOWN = ("approximation_1_44", "upper_3_37", "lower_0_768", "custom")

    def __post_init__(self):
        if self.provenance not in self._KNOWN:
            raise ValueError(f"unknown provenance {self.provenance!r}")
        if self.provenance != "custom" and not (LC1_LOWER <= self.value <= LC1_UPPER):
            raise ValueError("non-custom value outside [0.768, 3.37]")
        if not (self.value > 0 and math.isfinite(self.value)):
            raise ValueError("value must be finite and > 0")

    @classmethod
    def approximation(cls) -> "LambdaC1":
        return cls(LC1_APPROX, "approximation_1_44")

    @classmethod
    def upper(cls) -> "LambdaC1":
        return cls(LC1_UPPER, "upper_3_37")

    @classmethod
    def lower(cls) -> "LambdaC1":
        return cls(LC1_LOWER, "lower_0_768")

    @classmethod
    def custom(cls, value: float) -> "LambdaC1":
        return cls(float(value), "custom")

    @classmethod
    def parse(cls, text) -> "LambdaC1":
        """Accepts 1.44 / 3.37 / 0.768 (mapped to their provenances) or any
        positive float as a custom value."""
        v = float(text)
        for known, ctor in ((LC1_APPROX, cls.approximation),
                            (LC1_UPPER, cls.upper), (LC1_LOWER, cls.lower)):
            if abs(v - known) < 1e-12:
                return ctor()
        return cls.custom(v)


def _ceil_ratio(num: float, den: float) -> int:
    # tolerate one part in 1e9 of float noise just below an integer boundary
    return int(math.ceil(num / den - 1e-9))


@dataclass(frozen=True)
class DependencyGeometry:
    """Cell geometry of the edge-dependency region on the coupling lattice.

    The lattice side is r_r / sqrt(5); the dependency region of an edge spans
    a x b cells and contains `dependent_edge_count` lattice edges.
    """

    a: int
    b: int
    dependent_edge_count: int
    region_cell_count: int
    side: float


def device_percolation_threshold(r_r: float, lc1: LambdaC1) -> float:
    """Device intensity above which the unprotected network percolates."""
    if not (r_r > 0):
        raise ValueError("r_r must be > 0")
    return lc1.value / r_r ** 2


def subcritical_sufficient_intensity(r_r: float) -> float:
    """Firewall intensity sufficient to stop percolation for any device density.

    Exact root of (1 - exp(-x))^3 = 1/2 mapped onto an intensity, about
    3.645 / r_r^2 (conventionally rounded to 3.65 / r_r^2).
    """
    if not (r_r > 0):
        raise ValueError("r_r must be > 0")
    x = -math.log1p(-0.5 ** (1.0 / 3.0))
    return x / (_TRIANGLE_AREA * r_r ** 2)


def closed_face_probability(lambda_f: float, r_r: float) -> float:
    """Probability that all three triangles of a hexagonal face hold a firewall."""
    if lambda_f < 0 or not (r_r > 0):
        raise ValueError("need lambda_f >= 0 and r_r > 0")
    return (-math.expm1(-lambda_f * _TRIANGLE_AREA * r_r ** 2)) ** 3


def dependency_counts(r_f: float, r_r: float) -> DependencyGeometry:
    """Dependency-region dimensions and dependent-edge count for given ranges.

    Raises ValueError when the count would exceed the largest float (r_f /
    r_r above about 9e152), which the bounds multiply in floats."""
    if not (r_r > 0):
        raise ValueError("r_r must be > 0")
    if r_f < r_r:
        raise ValueError("requires r_f >= r_r")
    # the count is about 32 c**2, below the largest float while c < 2e153
    if not math.sqrt(5.0) * r_f / r_r < 2e153:
        raise ValueError(f"r_f / r_r = {r_f / r_r:.6g} is too large: the dependent-edge "
                         "count overflows a float")
    c = _ceil_ratio(math.sqrt(5.0) * r_f, r_r)
    a = 2 * c + 2
    b = 2 * c + 1
    n = 8 * a * b - 2 * a - 6 * b + 1
    return DependencyGeometry(a=a, b=b, dependent_edge_count=n,
                              region_cell_count=a * b,
                              side=r_r / math.sqrt(5.0))


class SupercriticalBound(NamedTuple):
    bound: float
    vacuous: bool
    beta: float
    log_beta: float


def supercritical_sufficient_bound(lambda_r: float, r_r: float,
                                   r_f: float) -> SupercriticalBound:
    """Firewall intensity below which percolation survives (when positive).

    beta decays like CIRCUIT_BASE ** N with N in the hundreds, so it is
    handled in log space; when the right-hand side is non-positive the bound
    certifies nothing and is reported as (0, vacuous=True).
    """
    if lambda_r < 0:
        raise ValueError("lambda_r must be >= 0")
    geom = dependency_counts(r_f, r_r)
    log_beta = geom.dependent_edge_count * math.log(CIRCUIT_BASE)
    beta = math.exp(log_beta)  # may underflow to 0; log_beta keeps the value
    s2 = r_r ** 2 / 5.0
    if lambda_r == 0:
        num_log = -math.inf
    else:
        num_log = math.log1p(-math.exp(-lambda_r * s2))
    den_log = 0.5 * math.log1p(-beta)
    value = 10.0 / (geom.region_cell_count * r_r ** 2) * (num_log - den_log)
    if value <= 0:
        return SupercriticalBound(0.0, True, beta, log_beta)
    return SupercriticalBound(value, False, beta, log_beta)


def critical_intensity_upper_bound(r_r: float, r_f: float, lc1: LambdaC1) -> float:
    """Upper bound on the critical firewall intensity: lc1 / (4 r_f^2 - r_r^2)."""
    if not (r_r > 0 and r_f > 0):
        raise ValueError("ranges must be > 0")
    denom = 4.0 * r_f ** 2 - r_r ** 2
    if denom <= 0:
        raise ValueError("requires 4 r_f^2 > r_r^2")
    return lc1.value / denom


def safe_d2d_range(lambda_r: float, lambda_f: float, r_f: float,
                   lc1: LambdaC1) -> Optional[tuple[float, float]]:
    """D2D range interval giving global connectivity without epidemic risk.

    Returns (lo, hi) with lo = sqrt(lc1 / lambda_r) and
    hi = sqrt(4 r_f^2 - lc1 / lambda_f), or None when no such range exists.
    """
    if not (lambda_r > 0 and lambda_f > 0 and r_f > 0):
        raise ValueError("all parameters must be > 0")
    lo = math.sqrt(lc1.value / lambda_r)
    hi_sq = 4.0 * r_f ** 2 - lc1.value / lambda_f
    if hi_sq < 0:
        return None
    hi = math.sqrt(hi_sq)
    if lo > hi:
        return None
    return (lo, hi)


def protected_fraction(lambda_f: float, r_f: float) -> float:
    """Expected share of devices inside some secured zone: 1 - exp(-pi lf rf^2)."""
    if lambda_f < 0 or not (r_f > 0):
        raise ValueError("need lambda_f >= 0 and r_f > 0")
    return -math.expm1(-math.pi * lambda_f * r_f ** 2)


def critical_protected_fraction(r_r: float, r_f: float, lc1: LambdaC1) -> float:
    """Protected share when operating exactly at the critical upper bound."""
    if not (r_r > 0):
        raise ValueError("r_r must be > 0")
    if r_f < r_r:
        raise ValueError("requires r_f >= r_r")
    return -math.expm1(-math.pi * lc1.value / (4.0 - (r_r / r_f) ** 2))


def classify_regime(config: NetworkConfig, lc1: LambdaC1) -> str:
    """immune / at_risk / safeguarded for a parameter point.

    Immune: too sparse to percolate even unprotected. Safeguarded: firewall
    intensity at or above the critical upper bound. At risk: in between.
    """
    if config.lambda_r < device_percolation_threshold(config.r_r, lc1):
        return "immune"
    if config.lambda_f >= critical_intensity_upper_bound(config.r_r, config.r_f, lc1):
        return "safeguarded"
    return "at_risk"


@dataclass(frozen=True)
class BoundsReport:
    """Every closed-form quantity evaluated for one configuration.

    Fields that could not be computed (out-of-scope parameter combinations)
    are None, with the reason recorded in `errors` keyed by field name.
    """

    device_percolation_threshold: Optional[float]
    subcritical_sufficient_lambda_f: Optional[float]
    closed_face_prob: Optional[float]
    supercritical_bound: Optional[float]
    supercritical_vacuous: Optional[bool]
    beta: Optional[float]
    log_beta: Optional[float]
    critical_upper_bound: Optional[float]
    d2d_range_window: Optional[tuple[float, float]]
    protected_fraction: Optional[float]
    critical_protected_fraction: Optional[float]
    regime: Optional[str]
    lc1_value: float
    lc1_provenance: str
    errors: dict

    def to_dict(self) -> dict:
        def sig12(v):
            return float(f"{v:.12g}") if isinstance(v, float) else v
        out = {}
        for name in ("device_percolation_threshold", "subcritical_sufficient_lambda_f",
                     "closed_face_prob", "supercritical_bound", "supercritical_vacuous",
                     "beta", "log_beta", "critical_upper_bound", "protected_fraction",
                     "critical_protected_fraction", "regime"):
            out[name] = sig12(getattr(self, name))
        rng = self.d2d_range_window
        out["d2d_range_lo"] = sig12(rng[0]) if rng else None
        out["d2d_range_hi"] = sig12(rng[1]) if rng else None
        out["lc1_value"] = sig12(self.lc1_value)
        out["lc1_provenance"] = self.lc1_provenance
        if self.errors:
            out["errors"] = dict(self.errors)
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


def evaluate_all(config: NetworkConfig, lc1: LambdaC1 | None = None) -> BoundsReport:
    """Evaluate every bound for `config`; field-level failures are recorded,
    not raised."""
    lc1 = lc1 or LambdaC1.approximation()
    values: dict = {}
    errors: dict = {}

    def run(name, fn):
        try:
            values[name] = fn()
        except ValueError as exc:
            values[name] = None
            errors[name] = str(exc)

    run("device_percolation_threshold",
        lambda: device_percolation_threshold(config.r_r, lc1))
    run("subcritical_sufficient_lambda_f",
        lambda: subcritical_sufficient_intensity(config.r_r))
    run("closed_face_prob",
        lambda: closed_face_probability(config.lambda_f, config.r_r))
    run("supercritical",
        lambda: supercritical_sufficient_bound(config.lambda_r, config.r_r, config.r_f))
    run("critical_upper_bound",
        lambda: critical_intensity_upper_bound(config.r_r, config.r_f, lc1))
    run("d2d_range_window",
        lambda: safe_d2d_range(config.lambda_r, config.lambda_f, config.r_f, lc1))
    run("protected_fraction",
        lambda: protected_fraction(config.lambda_f, config.r_f))
    run("critical_protected_fraction",
        lambda: critical_protected_fraction(config.r_r, config.r_f, lc1))
    run("regime", lambda: classify_regime(config, lc1))

    sup = values.pop("supercritical", None)
    return BoundsReport(
        device_percolation_threshold=values["device_percolation_threshold"],
        subcritical_sufficient_lambda_f=values["subcritical_sufficient_lambda_f"],
        closed_face_prob=values["closed_face_prob"],
        supercritical_bound=sup.bound if sup else None,
        supercritical_vacuous=sup.vacuous if sup else None,
        beta=sup.beta if sup else None,
        log_beta=sup.log_beta if sup else None,
        critical_upper_bound=values["critical_upper_bound"],
        d2d_range_window=values["d2d_range_window"],
        protected_fraction=values["protected_fraction"],
        critical_protected_fraction=values["critical_protected_fraction"],
        regime=values["regime"],
        lc1_value=lc1.value,
        lc1_provenance=lc1.provenance,
        errors=errors,
    )
