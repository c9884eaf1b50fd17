"""Closed-form thresholds, bounds, and design formulas.

Everything here is a pure function of the model parameters and of the
unit-range critical intensity, which is known only approximately and is
therefore carried as an explicit first-class value, whose provenance (a
known estimate or custom) follows from it.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields
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
    "dependent_edge_count",
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


# the provenance of each known value of lambda_c1; any other value is custom
_PROVENANCE = {LC1_APPROX: "approximation_1_44", LC1_UPPER: "upper_3_37",
               LC1_LOWER: "lower_0_768"}


@dataclass(frozen=True)
class LambdaC1:
    """Critical intensity for unit-range continuum percolation.

    No exact value is known; the usable approximation is 1.44 and the proven
    bracket is (0.768, 3.37). The provenance follows from the value: one of
    those three, or custom.
    """

    value: float

    def __post_init__(self):
        if not (self.value > 0 and math.isfinite(self.value)):
            raise ValueError("value must be finite and > 0")

    @property
    def provenance(self) -> str:
        return _PROVENANCE.get(self.value, "custom")

    @classmethod
    def approximation(cls) -> "LambdaC1":
        return cls(LC1_APPROX)

    @classmethod
    def upper(cls) -> "LambdaC1":
        return cls(LC1_UPPER)

    @classmethod
    def parse(cls, text) -> "LambdaC1":
        """Accepts any positive float; one within 1e-12 of 1.44, 3.37 or
        0.768 is taken as that value."""
        v = float(text)
        return cls(next((known for known in _PROVENANCE if abs(v - known) < 1e-12), v))


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


def dependent_edge_count(a: int, b: int) -> int:
    """Lattice edges that share an a x b cell dependency region with an edge."""
    return 8 * a * b - 2 * a - 6 * b + 1


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
    return DependencyGeometry(a=a, b=b, dependent_edge_count=dependent_edge_count(a, b),
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
        for f in fields(self):
            v = getattr(self, f.name)
            if f.name == "d2d_range_window":
                out["d2d_range_lo"], out["d2d_range_hi"] = map(sig12, v or (None, None))
            elif f.name == "errors":
                if v:
                    out["errors"] = dict(v)
            else:
                out[f.name] = sig12(v)
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


def evaluate_all(config: NetworkConfig, lc1: LambdaC1 | None = None) -> BoundsReport:
    """Evaluate every bound for `config`; field-level failures are recorded,
    not raised, under the field's name (`supercritical` for the four fields
    of the supercritical bound)."""
    lc1 = lc1 or LambdaC1.approximation()
    c = config
    formulas = {
        "device_percolation_threshold": lambda: device_percolation_threshold(c.r_r, lc1),
        "subcritical_sufficient_lambda_f": lambda: subcritical_sufficient_intensity(c.r_r),
        "closed_face_prob": lambda: closed_face_probability(c.lambda_f, c.r_r),
        "supercritical": lambda: supercritical_sufficient_bound(c.lambda_r, c.r_r, c.r_f),
        "critical_upper_bound": lambda: critical_intensity_upper_bound(c.r_r, c.r_f, lc1),
        "d2d_range_window": lambda: safe_d2d_range(c.lambda_r, c.lambda_f, c.r_f, lc1),
        "protected_fraction": lambda: protected_fraction(c.lambda_f, c.r_f),
        "critical_protected_fraction": lambda: critical_protected_fraction(c.r_r, c.r_f, lc1),
        "regime": lambda: classify_regime(c, lc1),
    }
    values: dict = {}
    errors: dict = {}
    for name, formula in formulas.items():
        try:
            values[name] = formula()
        except ValueError as exc:
            values[name] = None
            errors[name] = str(exc)
    sup = values.pop("supercritical") or SupercriticalBound(None, None, None, None)
    return BoundsReport(**values, supercritical_bound=sup.bound,
                        supercritical_vacuous=sup.vacuous, beta=sup.beta,
                        log_beta=sup.log_beta, lc1_value=lc1.value,
                        lc1_provenance=lc1.provenance, errors=errors)
