"""Relaxed-triangle metric machinery and fixed-point certificates.

The solver's ambient space is continuous functions on [0, 1] carrying
the squared sup distance d(x, y) = sup (x - y)^2, which satisfies the
relaxed triangle inequality d(x, z) <= r * (d(x, y) + d(y, z)) with
r = 2.  Certificates for the two fixed-point routes are plain verdict
objects: mathematical failures are data, only structural misuse (grid
mismatch, bad arguments) raises.  The sampled checks take each pair's
images under the operator, computed by the caller, so one batch of
images can serve several checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .calculus import GridFunction
from .errors import ConfigurationError, GridMismatchError

__all__ = [
    "distance",
    "PsiFunction",
    "ThetaFunction",
    "TauRelation",
    "default_psi",
    "default_theta",
    "default_tau",
    "FamilyVerdict",
    "psi_family_check",
    "theta_family_check",
    "ContractionVerdict",
    "contraction_certificate",
    "GeraghtyVerdict",
    "geraghty_inequality_check",
    "AdmissibilityVerdict",
    "admissibility_check",
    "FAMILY_SAMPLE_POINTS",
    "FAMILY_SAMPLE_FACTORS",
]


def distance(x: GridFunction, y: GridFunction) -> float:
    """Squared sup distance max (x - y)^2 over the common grid."""
    if not x.grid.same_as(y.grid):
        raise GridMismatchError("grid functions live on different grids")
    diff = x.values - y.values
    return float(np.max(diff * diff))


@dataclass(frozen=True)
class PsiFunction:
    """Gauge function: increasing, continuous, psi(0) = 0 and
    psi(c*x) <= c*psi(x) <= c*x for factors c > 1."""

    name: str
    fn: Callable

    def __call__(self, x):
        return self.fn(x)


@dataclass(frozen=True)
class ThetaFunction:
    """Shrink function: nondecreasing with values in [0, 1/r^2)."""

    name: str
    fn: Callable

    def __call__(self, x):
        return self.fn(x)


@dataclass(frozen=True)
class TauRelation:
    """Sign relation generating the admissibility indicator: a pair
    (u, v) is admissible when tau(u(t), v(t)) >= 0 at every node."""

    name: str
    fn: Callable

    def __call__(self, x, y):
        return self.fn(x, y)


def default_psi() -> PsiFunction:
    return PsiFunction(name="identity", fn=lambda x: np.multiply(x, 1.0))


def default_theta() -> ThetaFunction:
    def fn(x):
        x_arr = np.asarray(x, dtype=float)
        return (1.0 + x_arr**2) / (6.0 + 4.0 * x_arr**2)

    return ThetaFunction(name="(1+x^2)/(6+4x^2)", fn=fn)


def default_tau() -> TauRelation:
    return TauRelation(name="product", fn=lambda x, y: np.multiply(x, y))


# documented sample sets for family membership checks: zero plus a log
# sweep of [1e-6, 1e3], and the scaling factors applied to it
FAMILY_SAMPLE_POINTS = np.concatenate([[0.0], np.logspace(-6.0, 3.0, 181)])
FAMILY_SAMPLE_FACTORS = (1.5, 2.0, 10.0)


@dataclass(frozen=True)
class FamilyVerdict:
    passed: bool
    detail: str


def psi_family_check(psi: PsiFunction,
                     points: np.ndarray | None = None,
                     factors: Sequence[float] = FAMILY_SAMPLE_FACTORS) -> FamilyVerdict:
    """Sampled membership check for the gauge family."""
    xs = FAMILY_SAMPLE_POINTS if points is None else np.asarray(points, dtype=float)
    vals = np.asarray(psi(xs), dtype=float)
    if abs(float(psi(0.0))) > 0.0:
        return FamilyVerdict(False, "psi(0) != 0")
    order = np.argsort(xs)
    if np.any(np.diff(vals[order]) < 0.0):
        return FamilyVerdict(False, "psi not increasing on sample")
    if np.any(vals < 0.0):
        return FamilyVerdict(False, "psi takes negative values")
    for c in factors:
        if c <= 1.0:
            raise ConfigurationError("scaling factors must exceed 1")
        lhs = np.asarray(psi(c * xs), dtype=float)
        mid = c * vals
        slack = 1e-12 * (1.0 + np.abs(mid))
        if np.any(lhs > mid + slack):
            return FamilyVerdict(False, f"psi({c}*x) > {c}*psi(x) on sample")
        if np.any(mid > c * xs + slack):
            return FamilyVerdict(False, f"{c}*psi(x) > {c}*x on sample")
    return FamilyVerdict(True, f"sampled at {xs.size} points, factors {tuple(factors)}")


def theta_family_check(theta: ThetaFunction,
                       points: np.ndarray | None = None,
                       r: float = 2.0) -> FamilyVerdict:
    """Sampled membership check for the shrink family."""
    xs = FAMILY_SAMPLE_POINTS if points is None else np.asarray(points, dtype=float)
    vals = np.asarray(theta(xs), dtype=float)
    order = np.argsort(xs)
    if np.any(np.diff(vals[order]) < -1e-15):
        return FamilyVerdict(False, "theta not nondecreasing on sample")
    if np.any(vals < 0.0):
        return FamilyVerdict(False, "theta takes negative values")
    cap = 1.0 / (r * r)
    top = float(np.max(vals))
    if top >= cap:
        return FamilyVerdict(False, f"max sampled theta {top} not below 1/r^2 = {cap}")
    return FamilyVerdict(True, f"max sampled value {top} < {cap}")


@dataclass(frozen=True)
class ContractionVerdict:
    """Outcome of the contraction-factor test 0 < lam < 1/r."""

    passed: bool
    lam: float
    limit: float
    margin: float


def contraction_certificate(lam: float, r: float) -> ContractionVerdict:
    if not lam >= 0.0:
        raise ConfigurationError(f"contraction factor must be nonnegative, got {lam!r}")
    if not r >= 1.0:
        raise ConfigurationError(f"relaxation constant must be >= 1, got {r!r}")
    limit = 1.0 / r
    return ContractionVerdict(
        passed=bool(0.0 < lam < limit),
        lam=float(lam),
        limit=limit,
        margin=limit - float(lam),
    )


def _admissible(tau: TauRelation, u: GridFunction, v: GridFunction) -> bool:
    return bool(np.min(np.asarray(tau(u.values, v.values), dtype=float)) >= 0.0)


@dataclass(frozen=True)
class GeraghtyVerdict:
    """Sampled check of psi(r^3 d(Au, Av)) <= theta(psi(d)) * psi(d)."""

    passed: bool
    worst_margin: float
    checked: int
    skipped: int
    r: float


def geraghty_inequality_check(pairs: Sequence[tuple[GridFunction, GridFunction]],
                              images: Sequence[tuple[GridFunction, GridFunction]],
                              psi: PsiFunction,
                              theta: ThetaFunction,
                              tau: TauRelation,
                              r: float = 2.0) -> GeraghtyVerdict:
    """Check the shrink inequality on every admissible sampled pair.

    ``images[k]`` is (A u, A v) for ``pairs[k]`` = (u, v).
    Pairs whose sign relation fails at some node are skipped (their
    indicator is zero, so the inequality is vacuous).  The worst margin
    reported is min over checked pairs of rhs - lhs.
    """
    worst = np.inf
    checked = 0
    skipped = 0
    passed = True
    for (u, v), (au, av) in zip(pairs, images, strict=True):
        if not _admissible(tau, u, v):
            skipped += 1
            continue
        checked += 1
        d_uv = distance(u, v)
        lhs = float(psi(r**3 * distance(au, av)))
        gauge = float(psi(d_uv))
        rhs = float(theta(gauge)) * gauge
        margin = rhs - lhs
        worst = min(worst, margin)
        if margin < 0.0:
            passed = False
    if checked == 0:
        worst = 0.0
    return GeraghtyVerdict(passed=passed, worst_margin=float(worst),
                           checked=checked, skipped=skipped, r=r)


@dataclass(frozen=True)
class AdmissibilityVerdict:
    """Sampled check that the operator preserves the sign relation."""

    passed: bool
    checked: int
    skipped: int
    worst_value: float


def admissibility_check(pairs: Sequence[tuple[GridFunction, GridFunction]],
                        images: Sequence[tuple[GridFunction, GridFunction]],
                        tau: TauRelation,
                        atol: float = 1e-12) -> AdmissibilityVerdict:
    """For each sampled pair with tau >= 0 at every node, require
    tau(Au, Av) >= -atol at every node (the tolerance absorbs rounding
    in quantities that are zero or positive in exact arithmetic).
    ``images[k]`` is (A u, A v) for ``pairs[k]`` = (u, v)."""
    checked = 0
    skipped = 0
    worst = np.inf
    passed = True
    for (u, v), (au, av) in zip(pairs, images, strict=True):
        if not _admissible(tau, u, v):
            skipped += 1
            continue
        checked += 1
        low = float(np.min(np.asarray(tau(au.values, av.values), dtype=float)))
        worst = min(worst, low)
        if low < -atol:
            passed = False
    if checked == 0:
        worst = 0.0
    return AdmissibilityVerdict(passed=passed, checked=checked,
                                skipped=skipped, worst_value=float(worst))
