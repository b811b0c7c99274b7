"""Relaxed-triangle metric machinery and the sampled existence checks.

The solver's ambient space is continuous functions on [0, 1] carrying
the squared sup distance d(x, y) = sup (x - y)^2, which satisfies the
relaxed triangle inequality d(x, z) <= R * (d(x, y) + d(y, z)) with
the metric's constant R = 2.  The positive-existence route uses the
paper's gauge psi, shrink function theta and sign relation tau.
Mathematical failures are data, only a grid mismatch raises.  Both
sampled checks take the sampled pairs and their images under the
operator as (k, N) arrays of nodal values, row k holding pair k (the
caller computes the images once for both), and return a
``SampledVerdict``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .calculus import GridFunction
from .errors import GridMismatchError

__all__ = [
    "R",
    "distance",
    "psi",
    "theta",
    "tau",
    "SampledVerdict",
    "geraghty_inequality_check",
    "admissibility_check",
]


# the relaxation constant of d(x, y) = sup (x - y)^2: (a + b)^2 <= 2 (a^2 + b^2)
R = 2.0

_ADMISSIBILITY_ATOL = 1e-12


def distance(x: GridFunction, y: GridFunction) -> float:
    """Squared sup distance max (x - y)^2 over the one grid object of both."""
    if x.grid is not y.grid:
        raise GridMismatchError("grid functions live on different grids")
    diff = x.values - y.values
    return float(np.max(diff * diff))


def psi(x):
    """The gauge psi(x) = x: increasing, psi(0) = 0 and
    psi(c*x) <= c*psi(x) <= c*x for factors c > 1."""
    return np.multiply(x, 1.0)


def theta(x):
    """The shrink function theta(x) = (1 + x^2) / (6 + 4 x^2):
    nondecreasing with values in [1/6, 1/4), below 1/R^2."""
    x = np.asarray(x, dtype=float)
    return (1.0 + x**2) / (6.0 + 4.0 * x**2)


def tau(x, y):
    """The sign relation tau(x, y) = x * y: a pair (u, v) is admissible
    when tau(u(t), v(t)) >= 0 at every node."""
    return np.multiply(x, y)


def _admissible(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Row mask: pair k is admissible when tau(u[k], v[k]) >= 0 at every node."""
    return np.min(tau(u, v), axis=1) >= 0.0


def _row_distance(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The squared sup distance of each row pair."""
    diff = x - y
    return np.max(diff * diff, axis=1)


@dataclass(frozen=True)
class SampledVerdict:
    """A check sampled on the admissible pairs: whether it ``passed``,
    the ``worst`` per-pair value (0 when no pair is admissible), and how
    many pairs were ``checked`` and ``skipped`` as not admissible."""

    passed: bool
    worst: float
    checked: int
    skipped: int


def _verdict(ok: np.ndarray, values: np.ndarray, limit: float) -> SampledVerdict:
    """The verdict on the values of the admissible rows ``ok``: passed
    unless one lies below ``limit``."""
    checked = int(np.count_nonzero(ok))
    return SampledVerdict(passed=not bool(np.any(values < limit)),
                          worst=float(np.min(values)) if checked else 0.0,
                          checked=checked, skipped=ok.size - checked)


def geraghty_inequality_check(u: np.ndarray, v: np.ndarray, au: np.ndarray,
                              av: np.ndarray) -> SampledVerdict:
    """Check the shrink inequality on every admissible sampled pair.

    Row k of ``au``, ``av`` is (A u, A v) for the pair (u[k], v[k]).
    Pairs whose sign relation fails at some node are skipped (their
    indicator is zero, so the inequality is vacuous).  ``worst`` is the
    least margin rhs - lhs over the checked pairs.
    """
    ok = _admissible(u, v)
    gauge = psi(_row_distance(u[ok], v[ok]))
    return _verdict(ok, theta(gauge) * gauge - psi(R**3 * _row_distance(au[ok], av[ok])), 0.0)


def admissibility_check(u: np.ndarray, v: np.ndarray, au: np.ndarray,
                        av: np.ndarray) -> SampledVerdict:
    """For each sampled pair with tau >= 0 at every node, require
    tau(Au, Av) >= -1e-12 at every node (the tolerance absorbs rounding
    in quantities that are zero or positive in exact arithmetic).
    Row k of ``au``, ``av`` is (A u, A v) for the pair (u[k], v[k]);
    ``worst`` is the least tau(Au, Av) over the checked pairs' nodes."""
    ok = _admissible(u, v)
    return _verdict(ok, np.min(tau(au[ok], av[ok]), axis=1), -_ADMISSIBILITY_ATOL)
