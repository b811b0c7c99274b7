"""Relaxed-triangle metric machinery of the existence arguments.

The solver's ambient space is continuous functions on [0, 1] carrying
the squared sup distance d(x, y) = sup (x - y)^2, which satisfies the
relaxed triangle inequality d(x, z) <= R * (d(x, y) + d(y, z)) with
the metric's constant R = 2.  The positive-existence certificate states
its proofs with the paper's gauge psi, shrink function theta and sign
relation tau: when d(A u, A v) <= lam * d(u, v) and R**3 * lam <= 1/6,
psi(R**3 d(A u, A v)) <= theta(d(u, v)) * psi(d(u, v)) for every pair,
since theta >= 1/6.  Only a grid mismatch raises.
"""

from __future__ import annotations

import numpy as np

from .calculus import GridFunction
from .errors import GridMismatchError

__all__ = [
    "R",
    "distance",
    "psi",
    "theta",
    "tau",
]


# the relaxation constant of d(x, y) = sup (x - y)^2: (a + b)^2 <= 2 (a^2 + b^2)
R = 2.0


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
