"""Coordinate-weighted fractional integral and derivative on [0, 1].

The fractional integral of order ``a`` against the map ``phi`` is

    (1 / Gamma(a)) * integral_0^t phi'(s) (phi(t) - phi(s))**(a-1) u(s) ds.

All quadrature happens after the substitution y = phi(s), which absorbs
the weight phi'(s) ds into dy and turns the kernel into (Y - y)**(a-1)
on [phi(0), Y].  The mesh in y is graded quadratically toward both ends
of the integration interval with a fixed two-point Gauss rule per
panel: the grading restores full convergence order for the weakly
regular kernels that appear for fractional orders, without special
weights.  ``frac_integral`` takes one upper limit t or an array of
them; an array is evaluated in row blocks, one upper limit per row.

The fractional derivative of order ``a`` is

    (d/dy)**n  applied to the order-(n - a) integral,   n = floor(a) + 1,

realized by central finite differences in y on a small auxiliary
stencil.  It is a verification-side operation with documented looser
accuracy (nothing in the solver differentiates), and accuracy degrades
near the endpoints where the stencil must shrink.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .errors import ConfigurationError, DomainError, GridMismatchError, NumericError
from .special import PhiMap, gamma

__all__ = [
    "DEFAULT_PANELS",
    "TOL_INTEGRAL_IDENTITY",
    "TOL_DERIVATIVE_IDENTITY",
    "QuadratureGrid",
    "GridFunction",
    "build_grid",
    "frac_integral",
    "frac_derivative",
    "semigroup_defect",
]

DEFAULT_PANELS = 1024
GRADING_EXPONENT = 2.0

# default tolerances used by the verification suite: integral-only
# identities are quadrature-limited, derivative compositions carry the
# extra finite-difference error of the outer operator
TOL_INTEGRAL_IDENTITY = 1e-6
TOL_DERIVATIVE_IDENTITY = 1e-4

_INV_SQRT3 = 1.0 / math.sqrt(3.0)

# quadrature points per row block of _frac_integral_y: about 0.5 MiB
# per float64 temporary, whatever the number of upper limits
_BLOCK_POINTS = 1 << 16

_unit_rules: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _unit_rule(panels: int) -> tuple[np.ndarray, np.ndarray]:
    """Two-point Gauss nodes/weights on [0, 1] over a graded panel mesh.

    Breakpoints are 0.5*(2k/m)**2 mirrored about 1/2, so panels shrink
    quadratically toward both endpoints.
    """
    cached = _unit_rules.get(panels)
    if cached is not None:
        return cached
    if panels < 2 or panels % 2:
        raise ConfigurationError(f"panel count must be even and >= 2, got {panels}")
    half = np.linspace(0.0, 1.0, panels // 2 + 1)
    left = 0.5 * half**GRADING_EXPONENT
    breaks = np.concatenate([left, 1.0 - left[-2::-1]])
    centers = 0.5 * (breaks[:-1] + breaks[1:])
    halfwidths = 0.5 * (breaks[1:] - breaks[:-1])
    nodes = np.empty(2 * panels)
    nodes[0::2] = centers - halfwidths * _INV_SQRT3
    nodes[1::2] = centers + halfwidths * _INV_SQRT3
    weights = np.repeat(halfwidths, 2)
    nodes.setflags(write=False)
    weights.setflags(write=False)
    _unit_rules[panels] = (nodes, weights)
    return nodes, weights


@dataclass(frozen=True)
class QuadratureGrid:
    """Fixed quadrature rule on [0, 1] transported through phi.

    ``nodes`` are the abscissae s in (0, 1); ``weights`` live in the
    transformed variable y = phi(s), so sum(weights * v(nodes))
    approximates integral_0^1 phi'(s) v(s) ds.  In particular the
    weights sum to phi(1) - phi(0) exactly up to rounding.
    """

    phi: PhiMap
    panels: int
    nodes: np.ndarray
    weights: np.ndarray
    y_nodes: np.ndarray

    @property
    def size(self) -> int:
        return self.nodes.size

    def same_as(self, other: "QuadratureGrid") -> bool:
        return self is other or (
            self.panels == other.panels
            and np.array_equal(self.nodes, other.nodes)
        )


def build_grid(phi: PhiMap, panels: int = DEFAULT_PANELS) -> QuadratureGrid:
    """Build the graded two-point Gauss grid for a coordinate map."""
    ref_nodes, ref_weights = _unit_rule(panels)
    y0, y1 = phi.image
    span = y1 - y0
    y_nodes = y0 + span * ref_nodes
    nodes = np.asarray(phi.inverse(y_nodes), dtype=float)
    weights = span * ref_weights
    nodes.setflags(write=False)
    weights.setflags(write=False)
    y_nodes.setflags(write=False)
    return QuadratureGrid(
        phi=phi,
        panels=panels,
        nodes=nodes,
        weights=weights,
        y_nodes=y_nodes,
    )


@dataclass(frozen=True)
class GridFunction:
    """A function on [0, 1] sampled at the nodes of a fixed grid.

    Values must be finite.  Two grid functions are comparable only when
    they live on the same grid.  Calling the object evaluates the cubic
    through the 4 nodes nearest the query, which is what the fractional
    operators use when they need values between nodes.  Queries outside
    the node range use the nearest boundary stencil (cubic
    extrapolation over the short gap to 0 or 1).
    """

    grid: QuadratureGrid
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.shape != self.grid.nodes.shape:
            raise GridMismatchError("value vector does not match the grid size")
        if not np.all(np.isfinite(values)):
            raise NumericError("grid function values must be finite")
        values = values.copy()
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    @classmethod
    def sample(cls, grid: QuadratureGrid, fn: Callable) -> "GridFunction":
        try:
            values = np.asarray(fn(grid.nodes), dtype=float)
            if values.shape != grid.nodes.shape:
                values = np.broadcast_to(values, grid.nodes.shape).copy()
        except (TypeError, ValueError):
            values = np.array([float(fn(x)) for x in grid.nodes])
        return cls(grid=grid, values=values)

    @classmethod
    def constant(cls, grid: QuadratureGrid, value: float) -> "GridFunction":
        return cls(grid=grid, values=np.full(grid.size, float(value)))

    @cached_property
    def _cubics(self) -> tuple[np.ndarray, ...]:
        """Breakpoints, centres and coefficients of the local cubics.

        Stencil k (nodes k..k+3) serves queries between xs[k+1] and
        xs[k+2]; its cubic is c0 + z*(c1 + z*(c2 + z*c3)), z = q - xs[k+1],
        from divided differences, so constants give c1 = c2 = c3 = 0.
        """
        xs, vs = self.grid.nodes, self.values
        d1 = np.diff(vs) / np.diff(xs)
        d2 = (d1[1:] - d1[:-1]) / (xs[2:] - xs[:-2])
        d3 = (d2[1:] - d2[:-1]) / (xs[3:] - xs[:-3])
        h0 = xs[1:-2] - xs[:-3]
        h1 = xs[2:-1] - xs[1:-2]
        c1 = d1[1:-1] - h1 * (d2[:-1] + h0 * d3)
        c2 = d2[:-1] + (h0 - h1) * d3
        return xs[2:-2], xs[1:-2], vs[1:-2], c1, c2, d3

    def __call__(self, t):
        breaks, centres, c0, c1, c2, c3 = self._cubics
        q = np.asarray(t, dtype=float)
        k = np.searchsorted(breaks, q)
        z = q - centres[k]
        out = c0[k] + z * (c1[k] + z * (c2[k] + z * c3[k]))
        return float(out) if np.ndim(t) == 0 else out

    def sup_norm(self) -> float:
        return float(np.max(np.abs(self.values)))


def _as_evaluator(u) -> Callable:
    if callable(u):
        return u
    raise ConfigurationError("u must be a GridFunction or a callable")


def _default_panels(u) -> int:
    """The panel count of u's grid, or DEFAULT_PANELS for a bare callable."""
    return u.grid.panels if isinstance(u, GridFunction) else DEFAULT_PANELS


def _frac_integral_y(alpha: float, phi: PhiMap, u_eval: Callable,
                     y0: float, y_top: np.ndarray, panels: int) -> np.ndarray:
    """Order-alpha integrals in the transformed variable, one per upper limit.

    ``y_top`` is a 1-D array of upper limits; limits at or below ``y0``
    give 0.  The limits are processed in row blocks of about
    ``_BLOCK_POINTS`` quadrature points, each with one inversion of phi,
    one kernel power, one evaluation of u and one row-wise reduction.
    The reduction is numpy's own, not a BLAS product, so results do not
    depend on the BLAS thread count.

    For orders below 1 the kernel is singular at the upper limit; the
    value of u there is split off and integrated in closed form, which
    leaves a remainder one power smoother and restores the convergence
    order of the graded mesh.
    """
    ref_nodes, ref_weights = _unit_rule(panels)
    out = np.zeros(y_top.shape)
    rows = np.flatnonzero(y_top > y0)
    block = max(1, _BLOCK_POINTS // ref_nodes.size)
    g = gamma(alpha)
    for start in range(0, rows.size, block):
        idx = rows[start:start + block]
        top = y_top[idx, None]
        span = top - y0
        y_q = y0 + span * ref_nodes
        kern = np.power(top - y_q, alpha - 1.0)
        vals = np.asarray(u_eval(phi.inverse(y_q)), dtype=float)
        if alpha < 1.0:
            u_top = np.asarray(u_eval(phi.inverse(top)), dtype=float)
            total = (u_top * span**alpha / alpha)[:, 0] + np.einsum(
                "ij,ij->i", span * ref_weights, kern * (vals - u_top))
        else:
            total = np.einsum("ij,ij->i", span * ref_weights, kern * vals)
        out[idx] = total / g
    return out


def frac_integral(alpha: float, phi: PhiMap, u, t: float | np.ndarray) -> float | np.ndarray:
    """Fractional integral of order alpha of u at t, weighted by phi.

    ``t`` is one upper limit or an array of them; a scalar gives a
    float, an array an array of the same shape.  ``u`` is evaluated on
    2-D arrays of abscissae.  The quadrature uses as many panels as
    ``u``'s grid has, or ``DEFAULT_PANELS`` (1024) when ``u`` is a bare
    callable, and is deterministic for a fixed panel count.
    """
    if not alpha > 0.0:
        raise DomainError(f"integral order must be positive, got {alpha!r}")
    t_arr = np.asarray(t, dtype=float)
    outside = ~((t_arr >= 0.0) & (t_arr <= 1.0))
    if np.any(outside):
        raise DomainError(f"t must lie in [0, 1], got {float(t_arr[outside].flat[0])!r}")
    u_eval = _as_evaluator(u)
    m = _default_panels(u)
    y_top = np.asarray(phi(t_arr), dtype=float).reshape(-1)
    values = _frac_integral_y(alpha, phi, u_eval, phi.image[0], y_top, m)
    return float(values[0]) if t_arr.ndim == 0 else values.reshape(t_arr.shape)


_STEP_FRACTION = {1: 1e-3, 2: 3e-3, 3: 5e-3}
_STENCIL_REACH = {1: 1, 2: 1, 3: 2}


def frac_derivative(alpha: float, phi: PhiMap, u, t: float) -> float:
    """Fractional derivative of order alpha of u at an interior point.

    Applies the n-th central difference in y = phi(t) to the
    order-(n - alpha) integral, n = floor(alpha) + 1 <= 3.  Endpoints
    are rejected (no stencil room) and accuracy degrades as t
    approaches them.
    """
    if not alpha > 0.0:
        raise DomainError(f"derivative order must be positive, got {alpha!r}")
    n = int(math.floor(alpha)) + 1
    if n > 3:
        raise DomainError(f"derivative order must satisfy floor(alpha)+1 <= 3, got {alpha!r}")
    if not 0.0 < t < 1.0:
        raise DomainError(f"t must lie strictly inside (0, 1), got {t!r}")
    u_eval = _as_evaluator(u)
    m = _default_panels(u)
    y0, y1 = phi.image
    y = float(phi(t))
    span = y1 - y0
    reach = _STENCIL_REACH[n]
    h = min(_STEP_FRACTION[n] * span, 0.45 * min(y - y0, y1 - y) / reach)
    if not h > 0.0:
        raise DomainError("stencil does not fit: t too close to an endpoint")

    def F(*ys: float) -> np.ndarray:
        return _frac_integral_y(n - alpha, phi, u_eval, y0, np.array(ys), m)

    if n == 1:
        f = F(y + h, y - h)
        return float((f[0] - f[1]) / (2.0 * h))
    if n == 2:
        f = F(y + h, y, y - h)
        return float((f[0] - 2.0 * f[1] + f[2]) / (h * h))
    f = F(y + 2.0 * h, y + h, y - h, y - 2.0 * h)
    return float((f[0] - 2.0 * f[1] + 2.0 * f[2] - f[3]) / (2.0 * h**3))


def semigroup_defect(alpha: float, beta: float, phi: PhiMap, u) -> float:
    """Max gap between the iterated and the combined fractional integral.

    Computes max over 33 uniform points t of [0, 1] of
    ``|I^alpha(I^beta u)(t) - I^(alpha+beta) u(t)|``, which tests code
    and quadrature quality at once: the law is exact in exact
    arithmetic.
    """
    if not (alpha > 0.0 and beta > 0.0):
        raise DomainError("semigroup orders must be positive")
    if not isinstance(u, GridFunction):
        u = GridFunction.sample(build_grid(phi), u)
    grid = u.grid
    inner_vals = _frac_integral_y(beta, phi, u, phi.image[0], grid.y_nodes, grid.panels)
    inner = GridFunction(grid=grid, values=inner_vals)
    ts = np.linspace(0.0, 1.0, 33)
    lhs = frac_integral(alpha, phi, inner, ts)
    rhs = frac_integral(alpha + beta, phi, u, ts)
    return float(np.max(np.abs(lhs - rhs), initial=0.0))
