"""Coordinate-weighted fractional integral and derivative on [0, 1].

The fractional integral of order ``a`` against the map ``phi`` is

    (1 / Gamma(a)) * integral_0^t phi'(s) (phi(t) - phi(s))**(a-1) u(s) ds.

All quadrature happens after the substitution y = phi(s), which absorbs
the weight phi'(s) ds into dy and turns the kernel into (Y - y)**(a-1)
on [phi(0), Y].  A grid has two Gauss nodes on each panel of a mesh in
y graded quadratically toward both ends.  The fractional integral is a
product-integration rule on the grid's own nodes (Diethelm, Ford &
Freed, Nonlinear Dyn. 29, 2002): panels 2k and 2k + 1 form a
super-panel, u is the cubic in y through its 4 nodes, and each upper
limit Y sums

* a fixed Gauss-Legendre rule over the super-panels at least _NEAR
  widths below Y, where (Y - y)**(a-1) is smooth;
* exact Gauss-Jacobi moments for the weight (Y - y)**(a-1) over the
  _NEAR super-panels below the one that holds Y, and over that one up
  to Y (Golub & Welsch, Math. Comp. 23, 1969).

So the singular kernel needs no special case for a < 1, no step
inverts phi or interpolates u, and the error is smooth in Y.  The
tables behind it are built on first use: per grid the super-panel
geometry and far points, per grid function the cubics, per order the
Jacobi rule.  ``frac_integral`` takes one upper limit t or an array of
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
from functools import cached_property, lru_cache
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

# product integration on super-panels (grid panels 2k and 2k + 1, whose
# 4 nodes carry one cubic): a fixed Gauss-Legendre rule of _FAR_POINTS
# on the super-panels at least _NEAR widths below the upper limit,
# exact moments by a _JACOBI_POINTS Gauss-Jacobi rule on the rest
_FAR_POINTS = 6
_NEAR = 6
_JACOBI_POINTS = 3

# far points per row block of _integral_y: about 0.5 MiB per float64
# temporary, whatever the number of upper limits
_BLOCK_POINTS = 1 << 16

_unit_rules: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}


def _unit_rule(panels: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Breakpoints and two-point Gauss nodes/weights of a graded mesh on [0, 1].

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
    for arr in (breaks, nodes, weights):
        arr.setflags(write=False)
    _unit_rules[panels] = (breaks, nodes, weights)
    return breaks, nodes, weights


@lru_cache(maxsize=64)
def _gauss_rule(alpha: float, points: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss rule for the weight (1 - z)**(alpha - 1) on [0, 1].

    Golub-Welsch: the nodes are the eigenvalues of the Jacobi matrix of
    the recurrence for the Jacobi polynomials P^(alpha - 1, 0), mapped
    from [-1, 1]; the weights are the squared first eigenvector
    components times the weight's mass 1/alpha.  Exact for polynomials
    of degree up to 2 * points - 1; alpha = 1 gives Gauss-Legendre.
    """
    p = alpha - 1.0
    n = np.arange(1, points)
    s = 2.0 * n + p
    diag = np.concatenate([[-p / (p + 2.0)], -p * p / (s * (s + 2.0))])
    off = 2.0 * n * (n + p) / (s * np.sqrt((s + 1.0) * (s - 1.0)))
    nodes, vectors = np.linalg.eigh(np.diag(1.0 + diag) + np.diag(off, 1) + np.diag(off, -1))
    nodes, weights = 0.5 * nodes, vectors[0] ** 2 / alpha
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


# one Lanczos sum per order, not per call
_gamma = lru_cache(maxsize=64)(gamma)


def _cubic_at(x0, x1, x2, v0, d1, d2, d3, y):
    """The Newton-form cubic with nodes x0, x1, x2 and coefficients v0, d1..d3 at y."""
    return v0 + (y - x0) * (d1 + (y - x1) * (d2 + (y - x2) * d3))


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

    @cached_property
    def _super_panels(self) -> tuple[np.ndarray, ...]:
        """Super-panel geometry in y, built on first use.

        Returns the interior super-panel bounds, the bounds (lower,
        upper) and first three nodes of every super-panel after _NEAR
        empty ones at phi(0), and the far Gauss-Legendre points and
        weights in ascending order.
        """
        y0, y1 = self.phi.image
        bounds = y0 + (y1 - y0) * _unit_rule(self.panels)[0][0::2]
        lo, hi = bounds[:-1], bounds[1:]
        x, w = _gauss_rule(1.0, _FAR_POINTS)
        width = (hi - lo)[:, None]
        y_far = (lo[:, None] + width * x).ravel()
        w_far = (width * w).ravel()
        geometry = np.vstack([lo, hi, self.y_nodes.reshape(-1, 4)[:, :3].T])
        geometry = np.concatenate([np.full((5, _NEAR), y0), geometry], axis=1)
        return bounds[1:-1], geometry, y_far, w_far


def build_grid(phi: PhiMap, panels: int = DEFAULT_PANELS) -> QuadratureGrid:
    """Build the graded two-point Gauss grid for a coordinate map."""
    _, ref_nodes, ref_weights = _unit_rule(panels)
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
    in s through the 4 nodes nearest the query; queries outside the node
    range use the nearest boundary stencil (cubic extrapolation over the
    short gap to 0 or 1).  The fractional integral uses another
    interpolant, the cubic in y = phi(s) on each super-panel.
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

    @cached_property
    def _panel_table(self) -> tuple[np.ndarray, np.ndarray]:
        """The cubic in y through the 4 nodes of each super-panel.

        Returns the grid's super-panel geometry stacked over each
        cubic's Newton coefficients (v0, d1, d2, d3), after _NEAR zero
        cubics, and the far weights times the cubics at the far points.
        """
        _, geometry, y_far, w_far = self.grid._super_panels
        xs = self.grid.y_nodes.reshape(-1, 4)
        vs = self.values.reshape(-1, 4)
        d1 = np.diff(vs, axis=1) / np.diff(xs, axis=1)
        d2 = (d1[:, 1:] - d1[:, :-1]) / (xs[:, 2:] - xs[:, :-2])
        d3 = (d2[:, 1] - d2[:, 0]) / (xs[:, 3] - xs[:, 0])
        coeffs = np.vstack([vs[:, 0], d1[:, 0], d2[:, 0], d3])
        panel = np.concatenate([xs[:, :3].T, coeffs])[:, :, None]
        w_u = w_far * _cubic_at(*panel, y_far.reshape(xs.shape[0], -1)).ravel()
        table = np.vstack([geometry, np.pad(coeffs, ((0, 0), (_NEAR, 0)))])
        return table, w_u

    def sup_norm(self) -> float:
        return float(np.max(np.abs(self.values)))


@lru_cache(maxsize=16)
def _shared_grid(phi: PhiMap, panels: int) -> QuadratureGrid:
    """build_grid(phi, panels), built once per map and panel count, so
    its phi inverse and super-panel tables are reused across calls."""
    return build_grid(phi, panels)


def _on_map(u, phi: PhiMap) -> GridFunction:
    """u as a grid function on a grid of ``phi``.

    A grid function on a grid of this very map keeps its values; any
    other grid function, or a bare callable, is sampled once at the
    nodes of the shared grid of phi with the panel count of u's grid,
    or ``DEFAULT_PANELS`` for a callable.
    """
    if isinstance(u, GridFunction):
        if u.grid.phi is phi:
            return u
        return GridFunction.sample(_shared_grid(phi, u.grid.panels), u)
    if callable(u):
        return GridFunction.sample(_shared_grid(phi, DEFAULT_PANELS), u)
    raise ConfigurationError("u must be a GridFunction or a callable")


def _integral_y(alpha: float, u: GridFunction, c: np.ndarray) -> np.ndarray:
    """Order-alpha integrals of u's panel cubics at the limits c in y.

    ``c`` is a 1-D array in [phi(0), phi(1)].  Each limit sums the far
    super-panels by the fixed Gauss-Legendre rule and integrates the
    super-panel that holds it, plus the _NEAR below that one, exactly by
    Gauss-Jacobi moments.  The limits go in row blocks of about
    ``_BLOCK_POINTS`` far points, and every row runs the same arithmetic
    whatever the block, so an array of limits gives the values of one
    call per limit.  The long far sum is numpy's own reduction, not a
    BLAS product, so results do not depend on the BLAS thread count.
    """
    z, lam = _gauss_rule(alpha, _JACOBI_POINTS)
    g = _gamma(alpha)
    bounds, _, y_far, _ = u.grid._super_panels
    table, w_u = u._panel_table
    window = np.arange(_NEAR + 1)
    out = np.empty(c.shape)
    block = max(1, _BLOCK_POINTS // y_far.size)
    for start in range(0, c.size, block):
        top = c[start:start + block, None]
        # rows k .. k + _NEAR of the padded table: the _NEAR super-panels
        # below the one that holds the limit, then that one
        k = np.searchsorted(bounds, top[:, 0], side="right")
        rows = table[:, k[:, None] + window, None]
        ends = np.minimum(rows[:2], top[:, :, None])
        width = top[:, :, None] - ends
        cubic = _cubic_at(*rows[2:], ends + width * z)
        moments = width[..., 0] ** alpha * (cubic @ lam)
        near = np.add.reduce(moments[0] - moments[1], axis=1)
        far = np.power(top - y_far, alpha - 1.0, out=np.zeros((top.size, y_far.size)),
                       where=y_far < rows[0, :, :1, 0])
        out[start:start + block] = (np.einsum("ij,j->i", far, w_u) + near) / g
    return out


def frac_integral(alpha: float, phi: PhiMap, u, t: float | np.ndarray) -> float | np.ndarray:
    """Fractional integral of order alpha of u at t, weighted by phi.

    ``t`` is one upper limit or an array of them; a scalar gives a
    float, an array an array of the same shape, each element computed
    as the scalar call computes it.  The integrand is the piecewise
    cubic in y = phi(s) through u's values at the nodes of its grid, 4
    nodes per super-panel; a bare callable, or a grid function on
    another map, is first sampled on a grid of ``phi`` with as many
    panels as ``u``'s grid, or ``DEFAULT_PANELS`` (1024).
    """
    if not alpha > 0.0:
        raise DomainError(f"integral order must be positive, got {alpha!r}")
    t_arr = np.asarray(t, dtype=float)
    outside = ~((t_arr >= 0.0) & (t_arr <= 1.0))
    if outside.any():
        raise DomainError(f"t must lie in [0, 1], got {float(t_arr[outside].flat[0])!r}")
    u = _on_map(u, phi)
    values = _integral_y(alpha, u, np.asarray(phi(t_arr), dtype=float).reshape(-1))
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
    u = _on_map(u, phi)
    y0, y1 = phi.image
    y = float(phi(t))
    span = y1 - y0
    reach = _STENCIL_REACH[n]
    h = min(_STEP_FRACTION[n] * span, 0.45 * min(y - y0, y1 - y) / reach)
    if not h > 0.0:
        raise DomainError("stencil does not fit: t too close to an endpoint")

    def F(*ys: float) -> np.ndarray:
        return _integral_y(n - alpha, u, np.array(ys))

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
    u = _on_map(u, phi)
    inner = GridFunction(grid=u.grid, values=_integral_y(beta, u, u.grid.y_nodes))
    ts = np.linspace(0.0, 1.0, 33)
    lhs = frac_integral(alpha, phi, inner, ts)
    rhs = frac_integral(alpha + beta, phi, u, ts)
    return float(np.max(np.abs(lhs - rhs), initial=0.0))
