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

* closed-form moments over its window: the super-panel k that holds
  Y, up to Y, and the _NEAR below it.  A cubic with Taylor
  coefficients b_j at a bound e < Y integrates against the kernel
  over [e, Y] to w**a * sum_j b_j B_j w**j, w = Y - e, with
  B_j = j! / (a (a+1) ... (a+j)), so a super-panel is the difference
  of that sum at its two bounds;
* a fixed Gauss-Legendre rule over the super-panels below the window,
  where (Y - y)**(a-1) is smooth: only their _FAR_POINTS * (k - _NEAR)
  points, the first of the grid's far points.

So the singular kernel needs no special case for a < 1, no step
inverts phi or interpolates u, the error is smooth in Y, and a limit
costs only the far points below it.  The tables behind it are built on
first use: per grid the super-panel bounds and far points; per grid
function the Taylor coefficients at every bound, read as windows, and
the far weights times the cubic; per order Gamma(a) and the B_j.  A
limit gathers its window from the function's one table and scales it
by the order's B_j.  ``frac_integral`` takes one upper limit t or an
array of them; an array is sorted by window, and each row runs the
arithmetic of a one-limit call.

The fractional derivative of order ``a`` is

    (d/dy)**n  applied to the order-(n - a) integral,   n = floor(a) + 1,

realized by central finite differences in y on a small auxiliary
stencil.  It is a verification-side operation with documented looser
accuracy (nothing in the solver differentiates).  Accuracy degrades
near the endpoints, where the stencil must shrink, and a point whose
step would fall below a tenth of its nominal length is refused.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigurationError, DomainError, GridMismatchError, NumericError
from .special import PhiMap, _piecewise_cubic, gamma

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
# 4 nodes carry one cubic): closed-form moments on the window of the
# upper limit (its super-panel and the _NEAR below), a fixed
# Gauss-Legendre rule of _FAR_POINTS on every super-panel below that
_FAR_POINTS = 6
_NEAR = 6

# far points per row block of _integral_y: about 0.5 MiB per float64
# temporary, whatever the number of upper limits
_BLOCK_POINTS = 1 << 16


@lru_cache(maxsize=None)
def _unit_rule(panels: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Breakpoints and two-point Gauss nodes/weights of a graded mesh on [0, 1].

    Breakpoints are 0.5*(2k/m)**2 mirrored about 1/2, so panels shrink
    quadratically toward both endpoints.
    """
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
    return breaks, nodes, weights


def _gauss_rule(points: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre rule on [0, 1], exact up to degree 2 * points - 1.

    Golub-Welsch (Math. Comp. 23, 1969): the nodes are the eigenvalues
    of the Jacobi matrix of the Legendre recurrence, mapped from
    [-1, 1]; the weights are the squared first eigenvector components.
    """
    n = np.arange(1, points)
    off = n / np.sqrt(4.0 * n * n - 1.0)
    nodes, vectors = np.linalg.eigh(np.eye(points) + np.diag(off, 1) + np.diag(off, -1))
    return 0.5 * nodes, vectors[0] ** 2


@lru_cache(maxsize=64)
def _order_constants(alpha: float) -> tuple[float, np.ndarray]:
    """Gamma(alpha) and the moments B_j = j! / (alpha (alpha+1) ... (alpha+j)),
    j = 0..3, shaped to scale the rows b_j of gathered windows; one
    Lanczos sum per order."""
    moments = np.cumprod([1.0 / alpha] + [j / (alpha + j) for j in (1, 2, 3)])
    return gamma(alpha), moments.reshape(4, 1, 1)


@dataclass(frozen=True)
class QuadratureGrid:
    """Fixed quadrature rule on [0, 1] transported through phi.

    ``nodes`` are the abscissae s in (0, 1); ``weights`` live in the
    transformed variable y = phi(s), so sum(weights * v(nodes))
    approximates integral_0^1 phi'(s) v(s) ds.  In particular the
    weights sum to phi(1) - phi(0) exactly up to rounding.  The nodes
    must be strictly ascending, which every consumer of a grid assumes.
    """

    phi: PhiMap
    panels: int
    nodes: np.ndarray
    weights: np.ndarray
    y_nodes: np.ndarray

    def __post_init__(self):
        if not np.all(self.nodes[1:] > self.nodes[:-1]):
            raise ConfigurationError("grid nodes must be strictly ascending")

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

        Returns the interior super-panel bounds, the (lower, upper)
        bounds of every super-panel after _NEAR empty ones at phi(0),
        and the far Gauss-Legendre points and weights in ascending
        order.
        """
        y0, y1 = self.phi.image
        bounds = y0 + (y1 - y0) * _unit_rule(self.panels)[0][0::2]
        lo, hi = bounds[:-1], bounds[1:]
        x, w = _gauss_rule(_FAR_POINTS)
        width = (hi - lo)[:, None]
        y_far = (lo[:, None] + width * x).ravel()
        w_far = (width * w).ravel()
        ends = np.concatenate([np.full((_NEAR, 2), y0), np.column_stack([lo, hi])])
        return bounds[1:-1], ends, y_far, w_far


def build_grid(phi: PhiMap, panels: int = DEFAULT_PANELS) -> QuadratureGrid:
    """Build the graded two-point Gauss grid for a coordinate map."""
    _, ref_nodes, ref_weights = _unit_rule(panels)
    y0, y1 = phi.image
    span = y1 - y0
    y_nodes = y0 + span * ref_nodes
    nodes = phi.inverse(y_nodes)
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
    short gap to 0 or 1).  ``deriv`` is the exact t-derivative of that
    same cubic.  The fractional integral uses another interpolant, the
    cubic in y = phi(s) on each super-panel.
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

        Stencil k (nodes k..k+3) serves queries from xs[k+1] up to
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
        out = _piecewise_cubic(self._cubics, t)
        return float(out) if np.ndim(t) == 0 else out

    def deriv(self, t):
        """The t-derivative of the cubic that ``__call__`` evaluates at t;
        a scalar gives a float, an array an array of the same shape."""
        out = _piecewise_cubic(self._cubics, t, deriv=True)
        return float(out) if np.ndim(t) == 0 else out

    @cached_property
    def _panel_table(self) -> tuple[np.ndarray, np.ndarray]:
        """The cubic in y through the 4 nodes of each super-panel.

        Returns windows of _NEAR + 1 super-panels, shape (5, super-panels,
        2 * (_NEAR + 1)), window k ending at super-panel k, and the far
        weights times the cubics at the far points.  After _NEAR empty
        super-panels at phi(0), each super-panel has a column at its lower
        and its upper bound e: rows e and the Taylor coefficients b_0..b_3
        of the cubic sum_j b_j (y - e)**j, negated at the upper bound.
        """
        _, ends, y_far, w_far = self.grid._super_panels
        xs = self.grid.y_nodes.reshape(-1, 4)
        vs = self.values.reshape(-1, 4)
        d1 = np.diff(vs, axis=1) / np.diff(xs, axis=1)
        d2 = (d1[:, 1:] - d1[:, :-1]) / (xs[:, 2:] - xs[:, :-2])
        d3 = (d2[:, 1:] - d2[:, :1]) / (xs[:, 3:] - xs[:, :1])
        # the Newton form v0 + (y-x0)(d1 + (y-x1)(d2 + (y-x2) d3)),
        # once at the far points and once expanded in powers of y - e
        newton = [(xs[:, k:k + 1], c[:, :1]) for k, c in enumerate((vs, d1, d2))]
        y = y_far.reshape(xs.shape[0], -1)
        cubic, taylor = d3, [d3]
        for x, c in reversed(newton):
            cubic = c + (y - x) * cubic
            s = ends[_NEAR:] - x
            taylor = ([c + s * taylor[0]]
                      + [a + s * b for a, b in zip(taylor, taylor[1:])] + taylor[-1:])
        taylor = np.stack(np.broadcast_arrays(*taylor)) * [1.0, -1.0]
        table = np.concatenate([ends[None], np.pad(taylor, ((0, 0), (_NEAR, 0), (0, 0)))])
        windows = sliding_window_view(table.reshape(5, -1), 2 * (_NEAR + 1), axis=1)[:, ::2]
        return windows, w_far * cubic.ravel()


def _check_on_map(u, phi: PhiMap) -> None:
    """Refuse u unless it is a grid function on a grid of this very map."""
    if not (isinstance(u, GridFunction) and u.grid.phi is phi):
        raise ConfigurationError("u must be a GridFunction on a grid of phi itself; sample a "
                                 "callable with GridFunction.sample(build_grid(phi, panels), fn)")


def _integral_y(alpha: float, u: GridFunction, c: np.ndarray) -> np.ndarray:
    """Order-alpha integrals of u's panel cubics at the limits c in y.

    ``c`` is a 1-D array in [phi(0), phi(1)].  A limit in super-panel k
    integrates its window, k and the _NEAR super-panels below, exactly
    by closed-form moments at their bounds, and sums by the fixed
    Gauss-Legendre rule only the _FAR_POINTS * (k - _NEAR) far points
    below the window.  The limits are sorted by window; the windows go
    in row blocks, the far sums one window at a time in row blocks of
    about ``_BLOCK_POINTS`` points.  Each row runs the arithmetic of a
    one-limit call, whatever its block.  The far sum is numpy's own
    pairwise reduction, not a BLAS product, so results do not depend
    on the BLAS thread count.
    """
    g, moments = _order_constants(alpha)
    bounds, _, y_far, _ = u.grid._super_panels
    windows, w_u = u._panel_table
    # k, the super-panel that holds each limit, names its window
    k = np.searchsorted(bounds, c, side="right")
    # sorted by window, the limits that share one form a run
    order, starts = None, [0]
    if c.size != 1:
        order = np.argsort(k)
        c, k = c[order], k[order]
        starts = np.flatnonzero(np.diff(k, prepend=-1)).tolist()
    near = np.empty(c.shape)
    # a gathered window holds 5 rows of 2 * (_NEAR + 1) floats
    block = _BLOCK_POINTS // windows[:, 0].size
    for start in range(0, c.size, block):
        top = c[start:start + block, None]
        # the gather is a fresh array: scale its b_j by the B_j in place
        gathered = windows[:, k[start:start + block]]
        gathered[1:] *= moments
        ends, b0, b1, b2, b3 = gathered
        # a bound above the limit gives z = 0
        z = top - np.minimum(ends, top)
        near[start:start + block] = np.add.reduce(
            z**alpha * (b0 + z * (b1 + z * (b2 + z * b3))), axis=1)
    far_sum = np.empty(c.shape)
    for lo, hi in zip(starts, [*starts[1:], c.size]):
        far = _FAR_POINTS * max(int(k[lo]) - _NEAR, 0)
        y, w = y_far[:far], w_u[:far]
        block = max(1, _BLOCK_POINTS // max(far, 1))
        for start in range(lo, hi, block):
            end = min(start + block, hi)
            terms = c[start:end, None] - y
            np.power(terms, alpha - 1.0, out=terms)
            terms *= w
            np.add.reduce(terms, axis=1, out=far_sum[start:end])
    values = (far_sum + near) / g
    if order is not None:
        values[order] = values.copy()
    return values


def frac_integral(alpha: float, phi: PhiMap, u, t: float | np.ndarray) -> float | np.ndarray:
    """Fractional integral of order alpha of u at t, weighted by phi.

    ``t`` is one upper limit or an array of them; a scalar gives a
    float, an array an array of the same shape, each element computed
    as the scalar call computes it.  The integrand is the piecewise
    cubic in y = phi(s) through u's values at the nodes of its grid, 4
    nodes per super-panel.  ``u`` must be a grid function on a grid of
    ``phi`` itself; anything else raises ConfigurationError, and a
    callable is integrated as ``GridFunction.sample(build_grid(phi, n), fn)``.
    """
    if not alpha > 0.0:
        raise DomainError(f"integral order must be positive, got {alpha!r}")
    # one float inside [0, 1] passes on Python comparisons, which NaN fails
    if isinstance(t, float) and 0.0 <= t <= 1.0:
        shape, flat = (), np.array([t])
    else:
        t_arr = np.asarray(t, dtype=float)
        shape, flat = t_arr.shape, t_arr.reshape(-1)
        outside = ~((flat >= 0.0) & (flat <= 1.0))
        if outside.any():
            raise DomainError(f"t must lie in [0, 1], got {float(flat[outside][0])!r}")
    _check_on_map(u, phi)
    values = _integral_y(alpha, u, phi(flat))
    return values.reshape(shape) if shape else float(values[0])


# the central difference of order n: its nominal step as a share of
# phi(1) - phi(0), the offsets o of its points y + o*h (the first is the
# reach), their weights, and the divisor of the weighted sum; h * h,
# not h**2, which differs from it in the last bit now and then
_STENCILS = {
    1: (1e-3, (1.0, -1.0), (1.0, -1.0), lambda h: 2.0 * h),
    2: (3e-3, (1.0, 0.0, -1.0), (1.0, -2.0, 1.0), lambda h: h * h),
    3: (5e-3, (2.0, 1.0, -1.0, -2.0), (1.0, -2.0, 2.0, -1.0), lambda h: 2.0 * h**3),
}
# the shortest step frac_derivative takes, as a share of the nominal one
_MIN_STEP_SHARE = 0.1


def frac_derivative(alpha: float, phi: PhiMap, u, t: float) -> float:
    """Fractional derivative of order alpha of u at an interior point.

    Applies the n-th central difference in y = phi(t) to the
    order-(n - alpha) integral, n = floor(alpha) + 1 <= 3.  The step is
    the stencil's share (``_STENCILS``) of phi(1) - phi(0), shortened so
    the stencil stays inside the image of phi; accuracy degrades as it
    shrinks, and a point that would need less than ``_MIN_STEP_SHARE``
    (a tenth) of that nominal step is rejected with DomainError, since
    there the result is rounding noise.
    """
    if not alpha > 0.0:
        raise DomainError(f"derivative order must be positive, got {alpha!r}")
    n = int(math.floor(alpha)) + 1
    if n > 3:
        raise DomainError(f"derivative order must satisfy floor(alpha)+1 <= 3, got {alpha!r}")
    if np.ndim(t) != 0 or not 0.0 < t < 1.0:
        raise DomainError(f"t must be one point strictly inside (0, 1), got {t!r}")
    _check_on_map(u, phi)
    y0, y1 = phi.image
    y = phi(t)
    share, offsets, weights, divisor = _STENCILS[n]
    nominal = share * (y1 - y0)
    h = min(nominal, 0.45 * min(y - y0, y1 - y) / offsets[0])
    # on a shorter step rounding swamps the difference quotient
    if not h >= _MIN_STEP_SHARE * nominal:
        raise DomainError("stencil does not fit: t too close to an endpoint")
    f = _integral_y(n - alpha, u, np.array([y + o * h for o in offsets]))
    return float(sum(w * v for w, v in zip(weights, f)) / divisor(h))


def semigroup_defect(alpha: float, beta: float, phi: PhiMap, u) -> float:
    """Max gap between the iterated and the combined fractional integral.

    Computes max over 33 uniform points t of [0, 1] of
    ``|I^alpha(I^beta u)(t) - I^(alpha+beta) u(t)|``, which tests code
    and quadrature quality at once: the law is exact in exact
    arithmetic.
    """
    if not (alpha > 0.0 and beta > 0.0):
        raise DomainError("semigroup orders must be positive")
    _check_on_map(u, phi)
    inner = GridFunction(grid=u.grid, values=_integral_y(beta, u, u.grid.y_nodes))
    ts = np.linspace(0.0, 1.0, 33)
    lhs = frac_integral(alpha, phi, inner, ts)
    rhs = frac_integral(alpha + beta, phi, u, ts)
    return float(np.max(np.abs(lhs - rhs), initial=0.0))
