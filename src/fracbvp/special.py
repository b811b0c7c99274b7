"""Gamma function and the catalog of coordinate maps.

Everything downstream is built on a strictly increasing coordinate map
``phi`` on [0, 1] with a nonvanishing derivative.  A :class:`PhiMap`
bundles the map, its derivative and its inverse under one contract: a
float gives a float, an array an array whose elements equal the float
calls.  ``gamma`` is a plain function.  All objects here are immutable
and safe to share between threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigurationError, DomainError

__all__ = ["gamma", "PhiMap", "phi_catalog", "PHI_KINDS"]

# Lanczos approximation with g = 7 and 9 coefficients.  Against
# math.gamma it is within about 1e-14 relative up to x = 30, growing to
# 1e-13 at the overflow point, inside the 1e-13 budget; no external
# gamma implementation is used so behaviour is fully pinned by this
# table.  Gamma(171.625) is past the largest float.
_LANCZOS_G = 7.0
_GAMMA_MAX = 171.62
_LANCZOS = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)


def gamma(x: float) -> float:
    """Gamma(x) for real x > 0.

    Satisfies ``gamma(n) == (n-1)!`` to 1e-12 relative for small integer
    n and the recurrence ``gamma(x+1) == x*gamma(x)`` to the same level.

    Raises :class:`DomainError` for x <= 0 (poles are out of scope) and
    above about 171.62, where Gamma(x) exceeds the largest float.
    """
    x = float(x)
    if not 0.0 < x <= _GAMMA_MAX:
        raise DomainError(f"gamma requires 0 < x <= {_GAMMA_MAX}, got {x!r}")
    if x < 0.5:
        # reflection keeps the Lanczos sum in its accurate range
        return math.pi / (math.sin(math.pi * x) * gamma(1.0 - x))
    z = x - 1.0
    acc = _LANCZOS[0]
    for k in range(1, len(_LANCZOS)):
        acc += _LANCZOS[k] / (z + k)
    t = z + _LANCZOS_G + 0.5
    if x < 100.0:
        return math.sqrt(2.0 * math.pi) * t ** (z + 0.5) * math.exp(-t) * acc
    # t**(z + 0.5) alone overflows from x = 143 on: split it around exp(-t)
    half = t ** (0.5 * (z + 0.5))
    return math.sqrt(2.0 * math.pi) * half * math.exp(-t) * half * acc


def _as_float(fn: Callable, x):
    """fn on x as a float array: a Python float for a 0-d argument."""
    x = np.asarray(x, dtype=float)
    out = np.asarray(fn(x), dtype=float)
    return out if x.ndim else float(out)


@dataclass(frozen=True, eq=False)
class PhiMap:
    """Strictly increasing coordinate map on [0, 1].

    The map, ``deriv`` and ``inverse`` (defined on [phi(0), phi(1)])
    give a float for a float and, for an array, a float array whose
    elements equal the float calls; ``fn``, ``deriv_fn`` and
    ``inverse_fn`` see and return float arrays only.  Maps compare by
    identity, and a grid function integrates only against the map its
    grid was built from.
    """

    kind: str
    fn: Callable
    deriv_fn: Callable
    inverse_fn: Callable

    def __call__(self, t):
        return _as_float(self.fn, t)

    def deriv(self, t):
        return _as_float(self.deriv_fn, t)

    def inverse(self, y):
        """phi^-1(y) for y in [phi(0), phi(1)].

        Arguments within ``1e-9 * span`` of the image interval are
        clipped onto it; anything further out, or NaN, raises
        :class:`DomainError`.  Every kind's ``inverse_fn`` therefore
        sees only arguments inside the image interval.
        """
        lo, hi = self.image
        slack = 1e-9 * (hi - lo)
        y_arr = np.asarray(y, dtype=float)
        low = y_arr.min(initial=np.inf)
        high = y_arr.max(initial=-np.inf)
        # NaN fails both comparisons
        if not (lo - slack <= low and high <= hi + slack):
            raise DomainError("inverse argument outside the image interval")
        if low < lo or high > hi:
            y_arr = np.clip(y_arr, lo, hi)
        return _as_float(self.inverse_fn, y_arr)

    @cached_property
    def image(self) -> tuple[float, float]:
        """The image interval (phi(0), phi(1)), computed once per map."""
        return self(0.0), self(1.0)


def _piecewise_cubic(pieces: tuple[np.ndarray, ...], t, deriv: bool = False) -> np.ndarray:
    """The piecewise cubic ``pieces`` = (breaks, centres, c0, c1, c2, c3),
    or its derivative, at t: piece k, c0 + z*(c1 + z*(c2 + z*c3)) with
    z = t - centres[k], serves breaks[k-1] <= t < breaks[k], end pieces beyond."""
    breaks, centres, c0, c1, c2, c3 = pieces
    t = np.asarray(t, dtype=float)
    k = np.searchsorted(breaks, t, side="right")
    z = t - centres[k]
    if deriv:
        return c1[k] + z * (2.0 * c2[k] + 3.0 * z * c3[k])
    return c0[k] + z * (c1[k] + z * (c2[k] + z * c3[k]))


def _bisect_newton_inverse(fn, deriv_fn, y, seed_table):
    """Invert a strictly increasing map on [0, 1] by bisection plus Newton.

    Vectorized over the float array ``y``, which must lie in
    [fn(0), fn(1)].  ``seed_table`` is a precomputed (abscissae, values)
    pair that starts every root from a tight bracket; a few bisections
    shrink it well below 1e-12 and safeguarded Newton steps sharpen the
    result to rounding level.  The root always stays bracketed, so the
    seeding cannot change which value is found.
    """
    ts_tab, ys_tab = seed_table
    idx = np.clip(np.searchsorted(ys_tab, y), 1, ys_tab.size - 1)
    a = ts_tab[idx - 1].copy()
    b = ts_tab[idx].copy()
    for _ in range(8):
        m = 0.5 * (a + b)
        below = fn(m) < y
        a = np.where(below, m, a)
        b = np.where(below, b, m)
    # Newton with bisection fallback; every evaluation tightens the
    # bracket, so a rejected step still halves the interval.  Steps are
    # accepted within one bracket-width of the bracket (roots sitting
    # exactly on an edge make Newton overshoot by rounding) and clamped
    # to the domain.
    x = 0.5 * (a + b)
    for _ in range(6):
        fx = fn(x) - y
        negative = fx < 0.0
        a = np.where(negative, x, a)
        b = np.where(negative, b, x)
        d = deriv_fn(x)
        step = np.where(d > 0.0, fx / np.where(d > 0.0, d, 1.0), 0.0)
        xn = np.clip(x - step, 0.0, 1.0)
        width = b - a
        inside = (xn >= a - width) & (xn <= b + width)
        x = np.where(inside, xn, 0.5 * (a + b))
    return x


def _monotone_cubic_coefficients(ts: np.ndarray, vs: np.ndarray):
    """Shape-preserving cubic slopes and local coefficients.

    Interior slopes are the weighted harmonic means classically used for
    monotone piecewise-cubic interpolation; endpoint slopes use the
    one-sided three-point formula, or delta where it is not positive.
    Increasing values make both deltas positive, so the formula stays
    below 2*delta: endpoint slopes lie in (0, 2*delta), and the
    interpolant stays strictly increasing up to the boundary.
    """
    h = np.diff(ts)
    delta = np.diff(vs) / h
    n = ts.size
    d = np.empty(n)
    w1 = 2.0 * h[1:] + h[:-1]
    w2 = h[1:] + 2.0 * h[:-1]
    d[1:-1] = (w1 + w2) / (w1 / delta[:-1] + w2 / delta[1:])

    def _edge(h0, h1, d0, d1):
        s = ((2.0 * h0 + h1) * d0 - h0 * d1) / (h0 + h1)
        return d0 if s <= 0.0 else s

    d[0] = _edge(h[0], h[1], delta[0], delta[1])
    d[-1] = _edge(h[-1], h[-2], delta[-1], delta[-2])

    # local form v + s*(d + s*(c + s*b)) with s = t - ts[i]; exactly
    # linear data yields c = b = 0, so such tables reproduce their
    # generating line bit for bit
    c = (3.0 * delta - 2.0 * d[:-1] - d[1:]) / h
    b = (d[:-1] + d[1:] - 2.0 * delta) / (h * h)
    return d, c, b


def _table_map(samples) -> PhiMap:
    arr = np.asarray(samples, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ConfigurationError("table samples must be (n, 2) rows of (t, phi(t))")
    if arr.shape[0] < 4:
        raise ConfigurationError("phi table needs at least 4 points")
    ts = arr[:, 0]
    vs = arr[:, 1]
    if np.any(~np.isfinite(ts)) or np.any(~np.isfinite(vs)):
        raise ConfigurationError("phi table contains non-finite entries")
    if np.any(np.diff(ts) <= 0.0):
        raise ConfigurationError("phi table abscissae must be strictly increasing")
    if np.any(np.diff(vs) <= 0.0):
        raise ConfigurationError("phi table values must be strictly increasing (non-monotone table rejected)")
    if abs(ts[0]) > 1e-12 or abs(ts[-1] - 1.0) > 1e-12:
        raise ConfigurationError("phi table must cover [0, 1]")
    if vs[0] < -1e-12 or vs[-1] > 1.0 + 1e-12:
        raise ConfigurationError("phi table values must stay inside [0, 1]")

    ts = ts.copy()
    ts[0], ts[-1] = 0.0, 1.0
    vs = vs.copy()
    d, c, b = _monotone_cubic_coefficients(ts, vs)
    pieces = (ts[1:-1], ts[:-1], vs[:-1], d[:-1], c, b)

    def fn(t):
        return _piecewise_cubic(pieces, t)

    def deriv_fn(t):
        return _piecewise_cubic(pieces, t, deriv=True)

    seed_ts = np.linspace(0.0, 1.0, 4097)
    seed_table = (seed_ts, fn(seed_ts))

    def inverse_fn(y):
        return _bisect_newton_inverse(fn, deriv_fn, y, seed_table)

    return PhiMap(kind="table", fn=fn, deriv_fn=deriv_fn, inverse_fn=inverse_fn)


_Q = math.pi / 4.0

# (phi, phi', phi^-1) of each closed-form kind, on float arrays
_CLOSED_FORMS = {
    "identity": (lambda t: np.multiply(t, 1.0), lambda t: np.multiply(t, 0.0) + 1.0,
                 lambda y: np.multiply(y, 1.0)),
    "sin_quarter_pi": (lambda t: np.sin(_Q * t), lambda t: _Q * np.cos(_Q * t),
                       lambda y: np.arcsin(y) / _Q),
    "sqrt_half": (lambda t: 0.5 * np.sqrt(1.0 + t), lambda t: 0.25 / np.sqrt(1.0 + t),
                  lambda y: 4.0 * np.square(y) - 1.0),
}

PHI_KINDS = (*_CLOSED_FORMS, "table")


def phi_catalog(kind: str, samples: Sequence | None = None) -> PhiMap:
    """Return a coordinate map from the catalog.

    ``identity`` is phi(t) = t, ``sin_quarter_pi`` is sin(pi*t/4),
    ``sqrt_half`` is sqrt(1+t)/2, and ``table`` builds a strictly
    monotone piecewise-cubic interpolant from user samples (rows of
    (t, phi(t)) covering [0, 1]).  Inverses are closed forms for
    identity, sin_quarter_pi ((4/pi)*arcsin) and sqrt_half, and a seeded
    safeguarded bisection+Newton for tables.
    """
    if kind in _CLOSED_FORMS:
        return PhiMap(kind, *_CLOSED_FORMS[kind])
    if kind == "table":
        if samples is None:
            raise ConfigurationError("phi kind 'table' requires samples")
        return _table_map(samples)
    raise ConfigurationError(f"unknown phi kind {kind!r} (expected one of {PHI_KINDS})")
