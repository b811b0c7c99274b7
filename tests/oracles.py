"""Slow, independent reference implementations for the test suite.

Nothing here shares quadrature, kernel or gamma code with the main
modules: closed forms come from textbook identities for the identity
coordinate map, the integral fallback is a plain composite trapezoid
rule at high resolution, maxima are brute-force grid scans, and the
gamma values come from the standard library.  Agreement between these
paths and the library is what the tests lean on.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

__all__ = [
    "ORACLE_RESOLUTION",
    "oracle_power_integral",
    "oracle_frac_integral",
    "oracle_classical_green",
    "oracle_grid_max",
    "oracle_manufactured",
]

# trapezoid point count: ten times the main grid's node budget
ORACLE_RESOLUTION = 100_000


def oracle_power_integral(alpha: float, k: float, t: float) -> float:
    """Closed form of the order-alpha integral of s**k (identity map):

        Gamma(k+1) / Gamma(k+1+alpha) * t**(k+alpha)
    """
    return math.gamma(k + 1.0) / math.gamma(k + 1.0 + alpha) * t ** (k + alpha)


def oracle_frac_integral(alpha: float, u: Callable, t: float,
                         n: int = ORACLE_RESOLUTION) -> float:
    """Trapezoid evaluation of the order-alpha integral, identity map.

    Documented error is below 1e-8 for smooth u and alpha >= 1.5 (the
    kernel's endpoint derivative blow-up limits the plain trapezoid rule
    below that); for smaller orders use the closed forms instead.
    """
    if t == 0.0:
        return 0.0
    s = np.linspace(0.0, t, n + 1)
    if alpha == 1.0:
        kern = np.ones_like(s)
    else:
        kern = np.zeros_like(s)
        np.power(t - s, alpha - 1.0, out=kern, where=(t - s) > 0.0)
    vals = np.asarray(u(s), dtype=float)
    if vals.shape != s.shape:
        vals = np.broadcast_to(vals, s.shape)
    return float(np.trapezoid(kern * vals, s) / math.gamma(alpha))


def oracle_classical_green(t: float, s: float) -> float:
    """Hand-simplified kernel for order 3, identity map, beta = 0:

        [t**2 * (1 - s) - (t - s)**2 * 1_{s <= t}] / 2
    """
    value = t * t * (1.0 - s)
    if s <= t:
        value -= (t - s) ** 2
    return 0.5 * value


def oracle_grid_max(fn: Callable, gridsize: int) -> float:
    """Brute-force maximum of fn over a uniform grid on [0, 1]."""
    if gridsize < 2:
        raise ValueError(f"gridsize must be at least 2, got {gridsize}")
    xs = np.linspace(0.0, 1.0, gridsize)
    try:
        vals = np.asarray(fn(xs), dtype=float)
        if vals.shape != xs.shape:
            vals = np.broadcast_to(vals, xs.shape)
    except (TypeError, ValueError):
        vals = np.array([float(fn(x)) for x in xs])
    return float(np.max(vals))


_QUARTER_PI = math.pi / 4.0
# phi, phi' and phi(t) - phi(0) as configuration text, from the closed
# forms of two catalog maps
_MANUFACTURED_MAPS = {
    "sin_quarter_pi": (lambda t: math.sin(_QUARTER_PI * t),
                       lambda t: _QUARTER_PI * math.cos(_QUARTER_PI * t), "sin(pi*t/4)"),
    "sqrt_half": (lambda t: 0.5 * math.sqrt(1.0 + t), lambda t: 0.25 / math.sqrt(1.0 + t),
                  "(0.5*pow(1+t,0.5) - 0.5)"),
}


def oracle_manufactured(kind: str, alpha: float, beta: float, eta: float,
                        slope: float) -> tuple[Callable[[float], float], str]:
    """An exact solution of the three-point problem and its forcing.

    For D^(alpha,phi) u + f(t, u) = 0, u(0) = u'(0) = 0,
    u'(1) = beta u(eta), take y = phi(t) - phi(0) and
    u*(t) = y**3 + a y**4: it has u*(0) = u*'(0) = 0, and
    a = (beta Se**3 - 3 d1 S1**2) / (4 d1 S1**3 - beta Se**4), with
    S1 = y(1), Se = y(eta) and d1 = phi'(1), gives u*'(1) = beta u*(eta).
    The order-alpha derivative of y**k is
    Gamma(k + 1) / Gamma(k + 1 - alpha) y**(k - alpha), so u* solves the
    problem for f(t, u) = slope sin(u) - k3 y**(3 - alpha)
    - k4 y**(4 - alpha) - slope sin(u*), whose Lipschitz constant in u
    is slope.  Returns u* as a function of one float t and f as
    configuration-expression text.
    """
    phi, dphi, y_text = _MANUFACTURED_MAPS[kind]
    s1, se, d1 = phi(1.0) - phi(0.0), phi(eta) - phi(0.0), dphi(1.0)
    a = (beta * se**3 - 3.0 * d1 * s1**2) / (4.0 * d1 * s1**3 - beta * se**4)
    k3 = 6.0 / math.gamma(4.0 - alpha)
    k4 = 24.0 * a / math.gamma(5.0 - alpha)
    ustar = f"(pow({y_text},3) + ({a!r})*pow({y_text},4))"
    f_expr = (f"{slope!r}*sin(u) - ({k3!r})*pow({y_text},{3.0 - alpha!r})"
              f" - ({k4!r})*pow({y_text},{4.0 - alpha!r}) - {slope!r}*sin({ustar})")

    def exact(t: float) -> float:
        y = phi(t) - phi(0.0)
        return y**3 + a * y**4

    return exact, f_expr
