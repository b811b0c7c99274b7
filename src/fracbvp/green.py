"""Green's function of the three-point fractional boundary value problem.

For order ``alpha`` in (2, 3], boundary data u(0) = u'(0) = 0 and
u'(1) = beta * u(eta), the kernel is the single positive-part formula

    G(t, s) = [head(t) * (full(s) - eta_part(s))
               - mu * (phi(t) - phi(s))_+**(alpha-1)] / (mu * Gamma(alpha))

with head(t) = (phi(t) - phi(0))**(alpha-1), full(s) = (alpha-1) *
phi'(1) * (phi(1) - phi(s))**(alpha-2), eta_part(s) = beta *
(phi(eta) - phi(s))_+**(alpha-1) and

    mu = (alpha-1) * phi'(1) * S1**(alpha-2) - beta * Se**(alpha-1),

S1 = phi(1) - phi(0), Se = phi(eta) - phi(0).  Dropping the positive
parts that vanish in each (t, s) region gives the paper's four
branches; adjacent branches differ by a positive part that is exactly 0
on their common seam, so continuity across the seams is structural.
``build_kernel`` evaluates phi(0), phi(eta), phi(1) and phi'(1) once
and derives mu and the beta bound from them; a kernel with mu = 0 does
not exist and is refused.  Whenever

    beta < (alpha-1) * phi'(1) * S1**(alpha-2) / Se**(alpha-1)

the kernel is positive on the open square and dominated by

    (alpha-1) * phi'(1) * (phi(1) - phi(s))**(alpha-2) / (mu * Gamma(alpha)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DomainError
from .special import PhiMap, gamma

__all__ = [
    "BvpParams",
    "GreenKernel",
    "build_kernel",
    "green",
    "green_values",
    "green_max_bound",
    "KernelPropertyReport",
    "check_kernel_properties",
]


@dataclass(frozen=True)
class BvpParams:
    """Problem parameters: order, boundary weight, interior point, map."""

    alpha: float
    beta: float
    eta: float
    phi: PhiMap

    def __post_init__(self):
        if not 2.0 < self.alpha <= 3.0:
            raise ConfigurationError(f"alpha must lie in (2, 3], got {self.alpha!r}")
        if not (self.beta >= 0.0 and math.isfinite(self.beta)):
            raise ConfigurationError(f"beta must be finite and nonnegative, got {self.beta!r}")
        if not 0.0 < self.eta <= 1.0:
            raise ConfigurationError(f"eta must lie in (0, 1], got {self.eta!r}")


def _pow_pos(base, exponent: float, out=None):
    """base**exponent with nonpositive (and NaN) bases short-circuited to
    +0, written into ``out`` when given; out may be base itself.

    Exponents here are always positive, so this matches the continuous
    extension of the kernel pieces.
    """
    arr = np.asarray(base, dtype=float)
    positive = arr > 0.0
    out = np.zeros_like(arr) if out is None else out
    np.copyto(out, 0.0, where=~positive)
    np.power(arr, exponent, out=out, where=positive)
    return out


@dataclass(frozen=True)
class GreenKernel:
    """Precomputed constants of the kernel formula for one problem, with
    ``beta_bound`` the strict upper bound on beta for positivity; mu = 0
    is refused."""

    params: BvpParams
    mu: float
    shifted_one: float
    deriv_one: float
    phi_zero: float
    phi_eta: float
    gamma_alpha: float
    beta_bound: float

    def __post_init__(self):
        if self.mu == 0.0:
            raise ConfigurationError("kernel requires mu != 0")

    @property
    def scale(self) -> float:
        """mu * Gamma(alpha), the denominator of the kernel formula."""
        return self.mu * self.gamma_alpha

    @property
    def uniqueness_threshold(self) -> float:
        """The bound that the uniqueness certificate sets on sup g:
        mu Gamma(alpha) / (sqrt 2 phi'(1) (phi(1) - phi(0))**(alpha - 1))."""
        denominator = math.sqrt(2.0) * self.shifted_one ** (self.params.alpha - 1.0) * self.deriv_one
        if not denominator > 0.0:
            raise ConfigurationError(
                "uniqueness threshold: phi'(1) * (phi(1) - phi(0))**(alpha - 1) underflows to 0; "
                "rescale phi")
        return self.scale / denominator


def build_kernel(params: BvpParams) -> GreenKernel:
    """The kernel of params, with mu and the strict upper bound on beta
    for positivity; ConfigurationError when mu = 0."""
    p = params
    phi_zero, phi_one = p.phi.image
    phi_eta = p.phi(p.eta)
    deriv_one = p.phi.deriv(1.0)
    s1 = phi_one - phi_zero
    se = phi_eta - phi_zero
    lead = (p.alpha - 1.0) * deriv_one * s1 ** (p.alpha - 2.0)
    # Se**(alpha-1) underflows to 0 for eta within about 1e-200 of 0
    se_pow = se ** (p.alpha - 1.0)
    return GreenKernel(
        params=params,
        mu=lead - p.beta * se_pow,
        shifted_one=s1,
        deriv_one=deriv_one,
        phi_zero=phi_zero,
        phi_eta=phi_eta,
        gamma_alpha=gamma(p.alpha),
        beta_bound=lead / se_pow if se_pow > 0.0 else math.inf,
    )


def _separable(kernel: GreenKernel, y_t, y_s):
    """The separable factors of the kernel formula at phi-values y_t, y_s:
    head(t) and the two parts of the tail full(s) - eta_part(s)."""
    p = kernel.params
    head = _pow_pos(y_t - kernel.phi_zero, p.alpha - 1.0)
    full = (p.alpha - 1.0) * kernel.deriv_one * _pow_pos(p.phi.image[1] - y_s, p.alpha - 2.0)
    eta_part = p.beta * _pow_pos(kernel.phi_eta - y_s, p.alpha - 1.0)
    return head, full, eta_part


def _memory(kernel: GreenKernel, y_t, y_s, out=None):
    """The memory term mu * (y_t - y_s)_+**(alpha-1) at broadcast
    phi-values; 0 wherever y_s >= y_t.  Given ``out``, every step runs
    in it, and the only temporaries are two boolean masks of its shape."""
    diff = np.subtract(y_t, y_s, out=out)
    return np.multiply(kernel.mu, _pow_pos(diff, kernel.params.alpha - 1.0, out=out), out=out)


def _phi_on_unit(kernel: GreenKernel, x, name: str):
    """phi(x); DomainError unless every x satisfies 0 <= x <= 1, which NaN fails."""
    arr = np.asarray(x, dtype=float)
    if not np.all((arr >= 0.0) & (arr <= 1.0)):
        raise DomainError(f"{name} must lie in [0, 1], got {x!r}")
    return kernel.params.phi(arr)


def green_values(kernel: GreenKernel, t, s):
    """Kernel values at broadcast t, s in [0, 1] (DomainError outside), by
    the single formula.

    Outside its own region each positive part is 0, so the formula
    reproduces all four of the paper's branches.
    """
    y_t, y_s = _phi_on_unit(kernel, t, "t"), _phi_on_unit(kernel, s, "s")
    head, full, eta_part = _separable(kernel, y_t, y_s)
    return (head * (full - eta_part) - _memory(kernel, y_t, y_s)) / kernel.scale


def green(kernel: GreenKernel, t: float, s: float) -> float:
    """Kernel value at a single point of [0, 1] x [0, 1]."""
    return float(green_values(kernel, t, s))


def green_max_bound(kernel: GreenKernel, s: float):
    """Upper bound on max over t of G(t, s), as a function of s."""
    y_s = _phi_on_unit(kernel, s, "s")
    out = _separable(kernel, y_s, y_s)[1] / kernel.scale
    return float(out) if np.ndim(s) == 0 else out


@dataclass(frozen=True)
class KernelPropertyReport:
    """Sampled kernel checks, keeping hypothesis failures distinct from
    property failures.

    Positivity and the max bound are checked numerically.  ``seam_ok``
    is always True: continuity across s = t and s = eta is structural,
    since each positive part of the formula vanishes on its own seam.
    """

    gridsize: int
    mu: float
    beta_bound: float
    hypothesis_ok: bool
    positivity_ok: bool
    min_value: float
    bound_ok: bool
    max_bound_excess: float
    seam_ok: bool = True

    @property
    def properties_ok(self) -> bool:
        return self.positivity_ok and self.bound_ok

    @property
    def passed(self) -> bool:
        return self.hypothesis_ok and self.properties_ok


def check_kernel_properties(kernel: GreenKernel) -> KernelPropertyReport:
    """Sample the kernel on the interior grid {k/(n+1)}, n = 200, and
    check positivity and the max bound.

    Failures are reported, never raised; when beta sits at or above its
    bound the report flags the violated hypothesis so a property
    failure outside the guaranteed regime is not mistaken for a bug.
    """
    hypothesis_ok = kernel.params.beta < kernel.beta_bound and kernel.mu > 0.0

    pts = np.arange(1, 201) / 201.0
    values = green_values(kernel, pts[:, None], pts[None, :])
    min_value = float(np.min(values))
    positivity_ok = bool(min_value > 0.0)

    bounds = green_max_bound(kernel, pts)
    excess = float(np.max(values - bounds[None, :]))
    bound_ok = bool(excess <= 1e-12)

    return KernelPropertyReport(
        gridsize=pts.size,
        mu=kernel.mu,
        beta_bound=kernel.beta_bound,
        hypothesis_ok=hypothesis_ok,
        positivity_ok=positivity_ok,
        min_value=min_value,
        bound_ok=bound_ok,
        max_bound_excess=excess,
    )
