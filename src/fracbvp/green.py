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
branches, kept in ``green_branch`` for comparison.  mu must be
nonzero for the kernel to exist; whenever

    beta < (alpha-1) * phi'(1) * S1**(alpha-2) / Se**(alpha-1)

the kernel is positive on the open square and dominated by

    (alpha-1) * phi'(1) * (phi(1) - phi(s))**(alpha-2) / (mu * Gamma(alpha)).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DomainError
from .special import PhiMap, gamma

__all__ = [
    "BvpParams",
    "GreenKernel",
    "mu",
    "beta_bound",
    "build_kernel",
    "green",
    "green_values",
    "green_branch",
    "green_max_bound",
    "seam_gap",
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
        if not self.beta >= 0.0:
            raise ConfigurationError(f"beta must be nonnegative, got {self.beta!r}")
        if not 0.0 < self.eta <= 1.0:
            raise ConfigurationError(f"eta must lie in (0, 1], got {self.eta!r}")


def _pow_pos(base, exponent: float):
    """base**exponent with nonpositive bases short-circuited to 0.

    Exponents here are always positive, so this matches the continuous
    extension of the kernel pieces.
    """
    arr = np.asarray(base, dtype=float)
    out = np.zeros_like(arr)
    positive = arr > 0.0
    np.power(arr, exponent, out=out, where=positive)
    return out


def mu(params: BvpParams) -> float:
    """Boundary-condition determinant of the problem."""
    phi = params.phi
    s1 = float(phi.shifted(1.0))
    se = float(phi.shifted(params.eta))
    d1 = float(phi.deriv(1.0))
    return (params.alpha - 1.0) * d1 * s1 ** (params.alpha - 2.0) \
        - params.beta * se ** (params.alpha - 1.0)


def beta_bound(alpha: float, eta: float, phi: PhiMap) -> float:
    """Strict upper bound on beta for kernel positivity."""
    s1 = float(phi.shifted(1.0))
    se = float(phi.shifted(eta))
    d1 = float(phi.deriv(1.0))
    return (alpha - 1.0) * d1 * s1 ** (alpha - 2.0) / se ** (alpha - 1.0)


@dataclass(frozen=True)
class GreenKernel:
    """Precomputed constants of the kernel formula for one problem."""

    params: BvpParams
    mu: float
    shifted_one: float
    deriv_one: float
    phi_zero: float
    phi_eta: float
    gamma_alpha: float

    @property
    def scale(self) -> float:
        """mu * Gamma(alpha), the denominator of the kernel formula."""
        return self.mu * self.gamma_alpha


def build_kernel(params: BvpParams) -> GreenKernel:
    phi = params.phi
    return GreenKernel(
        params=params,
        mu=mu(params),
        shifted_one=float(phi.shifted(1.0)),
        deriv_one=float(phi.deriv(1.0)),
        phi_zero=float(phi(0.0)),
        phi_eta=float(phi(params.eta)),
        gamma_alpha=gamma(params.alpha),
    )


def _separable(kernel: GreenKernel, y_t, y_s):
    """The separable factors of the kernel formula at phi-values y_t, y_s:
    head(t) and the two parts of the tail full(s) - eta_part(s)."""
    p = kernel.params
    head = _pow_pos(y_t - kernel.phi_zero, p.alpha - 1.0)
    full = (p.alpha - 1.0) * kernel.deriv_one * _pow_pos(p.phi.image[1] - y_s, p.alpha - 2.0)
    eta_part = p.beta * _pow_pos(kernel.phi_eta - y_s, p.alpha - 1.0)
    return head, full, eta_part


def _memory(kernel: GreenKernel, y_t, y_s):
    """The memory term mu * (y_t - y_s)_+**(alpha-1) at broadcast
    phi-values; 0 wherever y_s >= y_t."""
    return kernel.mu * _pow_pos(y_t - y_s, kernel.params.alpha - 1.0)


def _phi_values(kernel: GreenKernel, t, s):
    """phi at t and at s, each evaluated before any broadcasting."""
    phi = kernel.params.phi
    return np.asarray(phi(t), dtype=float), np.asarray(phi(s), dtype=float)


def green_branch(kernel: GreenKernel, t, s, branch: int):
    """Evaluate one raw branch formula everywhere (no region masking).

    Used to compare adjacent branches at their seams; branch is 1 for
    s <= min(eta, t), 2 for t <= s <= eta, 3 for eta <= s <= t and 4
    for the remaining region.
    """
    if kernel.mu == 0.0:
        raise ConfigurationError("kernel requires mu != 0")
    y_t, y_s = _phi_values(kernel, t, s)
    head, full, eta_part = _separable(kernel, y_t, y_s)
    memory = _memory(kernel, y_t, y_s)
    if branch == 1:
        raw = head * (full - eta_part) - memory
    elif branch == 2:
        raw = head * (full - eta_part)
    elif branch == 3:
        raw = head * full - memory
    elif branch == 4:
        raw = head * full
    else:
        raise ConfigurationError(f"branch must be 1..4, got {branch!r}")
    out = raw / kernel.scale
    return float(out) if (np.ndim(t) == 0 and np.ndim(s) == 0) else out


def green_values(kernel: GreenKernel, t, s):
    """Kernel values at broadcast t, s in [0, 1], by the single formula.

    Outside its own region each positive part is 0, so the formula
    reproduces all four of the paper's branches.
    """
    if kernel.mu == 0.0:
        raise ConfigurationError("kernel requires mu != 0")
    y_t, y_s = _phi_values(kernel, np.asarray(t, dtype=float), np.asarray(s, dtype=float))
    head, full, eta_part = _separable(kernel, y_t, y_s)
    return (head * (full - eta_part) - _memory(kernel, y_t, y_s)) / kernel.scale


def green(kernel: GreenKernel, t: float, s: float) -> float:
    """Kernel value at a single point of [0, 1] x [0, 1]."""
    if not (0.0 <= t <= 1.0 and 0.0 <= s <= 1.0):
        raise DomainError(f"(t, s) must lie in the unit square, got ({t!r}, {s!r})")
    return float(green_values(kernel, t, s))


def green_max_bound(kernel: GreenKernel, s: float):
    """Upper bound on max over t of G(t, s), as a function of s."""
    if kernel.mu == 0.0:
        raise ConfigurationError("kernel requires mu != 0")
    s_arr = np.asarray(s, dtype=float)
    if np.any(s_arr < 0.0) or np.any(s_arr > 1.0):
        raise DomainError("s must lie in [0, 1]")
    y_s = np.asarray(kernel.params.phi(s_arr), dtype=float)
    out = _separable(kernel, y_s, y_s)[1] / kernel.scale
    return float(out) if np.ndim(s) == 0 else out


def seam_gap(kernel: GreenKernel, t_values) -> float:
    """Worst absolute mismatch between adjacent branch formulas at seams.

    At s = t the applicable branch pair differs by the memory term,
    which vanishes there; at s = eta the pair differs by the eta term,
    which also vanishes.  The returned gap is therefore pure rounding.
    """
    ts = np.asarray(t_values, dtype=float)
    eta = kernel.params.eta
    worst = 0.0
    below = ts[ts <= eta]
    above = ts[ts >= eta]
    if below.size:
        worst = max(worst, float(np.max(np.abs(
            green_branch(kernel, below, below, 1) - green_branch(kernel, below, below, 2)))))
        worst = max(worst, float(np.max(np.abs(
            green_branch(kernel, below, np.full_like(below, eta), 2)
            - green_branch(kernel, below, np.full_like(below, eta), 4)))))
    if above.size:
        worst = max(worst, float(np.max(np.abs(
            green_branch(kernel, above, above, 3) - green_branch(kernel, above, above, 4)))))
        worst = max(worst, float(np.max(np.abs(
            green_branch(kernel, above, np.full_like(above, eta), 1)
            - green_branch(kernel, above, np.full_like(above, eta), 3)))))
    return worst


@dataclass(frozen=True)
class KernelPropertyReport:
    """Sampled kernel checks, keeping hypothesis failures distinct from
    property failures."""

    gridsize: int
    mu: float
    beta_bound: float
    hypothesis_ok: bool
    positivity_ok: bool
    min_value: float
    seam_ok: bool
    max_seam_gap_rel: float
    bound_ok: bool
    max_bound_excess: float

    @property
    def properties_ok(self) -> bool:
        return self.positivity_ok and self.seam_ok and self.bound_ok

    @property
    def passed(self) -> bool:
        return self.hypothesis_ok and self.properties_ok


def check_kernel_properties(kernel: GreenKernel, gridsize: int = 200) -> KernelPropertyReport:
    """Sample the kernel on the interior grid {k/(n+1)} and check
    positivity, seam continuity and the max bound.

    Failures are reported, never raised; when beta sits at or above its
    bound the report flags the violated hypothesis so a property
    failure outside the guaranteed regime is not mistaken for a bug.
    """
    if gridsize < 2:
        raise ConfigurationError("gridsize must be at least 2")
    p = kernel.params
    bound = beta_bound(p.alpha, p.eta, p.phi)
    hypothesis_ok = p.beta < bound and kernel.mu > 0.0

    pts = np.arange(1, gridsize + 1) / (gridsize + 1.0)
    values = green_values(kernel, pts[:, None], pts[None, :])
    min_value = float(np.min(values))
    positivity_ok = bool(min_value > 0.0)

    scale = float(np.max(np.abs(values)))
    scale = scale if scale > 0.0 else 1.0
    gap = seam_gap(kernel, pts)
    max_seam_gap_rel = gap / scale
    seam_ok = bool(max_seam_gap_rel <= 1e-8)

    bounds = green_max_bound(kernel, pts)
    excess = float(np.max(values - bounds[None, :]))
    bound_ok = bool(excess <= 1e-12)

    return KernelPropertyReport(
        gridsize=gridsize,
        mu=kernel.mu,
        beta_bound=bound,
        hypothesis_ok=hypothesis_ok,
        positivity_ok=positivity_ok,
        min_value=min_value,
        seam_ok=seam_ok,
        max_seam_gap_rel=max_seam_gap_rel,
        bound_ok=bound_ok,
        max_bound_excess=excess,
    )
