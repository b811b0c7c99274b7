"""Seeded problem generator and exact references, computed without fracbvp.

Everything here uses ``math`` and numpy only.  Beta bounds, certificate
thresholds and exact solutions come from the closed forms of the catalog
maps, so a defect in the library cannot shape its own benchmark inputs.
The library receives only the generated configuration text, phi tables
and arrays.

Manufactured solutions.  For the problem

    D^(alpha,phi) u + f(t, u) = 0,  u(0) = u'(0) = 0,  u'(1) = beta u(eta),

take y = phi(t) - phi(0) and u*(t) = A (y^3 + a y^4).  The order-alpha
derivative of y^k is Gamma(k+1)/Gamma(k+1-alpha) y^(k-alpha), u*(0) and
u*'(0) vanish, and ``a`` is chosen so that u*'(1) = beta u*(eta).  Then
u* solves the problem for f(t, u) = c sin(u) + h(t) with
h = -D^(alpha,phi) u* - c sin(u*), whose Lipschitz constant in u is c.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

# Closed forms of the catalog maps: phi(t), phi'(t), and phi(t) - phi(0)
# as text in the configuration expression grammar.
_Q = math.pi / 4.0
CATALOG = {
    "identity": (lambda t: t, lambda t: 1.0, "t"),
    "sin_quarter_pi": (lambda t: math.sin(_Q * t), lambda t: _Q * math.cos(_Q * t),
                       "sin(pi*t/4)"),
    "sqrt_half": (lambda t: 0.5 * math.sqrt(1.0 + t), lambda t: 0.25 / math.sqrt(1.0 + t),
                  "(0.5*pow(1+t,0.5) - 0.5)"),
}


def table_map(kappa: float):
    """phi(t) = t + kappa t (1 - t): increasing on [0, 1] for |kappa| < 1."""
    return (lambda t: t + kappa * t * (1.0 - t), lambda t: 1.0 + kappa * (1.0 - 2.0 * t))


@dataclass(frozen=True)
class Constants:
    """Kernel constants of one (alpha, beta, eta, phi) from closed forms."""

    beta_bound: float
    threshold: float  # uniqueness certificate: sup g must stay below this
    s1: float
    se: float
    d1: float


def constants(alpha: float, beta: float, eta: float, phi, dphi) -> Constants:
    s1 = phi(1.0) - phi(0.0)
    se = phi(eta) - phi(0.0)
    d1 = dphi(1.0)
    lead = (alpha - 1.0) * d1 * s1 ** (alpha - 2.0)
    mu = lead - beta * se ** (alpha - 1.0)
    threshold = mu * math.gamma(alpha) / (math.sqrt(2.0) * s1 ** (alpha - 1.0) * d1)
    return Constants(beta_bound=lead / se ** (alpha - 1.0), threshold=threshold,
                     s1=s1, se=se, d1=d1)


@dataclass(frozen=True)
class Manufactured:
    """u*(t) = amp (y^3 + a y^4) and the config text of its forcing."""

    amp: float
    a: float
    y_of_t: object  # callable t -> phi(t) - phi(0), numpy-vectorized
    f_expr: str

    def exact(self, ts: np.ndarray) -> np.ndarray:
        y = self.y_of_t(ts)
        return self.amp * (y**3 + self.a * y**4)


def manufactured(kind: str, alpha: float, beta: float, eta: float, c: float,
                 amp: float) -> Manufactured:
    phi, dphi, y_text = CATALOG[kind]
    k = constants(alpha, beta, eta, phi, dphi)
    # u*'(1) = beta u*(eta):  d1 (3 S1^2 + 4 a S1^3) = beta (Se^3 + a Se^4)
    a = (beta * k.se**3 - 3.0 * k.d1 * k.s1**2) / (4.0 * k.d1 * k.s1**3 - beta * k.se**4)
    k3 = amp * 6.0 / math.gamma(4.0 - alpha)
    k4 = amp * 24.0 * a / math.gamma(5.0 - alpha)
    ustar = f"{amp!r}*(pow({y_text},3) + ({a!r})*pow({y_text},4))"
    f_expr = (f"{c!r}*sin(u) - ({k3!r})*pow({y_text},{3.0 - alpha!r})"
              f" - ({k4!r})*pow({y_text},{4.0 - alpha!r}) - {c!r}*sin({ustar})")
    phi0 = phi(0.0)
    vphi = np.vectorize(phi, otypes=[float])
    return Manufactured(amp=amp, a=a, y_of_t=lambda ts: vphi(ts) - phi0, f_expr=f_expr)


def config_text(alpha, beta, eta, phi_kind, f_expr, mode, grid_size, tol, max_iter,
                g_expr=None, f_domain=None, phi_table=None) -> str:
    lines = [f"alpha = {alpha!r}", f"beta = {beta!r}", f"eta = {eta!r}", f"phi = {phi_kind}"]
    if phi_table is not None:
        lines.append(f"phi.table = {phi_table}")
    lines += ["f = custom-expression", f"f.expr = {f_expr}"]
    if f_domain is not None:
        lines.append(f"f.domain = {f_domain}")
    if g_expr is not None:
        lines += ["g = custom-expression", f"g.expr = {g_expr}"]
    lines += [f"mode = {mode}", f"grid_size = {grid_size}", f"tol = {tol!r}",
              f"max_iter = {max_iter}"]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------- fine

FINE_ALPHA, FINE_BETA, FINE_ETA, FINE_AMP = 2.5, 1.0, 0.5, 0.5
# slope as a multiple of the uniqueness threshold: past the conservative
# certificate, yet still a contraction, so Picard needs about 60 steps at
# tol 1e-26 and the stopping error stays far below the discretization error
FINE_SLOPE_FACTOR = 6.0
FINE_PANELS = 2048


def fine_problem(seed: int):
    """One solve-only problem on the sin map with a known exact solution."""
    rng = random.Random(seed)
    phi, dphi, _ = CATALOG["sin_quarter_pi"]
    k = constants(FINE_ALPHA, FINE_BETA, FINE_ETA, phi, dphi)
    c = FINE_SLOPE_FACTOR * k.threshold * rng.uniform(0.98, 1.02)
    m = manufactured("sin_quarter_pi", FINE_ALPHA, FINE_BETA, FINE_ETA, c, FINE_AMP)
    text = config_text(FINE_ALPHA, FINE_BETA, FINE_ETA, "sin_quarter_pi", m.f_expr,
                       "solve-only", FINE_PANELS, 1e-26, 500)
    return text, m


# ---------------------------------------------------------------- scan

SCAN_SIZES = (64, 128, 256)
SCAN_KINDS = ("identity", "sin_quarter_pi", "sqrt_half", "table")
SCAN_MODES = ("uniqueness", "positive-existence")
TABLE_ROWS = 33


@dataclass(frozen=True)
class ScanProblem:
    name: str
    config: str
    mode: str
    exact: Manufactured | None  # None where no exact solution is known
    table_name: str | None
    table_text: str | None


def _table_text(kappa: float) -> str:
    phi, _ = table_map(kappa)
    rows = [f"{t!r} {phi(t)!r}" for t in (i / (TABLE_ROWS - 1) for i in range(TABLE_ROWS))]
    return "# t phi(t)\n" + "\n".join(rows) + "\n"


# additive-recurrence (R3) steps: a low-discrepancy design over the unit cube
_DESIGN_STEPS = (0.8191725133961645, 0.6710436067037893, 0.5497004779019703)
SCAN_JITTER = 0.01


def scan_problems(seed: int) -> list[ScanProblem]:
    """24 problems: every size x phi kind x certificate mode.

    Alpha takes the midpoints of eight equal strata of (2, 3], rotated
    between sizes, so every batch covers the whole range.  Beta (in
    [0, 0.8 bound]), eta (in [0.2, 0.8]) and the slope follow a fixed
    low-discrepancy design.  The seed jitters beta and the slope by 1% of
    their ranges and draws the table maps and the positive-existence
    forcing; eta stays on the design, because the discretization error
    jumps as eta crosses panel breakpoints.  The sweep thus keeps its
    coverage and its worst-conditioned problem, and sup_err stays
    comparable between seeds.  Uniqueness problems on catalog maps carry
    a manufactured exact solution.  Slopes stay inside the certificates: at
    most 0.8 of the uniqueness threshold, and at most 0.1 of it for
    positive existence, whose sampled shrink inequality needs a contraction
    factor below about 0.14.
    """
    rng = random.Random(seed)
    out = []
    per_size = len(SCAN_KINDS) * len(SCAN_MODES)
    for size_index, size in enumerate(SCAN_SIZES):
        for slot in range(per_size):
            kind = SCAN_KINDS[slot // len(SCAN_MODES)]
            mode = SCAN_MODES[slot % len(SCAN_MODES)]
            n = size_index * per_size + slot + 1
            u_beta, u_slope = (
                min(1.0, max(0.0, (0.5 + n * g) % 1.0 + rng.uniform(-SCAN_JITTER, SCAN_JITTER)))
                for g in _DESIGN_STEPS[:2])
            u_eta = (0.5 + n * _DESIGN_STEPS[2]) % 1.0
            alpha = 2.0 + ((slot + 3 * size_index) % 8 + 0.5) / 8.0
            eta = 0.2 + 0.6 * u_eta
            name = f"n{size}-{kind}-{mode}"
            table_name = table_text = None
            if kind == "table":
                kappa = rng.uniform(-0.5, 0.5)
                phi, dphi = table_map(kappa)
                table_name = f"{name}.phi.txt"
                table_text = _table_text(kappa)
            else:
                phi, dphi, _ = CATALOG[kind]
            beta = 0.8 * u_beta * constants(alpha, 0.0, eta, phi, dphi).beta_bound
            threshold = constants(alpha, beta, eta, phi, dphi).threshold
            exact = None
            if mode == "uniqueness":
                c = threshold * (0.3 + 0.5 * u_slope)
                if kind == "table":
                    f_expr = f"{c!r}*sin(u) + {c!r}*(1+t)"
                else:
                    exact = manufactured(kind, alpha, beta, eta, c, 1.0)
                    f_expr = exact.f_expr
                text = config_text(alpha, beta, eta, kind, f_expr, mode, size, 1e-26, 500,
                                   g_expr=repr(c), phi_table=table_name)
            else:
                c = threshold * (0.02 + 0.08 * u_slope)
                d = rng.uniform(0.1, 1.0)
                text = config_text(alpha, beta, eta, kind, f"{c!r}*u + {d!r}*(1+t)", mode,
                                   size, 1e-26, 500, f_domain="nonnegative",
                                   phi_table=table_name)
            out.append(ScanProblem(name, text, mode, exact, table_name, table_text))
    return out


# ---------------------------------------------------------------- laws

LAWS_PANELS = 512
LAWS_MAPS = ("sin_quarter_pi", "sqrt_half")


def laws_rates(seed: int) -> dict[str, float]:
    """Rate k of the test function exp(k s), one per map, near 1."""
    rng = random.Random(seed)
    return {kind: rng.uniform(0.99, 1.01) for kind in LAWS_MAPS}


# ---------------------------------------------------------------- shared


def interpolate(xs: np.ndarray, vs: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Cubic Lagrange interpolation through the four nodes nearest q."""
    i = np.clip(np.searchsorted(xs, q) - 2, 0, xs.size - 4)
    idx = i[:, None] + np.arange(4)[None, :]
    x = xs[idx]
    v = vs[idx]
    out = np.zeros_like(q)
    for j in range(4):
        w = np.ones_like(q)
        for m in range(4):
            if m != j:
                w *= (q - x[:, m]) / (x[:, j] - x[:, m])
        out += w * v[:, j]
    return out


SUP_POINTS = np.linspace(0.0, 1.0, 101)
