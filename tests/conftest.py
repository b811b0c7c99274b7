"""Shared fixtures: the two bundled example problems and small grids."""

from __future__ import annotations

import contextlib
import math

import numpy as np
import pytest

import fracbvp as fb
from fracbvp.bmetric import R
from fracbvp.cli import bundled_config_path
from fracbvp.config import build_problem, load_config

from bundled_outputs import ACCEL_CONFIG  # noqa: F401 (one definition, shared with CI)


def gamma_quadrature_oracle(x: float) -> float:
    """Independent gamma via trapezoid quadrature of the defining integral.

    Substituting t = exp(z) turns the integral into one of
    exp(x*z - exp(z)) over the real line, whose double-exponential decay
    makes the trapezoid rule accurate to rounding on a wide window.
    """
    lo, hi, n = -90.0, 8.0, 400001
    z = np.linspace(lo, hi, n)
    h = (hi - lo) / (n - 1)
    vals = np.exp(x * z - np.exp(z))
    return float((vals.sum() - 0.5 * (vals[0] + vals[-1])) * h)


def assert_paper_families():
    """The paper's hypotheses on the gauge psi and the shrink function
    theta, sampled at 0 and on a log sweep of [1e-6, 1e3]: psi(0) = 0, psi
    increasing, psi(c x) <= c psi(x) <= c x for c > 1; theta nondecreasing
    with values in [1/6, 1/4), below 1/R^2."""
    points = np.concatenate([[0.0], np.logspace(-6.0, 3.0, 181)])
    vals = fb.psi(points)
    assert fb.psi(0.0) == 0.0
    assert np.all(np.diff(vals) > 0.0)
    for c in (1.5, 2.0, 10.0):
        slack = 1e-12 * (1.0 + c * vals)
        assert np.all(fb.psi(c * points) <= c * vals + slack)
        assert np.all(c * vals <= c * points + slack)
    shrink = fb.theta(points)
    assert np.all(np.diff(shrink) >= 0.0)
    assert np.all(shrink >= 1.0 / 6.0) and np.all(shrink < 0.25)
    assert np.all(shrink < 1.0 / R**2)


def paper_green(params: fb.BvpParams, ts, ss) -> np.ndarray:
    """The paper's piecewise kernel on the table ts x ss, one raw branch
    per (t, s) region, taken in the order s <= min(eta, t), then
    t <= s <= eta, then eta <= s <= t, then the remainder.

    Written only from phi, phi'(1) and math.gamma: phi is evaluated one
    point at a time, and each branch sees only its own region, where all
    its bases are nonnegative, so no positive parts are needed.
    """
    a, beta, eta, phi = params.alpha, params.beta, params.eta, params.phi
    p0, pe, p1 = (float(phi(x)) for x in (0.0, eta, 1.0))
    d1 = float(phi.deriv(1.0))
    mu = (a - 1.0) * d1 * (p1 - p0) ** (a - 2.0) - beta * (pe - p0) ** (a - 1.0)

    def lead(yt, ys):
        return (a - 1.0) * d1 * (yt - p0) ** (a - 1.0) * (p1 - ys) ** (a - 2.0)

    def eta_term(yt, ys):
        return beta * (yt - p0) ** (a - 1.0) * (pe - ys) ** (a - 1.0)

    def memory(yt, ys):
        return mu * (yt - ys) ** (a - 1.0)

    ts, ss = np.asarray(ts, dtype=float), np.asarray(ss, dtype=float)
    t, s = np.meshgrid(ts, ss, indexing="ij")
    yt, ys = np.meshgrid([float(phi(x)) for x in ts.tolist()],
                         [float(phi(x)) for x in ss.tolist()], indexing="ij")
    regions = (
        (s <= np.minimum(eta, t), lambda y, z: lead(y, z) - eta_term(y, z) - memory(y, z)),
        ((t <= s) & (s <= eta), lambda y, z: lead(y, z) - eta_term(y, z)),
        ((eta <= s) & (s <= t), lambda y, z: lead(y, z) - memory(y, z)),
        (np.ones_like(t, dtype=bool), lead),
    )
    out = np.empty_like(t)
    taken = np.zeros_like(t, dtype=bool)
    for region, branch in regions:
        mask = region & ~taken
        out[mask] = branch(yt[mask], ys[mask])
        taken |= mask
    return out / (mu * math.gamma(a))


def plain_picard(op: fb.Operator, values: np.ndarray, max_iter: int, tol: float = 0.0):
    """The unmixed loop values <- A values, stopped after max_iter steps
    or at the first squared step below tol: every iterate A was applied
    to, the last image and the squared steps."""
    iterates, steps = [], []
    for _ in range(max_iter):
        iterates.append(values)
        values = op.apply(values)
        steps.append(float(np.max((values - iterates[-1]) ** 2)))
        if steps[-1] < tol:
            break
    return iterates, values, steps


@contextlib.contextmanager
def recorded_iterates():
    """Every array that Operator.apply is called on inside the block."""
    seen = []
    apply = fb.Operator.apply

    def recording(self, values):
        seen.append(values.copy())
        return apply(self, values)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fb.Operator, "apply", recording)
        yield seen


def catalog_map(kind: str) -> fb.PhiMap:
    """Any catalog kind; ``table`` gets 17 samples of sqrt(1/4 + t/2)."""
    if kind != "table":
        return fb.phi_catalog(kind)
    ts = np.linspace(0.0, 1.0, 17)
    return fb.phi_catalog("table", samples=np.column_stack([ts, np.sqrt(0.25 + 0.5 * ts)]))


@pytest.fixture(scope="session")
def phi_identity():
    return fb.phi_catalog("identity")


@pytest.fixture(scope="session")
def phi_sin():
    return fb.phi_catalog("sin_quarter_pi")


@pytest.fixture(scope="session")
def phi_sqrt():
    return fb.phi_catalog("sqrt_half")


@pytest.fixture(scope="session")
def problem41():
    return build_problem(load_config(bundled_config_path("example41")))


@pytest.fixture(scope="session")
def problem42():
    return build_problem(load_config(bundled_config_path("example42")))


@pytest.fixture(scope="session")
def kernel41(problem41):
    return problem41.kernel


@pytest.fixture(scope="session")
def kernel42(problem42):
    return problem42.kernel


@pytest.fixture(scope="session")
def grid256_41(problem41):
    return problem41.grid(256)


@pytest.fixture(scope="session")
def grid256_42(problem42):
    return problem42.grid(256)


@pytest.fixture(scope="session")
def operator256_41(problem41, grid256_41):
    return fb.Operator(problem41.spec, problem41.kernel, grid256_41)


@pytest.fixture(scope="session")
def operator256_42(problem42, grid256_42):
    return fb.Operator(problem42.spec, problem42.kernel, grid256_42)


@pytest.fixture(scope="session")
def classical_kernel():
    params = fb.BvpParams(alpha=3.0, beta=0.0, eta=0.5, phi=fb.phi_catalog("identity"))
    return fb.build_kernel(params)
