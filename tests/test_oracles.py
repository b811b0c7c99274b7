"""Self-checks of the slow reference implementations, and the
cross-checks pitting them against the main library."""

import math

import numpy as np
import pytest

import fracbvp as fb

from oracles import (
    oracle_classical_green,
    oracle_frac_integral,
    oracle_grid_max,
    oracle_manufactured,
    oracle_power_integral,
)


def test_power_integral_closed_forms():
    # unit function: t^alpha / Gamma(alpha+1)
    for alpha, t in ((0.5, 0.3), (1.7, 0.9), (2.5, 1.0)):
        assert oracle_power_integral(alpha, 0.0, t) == pytest.approx(
            t**alpha / math.gamma(alpha + 1.0), rel=1e-14)
    # ramp at unit order: t^2/2
    assert oracle_power_integral(1.0, 1.0, 0.8) == pytest.approx(0.32, rel=1e-14)


def test_trapezoid_oracle_basics():
    assert oracle_frac_integral(1.5, lambda s: np.zeros_like(s), 0.7) == 0.0
    assert oracle_frac_integral(1.0, lambda s: s, 0.5) == pytest.approx(0.125, abs=1e-9)
    got = oracle_frac_integral(2.5, lambda s: np.ones_like(s), 1.0)
    assert got == pytest.approx(1.0 / math.gamma(3.5), abs=1e-8)


def test_classical_green_oracle_values():
    assert oracle_classical_green(0.5, 0.25) == 0.0625
    assert oracle_classical_green(0.0, 0.4) == 0.0
    assert oracle_classical_green(0.7, 1.0) == 0.0


def test_grid_max():
    assert oracle_grid_max(lambda x: np.ones_like(x), 11) == 1.0
    assert oracle_grid_max(lambda x: x * (1 - x), 10001) == pytest.approx(0.25, abs=1e-8)


@pytest.mark.parametrize("kind", ["sin_quarter_pi", "sqrt_half"])
def test_manufactured_oracle_meets_the_boundary_conditions(kind):
    # u(0) = 0, and u'(1) = beta u(eta) by a second-order one-sided difference
    exact, f_expr = oracle_manufactured(kind, 2.5, 1.0, 0.5, 0.5)
    h = 1e-4
    slope = (3.0 * exact(1.0) - 4.0 * exact(1.0 - h) + exact(1.0 - 2.0 * h)) / (2.0 * h)
    assert exact(0.0) == 0.0
    assert slope == pytest.approx(exact(0.5), rel=1e-6)
    assert f_expr.startswith("0.5*sin(u) - ")


def test_library_matches_trapezoid_oracle_on_smooth_functions(phi_identity):
    grid = fb.build_grid(phi_identity, 1024)
    cases = []
    for k in range(5):
        cases.append((1.5 + 0.3 * k, lambda s, k=k: np.exp(-k * s) * np.cos(k + 2.0 * s)))
        cases.append((1.6 + 0.3 * k, lambda s, k=k: s**2 + np.sin((k + 1.0) * s)))
        cases.append((2.5, lambda s, k=k: np.exp(s) / (1.0 + k + s)))
        cases.append((3.0, lambda s, k=k: np.tanh(s + 0.1 * k)))
    assert len(cases) == 20
    for alpha, fn in cases:
        u = fb.GridFunction.sample(grid, fn)
        mine = fb.frac_integral(alpha, phi_identity, u, 0.9)
        ref = oracle_frac_integral(alpha, fn, 0.9)
        assert mine == pytest.approx(ref, abs=1e-7)


def test_library_matches_power_closed_forms_below_order_one(phi_identity):
    grid = fb.build_grid(phi_identity, 1024)
    for alpha in (0.3, 0.5, 0.8):
        for k in (0.0, 1.0, 2.0):
            u = fb.GridFunction.sample(grid, lambda s, k=k: s**k)
            mine = fb.frac_integral(alpha, phi_identity, u, 0.7)
            assert mine == pytest.approx(oracle_power_integral(alpha, k, 0.7), abs=1e-8)


def test_classical_green_oracle_matches_kernel(classical_kernel):
    ts = np.linspace(0.0, 1.0, 50)
    worst = max(
        abs(float(fb.green_values(classical_kernel, float(t), float(s)))
            - oracle_classical_green(float(t), float(s)))
        for t in ts for s in ts)
    assert worst <= 1e-12


def test_green_bound_via_grid_max(kernel41):
    observed = oracle_grid_max(lambda t: fb.green_values(kernel41, t, 0.5), 10001)
    assert observed <= fb.green_max_bound(kernel41, 0.5) + 1e-12
