"""Squared-sup distance, function families, and sampled verdicts."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fracbvp as fb
from fracbvp.bmetric import FAMILY_SAMPLE_POINTS
from fracbvp.errors import ConfigurationError, GridMismatchError


@pytest.fixture(scope="module")
def grid(phi_identity):
    return fb.build_grid(phi_identity, 128)


def test_distance_basics(grid):
    x = fb.GridFunction.constant(grid, 1.0)
    y = fb.GridFunction.constant(grid, 3.0)
    assert fb.distance(x, x) == 0.0
    assert fb.distance(x, y) == pytest.approx(4.0, abs=1e-15)
    assert fb.distance(x, y) == fb.distance(y, x)


def test_distance_of_ramp(grid):
    x = fb.GridFunction.sample(grid, lambda s: s)
    y = fb.GridFunction.constant(grid, 0.0)
    # sup of t^2: the grid's last node stops short of 1 by an
    # O(1/panels^2) sliver, so allow exactly that much
    gap = 1.0 - grid.nodes[-1] ** 2
    assert gap < 1e-3
    assert fb.distance(x, y) == pytest.approx(1.0, abs=2 * gap)


def test_distance_zero_iff_equal(grid):
    rng = np.random.default_rng(3)
    x = fb.GridFunction(grid, rng.normal(size=grid.size))
    y = fb.GridFunction(grid, x.values + 1e-300)
    assert fb.distance(x, x) == 0.0
    assert fb.distance(x, y) > 0.0 or np.array_equal(x.values, y.values)


def test_distance_grid_mismatch(grid, phi_identity):
    other = fb.build_grid(phi_identity, 256)
    with pytest.raises(GridMismatchError):
        fb.distance(fb.GridFunction.constant(grid, 0.0),
                    fb.GridFunction.constant(other, 0.0))


def test_relaxed_triangle_on_random_triples(grid):
    rng = np.random.default_rng(20240)
    r = 2.0
    for _ in range(1000):
        a, b, c = (fb.GridFunction(grid, rng.uniform(-5, 5, grid.size)) for _ in range(3))
        d_ac = fb.distance(a, c)
        assert d_ac <= r * (fb.distance(a, b) + fb.distance(b, c)) + 1e-12


def test_default_families_pass_membership():
    psi = fb.default_psi()
    theta = fb.default_theta()
    assert fb.psi_family_check(psi).passed
    verdict = fb.theta_family_check(theta, r=2.0)
    assert verdict.passed
    assert float(np.max(theta(FAMILY_SAMPLE_POINTS))) < 0.25


@settings(max_examples=100, deadline=None)
@given(st.floats(min_value=0.0, max_value=1e3, allow_nan=False),
       st.sampled_from([1.5, 2.0, 10.0]))
def test_default_psi_scaling_pointwise(x, c):
    psi = fb.default_psi()
    assert float(psi(c * x)) <= c * float(psi(x)) + 1e-12 * (1 + x)
    assert c * float(psi(x)) <= c * x + 1e-12 * (1 + x)


def test_family_checks_reject_outsiders():
    too_big = fb.ThetaFunction(name="third", fn=lambda x: np.full_like(np.asarray(x, dtype=float), 1.0 / 3.0))
    assert not fb.theta_family_check(too_big, r=2.0).passed
    square = fb.PsiFunction(name="square", fn=lambda x: np.square(np.asarray(x, dtype=float)))
    assert not fb.psi_family_check(square).passed
    negative = fb.PsiFunction(name="shifted", fn=lambda x: np.asarray(x, dtype=float) - 1.0)
    assert not fb.psi_family_check(negative).passed


def test_contraction_certificate_cases():
    assert fb.contraction_certificate(0.3, 2.0).passed
    assert not fb.contraction_certificate(0.6, 2.0).passed
    assert not fb.contraction_certificate(0.0, 2.0).passed
    # the contraction factor of the second bundled example
    verdict = fb.contraction_certificate(0.1052, 2.0)
    assert verdict.passed
    assert verdict.margin == pytest.approx(0.5 - 0.1052, abs=1e-12)
    with pytest.raises(ConfigurationError):
        fb.contraction_certificate(-0.1, 2.0)
    with pytest.raises(ConfigurationError):
        fb.contraction_certificate(0.3, 0.9)


def test_geraghty_equal_pairs_hold(grid):
    psi, theta, tau = fb.default_psi(), fb.default_theta(), fb.default_tau()
    u = fb.GridFunction.constant(grid, 1.0)
    pairs = [(u, u)] * 5
    verdict = fb.geraghty_inequality_check(pairs, pairs, psi, theta, tau)
    assert verdict.passed
    assert verdict.worst_margin == 0.0


def test_geraghty_fails_for_tripling(grid):
    psi, theta, tau = fb.default_psi(), fb.default_theta(), fb.default_tau()
    pairs = fb.default_sample_suite(grid, n_pairs=20, seed=11)
    triple = lambda u: fb.GridFunction(grid, 3.0 * u.values)
    images = [(triple(u), triple(v)) for u, v in pairs]
    verdict = fb.geraghty_inequality_check(pairs, images, psi, theta, tau)
    assert not verdict.passed
    assert verdict.worst_margin < 0.0


def test_geraghty_skips_inadmissible_pairs(grid):
    psi, theta, tau = fb.default_psi(), fb.default_theta(), fb.default_tau()
    pos = fb.GridFunction.constant(grid, 1.0)
    neg = fb.GridFunction.constant(grid, -1.0)
    verdict = fb.geraghty_inequality_check([(pos, neg)], [(pos, neg)], psi, theta, tau)
    assert verdict.skipped == 1 and verdict.checked == 0
    assert verdict.passed


def test_admissibility_identity_on_nonnegative(grid):
    tau = fb.default_tau()
    pairs = fb.default_sample_suite(grid, n_pairs=10, seed=2)
    verdict = fb.admissibility_check(pairs, pairs, tau)
    assert verdict.passed


def test_admissibility_fails_for_shift_through_zero(grid):
    tau = fb.default_tau()
    rng = np.random.default_rng(8)
    # images straddle zero, so some product goes negative
    pairs = [(fb.GridFunction(grid, rng.uniform(0.0, 20.0, grid.size)),
              fb.GridFunction(grid, rng.uniform(0.0, 20.0, grid.size)))
             for _ in range(10)]
    shift = lambda u: fb.GridFunction(grid, u.values - 10.0)
    verdict = fb.admissibility_check(pairs, [(shift(u), shift(v)) for u, v in pairs], tau)
    assert not verdict.passed
