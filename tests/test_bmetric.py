"""Squared-sup distance, function families, and the Geraghty and sign relations."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fracbvp as fb
from fracbvp.bmetric import R
from fracbvp.errors import GridMismatchError

from conftest import assert_paper_families


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
    assert_paper_families()


@settings(max_examples=100, deadline=None)
@given(st.floats(min_value=0.0, max_value=1e3, allow_nan=False),
       st.sampled_from([1.5, 2.0, 10.0]))
def test_default_psi_scaling_pointwise(x, c):
    psi = fb.psi
    assert float(psi(c * x)) <= c * float(psi(x)) + 1e-12 * (1 + x)
    assert c * float(psi(x)) <= c * x + 1e-12 * (1 + x)


def _shrink_margin(u, v, au, av):
    """theta(d) psi(d) - psi(R^3 d(A u, A v)) at d = d(u, v): the pair meets
    the Geraghty inequality when it is >= 0."""
    gauge = float(fb.psi(fb.distance(u, v)))
    return float(fb.theta(gauge)) * gauge - float(fb.psi(R**3 * fb.distance(au, av)))


def _pairs(grid, seed, count, low=0.0, high=2.0):
    rng = np.random.default_rng(seed)
    return [tuple(fb.GridFunction(grid, rng.uniform(low, high, grid.size)) for _ in range(2))
            for _ in range(count)]


def test_geraghty_equal_pairs_hold(grid):
    u = fb.GridFunction.constant(grid, 1.0)
    assert _shrink_margin(u, u, u, u) == 0.0


def test_geraghty_fails_for_tripling(grid):
    # d(3u, 3v) = 9 d(u, v), and R^3 * 9 is far above theta < 1/4
    for u, v in _pairs(grid, 11, 20):
        tripled = (fb.GridFunction(grid, 3.0 * w.values) for w in (u, v))
        assert _shrink_margin(u, v, *tripled) < 0.0


def test_geraghty_skips_inadmissible_pairs(grid):
    # tau fails at a node, so the pair is outside the relation and its
    # inequality is vacuous; the zero start relates to every function
    pos = np.ones(grid.size)
    assert np.min(fb.tau(pos, -pos)) < 0.0
    assert np.all(fb.tau(np.zeros(grid.size), -pos) == 0.0)


def test_admissibility_identity_on_nonnegative(grid):
    for u, v in _pairs(grid, 2, 10):
        assert np.min(fb.tau(u.values, v.values)) >= 0.0


def test_admissibility_fails_for_shift_through_zero(grid):
    # images straddle zero, so some product goes negative
    assert any(np.min(fb.tau(u.values - 10.0, v.values - 10.0)) < 0.0
               for u, v in _pairs(grid, 8, 10, high=20.0))


def test_proven_shrink_inequality_holds_on_operator_pairs(problem41, grid256_41,
                                                          operator256_41):
    # the certificate proves the inequality for every nonnegative pair of
    # the continuous operator; its discrete image meets it pair by pair
    cert = fb.build_certificate(problem41.spec, problem41.kernel, "positive-existence",
                                grid=grid256_41)
    assert {h.name: h.ok for h in cert.hypotheses}["geraghty_inequality"]
    for u, v in _pairs(grid256_41, 20240, 25):
        au, av = (fb.GridFunction(grid256_41, operator256_41.apply(w.values)) for w in (u, v))
        assert np.min(fb.tau(au.values, av.values)) >= 0.0
        assert _shrink_margin(u, v, au, av) >= 0.0
