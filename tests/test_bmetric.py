"""Squared-sup distance, function families, and sampled verdicts."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fracbvp as fb
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


def test_geraghty_equal_pairs_hold(grid):
    u = np.ones((5, grid.size))
    verdict = fb.geraghty_inequality_check(u, u, u, u)
    assert verdict.passed
    assert verdict.worst == 0.0


def test_geraghty_fails_for_tripling(grid):
    u, v = (x[:20] for x in fb.default_sample_suite(grid, seed=11))
    verdict = fb.geraghty_inequality_check(u, v, 3.0 * u, 3.0 * v)
    assert not verdict.passed
    assert verdict.worst < 0.0


def test_geraghty_skips_inadmissible_pairs(grid):
    pos = np.ones((1, grid.size))
    neg = -pos
    verdict = fb.geraghty_inequality_check(pos, neg, pos, neg)
    assert verdict.skipped == 1 and verdict.checked == 0
    assert verdict.passed


def test_admissibility_identity_on_nonnegative(grid):
    u, v = (x[:10] for x in fb.default_sample_suite(grid, seed=2))
    verdict = fb.admissibility_check(u, v, u, v)
    assert verdict.passed


def test_admissibility_fails_for_shift_through_zero(grid):
    rng = np.random.default_rng(8)
    # images straddle zero, so some product goes negative
    u, v = rng.uniform(0.0, 20.0, (2, 10, grid.size))
    verdict = fb.admissibility_check(u, v, u - 10.0, v - 10.0)
    assert not verdict.passed


def _per_pair_reference(u, v, au, av, r=2.0, atol=1e-12):
    """The per-pair loop the array checks replaced, one pair at a time:
    (passed, checked, skipped, worst) for the shrink inequality and for
    sign preservation."""
    def admissible(x, y):
        return bool(np.min(x * y) >= 0.0)

    def dist(x, y):
        diff = x - y
        return float(np.max(diff * diff))

    g_worst, a_worst = np.inf, np.inf
    g_passed = a_passed = True
    checked = skipped = 0
    for x, y, ax, ay in zip(u, v, au, av, strict=True):
        if not admissible(x, y):
            skipped += 1
            continue
        checked += 1
        lhs = float(fb.psi(r**3 * dist(ax, ay)))
        gauge = float(fb.psi(dist(x, y)))
        margin = float(fb.theta(gauge)) * gauge - lhs
        g_worst = min(g_worst, margin)
        g_passed = g_passed and not margin < 0.0
        low = float(np.min(ax * ay))
        a_worst = min(a_worst, low)
        a_passed = a_passed and not low < -atol
    if checked == 0:
        g_worst = a_worst = 0.0
    return (g_passed, checked, skipped, g_worst), (a_passed, checked, skipped, a_worst)


@pytest.mark.parametrize("seed, shrink, noise, passes",
                         [(1, 0.4, 0.3, False), (2, 0.4, 0.3, False), (3, 0.05, 0.0, True)])
def test_sampled_checks_match_per_pair_reference(grid, seed, shrink, noise, passes):
    rng = np.random.default_rng(seed)
    u, v = rng.uniform(0.0, 2.0, (2, 40, grid.size))
    # rows 0, 7, 14, ... cross zero somewhere, so their pairs are skipped
    u[::7, rng.integers(grid.size)] = -0.5
    # noisy images break the shrink inequality and sign preservation
    au = shrink * u + rng.uniform(-noise, noise, u.shape)
    av = shrink * v + rng.uniform(-noise, noise, v.shape)
    (g_passed, checked, skipped, g_worst), (a_passed, _, _, a_worst) = \
        _per_pair_reference(u, v, au, av)
    assert (checked, skipped) == (34, 6)
    assert g_passed is a_passed is passes
    geraghty = fb.geraghty_inequality_check(u, v, au, av)
    assert (geraghty.passed, geraghty.checked, geraghty.skipped) == (g_passed, checked, skipped)
    assert geraghty.worst == g_worst
    admissibility = fb.admissibility_check(u, v, au, av)
    assert (admissibility.passed, admissibility.checked, admissibility.skipped) == \
        (a_passed, checked, skipped)
    assert admissibility.worst == a_worst
    # no admissible pair at all
    none = fb.geraghty_inequality_check(u, -v, au, av)
    assert (none.passed, none.checked, none.skipped, none.worst) == (True, 0, 40, 0.0)
