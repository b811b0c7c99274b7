"""Quadrature grid, grid functions, and the fractional operators."""

import math
import tracemalloc
from itertools import repeat
from operator import mul, sub

import numpy as np
import pytest

import fracbvp as fb
from fracbvp.calculus import (_BAND_WIDTH, _MIN_STEP_SHARE, _STENCILS,
                              TOL_DERIVATIVE_IDENTITY, TOL_INTEGRAL_IDENTITY, _at_limit,
                              _band_weights, _gauss_rule, _integral_weights, _integral_y,
                              _order_constants, _unit_rule)
from fracbvp.errors import ConfigurationError, DomainError, GridMismatchError, NumericError
from fracbvp.special import PHI_KINDS

from conftest import catalog_map, gamma_quadrature_oracle

# frozen from the quadrature oracle: 1/Gamma(3.5) and the classical
# half-order derivative of s at t = 1/2
INV_GAMMA_3_5 = 0.30090111122547
HALF_DERIV_OF_S_AT_HALF = 0.7978845608028654


@pytest.mark.parametrize("kind", ["identity", "sin_quarter_pi", "sqrt_half"])
def test_grid_invariants(kind):
    phi = fb.phi_catalog(kind)
    grid = fb.build_grid(phi, 256)
    assert grid.size == 512
    assert np.all(np.diff(grid.nodes) > 0.0)
    assert grid.nodes[0] > 0.0 and grid.nodes[-1] < 1.0
    assert np.all(grid.weights >= 0.0)
    # the phi-weighted rule integrates constants to phi(1) - phi(0)
    assert abs(float(grid.weights.sum()) - (phi.image[1] - phi.image[0])) <= 1e-10


def test_grid_rejects_odd_panels(phi_identity):
    with pytest.raises(ConfigurationError):
        fb.build_grid(phi_identity, 255)


def test_grid_invariants_for_table_map():
    ts = np.linspace(0.0, 1.0, 17)
    phi = fb.phi_catalog("table", samples=np.column_stack([ts, np.sqrt(0.25 + 0.5 * ts)]))
    grid = fb.build_grid(phi, 128)
    assert np.all(np.diff(grid.nodes) > 0.0)
    assert abs(float(grid.weights.sum()) - (phi.image[1] - phi.image[0])) <= 1e-10
    # nodes really are the preimages of the transformed abscissae
    assert np.max(np.abs(phi(grid.nodes) - grid.y_nodes)) <= 1e-12


def test_frac_integral_unit_cube(phi_identity):
    grid = fb.build_grid(phi_identity, 256)
    one = fb.GridFunction.constant(grid, 1.0)
    # order-3 integral of 1 at t = 1 is 1/6 exactly
    assert fb.frac_integral(3.0, phi_identity, one, 1.0) == pytest.approx(1.0 / 6.0, abs=1e-13)


def test_grid_function_validation(phi_identity):
    grid = fb.build_grid(phi_identity, 64)
    with pytest.raises(NumericError):
        fb.GridFunction(grid, np.full(grid.size, np.nan))
    with pytest.raises(GridMismatchError):
        fb.GridFunction(grid, np.zeros(grid.size - 1))


def test_sample_calls_a_float_only_callable_per_node(phi_sin):
    # float() of the node array raises, so sample falls back to one call per node
    def scalar_only(s):
        return 2.0 * float(s)

    def vectorized(s):
        return 2.0 * s

    grid = fb.build_grid(phi_sin, 64)
    assert (fb.GridFunction.sample(grid, scalar_only).values.tobytes()
            == fb.GridFunction.sample(grid, vectorized).values.tobytes())


def test_sample_broadcasts_a_callable_that_returns_one_number(phi_sin):
    grid = fb.build_grid(phi_sin, 64)
    assert (fb.GridFunction.sample(grid, lambda s: 2.5).values.tobytes()
            == fb.GridFunction.constant(grid, 2.5).values.tobytes())


def test_sample_refuses_a_result_of_another_shape(phi_sin):
    # the array call succeeds, so its result is not taken for a float-only
    # callable's; the error names both shapes
    grid = fb.build_grid(phi_sin, 64)
    with pytest.raises(GridMismatchError, match=r"shape \(3,\).*\(128,\) nodes"):
        fb.GridFunction.sample(grid, lambda s: np.ones(3))
    with pytest.raises(GridMismatchError, match=r"shape \(2, 128\)"):
        fb.GridFunction.sample(grid, lambda s: np.vstack([s, s]))


def test_grid_function_interpolation(phi_identity):
    grid = fb.build_grid(phi_identity, 256)
    u = fb.GridFunction.sample(grid, lambda s: np.sin(3.0 * s))
    qs = np.linspace(0.0, 1.0, 777)
    assert np.max(np.abs(u(qs) - np.sin(3.0 * qs))) <= 1e-9


def _lagrange_cubic(xs, vs, q):
    """Reference: 4-point Lagrange interpolation on the nearest stencil.

    The stencil of nodes i-2..i+1 with i = searchsorted(xs, q), clipped
    so that queries outside the node range use the boundary stencil.
    """
    q_arr = np.asarray(q, dtype=float)
    i = np.clip(np.searchsorted(xs, q_arr), 2, xs.size - 2)
    x0, x1, x2, x3 = xs[i - 2], xs[i - 1], xs[i], xs[i + 1]
    v0, v1, v2, v3 = vs[i - 2], vs[i - 1], vs[i], vs[i + 1]
    l0 = ((q_arr - x1) * (q_arr - x2) * (q_arr - x3)) / ((x0 - x1) * (x0 - x2) * (x0 - x3))
    l1 = ((q_arr - x0) * (q_arr - x2) * (q_arr - x3)) / ((x1 - x0) * (x1 - x2) * (x1 - x3))
    l2 = ((q_arr - x0) * (q_arr - x1) * (q_arr - x3)) / ((x2 - x0) * (x2 - x1) * (x2 - x3))
    l3 = ((q_arr - x0) * (q_arr - x1) * (q_arr - x2)) / ((x3 - x0) * (x3 - x1) * (x3 - x2))
    return v0 * l0 + v1 * l1 + v2 * l2 + v3 * l3


@pytest.mark.parametrize("kind", PHI_KINDS)
def test_grid_function_matches_lagrange_reference(kind):
    grid = fb.build_grid(catalog_map(kind), 64)
    xs = grid.nodes
    u = fb.GridFunction.sample(grid, lambda s: np.exp(2.0 * s) * np.sin(5.0 * s))
    tol = 8.0 * np.finfo(float).eps * np.max(np.abs(u.values))
    qs = np.concatenate([[0.0, 1.0], xs, 0.5 * (xs[1:] + xs[:-1]), np.linspace(0.0, 1.0, 301)])
    assert np.max(np.abs(u(qs) - _lagrange_cubic(xs, u.values, qs))) <= tol
    grid_q = qs.reshape(-1, 2)
    assert u(grid_q).shape == grid_q.shape
    assert np.max(np.abs(u(grid_q) - _lagrange_cubic(xs, u.values, grid_q))) <= tol
    for t in (0.0, 1.0, float(xs[0]), float(xs[7]), 0.5 * float(xs[7] + xs[8]), float(xs[-1])):
        value = u(t)
        assert isinstance(value, float)
        assert abs(value - float(_lagrange_cubic(xs, u.values, t))) <= tol


def test_grid_function_reproduces_cubics_and_constants(phi_sin):
    grid = fb.build_grid(phi_sin, 64)
    qs = np.concatenate([[0.0, 1.0], grid.nodes, np.linspace(0.0, 1.0, 1001)])

    def cubic(s):
        return 0.3 - 1.2 * s + 2.5 * s**2 - 1.7 * s**3

    u = fb.GridFunction.sample(grid, cubic)
    assert np.max(np.abs(u(qs) - cubic(qs))) <= 1e-13
    # a node that centres a stencil reads it at z = 0: its own value
    assert np.array_equal(u(grid.nodes[1:-2]), u.values[1:-2])
    # bit for bit: the Lagrange form gave v * (1 +- eps) here
    for v in (1.0, -0.7, 3.3e5):
        const = fb.GridFunction.constant(grid, v)
        assert np.all(const(qs) == v)
        assert const(0.0) == v and const(1.0) == v


def test_grid_function_deriv_is_the_cubics_derivative(phi_identity):
    grid = fb.build_grid(phi_identity, 64)
    qs = np.concatenate([[0.0, 1.0], grid.nodes, np.linspace(0.0, 1.0, 1001)])

    def cubic(s):
        return 0.3 - 1.2 * s + 2.5 * s**2 - 1.7 * s**3

    def cubic_deriv(s):
        return -1.2 + 5.0 * s - 5.1 * s**2

    u = fb.GridFunction.sample(grid, cubic)
    assert np.max(np.abs(u.deriv(qs) - cubic_deriv(qs))) <= 1e-12
    for v in (1.0, -0.7, 3.3e5):
        const = fb.GridFunction.constant(grid, v)
        assert np.all(const.deriv(qs) == 0.0)
        assert const.deriv(0.0) == 0.0 and const.deriv(1.0) == 0.0
    # the scalar/array contract of __call__: a float for a scalar, the
    # query's shape for an array, and the same value either way
    wavy = fb.GridFunction.sample(grid, lambda s: np.exp(2.0 * s) * np.sin(5.0 * s))
    grid_q = qs[:1000].reshape(-1, 4)
    assert wavy.deriv(grid_q).shape == grid_q.shape == wavy(grid_q).shape
    assert np.array_equal(wavy.deriv(grid_q).ravel(), wavy.deriv(grid_q.ravel()))
    for t in (0.0, 1.0, float(grid.nodes[7]), 0.5):
        slope = wavy.deriv(t)
        assert isinstance(slope, float)
        assert slope == wavy.deriv(np.array([t]))[0]
    # it differentiates the cubic that __call__ evaluates: a central
    # difference of u agrees to the difference's own error
    h = 1e-6
    mid = np.linspace(0.05, 0.95, 91)
    central = (wavy(mid + h) - wavy(mid - h)) / (2.0 * h)
    assert np.max(np.abs(wavy.deriv(mid) - central)) <= 1e-6


@pytest.mark.parametrize("p, points", [(0.0, 6)])
def test_gauss_rule_moments(p, points):
    # n Gauss-Legendre points integrate x**k exactly up to k = 2n - 1
    nodes, weights = _gauss_rule(points)
    assert np.all(np.diff(nodes) > 0.0) and nodes[0] > 0.0 and nodes[-1] < 1.0
    for k in range(2 * points):
        beta_fn = math.gamma(k + 1.0) * math.gamma(p + 1.0) / math.gamma(k + p + 2.0)
        assert abs(float(np.sum(weights * nodes**k)) - beta_fn) <= 1e-14 * beta_fn


@pytest.mark.parametrize("alpha", [0.3, 1.0, 2.5, 3.5])
def test_order_constants_are_beta_moments(alpha):
    # B_j = j! / (alpha (alpha+1) ... (alpha+j)) = Gamma(alpha) j! / Gamma(alpha+j+1)
    g, moments = _order_constants(alpha)
    assert g == pytest.approx(math.gamma(alpha), rel=1e-13)
    for j, b_j in enumerate(moments.ravel()):
        exact = math.gamma(alpha) * math.factorial(j) / math.gamma(alpha + j + 1.0)
        assert abs(b_j - exact) <= 1e-14 * exact


@pytest.mark.parametrize("panels", [64, 512])
@pytest.mark.parametrize("kind", PHI_KINDS)
def test_integral_exact_on_a_random_cubic_per_super_panel(kind, panels):
    # super-panel i carries sum_j a_ij (c0 - y)**j, whose integral up to
    # c0 is sum_ij a_ij [(c0 - lo)**e - (c0 - min(hi, c0))**e] / (e Gamma(alpha)),
    # e = alpha + j, in math alone; c0 at every super-panel bound, every
    # midpoint and phi(1), so the near zone meets every bound
    phi = catalog_map(kind)
    grid = fb.build_grid(phi, panels)
    y0, y1 = phi.image
    bounds = [y0, *map(float, grid._super_panels[0]), y1]
    coeffs = np.random.default_rng(7).uniform(-1.0, 1.0, (panels // 2, 4))
    columns = [list(map(float, a_j)) for a_j in coeffs.T]
    mids = [0.5 * (lo + hi) for lo, hi in zip(bounds, bounds[1:])]
    y = grid.y_nodes.reshape(-1, 4)
    a = coeffs[:, :, None]
    worst = 0.0
    for c0 in bounds[1:] + mids + [float(phi(1.0))]:
        d = c0 - y
        u = fb.GridFunction(grid, (a[:, 0] + d * (a[:, 1] + d * (a[:, 2] + d * a[:, 3]))).ravel())
        # c0 - lo of every super-panel below c0; c0 - min(hi, c0) is the
        # next one's, and 0 for the one that holds c0
        gaps = [c0 - lo for lo in bounds[:-1] if lo < c0]
        for alpha in (0.3, 0.8, 1.7, 2.5, 3.5):
            exact = scale = 0.0
            for j, a_j in enumerate(columns):
                e = alpha + j
                powers = list(map(pow, gaps, repeat(e))) + [0.0]
                terms = list(map(mul, a_j, map(sub, powers, powers[1:])))
                exact += math.fsum(terms) / (e * math.gamma(alpha))
                scale += sum(map(abs, terms)) / (e * math.gamma(alpha))
            got = float(_integral_y(alpha, u, np.array([c0]))[0])
            worst = max(worst, abs(got - exact) / scale)
    assert worst <= 1e-14


@pytest.mark.parametrize("alpha", [0.3, 1.0, 1.7, 2.5])
@pytest.mark.parametrize("kind", PHI_KINDS)
def test_frac_integral_exact_on_cubics_in_phi(kind, alpha):
    # (phi - phi0)**3 is a cubic in y, so only rounding is left, at
    # every super-panel bound too, where panels move from near to far
    phi = catalog_map(kind)
    y0 = float(phi(0.0))
    grid = fb.build_grid(phi, 64)
    u = fb.GridFunction(grid, (grid.y_nodes - y0) ** 3)
    ts = np.concatenate([[0.0], phi.inverse(grid._super_panels[0]), [1.0]])
    exact = 6.0 / math.gamma(4.0 + alpha) * (phi(ts) - y0) ** (3.0 + alpha)
    got = fb.frac_integral(alpha, phi, u, ts)
    assert got[0] == 0.0
    assert np.max(np.abs(got - exact)) <= 16.0 * np.finfo(float).eps * exact[-1]


def test_frac_integral_zero(phi_identity):
    grid = fb.build_grid(phi_identity, 128)
    zero = fb.GridFunction.constant(grid, 0.0)
    assert fb.frac_integral(1.7, phi_identity, zero, 0.8) == 0.0
    assert fb.frac_integral(2.5, phi_identity, zero, 0.0) == 0.0


def test_frac_integral_constant_closed_form(phi_identity):
    grid = fb.build_grid(phi_identity, 1024)
    one = fb.GridFunction.constant(grid, 1.0)
    value = fb.frac_integral(2.5, phi_identity, one, 1.0)
    assert gamma_quadrature_oracle(3.5) == pytest.approx(1.0 / INV_GAMMA_3_5, rel=1e-12)
    assert value == pytest.approx(INV_GAMMA_3_5, abs=1e-10)


def test_frac_integral_linear_plain(phi_identity):
    grid = fb.build_grid(phi_identity, 128)
    u = fb.GridFunction.sample(grid, lambda s: s)
    assert fb.frac_integral(1.0, phi_identity, u, 0.5) == pytest.approx(0.125, abs=1e-13)


def test_frac_integral_domain_errors(phi_identity):
    grid = fb.build_grid(phi_identity, 64)
    u = fb.GridFunction.constant(grid, 1.0)
    with pytest.raises(DomainError):
        fb.frac_integral(2.5, phi_identity, u, 1.5)
    with pytest.raises(DomainError):
        fb.frac_integral(2.5, phi_identity, u, -0.1)
    with pytest.raises(DomainError):
        fb.frac_integral(0.0, phi_identity, u, 0.5)


def test_frac_integral_refuses_orders_without_a_finite_gamma(phi_identity):
    # Gamma(alpha) overflows above about 171.6: a DomainError, not
    # numpy's or the Lanczos sum's own error
    u = fb.GridFunction.constant(fb.build_grid(phi_identity, 64), 1.0)
    for bad in (math.inf, 400.0, 172.0):
        with pytest.raises(DomainError):
            fb.frac_integral(bad, phi_identity, u, 0.5)
    assert fb.frac_integral(150.0, phi_identity, u, 1.0) == pytest.approx(1.0 / math.gamma(151.0),
                                                                        rel=1e-10)


def test_frac_integral_linearity(phi_sqrt):
    grid = fb.build_grid(phi_sqrt, 256)
    u = fb.GridFunction.sample(grid, lambda s: np.exp(s))
    v = fb.GridFunction.sample(grid, lambda s: np.cos(2.0 * s))
    combo = fb.GridFunction(grid, 1.7 * u.values - 0.4 * v.values)
    for t in (0.3, 0.8, 1.0):
        lhs = fb.frac_integral(1.8, phi_sqrt, combo, t)
        rhs = (1.7 * fb.frac_integral(1.8, phi_sqrt, u, t)
               - 0.4 * fb.frac_integral(1.8, phi_sqrt, v, t))
        assert lhs == pytest.approx(rhs, abs=1e-12 * max(1.0, abs(rhs)))


def test_frac_integral_monotone(phi_sin):
    grid = fb.build_grid(phi_sin, 128)
    rng = np.random.default_rng(5)
    u = fb.GridFunction(grid, rng.uniform(0.0, 3.0, grid.size))
    for t in (0.2, 0.6, 1.0):
        assert fb.frac_integral(1.5, phi_sin, u, t) >= 0.0
        assert fb.frac_integral(2.5, phi_sin, u, t) >= 0.0


def test_frac_derivative_zero(phi_identity):
    grid = fb.build_grid(phi_identity, 128)
    zero = fb.GridFunction.constant(grid, 0.0)
    assert fb.frac_derivative(0.5, phi_identity, zero, 0.5) == 0.0


def test_frac_derivative_classical_value(phi_identity):
    grid = fb.build_grid(phi_identity, 1024)
    u = fb.GridFunction.sample(grid, lambda s: s)
    value = fb.frac_derivative(0.5, phi_identity, u, 0.5)
    assert value == pytest.approx(HALF_DERIV_OF_S_AT_HALF, abs=TOL_DERIVATIVE_IDENTITY)


def test_frac_derivative_domain_errors(phi_identity):
    grid = fb.build_grid(phi_identity, 64)
    u = fb.GridFunction.constant(grid, 1.0)
    for bad_t in (0.0, 1.0, -0.2, 1.2):
        with pytest.raises(DomainError):
            fb.frac_derivative(0.5, phi_identity, u, bad_t)
    with pytest.raises(DomainError):
        fb.frac_derivative(3.0, phi_identity, u, 0.5)  # floor+1 = 4 stencil unavailable
    with pytest.raises(DomainError):
        fb.frac_derivative(-1.0, phi_identity, u, 0.5)


@pytest.mark.parametrize("alpha", [0.5, 1.5, 2.5])
def test_frac_derivative_refuses_a_step_below_a_tenth_of_nominal(phi_sin, phi_identity, alpha):
    # 1e-6 from an endpoint the step would be about 1e-4 of its nominal
    # length, and the difference quotient rounding noise
    u = fb.GridFunction.sample(fb.build_grid(phi_sin, 128), np.exp)
    for t in (1e-6, 1.0 - 1e-6):
        with pytest.raises(DomainError, match="too close to an endpoint"):
            fb.frac_derivative(alpha, phi_sin, u, t)
    for t in (0.02, 0.1, 0.5, 0.9, 0.98):
        assert math.isfinite(fb.frac_derivative(alpha, phi_sin, u, t))
    # on the identity map the step is 0.45 t / reach, so the edge is sharp
    n = int(alpha) + 1
    edge = _MIN_STEP_SHARE * _STENCILS[n][0] * _STENCILS[n][1][0] / 0.45
    one = fb.GridFunction.constant(fb.build_grid(phi_identity, 64), 1.0)
    for t in (1.01 * edge, 1.0 - 1.01 * edge):
        assert math.isfinite(fb.frac_derivative(alpha, phi_identity, one, t))
    for t in (0.99 * edge, 1.0 - 0.99 * edge):
        with pytest.raises(DomainError):
            fb.frac_derivative(alpha, phi_identity, one, t)


def test_frac_derivative_refuses_an_array_of_points(phi_identity):
    u = fb.GridFunction.constant(fb.build_grid(phi_identity, 64), 1.0)
    for t in (np.array([0.3, 0.6]), np.array([0.5]), [0.5]):
        with pytest.raises(DomainError):
            fb.frac_derivative(0.5, phi_identity, u, t)
    assert type(fb.frac_derivative(0.5, phi_identity, u, np.float64(0.5))) is float


@pytest.mark.parametrize("kind", ["identity", "sqrt_half"])
def test_composition_returns_u(kind):
    phi = fb.phi_catalog(kind)
    grid = fb.build_grid(phi, 256)
    alpha = 2.5
    u = fb.GridFunction.sample(grid, lambda s: np.exp(s))
    w = fb.GridFunction(grid, fb.frac_integral(alpha, phi, u, grid.nodes))
    for t in np.linspace(0.1, 0.9, 9):
        value = fb.frac_derivative(alpha, phi, w, float(t))
        assert value == pytest.approx(math.exp(t), abs=TOL_DERIVATIVE_IDENTITY)


def test_semigroup_zero(phi_sqrt):
    grid = fb.build_grid(phi_sqrt, 128)
    zero = fb.GridFunction.constant(grid, 0.0)
    assert fb.semigroup_defect(1.2, 0.8, phi_sqrt, zero) == 0.0


def test_semigroup_iterated_unit_integral(phi_identity):
    grid = fb.build_grid(phi_identity, 256)
    one = fb.GridFunction.constant(grid, 1.0)
    # exact law: the double integral of 1 is t^2/2
    assert fb.semigroup_defect(1.0, 1.0, phi_identity, one) <= TOL_INTEGRAL_IDENTITY


def test_semigroup_sqrt_half_linear(phi_sqrt):
    grid = fb.build_grid(phi_sqrt, 2048)
    u = fb.GridFunction.sample(grid, lambda s: s)
    assert fb.semigroup_defect(1.2, 0.8, phi_sqrt, u) <= 1e-6


def test_semigroup_defect_shrinks_with_refinement(phi_sqrt):
    defects = []
    for panels in (128, 256):
        grid = fb.build_grid(phi_sqrt, panels)
        u = fb.GridFunction.sample(grid, lambda s: np.exp(s))
        defects.append(fb.semigroup_defect(1.2, 0.8, phi_sqrt, u))
    assert defects[1] <= defects[0] / 2.0


def test_semigroup_rejects_bad_orders(phi_identity):
    grid = fb.build_grid(phi_identity, 64)
    u = fb.GridFunction.constant(grid, 1.0)
    with pytest.raises(DomainError):
        fb.semigroup_defect(0.0, 1.0, phi_identity, u)


def test_calculus_refuses_u_off_the_grids_of_phi(phi_sqrt):
    # only a grid function on a grid of this very map is integrated; a
    # callable is sampled by the caller, never onto a hidden grid
    twin = fb.phi_catalog("sqrt_half")
    assert twin is not phi_sqrt and twin.kind == phi_sqrt.kind
    foreign = fb.GridFunction.sample(fb.build_grid(twin, 64), np.exp)
    calls = [lambda u: fb.frac_integral(1.5, phi_sqrt, u, 0.5),
             lambda u: fb.frac_derivative(0.5, phi_sqrt, u, 0.5),
             lambda u: fb.semigroup_defect(1.2, 0.8, phi_sqrt, u)]
    for call in calls:
        for u in (np.exp, foreign, 1.0):
            with pytest.raises(ConfigurationError, match=r"GridFunction\.sample\(build_grid"):
                call(u)
    # the one-liner the message names is accepted
    own = fb.GridFunction.sample(fb.build_grid(phi_sqrt, 64), np.exp)
    assert all(math.isfinite(call(own)) for call in calls)


def _integral_at(alpha, u, y):
    """One upper limit through _integral_y's row blocks: the per-node
    reference for batched code and for the one-limit path of scalar
    frac_integral and of frac_derivative, so the tests that use it
    compare the two implementations, not one with itself."""
    return float(_integral_y(alpha, u, np.array([y]))[0])


@pytest.mark.parametrize("alpha", [0.3, 0.8, 2.5, 3.7])
@pytest.mark.parametrize("kind", ["sin_quarter_pi", "sqrt_half", "table"])
def test_one_limit_path_equals_the_block_path_bit_for_bit(kind, alpha):
    # a scalar limit runs _at_limit, an array _integral_y's row blocks;
    # at 512 panels, at both ends, every super-panel bound and every node
    phi = catalog_map(kind)
    grid = fb.build_grid(phi, 512)
    u = fb.GridFunction.sample(grid, np.exp)
    bounds = grid._super_panels[0]
    ys = np.concatenate([phi.image, bounds, grid.y_nodes])
    assert (np.array([_at_limit(alpha, u, float(y)) for y in ys]).tobytes()
            == _integral_y(alpha, u, ys).tobytes())
    ts = np.concatenate([[0.0, 1.0], phi.inverse(bounds), grid.nodes])
    assert (np.array([fb.frac_integral(alpha, phi, u, float(t)) for t in ts]).tobytes()
            == fb.frac_integral(alpha, phi, u, ts).tobytes())


@pytest.mark.parametrize("alpha", [0.6, 2.5])
@pytest.mark.parametrize("kind", PHI_KINDS)
def test_frac_integral_array_of_limits_matches_scalar_calls(kind, alpha):
    phi = catalog_map(kind)
    grid = fb.build_grid(phi, 64)
    u = fb.GridFunction.sample(grid, lambda s: np.exp(s))
    # more limits than one block of windows holds (936), the
    # super-panel bounds, repeated limits, and all of them shuffled
    bounds = np.asarray(phi.inverse(grid._super_panels[0]), dtype=float)
    ts = np.concatenate([[0.0, 1.0], np.linspace(0.0, 1.0, 601), bounds, bounds[::3], [0.5] * 5])
    ts = np.concatenate([ts, np.random.default_rng(11).permutation(ts)])
    batched = fb.frac_integral(alpha, phi, u, ts)
    looped = np.array([fb.frac_integral(alpha, phi, u, float(t)) for t in ts])
    assert batched[0] == 0.0
    assert batched.tobytes() == looped.tobytes()
    # a float, an np.float64 and a 0-d array give the float of a
    # one-element array
    for t in (0.0, 0.5, 1.0):
        reference = fb.frac_integral(alpha, phi, u, np.array([t]))
        for limit in (t, np.float64(t), np.array(t)):
            value = fb.frac_integral(alpha, phi, u, limit)
            assert type(value) is float
            assert np.array([value]).tobytes() == reference.tobytes()
    assert fb.frac_integral(alpha, phi, u, ts[:6].reshape(2, 3)).shape == (2, 3)
    for bad in (np.array([0.5, 1.5]), np.array([math.nan]), math.nan, np.float64(-0.1)):
        with pytest.raises(DomainError):
            fb.frac_integral(alpha, phi, u, bad)


@pytest.mark.parametrize("alpha", [0.6, 2.5])
def test_frac_integral_reads_no_super_panel_above_its_limit(phi_sqrt, alpha):
    # the far zone stops below the limit's window: values on the
    # super-panels above the one that holds the limit change nothing
    grid = fb.build_grid(phi_sqrt, 64)
    u = fb.GridFunction.sample(grid, np.exp)
    bounds = grid._super_panels[0]
    for t in (0.01, 0.2, 0.5, 0.77, 0.95):
        k = int(np.searchsorted(bounds, phi_sqrt(t), side="right"))
        hot = u.values.copy()
        hot[4 * (k + 1):] = 1e6
        hot = fb.GridFunction(grid, hot)
        ts = np.linspace(0.0, t, 40)
        for limits in (t, ts, ts[::-1]):
            assert (np.asarray(fb.frac_integral(alpha, phi_sqrt, hot, limits)).tobytes()
                    == np.asarray(fb.frac_integral(alpha, phi_sqrt, u, limits)).tobytes())


def test_frac_integral_memory_is_bounded_in_one_window(phi_sin):
    # 20 000 limits in one super-panel at 512 panels share one window;
    # its far zone goes in row blocks, not in one 20 000-row array
    grid = fb.build_grid(phi_sin, 512)
    u = fb.GridFunction.sample(grid, np.exp)
    ts = np.full(20_000, 0.9)
    single = fb.frac_integral(2.5, phi_sin, u, 0.9)
    tracemalloc.start()
    try:
        values = fb.frac_integral(2.5, phi_sin, u, ts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
    assert np.all(values == single)


@pytest.mark.parametrize("kind", ["sin_quarter_pi", "sqrt_half"])
def test_semigroup_defect_matches_scalar_loop(kind):
    phi = fb.phi_catalog(kind)
    grid = fb.build_grid(phi, 128)
    u = fb.GridFunction.sample(grid, lambda s: np.exp(s))
    inner = fb.GridFunction(grid, np.array(
        [_integral_at(0.8, u, y) for y in grid.y_nodes]))
    reference = max(abs(fb.frac_integral(1.2, phi, inner, float(t))
                        - fb.frac_integral(2.0, phi, u, float(t)))
                    for t in np.linspace(0.0, 1.0, 33))
    assert abs(fb.semigroup_defect(1.2, 0.8, phi, u) - reference) <= 1e-15


@pytest.mark.parametrize("alpha", [0.5, 1.5, 2.5])
def test_frac_derivative_matches_scalar_stencil(phi_sin, alpha):
    grid = fb.build_grid(phi_sin, 128)
    u = fb.GridFunction.sample(grid, lambda s: np.exp(s))
    n = int(alpha) + 1
    y0, y1 = float(phi_sin(0.0)), float(phi_sin(1.0))
    for t in (0.02, 0.3, 0.7, 0.98):
        y = float(phi_sin(t))
        h = min(_STENCILS[n][0] * (y1 - y0), 0.45 * min(y - y0, y1 - y) / _STENCILS[n][1][0])

        def F(yy):
            return _integral_at(n - alpha, u, yy)

        if n == 1:
            reference = (F(y + h) - F(y - h)) / (2.0 * h)
        elif n == 2:
            reference = (F(y + h) - 2.0 * F(y) + F(y - h)) / (h * h)
        else:
            reference = (F(y + 2.0 * h) - 2.0 * F(y + h) + 2.0 * F(y - h)
                         - F(y - 2.0 * h)) / (2.0 * h**3)
        assert abs(fb.frac_derivative(alpha, phi_sin, u, t) - reference) <= 1e-15


@pytest.mark.parametrize("kind", ["identity", "sin_quarter_pi", "sqrt_half"])
@pytest.mark.parametrize("alpha", [2.05, 2.5, 3.0])
def test_integral_weights_are_frac_integrals_rule(kind, alpha):
    # the operator's tail rows: order alpha - 1 at phi(1), order alpha at
    # phi(eta), as a row of node weights.  On a map with phi(0) != 0 the
    # grid's y nodes carry the rounding of phi(0) + span * x, which moves
    # frac_integral's cubics off those of the unit tables by up to about
    # 1e-13 of a node spacing at 512 panels
    phi = catalog_map(kind)
    grid = fb.build_grid(phi, 512)
    tol = 1e-14 if phi.image[0] == 0.0 else 2e-13
    rng = np.random.default_rng(11)
    for a, t in ((alpha - 1.0, 1.0), (alpha, 0.5)):
        weights = _integral_weights(a, grid, float(phi(t)))
        for values in rng.uniform(-1.0, 1.0, (4, grid.size)):
            u = fb.GridFunction(grid, values)
            scale = np.abs(weights) @ np.abs(values)
            assert abs(weights @ values - fb.frac_integral(a, phi, u, t)) <= tol * scale


@pytest.mark.parametrize("kind", ["identity", "sin_quarter_pi", "sqrt_half"])
@pytest.mark.parametrize("panels", [16, 64])
@pytest.mark.parametrize("alpha", [2.05, 2.5, 3.0])
def test_band_rows_integrate_cubics_exactly(kind, panels, alpha):
    # row i of the band, from super-panel q of its band up to its own,
    # integrates (y - e_q)**d, d <= 3, e_q the lower bound of q, against
    # (y_i - y)**(alpha - 1) / Gamma(alpha): Gamma(d + 1) / Gamma(d + 1 + alpha)
    # (y_i - e_q)**(d + alpha).  Offsets are taken in x = (y - phi(0)) / span,
    # the coordinate of the rule's cubics
    phi = catalog_map(kind)
    grid = fb.build_grid(phi, panels)
    breaks, x, _ = _unit_rule(panels)
    span = phi.image[1] - phi.image[0]
    band = _band_weights(alpha, grid)
    n, width = grid.size, _BAND_WIDTH
    assert band.shape == (n, 4 * (width + 1))
    k = np.arange(n) // 4
    columns = 4 * (k - width)[:, None] + np.arange(band.shape[1])
    worst = 0.0
    for s in range(width + 1):
        q = k - width + s
        rows = q >= 0
        # the cubic is 0 on the band's super-panels below q
        inside = (np.arange(band.shape[1]) >= 4 * s) & (columns >= 0)
        offsets = span * (x[np.maximum(columns, 0)] - breaks[2 * np.maximum(q, 0)][:, None])
        reach = span * (x - breaks[2 * np.maximum(q, 0)])
        for d in range(4):
            got = np.sum(np.where(inside, band * offsets**d, 0.0), axis=1)
            exact = math.gamma(d + 1) / math.gamma(d + 1 + alpha) * reach ** (d + alpha)
            worst = max(worst, np.max(np.abs(got - exact)[rows] / exact[rows]))
    assert worst <= 1e-11
    # nothing below super-panel 0
    assert all(np.all(band[4 * q:4 * q + 4, :4 * (width - q)] == 0.0) for q in range(width))
