"""Gamma function and coordinate-map catalog."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fracbvp as fb
from fracbvp.errors import ConfigurationError, DomainError
from fracbvp.special import PHI_KINDS, _bisect_newton_inverse

from conftest import catalog_map, gamma_quadrature_oracle

# frozen from the quadrature oracle above (rounding-level accurate)
GAMMA_2_5 = 1.3293403881791372


def test_gamma_small_integers():
    assert fb.gamma(1.0) == pytest.approx(1.0, rel=1e-12)
    assert fb.gamma(3.0) == pytest.approx(2.0, rel=1e-12)


def test_gamma_factorials():
    for n in range(1, 11):
        assert fb.gamma(float(n)) == pytest.approx(math.factorial(n - 1), rel=1e-12)


def test_gamma_matches_quadrature_oracle():
    live = gamma_quadrature_oracle(2.5)
    assert live == pytest.approx(GAMMA_2_5, rel=1e-12)
    assert fb.gamma(2.5) == pytest.approx(GAMMA_2_5, rel=1e-12)
    for x in (0.5, 0.75, 1.25, 4.0, 7.5, 10.0):
        assert fb.gamma(x) == pytest.approx(gamma_quadrature_oracle(x), rel=1e-12)


def test_gamma_accuracy_band():
    xs = np.linspace(0.5, 10.0, 401)
    worst = max(abs(fb.gamma(float(x)) - math.gamma(float(x))) / math.gamma(float(x))
                for x in xs)
    assert worst <= 1e-12


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=0.5, max_value=9.0, allow_nan=False))
def test_gamma_recurrence(x):
    assert fb.gamma(x + 1.0) == pytest.approx(x * fb.gamma(x), rel=1e-11)


def test_gamma_domain_errors():
    for bad in (0.0, -1.0, -0.5):
        with pytest.raises(DomainError):
            fb.gamma(bad)


def test_gamma_up_to_its_overflow_point():
    # the Lanczos power alone overflows from x = 143 on; Gamma itself
    # only above about 171.62, where a DomainError says so
    for x in (142.0, 143.0, 150.5, 171.0, 171.6):
        assert fb.gamma(x) == pytest.approx(math.gamma(x), rel=1e-12)
    for bad in (171.7, 400.0, math.inf, math.nan):
        with pytest.raises(DomainError):
            fb.gamma(bad)


def test_gamma_below_half_reflection():
    assert fb.gamma(0.25) == pytest.approx(math.gamma(0.25), rel=1e-12)


@pytest.mark.parametrize("kind", ["identity", "sin_quarter_pi", "sqrt_half"])
def test_phi_map_invariants(kind):
    phi = fb.phi_catalog(kind)
    ts = np.linspace(0.0, 1.0, 1000)
    vals = phi(ts)
    assert np.all(np.diff(vals) > 0.0)
    assert np.all(phi.deriv(ts) > 0.0)
    assert np.max(np.abs(phi.inverse(phi(ts)) - ts)) <= 1e-10
    # analytic derivative against a central difference
    h = 1e-5
    mid = ts[(ts > h) & (ts < 1 - h)]
    fd = (phi(mid + h) - phi(mid - h)) / (2 * h)
    assert np.max(np.abs(phi.deriv(mid) - fd)) <= 1e-6


def test_identity_values():
    phi = fb.phi_catalog("identity")
    assert float(phi(0.3)) == pytest.approx(0.3, abs=1e-15)
    assert float(phi.deriv(0.3)) == pytest.approx(1.0, abs=1e-15)


def test_sin_quarter_pi_values():
    phi = fb.phi_catalog("sin_quarter_pi")
    assert float(phi(1.0)) == pytest.approx(math.sqrt(2.0) / 2.0, abs=1e-15)
    assert float(phi(0.0)) == 0.0


def test_sqrt_half_values():
    phi = fb.phi_catalog("sqrt_half")
    assert float(phi(0.0)) == pytest.approx(0.5, abs=1e-15)
    assert float(phi(1.0)) == pytest.approx(math.sqrt(2.0) / 2.0, abs=1e-15)
    assert phi.image == (float(phi(0.0)), float(phi(1.0)))


def test_table_map_invariants():
    ts = np.linspace(0.0, 1.0, 21)
    samples = np.column_stack([ts, np.sqrt(0.25 + 0.5 * ts)])
    phi = fb.phi_catalog("table", samples=samples)
    assert phi.kind == "table"
    qs = np.linspace(0.0, 1.0, 1000)
    assert np.all(np.diff(phi(qs)) > 0.0)
    assert np.all(phi.deriv(qs) > 0.0)
    assert np.max(np.abs(phi.inverse(phi(qs)) - qs)) <= 1e-10
    # hits the knots exactly
    assert np.max(np.abs(phi(ts) - samples[:, 1])) == 0.0


def test_table_identity_is_exact():
    ts = np.linspace(0.0, 1.0, 33)
    phi = fb.phi_catalog("table", samples=np.column_stack([ts, ts]))
    qs = np.linspace(0.0, 1.0, 501)
    assert np.array_equal(phi(qs), qs)
    assert np.array_equal(phi.inverse(qs), qs)


def test_table_rejections():
    with pytest.raises(ConfigurationError):
        fb.phi_catalog("table", samples=[[0, 0], [0.5, 0.6], [0.7, 0.5], [1, 1]])
    with pytest.raises(ConfigurationError):
        fb.phi_catalog("table", samples=[[0, 0], [0.5, 0.5], [1, 1]])
    with pytest.raises(ConfigurationError):
        fb.phi_catalog("table")  # samples required
    with pytest.raises(ConfigurationError):
        fb.phi_catalog("table", samples=[[0.1, 0.1], [0.4, 0.4], [0.7, 0.7], [0.9, 0.9]])


def test_unknown_kind_rejected():
    with pytest.raises(ConfigurationError):
        fb.phi_catalog("parabola")


@pytest.mark.parametrize("kind", PHI_KINDS)
def test_inverse_checks_the_image_interval_for_every_kind(kind):
    phi = catalog_map(kind)
    lo, hi = float(phi(0.0)), float(phi(1.0))
    span = hi - lo
    for bad in (lo - 0.1 * span, hi + 0.1 * span, -0.5, 1.5, math.nan):
        with pytest.raises(DomainError):
            phi.inverse(bad)
        with pytest.raises(DomainError):
            phi.inverse(np.array([lo, bad, hi]))
    # rounding-level overshoot is clipped onto the interval
    assert phi.inverse(lo - 1e-12 * span) == phi.inverse(lo)
    assert phi.inverse(hi + 1e-12 * span) == phi.inverse(hi)
    assert np.array_equal(phi.inverse(np.array([lo - 1e-12 * span, hi + 1e-12 * span])),
                          phi.inverse(np.array([lo, hi])))


@pytest.mark.parametrize("kind", PHI_KINDS)
def test_array_call_equals_float_call_bit_for_bit(kind):
    # a float gives a float, and each element of an array call equals
    # the float call of that element, for the map, phi' and the inverse
    phi = catalog_map(kind)
    ts = np.linspace(0.0, 1.0, 10001)
    ys = np.linspace(*phi.image, 10001)
    for method, xs in ((phi, ts), (phi.deriv, ts), (phi.inverse, ys)):
        floats = [method(float(x)) for x in xs]
        assert all(type(v) is float for v in floats)
        assert method(xs).tobytes() == np.array(floats).tobytes()


def test_sin_closed_form_inverse_matches_bisection():
    phi = fb.phi_catalog("sin_quarter_pi")
    q = math.pi / 4.0
    seed_ts = np.linspace(0.0, 1.0, 4097)
    seed_table = (seed_ts, np.sin(q * seed_ts))
    y_nodes = fb.build_grid(phi, 1024).y_nodes
    closed = phi.inverse(y_nodes)
    bisected = _bisect_newton_inverse(phi.fn, phi.deriv_fn, y_nodes, seed_table)
    # the bisection inverts the rounded sin, the closed form the exact
    # one: they agree to one ulp of 1.0
    assert np.max(np.abs(closed - bisected)) <= np.finfo(float).eps
    ys = np.linspace(*phi.image, 200001)
    assert np.max(np.abs(phi(phi.inverse(ys)) - ys)) <= 2.3e-16
    for y in ys[::5000]:
        t = phi.inverse(float(y))
        assert isinstance(t, float)
        assert abs(phi(t) - y) <= 2.3e-16
