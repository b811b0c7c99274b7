"""Kernel constants, the kernel formula against the paper's branches, and
the sampled property checks."""

import math

import numpy as np
import pytest

import fracbvp as fb
from fracbvp.errors import ConfigurationError, DomainError
from fracbvp.green import _pow_pos

from conftest import paper_green
from oracles import oracle_classical_green, oracle_grid_max


@pytest.fixture(scope="module")
def kernel_mu_negative(phi_sin):
    """beta above its bound, so mu < 0 and the kernel changes sign."""
    return fb.build_kernel(fb.BvpParams(alpha=2.5, beta=3.5, eta=0.5, phi=phi_sin))


def test_params_validation(phi_identity):
    with pytest.raises(ConfigurationError):
        fb.BvpParams(alpha=2.0, beta=1.0, eta=0.5, phi=phi_identity)
    with pytest.raises(ConfigurationError):
        fb.BvpParams(alpha=3.2, beta=1.0, eta=0.5, phi=phi_identity)
    with pytest.raises(ConfigurationError):
        fb.BvpParams(alpha=2.5, beta=-0.1, eta=0.5, phi=phi_identity)
    with pytest.raises(ConfigurationError):
        fb.BvpParams(alpha=2.5, beta=float("inf"), eta=0.5, phi=phi_identity)
    with pytest.raises(ConfigurationError):
        fb.BvpParams(alpha=2.5, beta=1.0, eta=0.0, phi=phi_identity)
    with pytest.raises(ConfigurationError):
        fb.BvpParams(alpha=2.5, beta=1.0, eta=1.1, phi=phi_identity)


@pytest.mark.parametrize("exponent", [1.0, 1.5])
def test_pow_pos_in_place_matches_fresh(exponent):
    # nonpositive and NaN bases give +0 in place as in a fresh array; -0.0
    # runs of every length up to 17 reach both the SIMD body and the
    # scalar tail of a ufunc loop
    specials = [np.nan, -1.0, -0.0, 0.0, 1e-300, 2.0, np.inf]
    for base in [np.array(specials * 5)] + [np.full(n, -0.0) for n in range(1, 18)]:
        fresh = _pow_pos(base, exponent)
        in_place = base.copy()
        assert _pow_pos(in_place, exponent, out=in_place) is in_place
        assert in_place.tobytes() == fresh.tobytes()
        assert not np.any(np.signbit(fresh))


def test_mu_reference_values(kernel41, kernel42):
    assert kernel41.mu == pytest.approx(0.22703, abs=1e-4)
    assert kernel42.mu == pytest.approx(0.0346236, abs=1e-4)


def test_mu_identity_reduction(phi_identity):
    params = fb.BvpParams(alpha=2.5, beta=0.0, eta=0.3, phi=phi_identity)
    assert fb.build_kernel(params).mu == pytest.approx(1.5, abs=1e-14)


def test_beta_bound_reference_values(kernel41, kernel42):
    b41 = kernel41.beta_bound
    b42 = kernel42.beta_bound
    assert b41 == pytest.approx(2.95903, abs=1e-4)
    assert b42 == pytest.approx(5.60946, abs=1e-4)
    assert b41 > kernel41.params.beta
    assert b42 > kernel42.params.beta


def test_beta_bound_identity_eta_one(phi_identity):
    kernel = fb.build_kernel(fb.BvpParams(alpha=2.7, beta=0.0, eta=1.0, phi=phi_identity))
    assert kernel.beta_bound == pytest.approx(1.7, abs=1e-14)


def test_beta_bound_infinite_when_se_power_underflows(phi_identity):
    # Se**(alpha-1) = 1e-450 underflows to 0: no bound on beta, mu = lead
    kernel = fb.build_kernel(fb.BvpParams(alpha=2.5, beta=1.0, eta=1e-300, phi=phi_identity))
    assert kernel.beta_bound == math.inf
    assert kernel.mu == pytest.approx(1.5, abs=1e-14)


def test_green_vanishes_on_edges(kernel41):
    for s in (0.2, 0.5, 0.9):
        assert float(fb.green_values(kernel41, 0.0, s)) == 0.0
    for t in (0.2, 0.5, 0.9):
        assert float(fb.green_values(kernel41, t, 1.0)) == pytest.approx(0.0, abs=1e-15)


def test_green_domain_errors(kernel41):
    with pytest.raises(DomainError):
        float(fb.green_values(kernel41, -0.1, 0.5))
    with pytest.raises(DomainError):
        float(fb.green_values(kernel41, 0.5, 1.5))
    # NaN fails 0 <= s <= 1, as in green and frac_integral
    for s in (-0.1, 1.5, math.nan, [0.2, math.nan]):
        with pytest.raises(DomainError):
            fb.green_max_bound(kernel41, s)
    # green_values applies the same rule to t and to s
    for bad in (-0.1, 1.5, math.nan, np.array([0.2, math.nan])):
        with pytest.raises(DomainError, match="t must"):
            fb.green_values(kernel41, bad, 0.5)
        with pytest.raises(DomainError, match="s must"):
            fb.green_values(kernel41, 0.5, bad)


def test_green_classical_spot_value(classical_kernel):
    assert float(fb.green_values(classical_kernel, 0.5, 0.25)) == pytest.approx(0.0625, abs=1e-12)


def test_green_classical_reduction_grid(classical_kernel):
    ts = np.linspace(0.0, 1.0, 50)
    worst = 0.0
    for t in ts:
        for s in ts:
            worst = max(worst, abs(float(fb.green_values(classical_kernel, float(t), float(s)))
                                   - oracle_classical_green(float(t), float(s))))
    assert worst <= 1e-12


def test_green_mu_zero_raises(phi_identity):
    # alpha = 3, beta = 2, eta = 1 on the identity map gives mu = 2 - 2 = 0
    with pytest.raises(ConfigurationError, match="mu != 0"):
        fb.build_kernel(fb.BvpParams(alpha=3.0, beta=2.0, eta=1.0, phi=phi_identity))


def test_green_negative_mu_still_evaluates(kernel_mu_negative):
    assert kernel_mu_negative.mu < 0.0
    value = float(fb.green_values(kernel_mu_negative, 0.5, 0.5))
    assert np.isfinite(value)


@pytest.mark.parametrize("which", ["kernel41", "kernel42"])
def test_seam_agreement(which, request):
    # G is continuous across s = t and s = eta: the values just either
    # side of each seam differ by O(delta)
    kernel = request.getfixturevalue(which)
    pts = np.arange(1, 200) / 201.0
    scale = float(np.max(np.abs(fb.green_values(kernel, pts[:, None], pts[None, :]))))
    delta = 1e-9
    for seam in (pts, np.full_like(pts, kernel.params.eta)):
        jump = fb.green_values(kernel, pts, seam + delta) - fb.green_values(kernel, pts, seam - delta)
        assert np.max(np.abs(jump)) <= 1e-6 * scale


@pytest.mark.parametrize("which", ["kernel41", "kernel42"])
def test_positivity_and_dominance(which, request):
    kernel = request.getfixturevalue(which)
    pts = np.arange(1, 201) / 201.0
    values = fb.green_values(kernel, pts[:, None], pts[None, :])
    assert np.min(values) > 0.0
    bounds = fb.green_max_bound(kernel, pts)
    assert np.max(values - bounds[None, :]) <= 1e-12


def test_green_max_bound_values(classical_kernel, kernel41):
    assert fb.green_max_bound(classical_kernel, 0.5) == pytest.approx(0.25, abs=1e-13)
    assert fb.green_max_bound(kernel41, 1.0) == 0.0
    # brute-force maximum over t stays below the bound
    observed = oracle_grid_max(lambda t: fb.green_values(kernel41, t, 0.5), 10001)
    assert observed <= fb.green_max_bound(kernel41, 0.5) + 1e-12


def test_check_kernel_properties_pass(kernel41, kernel42):
    for kernel in (kernel41, kernel42):
        report = fb.check_kernel_properties(kernel)
        assert report.hypothesis_ok
        assert report.positivity_ok
        assert report.seam_ok
        assert report.bound_ok
        assert report.passed


def test_check_kernel_properties_beta_above_bound(kernel_mu_negative):
    report = fb.check_kernel_properties(kernel_mu_negative)
    assert not report.hypothesis_ok
    # outside the guaranteed regime the certificate must at least flag
    # the hypothesis; here positivity actually fails as well
    assert not report.positivity_ok
    assert not report.passed


def test_branch_dispatch_matches_branches(kernel42):
    eta = kernel42.params.eta
    # one point inside each of the paper's four regions
    cases = [
        (0.7, 0.2),   # s <= min(eta, t)
        (0.1, 0.25),  # t <= s <= eta
        (0.9, 0.5),   # eta <= s <= t
        (0.2, 0.8),   # max(eta, t) <= s
    ]
    assert cases[1][1] <= eta <= cases[2][1]
    for t, s in cases:
        expected = float(paper_green(kernel42.params, [t], [s])[0, 0])
        assert float(fb.green_values(kernel42, t, s)) == pytest.approx(expected, rel=1e-13)


@pytest.mark.parametrize("which", ["kernel41", "kernel42", "classical_kernel",
                                   "kernel_mu_negative"])
def test_single_formula_equals_branch_dispatch(which, request):
    kernel = request.getfixturevalue(which)
    interior = np.arange(1, 201) / 201.0
    # a uniform grid through both seams, t = s and s = eta
    uniform = np.arange(301) / 300.0
    assert kernel.params.eta in uniform
    for pts in (interior, uniform):
        values = fb.green_values(kernel, pts[:, None], pts[None, :])
        oracle = paper_green(kernel.params, pts, pts)
        assert np.max(np.abs(values - oracle)) <= 1e-13 * np.max(np.abs(values))
