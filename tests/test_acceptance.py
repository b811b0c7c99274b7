"""Acceptance suite: every criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail
line per criterion.
"""

import math
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

import fracbvp as fb
from fracbvp.cli import main, reference_table

from conftest import assert_paper_families, paper_green
from oracles import oracle_classical_green


@contextmanager
def criterion(number, name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} [{name}]: FAIL")
        raise
    print(f"ACCEPTANCE {number} [{name}]: PASS")


def eventually_below(values, bound):
    """True when some tail of the sequence stays at or below the bound."""
    if not values:
        return False
    for k in range(len(values)):
        if all(v <= bound for v in values[k:]):
            return True
    return False


@pytest.fixture(scope="module")
def solve42(problem42):
    reports = {}
    for panels in (512, 1024):
        grid = problem42.grid(panels)
        cert = fb.build_certificate(problem42.spec, problem42.kernel, "uniqueness", grid=grid)
        t0 = time.perf_counter()
        reports[panels] = fb.picard_solve(
            problem42.spec, problem42.kernel, fb.GridFunction.constant(grid, 0.0),
            tol=1e-16, max_iter=200, certificate=cert)
        reports[f"time{panels}"] = time.perf_counter() - t0
        reports[f"cert{panels}"] = cert
    return reports


def test_criterion_1_reference_constants():
    with criterion(1, "reference constants"):
        t0 = time.perf_counter()
        rows = reference_table()
        elapsed = time.perf_counter() - t0
        assert len(rows) == 6
        for row in rows:
            assert row["abs_diff"] <= 1e-4, row
        assert elapsed < 1.0
        assert main(["verify-paper"]) == 0


def test_criterion_2_kernel_property_suite(kernel41, kernel42):
    with criterion(2, "kernel positivity, seams, bound"):
        t0 = time.perf_counter()
        pts = np.arange(1, 201) / 201.0
        for kernel in (kernel41, kernel42):
            values = fb.green_values(kernel, pts[:, None], pts[None, :])
            assert np.min(values) > 0.0
            # the paper's four branches, one per region
            oracle = paper_green(kernel.params, pts, pts)
            assert np.max(np.abs(values - oracle)) <= 1e-13 * np.max(np.abs(values))
            bounds = fb.green_max_bound(kernel, pts)
            assert np.max(values - bounds[None, :]) <= 1e-12
            report = fb.check_kernel_properties(kernel)
            assert report.passed
        assert time.perf_counter() - t0 < 10.0


def test_criterion_3_classical_reduction(classical_kernel):
    with criterion(3, "classical-reduction equivalence"):
        ts = np.linspace(0.0, 1.0, 50)
        grid_vals = fb.green_values(classical_kernel, ts[:, None], ts[None, :])
        oracle_vals = np.array([[oracle_classical_green(float(t), float(s)) for s in ts]
                                for t in ts])
        assert np.max(np.abs(grid_vals - oracle_vals)) <= 1e-12
        assert abs(fb.green(classical_kernel, 0.5, 0.25) - 0.0625) <= 1e-12


def test_criterion_4_fractional_calculus_laws(phi_sin, phi_sqrt):
    with criterion(4, "fractional-calculus laws"):
        smooth = [lambda s: np.exp(s), lambda s: np.sin(2.0 * s) + 1.5]
        for phi in (phi_sin, phi_sqrt):
            grid = fb.build_grid(phi, 1024)
            for fn in smooth:
                u = fb.GridFunction.sample(grid, fn)
                assert fb.semigroup_defect(1.2, 0.8, phi, u) <= 1e-6
        # derivative of the integral returns the function
        for phi in (phi_sin, phi_sqrt):
            grid = fb.build_grid(phi, 1024)
            u = fb.GridFunction.sample(grid, lambda s: np.exp(s))
            w = fb.GridFunction(grid, fb.frac_integral(2.5, phi, u, grid.nodes))
            for t in np.linspace(0.1, 0.9, 9):
                assert abs(fb.frac_derivative(2.5, phi, w, float(t)) - math.exp(t)) <= 1e-4
        # defects shrink by at least 2x under grid doubling
        defects = []
        for panels in (128, 256):
            grid = fb.build_grid(phi_sqrt, panels)
            u = fb.GridFunction.sample(grid, lambda s: np.exp(s))
            defects.append(fb.semigroup_defect(1.2, 0.8, phi_sqrt, u))
        assert defects[1] <= defects[0] / 2.0


def test_criterion_5_certified_solve(problem42, solve42):
    with criterion(5, "certified solve at both resolutions"):
        report = solve42[1024]
        assert solve42["cert1024"].verdict == "unique-solution"
        assert report.converged
        assert report.fixed_point_residual <= 1e-6
        b0, b1, b2 = report.boundary_residuals
        assert b0 <= 1e-4 and b1 <= 1e-4 and b2 <= 1e-4
        assert eventually_below(list(report.observed_ratios), 0.106)
        ts = np.linspace(0.0, 1.0, 101)
        gap = np.max(np.abs(solve42[512].solution(ts) - solve42[1024].solution(ts)))
        assert gap <= 1e-5
        assert solve42["time1024"] < 60.0


def test_criterion_6_zero_fixed_point_with_certificate(problem41):
    with criterion(6, "linear example fixed point and certificate"):
        grid = problem41.grid(1024)
        cert = fb.build_certificate(problem41.spec, problem41.kernel,
                                    "positive-existence", grid=grid)
        assert cert.verdict == "exists-positive"
        assert cert.geraghty is not None
        assert cert.geraghty.passed and cert.geraghty.checked == 50
        assert cert.admissibility is not None and cert.admissibility.passed
        report = fb.picard_solve(problem41.spec, problem41.kernel,
                                 fb.GridFunction.constant(grid, 1.0),
                                 tol=1e-16, max_iter=100, certificate=cert)
        assert report.converged
        assert np.max(np.abs(report.solution.values)) <= 1e-8


def test_criterion_7_negative_controls(problem42, phi_sin, tmp_path, capsys):
    with criterion(7, "negative controls and exit codes"):
        # beta above its bound flags the positivity hypothesis
        bad = fb.build_kernel(fb.BvpParams(2.5, 3.5, 0.5, phi_sin))
        report = fb.check_kernel_properties(bad)
        assert not report.hypothesis_ok
        # tenfold envelope exceeds the threshold
        grid = problem42.grid(256)
        base_g = problem42.spec.g
        scaled = fb.ProblemSpec(f=problem42.spec.f, g=lambda t: 10.0 * base_g(t), f_domain="real")
        cert = fb.build_certificate(scaled, problem42.kernel, "uniqueness", grid=grid)
        assert cert.verdict == "no-certificate"
        # and the contraction factor grows a hundredfold, past 1/2
        assert cert.lam > 0.5
        assert not {h.name: h.ok for h in cert.hypotheses}["lambda_below_half"]
        # exit-code contract, black box
        from fracbvp.cli import bundled_config_path
        e42 = str(bundled_config_path("example42"))
        assert main(["check", e42, "--grid", "256"]) == 0
        bad_cfg = tmp_path / "bad.cfg"
        bad_cfg.write_text("alpha = 2.5\nwhat = 1\n")
        assert main(["check", str(bad_cfg)]) == 1
        beta6 = tmp_path / "beta6.cfg"
        beta6.write_text(Path(e42).read_text().replace("beta = 4", "beta = 6"))
        assert main(["check", str(beta6), "--grid", "256"]) == 2
        div = tmp_path / "div.cfg"
        div.write_text("alpha = 2.5\nbeta = 4\neta = 0.3333333333333333\nphi = sqrt_half\n"
                       "f = custom-expression\nf.expr = 200*u + 1\nmode = solve-only\n"
                       "grid_size = 128\nmax_iter = 10\n")
        assert main(["solve", str(div), "-o", str(tmp_path / "d.csv")]) == 3
        capsys.readouterr()


def test_criterion_8_metric_axioms(phi_identity):
    with criterion(8, "metric axioms and function families"):
        grid = fb.build_grid(phi_identity, 128)
        rng = np.random.default_rng(20240)
        for _ in range(1000):
            a, b, c = (fb.GridFunction(grid, rng.uniform(-5, 5, grid.size))
                       for _ in range(3))
            assert fb.distance(a, c) <= 2.0 * (fb.distance(a, b) + fb.distance(b, c)) + 1e-12
        assert_paper_families()
