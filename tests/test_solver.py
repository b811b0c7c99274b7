"""Integral operator, certificates, Picard iteration, residuals."""

import dataclasses
import math
import os
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import fracbvp as fb
from fracbvp import solver
from fracbvp.cli import bundled_config_path
from fracbvp.config import build_problem, load_config
from fracbvp.errors import ConfigurationError, NumericError
from fracbvp.solver import (DEFAULT_SAMPLE_SEED, VERDICT_EXISTS, VERDICT_NONE, VERDICT_UNIQUE,
                            resolve_seed)
from fracbvp.special import PHI_KINDS

from conftest import catalog_map


def test_problem_spec_domain_validation():
    with pytest.raises(ConfigurationError):
        fb.ProblemSpec(f=lambda t, u: u, f_domain="positive")


def test_apply_operator_zero_f(kernel42, grid256_42):
    spec = fb.ProblemSpec(f=lambda t, u: np.zeros_like(np.asarray(u, dtype=float)))
    u = fb.GridFunction.sample(grid256_42, lambda s: np.sin(5 * s))
    out = fb.Operator(spec, kernel42, grid256_42).apply(u.values)
    assert np.all(out == 0.0)


def test_apply_operator_zero_is_fixed_point_of_linear_f(grid256_41, operator256_41):
    # the builtin linear nonlinearity vanishes at zero state
    zero = fb.GridFunction.constant(grid256_41, 0.0)
    out = operator256_41.apply(zero.values)
    assert np.all(out == 0.0)


def test_apply_operator_classical_closed_form(classical_kernel):
    grid = fb.build_grid(classical_kernel.params.phi, 512)
    spec = fb.ProblemSpec(f=lambda t, u: np.ones_like(np.asarray(u, dtype=float)))
    out = fb.Operator(spec, classical_kernel, grid).apply(np.zeros(grid.size))
    closed = grid.nodes**2 / 4.0 - grid.nodes**3 / 6.0
    assert np.max(np.abs(out - closed)) <= 1e-10


def test_picard_fixed_point_matches_dense_quadrature_oracle(classical_kernel):
    # unit forcing: the fixed point is the plain kernel integral, which
    # the independent hand-simplified kernel integrates by trapezoid
    from oracles import oracle_classical_green

    grid = fb.build_grid(classical_kernel.params.phi, 512)
    spec = fb.ProblemSpec(f=lambda t, u: np.ones_like(np.asarray(u, dtype=float)))
    report = fb.picard_solve(spec, classical_kernel,
                             fb.GridFunction.constant(grid, 0.0),
                             tol=1e-16, max_iter=10)
    assert report.converged
    s = np.linspace(0.0, 1.0, 100_001)
    for t in np.linspace(0.0, 1.0, 21):
        row = 0.5 * np.where(s <= t, t * t * (1 - s) - (t - s) ** 2, t * t * (1 - s))
        # the vectorized row is the same hand formula the scalar oracle uses
        for probe in (0.1, 0.5, 0.9):
            k = int(probe * (s.size - 1))
            assert row[k] == oracle_classical_green(float(t), float(s[k]))
        oracle_value = float(np.trapezoid(row, s))
        assert abs(float(report.solution(t)) - oracle_value) <= 1e-8


def test_apply_operator_mu_zero(phi_identity):
    # no kernel, and so no operator, exists for mu = 0
    with pytest.raises(ConfigurationError, match="mu != 0"):
        fb.build_kernel(fb.BvpParams(alpha=3.0, beta=2.0, eta=1.0, phi=phi_identity))


def _kernel_case(name):
    """Kernels that exercise every branch of the assembly: both bundled
    examples, alpha = 3, eta = 1, mu < 0 and a tabulated map."""
    if name in ("example41", "example42"):
        return build_problem(load_config(bundled_config_path(name))).kernel
    identity = fb.phi_catalog("identity")
    params = {
        "alpha3": dict(alpha=3.0, beta=1.0, eta=0.5, phi=identity),
        "eta1": dict(alpha=2.5, beta=0.5, eta=1.0, phi=identity),
        "mu_negative": dict(alpha=2.5, beta=6.0, eta=0.5, phi=identity),
        "table": dict(alpha=2.5, beta=1.0, eta=0.5, phi=catalog_map("table")),
    }[name]
    return fb.build_kernel(fb.BvpParams(**params))


def _dense_parts(factors):
    """The rank-one and memory parts of the factored operator as dense
    N x N arrays."""
    n = factors.head.size
    memory = np.zeros((n, n))
    i0 = 0
    for block in factors.memory:
        rows, cols = block.shape
        memory[i0:i0 + rows, :cols] = block
        i0 += rows
    assert i0 == n
    return factors.head[:, None] * factors.tail[None, :], memory


def _assert_factors_match_formula(kernel, grid):
    factors = solver.operator_matrix(kernel, grid)
    rank_one, memory = _dense_parts(factors)
    reference = fb.green_values(kernel, grid.nodes[:, None], grid.nodes[None, :]) * grid.weights
    # 8 ulp of the two summed parts: the factors round apart, so the
    # entries are not bitwise those of the formula
    slack = 8 * np.finfo(float).eps * (np.abs(rank_one) + np.abs(memory))
    assert np.all(np.abs(rank_one - memory - reference) <= slack)
    return factors


# the panel counts give one memory block; several, the widest filled in
# more than one sub-block of _BLOCK_ELEMENTS entries; and several with a
# last block shorter than the others
_ASSEMBLY_PANELS = pytest.mark.parametrize(
    "panels", [64, 640, 300], ids=["one-block", "many-blocks", "partial-last-block"])
_ASSEMBLY_CASES = pytest.mark.parametrize(
    "case", ["example41", "example42", "alpha3", "eta1", "mu_negative", "table"])


@_ASSEMBLY_PANELS
@_ASSEMBLY_CASES
def test_operator_matrix_equals_single_formula(case, panels):
    kernel = _kernel_case(case)
    assert case != "mu_negative" or kernel.mu < 0.0
    grid = fb.build_grid(kernel.params.phi, panels)
    factors = _assert_factors_match_formula(kernel, grid)
    shapes = [block.shape for block in factors.memory]
    # each block stops at its own last row's column
    assert [cols for _, cols in shapes] == list(np.cumsum([rows for rows, _ in shapes]))
    if panels == 64:
        assert shapes == [(grid.size, grid.size)]
    elif panels == 640:
        assert len(shapes) > 2 and len({rows for rows, _ in shapes}) == 1
        assert shapes[-2][0] * shapes[-2][1] > solver._BLOCK_ELEMENTS
    else:
        assert len(shapes) > 2 and shapes[-1][0] < shapes[0][0]


@_ASSEMBLY_PANELS
@_ASSEMBLY_CASES
def test_memory_blocks_bitwise_equal_allocating_fill(case, panels):
    # the in-place fill against the allocating sequence it replaced: a
    # fresh zeroed array, the masked power, then mu *, / scale and * w;
    # tobytes() also tells -0.0 from 0.0, which mu < 0 produces mid-way
    kernel = _kernel_case(case)
    grid = fb.build_grid(kernel.params.phi, panels)
    y = np.asarray(kernel.params.phi(grid.nodes), dtype=float)
    i0 = 0
    for block in solver.operator_matrix(kernel, grid).memory:
        rows, cols = block.shape
        diff = y[i0:i0 + rows, None] - y[None, :cols]
        power = np.zeros_like(diff)
        np.power(diff, kernel.params.alpha - 1.0, out=power, where=diff > 0.0)
        expected = kernel.mu * power / kernel.scale * grid.weights[:cols]
        assert block.tobytes() == expected.tobytes()
        i0 += rows
    assert i0 == grid.size


def test_operator_matrix_on_descending_nodes(kernel42):
    # a grid listed backwards is refused where it is made, so no consumer
    # (interpolation, fractional integral, operator) ever sees one
    grid = fb.build_grid(kernel42.params.phi, 300)
    with pytest.raises(ConfigurationError, match="strictly ascending"):
        dataclasses.replace(grid, nodes=grid.nodes[::-1], weights=grid.weights[::-1],
                            y_nodes=grid.y_nodes[::-1])
    repeated = grid.nodes.copy()
    repeated[7] = repeated[6]
    with pytest.raises(ConfigurationError, match="strictly ascending"):
        dataclasses.replace(grid, nodes=repeated)


def test_operator_matrix_peak_is_the_matrix(kernel42):
    grid = fb.build_grid(kernel42.params.phi, 1024)
    tracemalloc.start()
    try:
        factors = solver.operator_matrix(kernel42, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # 16 blocks keep about 0.53 of the dense 8 N**2 bytes, all in one buffer
    assert len(factors.memory) == solver._MEMORY_BLOCKS
    stored = sum(a.nbytes for a in (factors.head, factors.tail, *factors.memory))
    assert stored <= 0.55 * 8 * grid.size**2
    assert all(block.base is factors.memory[0].base for block in factors.memory)
    # the fill runs in the buffer: only masks and N-vectors come on top
    assert peak <= stored + 512 * 1024


@pytest.mark.parametrize("panels", [64, 300])
def test_factored_product_matches_dense(kernel42, panels):
    grid = fb.build_grid(kernel42.params.phi, panels)
    factors = solver.operator_matrix(kernel42, grid)
    rank_one, memory = _dense_parts(factors)
    stack = np.random.default_rng(5).uniform(-1.0, 2.0, (7, grid.size))
    dense = stack @ (rank_one - memory).T
    scale = np.abs(stack) @ (np.abs(rank_one) + np.abs(memory)).T
    assert np.all(np.abs(factors.product(stack) - dense) <= 1e-13 * scale)
    # a vector goes through the same product as one row of a stack
    assert np.all(np.abs(factors.product(stack[3]) - dense[3]) <= 1e-13 * scale[3])


def test_operator_refuses_oversized_grid(kernel41):
    grid = fb.build_grid(kernel41.params.phi, 8194)
    spec = fb.ProblemSpec(f=lambda t, u: u)
    with pytest.raises(ConfigurationError,
                       match="grid_size 8194 has 16388 nodes and its operator would take at least 1089 MiB"
                             ".*largest accepted grid_size is 8192"):
        fb.Operator(spec, kernel41, grid)


_RANK_ONE_PRODUCT = """
import sys
import numpy as np
from fracbvp.solver import OperatorFactors
rng = np.random.default_rng(3)
n = 40_000
factors = OperatorFactors(head=rng.uniform(0.5, 1.5, n), tail=rng.uniform(-1.0, 1.0, n),
                          memory=())
values = rng.uniform(-1.0, 1.0, (3, n))
sys.stdout.write(np.concatenate([factors.product(values[0]), factors.product(values).ravel()])
                 .tobytes().hex())
"""


def test_rank_one_product_independent_of_blas_threads():
    # OpenBLAS threads a dot product only above about 1e4 entries, beyond
    # the operators of the CLI tests; a synthetic rank-one term of 4e4
    # entries needs no N**2 operator
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        proc = subprocess.run([sys.executable, "-c", _RANK_ONE_PRODUCT], capture_output=True,
                              text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert len(outputs[0]) == 2 * 8 * 4 * 40_000
    assert outputs[0] == outputs[1]


def test_operator_size_limit_is_inclusive(kernel41, monkeypatch):
    # with the limit lowered to 128 nodes, 64 panels (128 nodes) are
    # accepted and 66 panels are not
    monkeypatch.setattr(solver, "_MAX_NODES", 128)
    phi = kernel41.params.phi
    assert solver.operator_matrix(kernel41, fb.build_grid(phi, 64)).head.shape == (128,)
    with pytest.raises(ConfigurationError, match="largest accepted grid_size is 64"):
        solver.operator_matrix(kernel41, fb.build_grid(phi, 66))


def test_apply_operator_nonfinite_f(kernel42, grid256_42):
    spec = fb.ProblemSpec(f=lambda t, u: np.where(np.asarray(t) > 0.5, np.nan, 0.0))
    op = fb.Operator(spec, kernel42, grid256_42)
    with pytest.raises(NumericError):
        op.apply(np.zeros(grid256_42.size))
    with pytest.raises(NumericError):
        op.apply(np.zeros((3, grid256_42.size)))


def test_certificate_unique_solution(problem42, grid256_42):
    cert = fb.build_certificate(problem42.spec, problem42.kernel, "uniqueness",
                                grid=grid256_42)
    assert cert.verdict == VERDICT_UNIQUE
    assert cert.g_sup == pytest.approx(0.895984, abs=1e-4)
    assert cert.uniqueness_threshold == pytest.approx(1.95333, abs=1e-4)
    assert cert.lam == pytest.approx(0.1052, abs=1e-4)
    # structural invariants of the certificate
    p = problem42.kernel.params
    threshold = problem42.kernel.mu * fb.gamma(p.alpha) / (
        math.sqrt(2.0) * problem42.kernel.shifted_one ** (p.alpha - 1.0)
        * problem42.kernel.deriv_one)
    assert cert.uniqueness_threshold == pytest.approx(threshold, rel=1e-14)
    lam = (cert.g_sup * problem42.kernel.deriv_one
           * problem42.kernel.shifted_one ** (p.alpha - 1.0)
           / (problem42.kernel.mu * fb.gamma(p.alpha))) ** 2
    assert cert.lam == pytest.approx(lam, rel=1e-14)
    assert cert.g_sup < cert.uniqueness_threshold and cert.lam < 0.5


def test_certificate_scaled_envelope_fails(problem42, grid256_42):
    base_g = problem42.spec.g
    spec = fb.ProblemSpec(f=problem42.spec.f, g=lambda t: 10.0 * base_g(t), f_domain="real")
    cert = fb.build_certificate(spec, problem42.kernel, "uniqueness", grid=grid256_42)
    assert cert.verdict == VERDICT_NONE
    # a hundredfold contraction factor, above 1/2
    failing = {h.name for h in cert.hypotheses if h.ok is False}
    assert failing == {"g_sup_below_threshold", "lambda_below_half"}


def test_certificate_requires_envelope(problem41, grid256_41):
    # no envelope, one negative somewhere, one NaN somewhere
    for g, error, message in [
        (None, ConfigurationError, "requires a Lipschitz envelope"),
        (lambda t: 0.1 * np.cos(4.0 * t), ConfigurationError, "g must be nonnegative"),
        (lambda t: np.where(t > 0.5, np.nan, 0.1), NumericError, "g returned non-finite"),
    ]:
        spec = fb.ProblemSpec(f=problem41.spec.f, g=g, f_domain="nonnegative")
        with pytest.raises(error, match=message):
            fb.build_certificate(spec, problem41.kernel, "uniqueness", grid=grid256_41)


def test_certificate_exists_positive(problem41, grid256_41):
    cert = fb.build_certificate(problem41.spec, problem41.kernel, "positive-existence",
                                grid=grid256_41)
    assert cert.verdict == VERDICT_EXISTS
    assert cert.geraghty is not None and cert.geraghty.passed
    assert cert.admissibility is not None and cert.admissibility.passed
    closure = [h for h in cert.hypotheses if h.name == "sequential_closure"]
    assert closure and closure[0].ok is None
    assert "assumed by construction" in closure[0].note


def test_certificate_existence_requires_nonneg_domain(problem42, grid256_42):
    with pytest.raises(ConfigurationError):
        fb.build_certificate(problem42.spec, problem42.kernel, "positive-existence",
                             grid=grid256_42)


def test_certificate_unknown_mode(problem42, grid256_42):
    with pytest.raises(ConfigurationError):
        fb.build_certificate(problem42.spec, problem42.kernel, "fastest", grid=grid256_42)


def test_picard_zero_f_converges_immediately(kernel42, grid256_42):
    spec = fb.ProblemSpec(f=lambda t, u: np.zeros_like(np.asarray(u, dtype=float)))
    report = fb.picard_solve(spec, kernel42, fb.GridFunction.constant(grid256_42, 1.0),
                             tol=1e-16, max_iter=10)
    assert report.converged
    assert report.iterations <= 2
    assert np.max(np.abs(report.solution.values)) == 0.0
    assert report.fixed_point_residual == 0.0
    assert report.label == "best-effort"


def test_picard_example41_reaches_zero(problem41, grid256_41):
    cert = fb.build_certificate(problem41.spec, problem41.kernel, "positive-existence",
                                grid=grid256_41)
    report = fb.picard_solve(problem41.spec, problem41.kernel,
                             fb.GridFunction.constant(grid256_41, 1.0),
                             tol=1e-16, max_iter=100, certificate=cert)
    assert report.converged
    assert np.max(np.abs(report.solution.values)) <= 1e-8
    assert report.label == "certified:exists-positive"


def test_picard_example42_certified(problem42, grid256_42):
    cert = fb.build_certificate(problem42.spec, problem42.kernel, "uniqueness",
                                grid=grid256_42)
    report = fb.picard_solve(problem42.spec, problem42.kernel,
                             fb.GridFunction.constant(grid256_42, 0.0),
                             tol=1e-16, max_iter=100, certificate=cert)
    assert report.converged
    assert report.final_step_distance < 1e-16
    assert report.fixed_point_residual <= 1e-6
    b0, b1, b2 = report.boundary_residuals
    assert b0 <= 1e-4 and b1 <= 1e-4 and b2 <= 1e-4
    # contraction certificate implies the observed ratio bound, which in
    # turn keeps step distances nonincreasing after the first iteration
    assert all(r <= cert.lam + 1e-3 for r in report.observed_ratios)
    assert all(r <= 1.0 + 1e-12 for r in report.observed_ratios)


def test_example42_boundary_slope_falls_with_refinement(problem42):
    # |u'(0)| is the slope at 0 of the reported solution, so it falls as
    # the grid refines, about 4x per 4x panels
    slopes = []
    for panels in (64, 256, 1024):
        grid = problem42.grid(panels)
        report = fb.picard_solve(problem42.spec, problem42.kernel,
                                 fb.GridFunction.constant(grid, 0.0))
        slopes.append(report.boundary_residuals[1])
    assert slopes[0] < 1e-4
    assert slopes[1] < slopes[0] / 3.0 and slopes[2] < slopes[1] / 3.0


def test_picard_nonconvergence_reported(kernel42, grid256_42):
    spec = fb.ProblemSpec(f=lambda t, u: 200.0 * np.asarray(u, dtype=float) + 1.0)
    report = fb.picard_solve(spec, kernel42, fb.GridFunction.constant(grid256_42, 0.0),
                             tol=1e-16, max_iter=15)
    assert not report.converged
    assert report.iterations == 15
    assert report.observed_ratios[-1] > 1.0


def test_step_distances_are_the_squared_steps(problem42, grid256_42):
    # one run of 5 steps against runs stopped after 1..5 steps: step k is
    # the squared sup distance between iterates k-1 and k
    spec, kernel = problem42.spec, problem42.kernel
    u0 = fb.GridFunction.constant(grid256_42, 0.0)

    def solve(max_iter):
        return fb.picard_solve(spec, kernel, u0, tol=1e-300, max_iter=max_iter)

    report = solve(5)
    steps = report.step_distances
    assert len(steps) == report.iterations == 5
    assert report.final_step_distance == steps[-1]
    assert report.observed_ratios == tuple(b / a for a, b in zip(steps, steps[1:]))
    previous = u0.values
    for k, step in enumerate(steps, start=1):
        values = solve(k).solution.values
        assert step == float(np.max((values - previous) ** 2))
        previous = values


def test_picard_bad_arguments(kernel42, grid256_42):
    spec = fb.ProblemSpec(f=lambda t, u: u)
    u0 = fb.GridFunction.constant(grid256_42, 0.0)
    with pytest.raises(ConfigurationError):
        fb.picard_solve(spec, kernel42, u0, tol=0.0)
    with pytest.raises(ConfigurationError):
        fb.picard_solve(spec, kernel42, u0, tol=math.inf)
    with pytest.raises(ConfigurationError):
        fb.picard_solve(spec, kernel42, u0, max_iter=0)


def test_picard_refuses_certificate_of_another_problem(problem41, problem42):
    # example42's uniqueness certificate used to label an example41 solve
    # "certified:unique-solution"
    grid42 = problem42.grid(64)
    cert42 = fb.build_certificate(problem42.spec, problem42.kernel, "uniqueness", grid=grid42)
    assert cert42.passed
    assert "spec" not in repr(cert42) and "grid=" not in repr(cert42)
    grid41 = problem41.grid(64)
    with pytest.raises(ConfigurationError, match="certificate was built for a different"):
        fb.picard_solve(problem41.spec, problem41.kernel, fb.GridFunction.constant(grid41, 1.0),
                        certificate=cert42)
    # the right problem on another grid is refused too; the same grid passes
    u0 = fb.GridFunction.constant(problem42.grid(128), 0.0)
    with pytest.raises(ConfigurationError, match="certificate was built for a different"):
        fb.picard_solve(problem42.spec, problem42.kernel, u0, certificate=cert42)
    report = fb.picard_solve(problem42.spec, problem42.kernel,
                             fb.GridFunction.constant(grid42, 0.0), certificate=cert42)
    assert report.label == "certified:unique-solution"


def test_residual_report_zero_case(kernel42, grid256_42):
    spec = fb.ProblemSpec(f=lambda t, u: np.zeros_like(np.asarray(u, dtype=float)))
    zero = fb.GridFunction.constant(grid256_42, 0.0)
    resid, (b0, b1, b2) = fb.Operator(spec, kernel42, grid256_42).residuals(zero)
    assert resid == 0.0 and b0 == 0.0 and b1 == 0.0 and b2 == 0.0


def test_residual_report_converged_solution(problem42, grid256_42, operator256_42):
    tol = 1e-12
    report = fb.picard_solve(problem42.spec, problem42.kernel,
                             fb.GridFunction.constant(grid256_42, 0.0),
                             tol=tol, max_iter=100)
    resid, _ = operator256_42.residuals(report.solution)
    # contraction with small factor keeps the residual near the last step
    assert resid <= 10.0 * math.sqrt(tol)


def test_residual_report_far_from_fixed_point(grid256_42, operator256_42):
    one = fb.GridFunction.constant(grid256_42, 1.0)
    resid, (b0, _, _) = operator256_42.residuals(one)
    assert resid > 0.1
    assert b0 == pytest.approx(1.0, abs=1e-9)


def test_positivity_preservation(grid256_41, operator256_41):
    rng = np.random.default_rng(17)
    for _ in range(5):
        u = fb.GridFunction(grid256_41, rng.uniform(0.0, 4.0, grid256_41.size))
        out = operator256_41.apply(u.values)
        assert np.min(out) >= 0.0


def test_certified_contraction_on_pairs(problem42, grid256_42, operator256_42):
    cert = fb.build_certificate(problem42.spec, problem42.kernel, "uniqueness",
                                grid=grid256_42)
    assert cert.verdict == VERDICT_UNIQUE
    rng = np.random.default_rng(99)
    for _ in range(40):
        u = fb.GridFunction(grid256_42, rng.uniform(-2, 2, grid256_42.size))
        v = fb.GridFunction(grid256_42, rng.uniform(-2, 2, grid256_42.size))
        au, av = (fb.GridFunction(grid256_42, image)
                  for image in operator256_42.apply(np.vstack([u.values, v.values])))
        assert fb.distance(au, av) <= cert.lam * fb.distance(u, v) + 1e-10


def test_sample_suite_reproducible(grid256_41, monkeypatch):
    u1, v1 = fb.default_sample_suite(grid256_41, seed=42)
    u2, v2 = fb.default_sample_suite(grid256_41, seed=42)
    assert u1.shape == v1.shape == (50, grid256_41.size)
    assert np.array_equal(u1, u2) and np.array_equal(v1, v2)
    # the same stream as 100 sequential draws, u and v of each pair in turn
    rng = np.random.default_rng(42)
    draws = [rng.uniform(0.0, 2.0, grid256_41.size) for _ in range(100)]
    assert np.array_equal(u1, draws[0::2]) and np.array_equal(v1, draws[1::2])
    monkeypatch.setenv("FRACBVP_SEED", "12345")
    u3, v3 = fb.default_sample_suite(grid256_41)
    u4, v4 = fb.default_sample_suite(grid256_41, seed=12345)
    assert np.array_equal(u3, u4) and np.array_equal(v3, v4)


def test_picard_divergence_stops_at_last_finite_iterate(kernel42, grid256_42):
    spec = fb.ProblemSpec(f=lambda t, u: 1e6 * np.asarray(u, dtype=float) + 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        report = fb.picard_solve(spec, kernel42, fb.GridFunction.constant(grid256_42, 0.0),
                                 tol=1e-16, max_iter=2000)
    assert not report.converged
    assert 1 < report.iterations < 2000
    assert math.isfinite(report.final_step_distance)
    assert all(math.isfinite(r) and r > 1.0 for r in report.observed_ratios)
    assert np.all(np.isfinite(report.solution.values))


def test_picard_nonfinite_f_at_start_raises(kernel42, grid256_42):
    spec = fb.ProblemSpec(f=lambda t, u: np.full_like(np.asarray(u, dtype=float), np.inf))
    with pytest.raises(NumericError, match="f returned non-finite values"):
        fb.picard_solve(spec, kernel42, fb.GridFunction.constant(grid256_42, 0.0))


def test_operator_rejects_grid_of_another_table_map():
    ts = np.linspace(0.0, 1.0, 9)
    phi_a = fb.phi_catalog("table", samples=np.column_stack([ts, ts]))
    phi_b = fb.phi_catalog("table", samples=np.column_stack([ts, 0.5 * (ts + ts**2)]))
    kernel = fb.build_kernel(fb.BvpParams(alpha=2.5, beta=0.5, eta=0.5, phi=phi_a))
    spec = fb.ProblemSpec(f=lambda t, u: u)
    fb.Operator(spec, kernel, fb.build_grid(phi_a, 64))
    with pytest.raises(ConfigurationError, match="different phi map"):
        fb.Operator(spec, kernel, fb.build_grid(phi_b, 64))


def test_operator_checked_against_its_use(problem42, grid256_42):
    # an operator reaches a solve only inside the certificate that applied
    # it, which is refused for another spec or grid
    spec = fb.ProblemSpec(f=problem42.spec.f, f_domain="nonnegative")
    cert = fb.build_certificate(spec, problem42.kernel, "positive-existence", grid=grid256_42)
    assert cert.operator is not None
    for other_spec, grid in ((problem42.spec, grid256_42), (spec, problem42.grid(128))):
        with pytest.raises(ConfigurationError, match="certificate was built for a different"):
            fb.picard_solve(other_spec, problem42.kernel, fb.GridFunction.constant(grid, 0.0),
                            certificate=cert)


def test_certificate_hands_its_operator_to_the_solve(problem41, problem42, monkeypatch):
    # build_certificate then picard_solve assembles once on the
    # positive-existence route; uniqueness applies no operator and keeps none
    builds = []
    assemble = solver.operator_matrix
    monkeypatch.setattr(solver, "operator_matrix",
                        lambda kernel, grid: builds.append(grid.panels) or assemble(kernel, grid))
    grid41 = problem41.grid(64)
    cert = fb.build_certificate(problem41.spec, problem41.kernel, "positive-existence",
                                grid=grid41)
    assert isinstance(cert.operator, fb.Operator) and "operator" not in repr(cert)
    report = fb.picard_solve(problem41.spec, problem41.kernel,
                             fb.GridFunction.constant(grid41, 1.0), certificate=cert)
    assert report.label == "certified:exists-positive" and builds == [64]
    grid42 = problem42.grid(64)
    cert42 = fb.build_certificate(problem42.spec, problem42.kernel, "uniqueness", grid=grid42)
    assert cert42.operator is None and builds == [64]
    fb.picard_solve(problem42.spec, problem42.kernel, fb.GridFunction.constant(grid42, 0.0),
                    certificate=cert42)
    assert builds == [64, 64]


def test_apply_stack_matches_rows(grid256_41, operator256_41):
    u, v = fb.default_sample_suite(grid256_41, seed=5)
    stack = np.vstack([u[:4], v[:4]])
    images = operator256_41.apply(stack)
    assert images.shape == stack.shape
    for row, image in zip(stack, images):
        assert np.allclose(image, operator256_41.apply(row), rtol=1e-13, atol=0.0)
    # one non-finite row fails the whole stack
    stack[5, 17] = np.inf
    with pytest.raises(NumericError, match="f returned non-finite values"):
        operator256_41.apply(stack)


def test_seed_resolver(grid256_41, monkeypatch):
    monkeypatch.delenv("FRACBVP_SEED", raising=False)
    assert resolve_seed() == DEFAULT_SAMPLE_SEED
    assert resolve_seed(7) == 7
    monkeypatch.setenv("FRACBVP_SEED", "abc")
    with pytest.raises(ConfigurationError, match="FRACBVP_SEED must be an integer"):
        fb.default_sample_suite(grid256_41)
    assert resolve_seed(7) == 7
    monkeypatch.setenv("FRACBVP_SEED", "-5")
    with pytest.raises(ConfigurationError, match="FRACBVP_SEED must be non-negative"):
        fb.default_sample_suite(grid256_41)
    with pytest.raises(ConfigurationError, match="seed must be non-negative"):
        resolve_seed(-1)


@settings(max_examples=100, deadline=None)
@given(st.floats(2.01, 3.0), st.floats(0.0, 0.99), st.floats(0.05, 1.0),
       st.sampled_from(PHI_KINDS),
       st.one_of(st.floats(0.25, 4.0), st.floats(1.0 - 1e-9, 1.0 + 1e-9)))
def test_threshold_and_lambda_agree_off_the_knife_edge(alpha, beta_share, eta, kind, g_share):
    # with mu > 0, sup g < threshold is lam < 1/2 rewritten: the two rows
    # agree everywhere but within rounding of the knife edge
    phi = catalog_map(kind)
    bound = fb.build_kernel(fb.BvpParams(alpha, 0.0, eta, phi)).beta_bound
    kernel = fb.build_kernel(fb.BvpParams(alpha, beta_share * bound, eta, phi))
    assert kernel.mu > 0.0
    c = g_share * kernel.uniqueness_threshold
    spec = fb.ProblemSpec(f=lambda t, u: np.zeros_like(u), g=lambda t: c)
    cert = fb.build_certificate(spec, kernel, "uniqueness", grid=fb.build_grid(phi, 64), seed=1)
    rows = {h.name: h.ok for h in cert.hypotheses}
    assume(abs(cert.g_sup - cert.uniqueness_threshold) > 1e-12 * cert.uniqueness_threshold)
    assert rows["g_sup_below_threshold"] == rows["lambda_below_half"] == (cert.lam < 0.5)
    assert cert.passed == rows["g_sup_below_threshold"]
