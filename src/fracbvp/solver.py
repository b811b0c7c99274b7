"""Integral operator, certificates and certified Picard iteration.

The boundary value problem is equivalent to the fixed-point equation
u = A u for

    A u (t) = integral_0^1 G(t, s) phi'(s) f(s, u(s)) ds,

so the solver never differentiates: an ``Operator`` assembles the
discrete operator once and serves every use of A: the Picard iteration
u <- A u, the sampled existence checks and the fixed-point residual.
The boundary residuals are those of the solution the solve reports,
the local cubics of its nodal values.

The operator is stored factored, after the kernel's structure: G(t, s)
is the rank-one term head(t) * tail(s) minus a memory term that
vanishes for s >= t, kept in row blocks on the columns below each
block's last node only (``operator_matrix``).  One product serves a
vector and a (k, N) stack, and its results do not depend on the BLAS
thread count.

Two certificates are available.  The uniqueness certificate needs a
Lipschitz envelope g for f and checks

    sup g < mu * Gamma(alpha) / (sqrt(2) * S1**(alpha-1) * phi'(1)),

which is exactly the statement that the contraction factor

    lam = (sup g * phi'(1) * S1**(alpha-1) / (mu * Gamma(alpha)))**2

of A in the squared sup distance stays below 1/2.  The existence
certificate samples the shrink inequality and sign-preservation of A
on a reproducible random suite and witnesses the starting hypothesis
with u0 = 0.

Note the iteration tolerance is a squared-scale quantity (it bounds the
squared sup distance between consecutive iterates): tol = 1e-16 means
1e-8 in sup norm.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .bmetric import (
    AdmissibilityVerdict,
    ContractionVerdict,
    GeraghtyVerdict,
    admissibility_check,
    contraction_certificate,
    geraghty_inequality_check,
    tau,
)
from .calculus import GridFunction, QuadratureGrid
from .errors import ConfigurationError, NumericError
from .green import BvpParams, GreenKernel, _memory, _separable

__all__ = [
    "ProblemSpec",
    "Hypothesis",
    "Certificate",
    "SolveReport",
    "Operator",
    "OperatorFactors",
    "operator_matrix",
    "build_certificate",
    "picard_solve",
    "default_sample_suite",
    "resolve_seed",
    "SEED_ENV_VAR",
    "DEFAULT_SAMPLE_SEED",
]

SEED_ENV_VAR = "FRACBVP_SEED"
DEFAULT_SAMPLE_SEED = 20240

VERDICT_UNIQUE = "unique-solution"
VERDICT_EXISTS = "exists-positive"
VERDICT_NONE = "no-certificate"

# operator assembly: row blocks of the memory term (16 ran the Picard
# loop at 2048 panels faster than 32 or 64) and their fewest rows (below
# 128 the Python cost per block outweighs the bytes saved on grids of
# 64-256 panels), entries per sub-block filled at once (0.5 MiB, which
# the fill's passes keep in cache; the fastest of 2**14..2**18 at 1024 and
# 2048 panels), and the most nodes it assembles (two per panel of the largest
# grid_size, 8192, whose factored operator takes about 1.1 GiB)
_MEMORY_BLOCKS = 16
_MIN_BLOCK_ROWS = 128
_BLOCK_ELEMENTS = 2**16
_MAX_GRID_SIZE = 8192
_MAX_NODES = 2 * _MAX_GRID_SIZE


@dataclass(frozen=True)
class ProblemSpec:
    """Full problem statement: kernel parameters plus the nonlinearity.

    ``f(t, u)`` and the optional Lipschitz envelope ``g(t)`` must accept
    numpy arrays.  ``f_domain`` is "real" for the uniqueness route and
    "nonnegative" when f maps nonnegative states to nonnegative values
    (required by the positive-existence route).
    """

    params: BvpParams
    f: Callable
    g: Callable | None = None
    f_domain: str = "real"

    def __post_init__(self):
        if self.f_domain not in ("real", "nonnegative"):
            raise ConfigurationError(
                f"f_domain must be 'real' or 'nonnegative', got {self.f_domain!r}")


def resolve_seed(seed: int | None = None) -> int:
    """The given seed, else the FRACBVP_SEED environment variable, else
    the fixed default.  Seeds must be non-negative integers."""
    source = "seed"
    if seed is None:
        raw = os.environ.get(SEED_ENV_VAR)
        if raw is None:
            return DEFAULT_SAMPLE_SEED
        source = f"environment variable {SEED_ENV_VAR}"
        try:
            seed = int(raw)
        except ValueError:
            raise ConfigurationError(f"{source} must be an integer") from None
    if seed < 0:
        raise ConfigurationError(f"{source} must be non-negative, got {seed}")
    return seed


@dataclass(frozen=True, eq=False)
class OperatorFactors:
    """The discrete operator M = head (x) tail - memory, with (A u)(nodes)
    = M @ f(nodes, u(nodes)).

    ``head`` and ``tail`` hold the rank-one term head(s_i) * tail_j.
    ``memory`` holds the memory term mu * (phi(s_i) - phi(s_j))_+**(alpha-1)
    / scale * w_j in consecutive row blocks; block b spans the next
    ``block.shape[0]`` rows and the first ``block.shape[1]`` columns, and
    the entries outside every block are 0.
    """

    head: np.ndarray
    tail: np.ndarray
    memory: tuple[np.ndarray, ...]

    def product(self, values: np.ndarray) -> np.ndarray:
        """M @ values for N values, or M applied to each row of a (k, N)
        stack.  The rank-one inner product is numpy's pairwise sum, not
        BLAS ddot, whose threaded sum depends on the BLAS thread count."""
        out = self.head * np.add.reduce(self.tail * values, axis=-1)[..., None]
        i0 = 0
        for block in self.memory:
            rows, cols = block.shape
            out[..., i0:i0 + rows] -= values[..., :cols] @ block.T
            i0 += rows
        return out


def _memory_layout(n: int) -> list[tuple[int, int]]:
    """(first row, end row) of each memory block: blocks of
    ceil(n / _MEMORY_BLOCKS) rows, but at least _MIN_BLOCK_ROWS, the last
    one possibly shorter.  The nodes ascend, so the memory term of a
    block ends at its last row's column: the end row is also its number
    of columns."""
    rows = max(-(-n // _MEMORY_BLOCKS), _MIN_BLOCK_ROWS)
    return [(i0, min(i0 + rows, n)) for i0 in range(0, n, rows)]


def operator_matrix(kernel: GreenKernel, grid: QuadratureGrid) -> OperatorFactors:
    """The factored operator M with M[i, j] = G(s_i, s_j) * w_j =
    head(s_i) * tail_j - memory[i, j].

    tail = (full - eta_part) / scale * w and the memory term is kept only
    on each row block's columns below its last node (it is 0 where
    phi(s_j) >= phi(s_i)), so with 16 blocks it stores about
    0.53 * 8 N**2 bytes.  The blocks are views of one flat buffer, filled
    in place in sub-blocks of about 2**16 entries, so the peak is the
    stored bytes plus under 0.5 MiB.  A grid of more than 16384 nodes
    (grid_size above 8192) raises ConfigurationError before phi is
    evaluated on it.

    The grid must come from the kernel's phi map: phi at the grid nodes
    has to reproduce the grid's y nodes.
    """
    n = grid.size
    if n > _MAX_NODES:
        least = 8 * (2 * n + sum((i1 - i0) * i1 for i0, i1 in _memory_layout(n)))
        raise ConfigurationError(
            f"grid_size {grid.panels} has {n} nodes and its operator would take at least "
            f"{least / 2**20:.0f} MiB, over the {_MAX_NODES}-node limit; "
            f"the largest accepted grid_size is {_MAX_NODES * grid.panels // n}")
    y = np.asarray(kernel.params.phi(grid.nodes), dtype=float)
    layout = _memory_layout(n)
    gap = np.max(np.abs(y - grid.y_nodes))
    if not gap <= 1e-9 * kernel.shifted_one:
        raise ConfigurationError(
            f"grid was built for a different phi map than the kernel's (node gap {gap:.3g})")
    head, full, eta_part = _separable(kernel, y, y)
    tail = (full - eta_part) / kernel.scale * grid.weights
    flat = np.empty(sum((i1 - i0) * i1 for i0, i1 in layout))
    memory = []
    offset = 0
    for i0, i1 in layout:
        # rows i0..i1-1 on columns 0..i1-1
        block = flat[offset:offset + (i1 - i0) * i1].reshape(i1 - i0, i1)
        offset += block.size
        step = max(1, _BLOCK_ELEMENTS // i1)
        for r0 in range(i0, i1, step):
            r1 = min(r0 + step, i1)
            sub = _memory(kernel, y[r0:r1, None], y[None, :i1], out=block[r0 - i0:r1 - i0])
            sub /= kernel.scale
            sub *= grid.weights[:i1]
        memory.append(block)
    return OperatorFactors(head=head, tail=tail, memory=tuple(memory))


def _built_for(obj, spec: ProblemSpec, kernel: GreenKernel, grid: QuadratureGrid) -> bool:
    """Whether an operator or certificate was built for spec, kernel and grid."""
    return obj.spec is spec and obj.kernel is kernel and grid.same_as(obj.grid)


class Operator:
    """The discrete integral operator A of one problem on one grid; its
    ``factors`` are assembled once, by ``operator_matrix``."""

    def __init__(self, spec: ProblemSpec, kernel: GreenKernel, grid: QuadratureGrid):
        self.spec = spec
        self.kernel = kernel
        self.grid = grid
        self.factors = operator_matrix(kernel, grid)

    def check(self, spec: ProblemSpec, kernel: GreenKernel, grid: QuadratureGrid) -> "Operator":
        """This operator, if built for spec, kernel and grid; else ConfigurationError."""
        if not _built_for(self, spec, kernel, grid):
            raise ConfigurationError(
                "operator was built for a different problem, kernel or grid")
        return self

    def _forcing(self, values: np.ndarray) -> np.ndarray:
        fv = np.asarray(self.spec.f(self.grid.nodes, values), dtype=float)
        return fv if fv.shape == values.shape else np.broadcast_to(fv, values.shape)

    def apply(self, values: np.ndarray) -> np.ndarray:
        """(A u) at the nodes from the nodal values of u, or one image
        per row of a (k, N) stack by the same product; NumericError
        when f(u) or an image is not finite."""
        fv = self._forcing(values)
        if not np.all(np.isfinite(fv)):
            raise NumericError("f returned non-finite values")
        out = self.factors.product(fv)
        if not np.all(np.isfinite(out)):
            raise NumericError("operator produced non-finite values")
        return out

    def residuals(self, u: GridFunction) -> tuple[float, tuple[float, float, float]]:
        """sup |A u - u| at the nodes, and |u(0)|, |u'(0)| and
        |u'(1) - beta * u(eta)| of u itself: the local cubics that u
        evaluates, differentiated exactly.  Never raises on non-finite
        values."""
        residual = float(np.max(np.abs(self.factors.product(self._forcing(u.values)) - u.values)))
        p = self.kernel.params
        return residual, (abs(u(0.0)), abs(u.deriv(0.0)),
                          abs(u.deriv(1.0) - p.beta * u(p.eta)))


def default_sample_suite(grid: QuadratureGrid,
                         seed: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Reproducible suite of 50 pairs (u[k], v[k]) of nodal vectors with
    values drawn uniformly from [0, 2], as two (50, N) arrays.

    The seed comes from ``resolve_seed``: the FRACBVP_SEED environment
    variable when not given explicitly, falling back to a fixed constant.
    """
    rng = np.random.default_rng(resolve_seed(seed))
    draw = rng.uniform(0.0, 2.0, (50, 2, grid.size))
    return draw[:, 0], draw[:, 1]


@dataclass(frozen=True)
class Hypothesis:
    """One certificate line: a named condition, its status, a note.

    ``ok`` is None for conditions that are recorded rather than
    checked (assumed or not finitely checkable)."""

    name: str
    ok: bool | None
    note: str
    required: bool = True


@dataclass(frozen=True)
class Certificate:
    """Machine-checkable record of which certificate hypotheses hold.

    ``spec``, ``kernel`` and ``grid`` record what it was built for, so
    that ``picard_solve`` refuses it for another problem; a
    positive-existence certificate keeps the ``operator`` it applied for
    the solve it certifies.  None of them take part in ``repr`` or
    comparison.
    """

    mode: str
    mu: float
    beta_bound: float
    uniqueness_threshold: float
    g_sup: float | None
    lam: float | None
    contraction: ContractionVerdict | None
    geraghty: GeraghtyVerdict | None
    admissibility: AdmissibilityVerdict | None
    hypotheses: tuple[Hypothesis, ...]
    verdict: str
    spec: ProblemSpec = field(repr=False, compare=False)
    kernel: GreenKernel = field(repr=False, compare=False)
    grid: QuadratureGrid = field(repr=False, compare=False)
    operator: Operator | None = field(default=None, repr=False, compare=False)

    @property
    def passed(self) -> bool:
        return self.verdict != VERDICT_NONE


def _uniqueness_threshold(kernel: GreenKernel) -> float:
    p = kernel.params
    denominator = math.sqrt(2.0) * kernel.shifted_one ** (p.alpha - 1.0) * kernel.deriv_one
    if not denominator > 0.0:
        raise ConfigurationError(
            "uniqueness threshold: phi'(1) * (phi(1) - phi(0))**(alpha - 1) underflows to 0; "
            "rescale phi")
    return kernel.scale / denominator


def _lambda_from_gsup(kernel: GreenKernel, g_sup: float) -> float:
    p = kernel.params
    return (g_sup * kernel.deriv_one * kernel.shifted_one ** (p.alpha - 1.0)
            / kernel.scale) ** 2


def _g_sup(spec: ProblemSpec, grid: QuadratureGrid) -> float:
    ts = np.concatenate([[0.0], grid.nodes, [1.0]])
    gv = np.asarray(spec.g(ts), dtype=float)
    if gv.shape != ts.shape:
        gv = np.broadcast_to(gv, ts.shape)
    if not np.all(np.isfinite(gv)):
        raise NumericError("g returned non-finite values")
    if np.any(gv < 0.0):
        raise ConfigurationError("Lipschitz envelope g must be nonnegative")
    return float(np.max(gv))


def _lipschitz_sampled(spec: ProblemSpec, seed: int, n: int = 400) -> tuple[bool, float]:
    """Sampled |f(t,u)-f(t,v)| <= g(t)|u-v| with a rounding allowance."""
    rng = np.random.default_rng(seed ^ 0x5F5E5F)
    ts = rng.uniform(0.0, 1.0, n)
    if spec.f_domain == "nonnegative":
        us = rng.uniform(0.0, 5.0, n)
        vs = rng.uniform(0.0, 5.0, n)
    else:
        us = rng.uniform(-5.0, 5.0, n)
        vs = rng.uniform(-5.0, 5.0, n)
    lhs = np.abs(np.asarray(spec.f(ts, us), dtype=float) - np.asarray(spec.f(ts, vs), dtype=float))
    rhs = np.asarray(spec.g(ts), dtype=float) * np.abs(us - vs)
    slack = 1e-9 * (1.0 + rhs)
    excess = float(np.max(lhs - rhs - slack))
    return bool(excess <= 0.0), excess


def _f_nonneg_sampled(spec: ProblemSpec, seed: int, n: int = 400) -> bool:
    rng = np.random.default_rng(seed ^ 0x3A9D2B)
    ts = rng.uniform(0.0, 1.0, n)
    us = rng.uniform(0.0, 5.0, n)
    fv = np.asarray(spec.f(ts, us), dtype=float)
    return bool(np.all(np.isfinite(fv)) and np.min(fv) >= 0.0)


def build_certificate(spec: ProblemSpec, kernel: GreenKernel, mode: str,
                      grid: QuadratureGrid, seed: int | None = None) -> Certificate:
    """Evaluate the hypotheses of the requested fixed-point route.

    Precondition violations (missing envelope, wrong f domain) raise
    ConfigurationError; mathematical failures are recorded in the
    verdict.  Only the positive-existence route assembles the operator,
    and its certificate keeps it.
    """
    if mode not in ("uniqueness", "positive-existence"):
        raise ConfigurationError(f"unknown certificate mode {mode!r}")
    seed = resolve_seed(seed)

    p = kernel.params
    bound = kernel.beta_bound
    threshold = _uniqueness_threshold(kernel)
    hyps: list[Hypothesis] = []
    hyps.append(Hypothesis("mu_nonzero", kernel.mu != 0.0, f"mu = {kernel.mu:.6g}"))
    hyps.append(Hypothesis("beta_below_bound", p.beta < bound,
                           f"beta = {p.beta:.6g}, bound = {bound:.6g}"))

    g_sup = None
    lam = None
    contraction = geraghty = admissibility = op = None

    if mode == "uniqueness":
        if spec.g is None:
            raise ConfigurationError("uniqueness certificate requires a Lipschitz envelope g")
        g_sup = _g_sup(spec, grid)
        lam = _lambda_from_gsup(kernel, g_sup)
        contraction = contraction_certificate(lam)
        lip_ok, lip_excess = _lipschitz_sampled(spec, seed)
        hyps.append(Hypothesis("lipschitz_envelope_sampled", lip_ok,
                               f"sampled hypothesis (400 triples), worst excess {lip_excess:.3g}"))
        bound_ok = g_sup < threshold
        hyps.append(Hypothesis("g_sup_below_threshold", bound_ok,
                               f"sup g = {g_sup:.6g}, threshold = {threshold:.6g}"))
        hyps.append(Hypothesis("lambda_below_half", contraction.passed,
                               f"lambda = {lam:.6g}, limit = {contraction.limit:.6g}"))
        # the threshold inequality is exactly lam < 1/2 rewritten; a
        # disagreement can only happen within rounding of the knife edge
        consistent = (bound_ok == (lam < 0.5)) or abs(g_sup - threshold) <= 1e-12 * threshold
        if not consistent:
            raise NumericError("threshold and contraction factor disagree beyond rounding")
        required_ok = all(h.ok for h in hyps if h.required and h.ok is not None)
        verdict = VERDICT_UNIQUE if (required_ok and bound_ok and contraction.passed) else VERDICT_NONE
    else:
        if spec.f_domain != "nonnegative":
            raise ConfigurationError(
                "positive-existence certificate requires f_domain = 'nonnegative'")
        u, v = default_sample_suite(grid, seed=seed)
        op = Operator(spec, kernel, grid)
        zero = np.zeros(grid.size)
        # the witness and every sampled function are mapped once, together
        images = op.apply(np.vstack([zero, u, v]))
        w = images[0]
        au, av = np.split(images[1:], 2)

        hyps.append(Hypothesis("mu_positive", kernel.mu > 0.0, f"mu = {kernel.mu:.6g}"))
        f_ok = _f_nonneg_sampled(spec, seed)
        hyps.append(Hypothesis("f_nonnegative_sampled", f_ok,
                               "sampled hypothesis (400 points of [0,1] x R+)"))
        geraghty = geraghty_inequality_check(u, v, au, av)
        hyps.append(Hypothesis("geraghty_inequality_sampled", geraghty.passed,
                               f"sampled hypothesis ({geraghty.checked} pairs), "
                               f"worst margin {geraghty.worst_margin:.3g}"))
        admissibility = admissibility_check(u, v, au, av)
        hyps.append(Hypothesis("admissibility_sampled", admissibility.passed,
                               f"sampled hypothesis ({admissibility.checked} pairs)"))
        witness_ok = bool(np.min(tau(zero, w)) >= 0.0)
        hyps.append(Hypothesis("witness_zero_start", witness_ok,
                               "tau(u0, A u0) >= 0 for u0 = 0"))
        hyps.append(Hypothesis("sequential_closure", None,
                               "assumed by construction for the product relation "
                               "with nonnegative iterates", required=False))
        required_ok = all(h.ok for h in hyps if h.required and h.ok is not None)
        verdict = VERDICT_EXISTS if required_ok else VERDICT_NONE

    return Certificate(
        mode=mode,
        mu=kernel.mu,
        beta_bound=bound,
        uniqueness_threshold=threshold,
        g_sup=g_sup,
        lam=lam,
        contraction=contraction,
        geraghty=geraghty,
        admissibility=admissibility,
        hypotheses=tuple(hyps),
        verdict=verdict,
        spec=spec,
        kernel=kernel,
        grid=grid,
        operator=op,
    )


@dataclass(frozen=True)
class SolveReport:
    """Outcome of a Picard run plus its a-posteriori diagnostics.

    ``step_distances`` are the squared sup distances between consecutive
    iterates, one per iteration, and ``final_step_distance`` the last of
    them; ``observed_ratios`` are their consecutive quotients;
    ``boundary_residuals`` are |u(0)|, |u'(0)| and
    |u'(1) - beta*u(eta)| of the reported ``solution``, whose local
    cubics are evaluated and differentiated exactly.  ``solution_min``
    records the smallest nodal value so strict positivity can be judged
    separately from nonnegativity.
    """

    solution: GridFunction
    iterations: int
    converged: bool
    final_step_distance: float
    fixed_point_residual: float
    boundary_residuals: tuple[float, float, float]
    observed_ratios: tuple[float, ...]
    step_distances: tuple[float, ...]
    label: str
    tol: float
    solution_min: float


def picard_solve(spec: ProblemSpec, kernel: GreenKernel, u0: GridFunction,
                 tol: float = 1e-16, max_iter: int = 100,
                 certificate: Certificate | None = None,
                 operator: Operator | None = None) -> SolveReport:
    """Iterate u <- A u from u0 until the squared sup step drops below tol.

    Non-convergence within ``max_iter`` is reported, not raised.  A
    first step whose image or squared step distance is not finite raises
    NumericError; at a later step the same overflow means the iteration
    diverged, and the run ends at the last iterate whose step was finite,
    reported as not converged.  Runs without a passing certificate are
    labeled best-effort; a certificate built for another spec, kernel or
    grid raises ConfigurationError.  Without ``operator``, the solve applies
    the certificate's operator if it has one, else assembles its own.
    """
    if not (tol > 0.0 and math.isfinite(tol)):
        raise ConfigurationError(f"tol must be finite and positive, got {tol!r}")
    if max_iter < 1:
        raise ConfigurationError(f"max_iter must be at least 1, got {max_iter!r}")
    grid = u0.grid
    if certificate is not None and not _built_for(certificate, spec, kernel, grid):
        raise ConfigurationError(
            "certificate was built for a different problem, kernel or grid")
    op = operator or (certificate.operator if certificate else None)
    op = Operator(spec, kernel, grid) if op is None else op.check(spec, kernel, grid)
    values = u0.values
    steps: list[float] = []
    step = math.inf
    converged = False
    iterations = 0
    # a diverging iteration overflows on its way out; that ends the run
    # below, so numpy's overflow warnings would only repeat it
    with np.errstate(over="ignore", invalid="ignore"):
        while iterations < max_iter:
            try:
                nxt = op.apply(values)
                diff = nxt - values
                next_step = float(np.max(diff * diff))
                if not math.isfinite(next_step):
                    raise NumericError("Picard step distance overflowed")
            except NumericError:
                if iterations == 0:
                    raise
                break
            iterations += 1
            step = next_step
            steps.append(step)
            values = nxt
            if step < tol:
                converged = True
                break
        solution = GridFunction(grid=grid, values=values)
        residual, boundary = op.residuals(solution)
    if certificate is not None and certificate.passed:
        label = f"certified:{certificate.verdict}"
    else:
        label = "best-effort"
    return SolveReport(
        solution=solution,
        iterations=iterations,
        converged=converged,
        final_step_distance=step,
        fixed_point_residual=residual,
        boundary_residuals=boundary,
        observed_ratios=tuple(b / a for a, b in zip(steps, steps[1:])),
        step_distances=tuple(steps),
        label=label,
        tol=tol,
        solution_min=float(np.min(values)),
    )
