"""Integral operator, certificates and certified Picard iteration.

The boundary value problem is equivalent to the fixed-point equation
u = A u for

    A u (t) = integral_0^1 G(t, s) phi'(s) f(s, u(s)) ds,

so the solver never differentiates: an ``Operator`` assembles the
discrete operator once and serves every use of A: the Picard iteration
u <- A u and the fixed-point residual.
The boundary residuals are those of the solution the solve reports,
the local cubics of its nodal values.

The operator is stored factored, after the kernel's structure: G(t, s)
is the rank-one term head(t) * tail(s) minus a memory term that
vanishes for s >= t, kept in row blocks on the columns below each
block's last node only (``operator_matrix``).  Its weights are a
locally corrected product rule, fourth order in the panel width: the
node rule, exact product weights of the cubics in a band at each row's
node, whose width the calculus owns, and the rank-one term's tail as two
rows of frac_integral's rule.  Like the calculus, it takes only a grid
built on the kernel's own phi map object.
One product serves a vector and a (k, N) stack, and its results do not
depend on the BLAS thread count.

Two certificates are available.  Each stores its hypotheses, and its
verdict passes exactly when every one that is checked passes.  Both rest
on the contraction factor

    lam = (L * phi'(1) * S1**(alpha-1) / (mu * Gamma(alpha)))**2

of A in the squared sup distance, for a Lipschitz constant L of f in u.
The uniqueness certificate needs a Lipschitz envelope g for f, takes
L = sup g and checks lam < 1/R = 1/2, together with

    sup g < mu * Gamma(alpha) / (sqrt(2) * S1**(alpha-1) * phi'(1)).

When mu > 0 the two are the same inequality; when mu < 0 the threshold
is negative and fails, and lam, which bounds A only where G >= 0, is
recorded, not checked.  The positive-existence certificate proves its
hypotheses about the continuous operator and assembles nothing.  For an
``Expression`` f, one interval walk proves f >= 0 and L = sup |df/du| on
[0, 1] x [0, inf]; for another callable, L = sup g and both facts are
sampled, from the seed.  Then R**3 * lam <= 1/6 <= theta gives the shrink
inequality for every pair, mu > 0, beta below its bound and f >= 0 give
A u >= 0 for every u >= 0, and tau(0, .) = 0 witnesses u0 = 0.

A Picard step is the squared sup of A x - x at the iterate x it starts
from, and tol bounds it: tol = 1e-16 means 1e-8 in sup norm.  When f_domain
is "real" and the last step ratio lies in (0.01, 1), the next iterate is the
Anderson mixing of A x with the last (iterate, residual) pairs.
"""

from __future__ import annotations

import contextvars
import math
import os
from collections import deque
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .bmetric import R, theta
from .calculus import GridFunction, QuadratureGrid, _band_weights, _integral_weights
from .errors import ConfigurationError, GridMismatchError, NumericError
from .expressions import Expression
from .green import GreenKernel, _memory

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
    "resolve_seed",
    "SEED_ENV_VAR",
    "DEFAULT_SAMPLE_SEED",
]

SEED_ENV_VAR = "FRACBVP_SEED"
DEFAULT_SAMPLE_SEED = 20240

VERDICT_UNIQUE = "unique-solution"
VERDICT_EXISTS = "exists-positive"
VERDICT_NONE = "no-certificate"
# the claim of each certificate mode, made when every checked hypothesis passes
_CLAIMS = {"uniqueness": VERDICT_UNIQUE, "positive-existence": VERDICT_EXISTS}
# the random points each sampled hypothesis on f checks
_SAMPLED_POINTS = 400

# operator assembly: row blocks of the memory term (16 ran the Picard
# loop at 2048 panels faster than 32 or 64) and their fewest rows (below
# 128 the Python cost per block outweighs the bytes saved on grids of
# 64-256 panels), entries per sub-block filled at once (0.5 MiB, which
# the fill's passes keep in cache; the fastest of 2**14..2**18 at 1024 and
# 2048 panels), the fewest filled on worker threads (1536 panels; at 1024 the
# split gained little), and the most nodes it assembles (two per panel of the
# largest grid_size, 8192, whose factored operator takes about 1.1 GiB)
_MEMORY_BLOCKS = 16
_MIN_BLOCK_ROWS = 128
_BLOCK_ELEMENTS = 2**16
_PARALLEL_ELEMENTS = 2**22
_MAX_GRID_SIZE = 8192
_MAX_NODES = 2 * _MAX_GRID_SIZE

# Anderson mixing: m = 3 differences of the last m + 1 pairs, engaged for a
# last step ratio in (0.01, 1); below 0.01 plain steps gain 2 digits each
_AA_MEMORY = 3
_AA_ENGAGE = 0.01


@dataclass(frozen=True)
class ProblemSpec:
    """The nonlinearity of a problem, whose parameters belong to its kernel.

    ``f(t, u)`` and the optional Lipschitz envelope ``g(t)`` must accept
    numpy arrays; an ``Expression`` f lets the positive-existence route
    prove its hypotheses on f.  ``f_domain`` is "real" for the uniqueness
    route and "nonnegative" when f maps nonnegative states to nonnegative
    values (required by the positive-existence route).
    """

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
    ceil(n / _MEMORY_BLOCKS) rows rounded up to a multiple of 4, but at
    least _MIN_BLOCK_ROWS, the last one possibly shorter.  The nodes
    ascend, so the memory term of a block ends at its last row's column,
    and a block ends on a super-panel bound, so its band does too: the
    end row is also its number of columns."""
    rows = max(-(-n // (4 * _MEMORY_BLOCKS)) * 4, _MIN_BLOCK_ROWS)
    return [(i0, min(i0 + rows, n)) for i0 in range(0, n, rows)]


def _write_band(out: np.ndarray, r0: int, band: np.ndarray) -> None:
    """Overwrite the band of rows r0.. of the memory term in their sub-block
    ``out``, which starts on a super-panel bound: row i gets band[i] on the
    band.shape[1] columns that end at 4 * k + 3, k = i // 4, those >= 0."""
    rows, cols = out.shape
    reach = band.shape[1] - 4
    # rows whose band would start left of column 0, in the first super-panels only
    cut = min(max(reach - r0, 0), rows)
    for i in range(0, cut, 4):
        start = reach - (r0 + i) // 4 * 4
        out[i:i + 4, :band.shape[1] - start] = band[r0 + i:r0 + i + 4, start:]
    if cut < rows:
        # one strided view: the same band columns for the 4 rows of a
        # super-panel, 4 columns further right for the next super-panel
        stride, item = out.strides
        view = np.ndarray(((rows - cut) // 4, 4, band.shape[1]), out.dtype, out,
                          offset=cut * stride + (r0 + cut - reach) * item,
                          strides=(4 * (stride + item), stride, item))
        view[...] = band[r0 + cut:r0 + rows].reshape(view.shape)


def operator_matrix(kernel: GreenKernel, grid: QuadratureGrid) -> OperatorFactors:
    """The factored operator M = head (x) tail - memory, a locally
    corrected product rule for A on the grid's nodes, y_i = phi(s_i).

    head(s_i) = (y_i - phi(0))**(alpha - 1).  tail is the rank-one term's
    integral form, [phi'(1) I^(alpha-1)(phi(1)) - beta I^alpha(phi(eta))] / mu,
    as the weight rows of frac_integral's rule (``_integral_weights``).  The
    memory term, (y_i - y)_+**(alpha - 1) / Gamma(alpha) integrated against
    f, takes the node rule mu * (y_i - y_j)_+**(alpha - 1) / scale * w_j,
    0 for y_j >= y_i, except in each row's band: the super-panel of its
    node and the calculus's _BAND_WIDTH below, whose columns, up to 3 above
    the diagonal, hold the closed-form weights of their cubics
    (``_band_weights``).  The node rule alone is about h**2.3-2.9 in the
    panel width; the corrected rule is fourth order on smooth data.

    The memory term is kept only on each row block's columns below its
    last node, and blocks end on super-panel bounds, so with 16 blocks it
    stores about 0.53 * 8 N**2 bytes.  The blocks are views of one flat
    buffer, filled in place in sub-blocks of about 2**16 entries, each
    overwriting its rows' bands, so the peak is the stored bytes plus the
    band's 96 N bytes and under 0.5 MiB per filling thread.  From 2**22
    entries, worker k of a thread pool of one per usable CPU fills
    sub-blocks k, k + w, ... by the same ufunc calls, so the factors do not
    depend on the CPU count.  A grid of more than 16384 nodes (grid_size
    above 8192), or one built on any map object but the kernel's phi,
    raises ConfigurationError before it is read.
    """
    n = grid.size
    if n > _MAX_NODES:
        least = 8 * (2 * n + sum((i1 - i0) * i1 for i0, i1 in _memory_layout(n)))
        raise ConfigurationError(
            f"grid_size {grid.panels} has {n} nodes and its operator would take at least "
            f"{least / 2**20:.0f} MiB, over the {_MAX_NODES}-node limit; "
            f"the largest accepted grid_size is {_MAX_NODES * grid.panels // n}")
    p = kernel.params
    if grid.phi is not p.phi:
        raise ConfigurationError("grid was built for a different phi map than the kernel's")
    y = grid.y_nodes
    layout = _memory_layout(n)
    head = (y - kernel.phi_zero) ** (p.alpha - 1.0)
    tail = (kernel.deriv_one * _integral_weights(p.alpha - 1.0, grid, grid.phi.image[1])
            - p.beta * _integral_weights(p.alpha, grid, kernel.phi_eta)) / kernel.mu
    band = _band_weights(p.alpha, grid)
    flat = np.empty(sum((i1 - i0) * i1 for i0, i1 in layout))
    memory, subs = [], []
    offset = 0
    for i0, i1 in layout:
        # rows i0..i1-1 on columns 0..i1-1, in sub-blocks of whole super-panels
        block = flat[offset:offset + (i1 - i0) * i1].reshape(i1 - i0, i1)
        offset += block.size
        step = max(4, _BLOCK_ELEMENTS // i1 // 4 * 4)
        subs.extend((r0, block[r0 - i0:r0 - i0 + step]) for r0 in range(i0, i1, step))
        memory.append(block)

    def fill(part):
        for r0, out in part:
            rows, cols = out.shape
            _memory(kernel, y[r0:r0 + rows, None], y[None, :cols], out=out)
            out /= kernel.scale
            out *= grid.weights[:cols]
            _write_band(out, r0, band)

    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    workers = min(cpus or 1, len(subs)) if flat.size >= _PARALLEL_ELEMENTS else 1
    if workers > 1:
        # imported here: concurrent.futures brings logging along, about 7 ms
        # of import that a process whose fills stay serial never needs
        from concurrent.futures import ThreadPoolExecutor
        # each worker runs in a copy of the caller's context (numpy's error
        # state); leaving the pool joins all before a part's error is raised
        contexts = [contextvars.copy_context() for _ in range(workers)]
        with ThreadPoolExecutor(workers) as pool:
            list(pool.map(lambda k: contexts[k].run(fill, subs[k::workers]), range(workers)))
    else:
        fill(subs)
    return OperatorFactors(head=head, tail=tail, memory=tuple(memory))


class Operator:
    """The discrete integral operator A of one problem on one grid; its
    ``factors`` are assembled once, by ``operator_matrix``."""

    def __init__(self, spec: ProblemSpec, kernel: GreenKernel, grid: QuadratureGrid):
        self.spec = spec
        self.kernel = kernel
        self.grid = grid
        self.factors = operator_matrix(kernel, grid)

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
        evaluates, differentiated exactly.  GridMismatchError unless u is
        on this operator's grid object; never raises on non-finite values."""
        if u.grid is not self.grid:
            raise GridMismatchError("u lives on a different grid than the operator")
        residual = float(np.max(np.abs(self.factors.product(self._forcing(u.values)) - u.values)))
        p = self.kernel.params
        return residual, (abs(u(0.0)), abs(u.deriv(0.0)),
                          abs(u.deriv(1.0) - p.beta * u(p.eta)))


@dataclass(frozen=True)
class Hypothesis:
    """One certificate line: a named condition, its status, a note.

    ``ok`` is None for conditions that are recorded rather than
    checked (assumed or not finitely checkable)."""

    name: str
    ok: bool | None
    note: str


@dataclass(frozen=True)
class Certificate:
    """Machine-checkable record of which certificate hypotheses hold.

    It stores what the check measured: ``g_sup`` when the Lipschitz
    constant came from an envelope g, and the contraction factor ``lam``.
    The ``verdict`` follows from the ``hypotheses``, and mu, the beta
    bound and the uniqueness threshold are read from ``kernel``.
    ``spec``, ``kernel`` and ``grid`` record what it was built for, so
    that ``picard_solve`` refuses it for another problem; none of them
    take part in ``repr`` or comparison.
    """

    mode: str
    g_sup: float | None
    lam: float
    hypotheses: tuple[Hypothesis, ...]
    spec: ProblemSpec = field(repr=False, compare=False)
    kernel: GreenKernel = field(repr=False, compare=False)
    grid: QuadratureGrid = field(repr=False, compare=False)

    @property
    def verdict(self) -> str:
        """The mode's claim when every checked hypothesis passes, else no-certificate."""
        return (_CLAIMS[self.mode] if all(h.ok for h in self.hypotheses if h.ok is not None)
                else VERDICT_NONE)

    @property
    def passed(self) -> bool:
        return self.verdict != VERDICT_NONE


def _g_sup(spec: ProblemSpec, grid: QuadratureGrid) -> float:
    ts = np.concatenate([[0.0], grid.nodes, [1.0]])
    gv = np.broadcast_to(np.asarray(spec.g(ts), dtype=float), ts.shape)
    if not np.all(np.isfinite(gv)):
        raise NumericError("g returned non-finite values")
    if np.any(gv < 0.0):
        raise ConfigurationError("Lipschitz envelope g must be nonnegative")
    return float(np.max(gv))


def _lipschitz_sampled(spec: ProblemSpec, seed: int) -> tuple[bool, float]:
    """Sampled |f(t,u)-f(t,v)| <= g(t)|u-v| with a rounding allowance."""
    rng = np.random.default_rng(seed ^ 0x5F5E5F)
    ts = rng.uniform(0.0, 1.0, _SAMPLED_POINTS)
    low = 0.0 if spec.f_domain == "nonnegative" else -5.0
    us = rng.uniform(low, 5.0, _SAMPLED_POINTS)
    vs = rng.uniform(low, 5.0, _SAMPLED_POINTS)
    lhs = np.abs(np.asarray(spec.f(ts, us), dtype=float) - np.asarray(spec.f(ts, vs), dtype=float))
    rhs = np.asarray(spec.g(ts), dtype=float) * np.abs(us - vs)
    slack = 1e-9 * (1.0 + rhs)
    excess = float(np.max(lhs - rhs - slack))
    return bool(excess <= 0.0), excess


def _lam(kernel: GreenKernel, lipschitz: float) -> float:
    """The contraction factor of A for a Lipschitz constant of f in u; inf
    when its square overflows."""
    factor = (lipschitz * kernel.deriv_one * kernel.shifted_one ** (kernel.params.alpha - 1.0)
              / kernel.scale)
    try:
        return factor ** 2
    except OverflowError:
        return math.inf


def _envelope(spec: ProblemSpec, grid: QuadratureGrid, seed: int,
              mode: str) -> tuple[float, Hypothesis]:
    """sup g and the sampled row of |f(t,u)-f(t,v)| <= g(t)|u-v|;
    ConfigurationError without an envelope."""
    if spec.g is None:
        raise ConfigurationError(f"{mode} certificate requires a Lipschitz envelope g")
    g_sup = _g_sup(spec, grid)
    lip_ok, lip_excess = _lipschitz_sampled(spec, seed)
    return g_sup, Hypothesis("lipschitz_envelope_sampled", lip_ok,
                             f"sampled hypothesis ({_SAMPLED_POINTS} triples), "
                             f"worst excess {lip_excess:.3g}")


def _f_nonneg_sampled(spec: ProblemSpec, seed: int) -> bool:
    rng = np.random.default_rng(seed ^ 0x3A9D2B)
    ts = rng.uniform(0.0, 1.0, _SAMPLED_POINTS)
    us = rng.uniform(0.0, 5.0, _SAMPLED_POINTS)
    fv = np.asarray(spec.f(ts, us), dtype=float)
    return bool(np.all(np.isfinite(fv)) and np.min(fv) >= 0.0)


def build_certificate(spec: ProblemSpec, kernel: GreenKernel, mode: str,
                      grid: QuadratureGrid, seed: int | None = None) -> Certificate:
    """Evaluate the hypotheses of the requested fixed-point route.

    Precondition violations (missing envelope, wrong f domain) raise
    ConfigurationError; mathematical failures are recorded in the
    hypotheses, and the verdict passes when every checked one does.
    Neither route assembles the operator.  The seed feeds the sampled
    rows only.
    """
    if mode not in _CLAIMS:
        raise ConfigurationError(f"unknown certificate mode {mode!r}")
    seed = resolve_seed(seed)

    p = kernel.params
    bound = kernel.beta_bound
    # every certificate reports the threshold, so a kernel without one is refused here
    threshold = kernel.uniqueness_threshold
    hyps: list[Hypothesis] = []
    hyps.append(Hypothesis("mu_nonzero", kernel.mu != 0.0, f"mu = {kernel.mu:.6g}"))
    hyps.append(Hypothesis("beta_below_bound", p.beta < bound,
                           f"beta = {p.beta:.6g}, bound = {bound:.6g}"))
    g_sup = None

    if mode == "uniqueness":
        g_sup, lipschitz_row = _envelope(spec, grid, seed, mode)
        lam = _lam(kernel, g_sup)
        hyps.append(lipschitz_row)
        hyps.append(Hypothesis("g_sup_below_threshold", g_sup < threshold,
                               f"sup g = {g_sup:.6g}, threshold = {threshold:.6g}"))
        # lambda bounds A in the squared sup distance only where G >= 0, i.e. mu > 0
        contraction = kernel.mu > 0.0
        hyps.append(Hypothesis("lambda_below_half", lam < 1.0 / R if contraction else None,
                               f"lambda = {lam:.6g}, limit = {1.0 / R:.6g}" if contraction
                               else "not a contraction factor: mu < 0"))
    else:
        if spec.f_domain != "nonnegative":
            raise ConfigurationError(
                "positive-existence certificate requires f_domain = 'nonnegative'")
        hyps.append(Hypothesis("mu_positive", kernel.mu > 0.0, f"mu = {kernel.mu:.6g}"))
        if isinstance(spec.f, Expression):
            (f_low, _), (slope_low, slope_high) = spec.f.enclosure()
            f_ok = f_low >= 0.0
            lipschitz = max(-slope_low, slope_high)
            hyps.append(Hypothesis("f_nonnegative", f_ok, f"f >= {f_low:.6g} on [0,1] x "
                                   "[0,inf], from its interval enclosure"))
            hyps.append(Hypothesis("lipschitz_bound", lipschitz < math.inf,
                                   f"|df/du| <= {lipschitz:.6g} on [0,1] x [0,inf], "
                                   "from its interval enclosure"))
        else:
            g_sup, lipschitz_row = _envelope(spec, grid, seed, mode)
            lipschitz, f_ok = g_sup, _f_nonneg_sampled(spec, seed)
            hyps.append(Hypothesis("f_nonnegative_sampled", f_ok,
                                   f"sampled hypothesis ({_SAMPLED_POINTS} points of [0,1] x R+)"))
            hyps.append(lipschitz_row)
        lam = _lam(kernel, lipschitz)
        # theta is nondecreasing, so theta(0) = 1/6 is its least value
        shrink = float(theta(0.0))
        hyps.append(Hypothesis("geraghty_inequality", R**3 * lam <= shrink,
                               f"R^3 lambda = {R**3 * lam:.6g}, limit theta(0) = {shrink:.6g}"))
        hyps.append(Hypothesis("admissibility", kernel.mu > 0.0 and p.beta < bound and f_ok,
                               "A u >= 0 for every u >= 0: G >= 0 (mu > 0, beta below "
                               "its bound) and f >= 0"))
        hyps.append(Hypothesis("witness_zero_start", True, "tau(u0, A u0) = 0 for u0 = 0"))
        hyps.append(Hypothesis("sequential_closure", None,
                               "assumed by construction for the product relation "
                               "with nonnegative iterates"))

    return Certificate(mode=mode, g_sup=g_sup, lam=lam, hypotheses=tuple(hyps),
                       spec=spec, kernel=kernel, grid=grid)


@dataclass(frozen=True)
class SolveReport:
    """Outcome of a Picard run plus its a-posteriori diagnostics.

    ``step_distances`` hold the squared sup of A x - x at the iterate x of
    each iteration; ``iterations``, ``final_step_distance`` and
    ``observed_ratios`` are their count, the last of them and their
    consecutive quotients, which estimate the contraction factor only up
    to the first of the ``accelerated_steps``, the iterations whose next
    iterate was extrapolated.  ``boundary_residuals`` are |u(0)|, |u'(0)|
    and |u'(1) - beta*u(eta)| of the reported ``solution``, whose local
    cubics are evaluated and differentiated exactly; ``solution_min`` is
    its smallest nodal value, so strict positivity can be judged
    separately from nonnegativity.
    """

    solution: GridFunction
    converged: bool
    fixed_point_residual: float
    boundary_residuals: tuple[float, float, float]
    step_distances: tuple[float, ...]
    label: str
    tol: float
    accelerated_steps: int

    @property
    def iterations(self) -> int:
        return len(self.step_distances)

    @property
    def final_step_distance(self) -> float:
        return self.step_distances[-1]

    @property
    def observed_ratios(self) -> tuple[float, ...]:
        steps = self.step_distances
        return tuple(b / a for a, b in zip(steps, steps[1:]))

    @property
    def solution_min(self) -> float:
        return float(np.min(self.solution.values))


def picard_solve(spec: ProblemSpec, kernel: GreenKernel, u0: GridFunction,
                 tol: float = 1e-16, max_iter: int = 100,
                 certificate: Certificate | None = None) -> SolveReport:
    """Iterate from u0, one application of A per step, until the squared
    sup of A x - x at an iterate x drops below tol; the solution is that
    A x.  The next iterate is A x, or, while spec.f_domain is "real" and
    the last step ratio lies in (0.01, 1), its Anderson mixing.

    Non-convergence within ``max_iter`` is reported, not raised.  A first
    step whose image or squared step is not finite raises NumericError; at a
    later step the same overflow means the iteration diverged, and the run
    ends at the last finite image, reported as not converged.  Runs without
    a passing certificate are labeled best-effort; a certificate built for
    another spec, kernel or grid object raises ConfigurationError.  The solve
    assembles its own operator.
    """
    if not (tol > 0.0 and math.isfinite(tol)):
        raise ConfigurationError(f"tol must be finite and positive, got {tol!r}")
    if max_iter < 1:
        raise ConfigurationError(f"max_iter must be at least 1, got {max_iter!r}")
    grid = u0.grid
    if certificate is not None and not (certificate.spec is spec and certificate.kernel is kernel
                                        and certificate.grid is grid):
        raise ConfigurationError(
            "certificate was built for a different problem, kernel or grid")
    op = Operator(spec, kernel, grid)
    x = values = u0.values
    history = deque(maxlen=_AA_MEMORY + 1)
    steps: list[float] = []
    accelerated = 0
    # a diverging iteration overflows on its way out; that ends the run
    # below, so numpy's overflow warnings would only repeat it
    with np.errstate(over="ignore", invalid="ignore"):
        while len(steps) < max_iter:
            try:
                image = op.apply(x)
                diff = image - x
                step = float(np.max(diff * diff))
                if not math.isfinite(step):
                    raise NumericError("Picard step distance overflowed")
            except NumericError:
                if not steps:
                    raise
                break
            steps.append(step)
            values = image
            if step < tol:
                break
            history.append((x, diff))
            x = image
            if (spec.f_domain == "real" and len(steps) > 1
                    and _AA_ENGAGE < step / steps[-2] < 1.0):
                mixed = _anderson(history, image)
                if mixed is not None:
                    x = mixed
                    accelerated += 1
        solution = GridFunction(grid=grid, values=values)
        residual, boundary = op.residuals(solution)
    label = (f"certified:{certificate.verdict}" if certificate is not None and certificate.passed
             else "best-effort")
    # a run ends above tol only when it runs out of steps or overflows
    return SolveReport(
        solution=solution,
        converged=steps[-1] < tol,
        fixed_point_residual=residual,
        boundary_residuals=boundary,
        step_distances=tuple(steps),
        label=label,
        tol=tol,
        accelerated_steps=accelerated,
    )


def _anderson(history: deque, image: np.ndarray) -> np.ndarray | None:
    """A x - sum_j gamma_j (dx_j + dr_j) over consecutive (iterate, residual) pairs, x
    the newest, gamma fitting the dr_j to its residual by pairwise sums; None if singular."""
    dx, dr = (np.diff(np.array(column), axis=0) for column in zip(*history))
    gram = np.array([np.add.reduce(dr * d, axis=1) for d in dr])
    try:
        gamma = np.linalg.solve(gram, np.add.reduce(dr * history[-1][1], axis=1))
    except np.linalg.LinAlgError:
        return None
    for g, ddx, ddr in zip(gamma, dx, dr):
        image = image - g * (ddx + ddr)
    return image
