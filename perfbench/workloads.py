"""The four workloads: one operation each, with its correctness checks.

An operation returns an ``Outcome``: the failed checks by name, the
largest sup error against an exact or stored reference, and the bytes
the CLI wrote.  ``fracbvp`` names are looked up at call time, through
their modules, so a traced operation reaches the tracer's wrappers.

Why each workload exists:

* ``paper``: what a reader of the paper runs.  verify-paper, then check
  and solve on both bundled configs at their shipped 1024 panels.  The
  kernel, assembly and certificate layers do nearly all the work.
* ``fine``: one CLI solve at 2048 panels (4096 nodes, a 128 MiB dense
  operator, larger than the 105 MiB shared L3).  The slope sits past the
  certificate's conservative threshold so Picard takes about 60 steps:
  memory and matvecs dominate.
* ``scan``: a parameter sweep of 24 small generated problems through the
  library functions.  Per-problem fixed costs and the Python-level
  certificate loop dominate, so a change that helps large grids but
  slows small ones shows here.
* ``laws``: a seeded pass over the fractional-calculus laws at 512
  panels, the kernel property checks and a 200 x 200 ``green`` table.
  Calculus and phi inversion dominate; the solver is idle.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import fracbvp
import fracbvp.cli
import fracbvp.config

from inputs import (LAWS_MAPS, LAWS_PANELS, SUP_POINTS, fine_problem, interpolate,
                    laws_rates, scan_problems)

# Correctness bounds.  The residual bounds are those of the acceptance
# suite's certified solve; the law tolerances mirror the library's
# TOL_INTEGRAL_IDENTITY and TOL_DERIVATIVE_IDENTITY, copied here so the
# library cannot loosen its own check.
FIXED_POINT_MAX = 1e-6
U0_MAX = 1e-4
SUP_ERR_MAX = 1e-6
# 64 panels at alpha near 2 leave a discretization error of a few 1e-5
SCAN_SUP_ERR_MAX = 1e-4
TOL_INTEGRAL_IDENTITY = 1e-6
TOL_DERIVATIVE_IDENTITY = 1e-4
LAW_ORDERS = (1.2, 0.8)  # semigroup orders
LAW_ALPHA = 2.5  # order of the derivative-of-integral identity

REFERENCE = Path(__file__).resolve().parent / "reference" / "example42.json"


@dataclass
class Outcome:
    failures: list[str] = field(default_factory=list)
    sup_err: float = 0.0
    cli_bytes: int = 0

    def expect(self, ok, what: str):
        if not ok:
            self.failures.append(what)


def bundled(name: str) -> str:
    return str(Path(fracbvp.__file__).parent / "configs" / f"{name}.cfg")


def read_csv(path: str, header: str) -> np.ndarray:
    lines = [ln for ln in Path(path).read_text().splitlines() if ln and not ln.startswith("#")]
    if not lines or lines[0] != header:
        raise ValueError(f"{path}: expected header {header!r}")
    return np.array([ln.split(",") for ln in lines[1:]], dtype=float)


def run_cli(argv: list[str], out: Outcome) -> tuple[int, dict]:
    """Call the CLI in-process with --json; count what it wrote."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = fracbvp.cli.main(argv + ["--json"])
    text = buf.getvalue()
    out.cli_bytes += len(text.encode())
    payload = json.loads(text) if code in (0, 2, 3) and text.strip() else {}
    for key in ("csv", "report"):
        if key in payload:
            out.cli_bytes += Path(payload[key]).stat().st_size
    return code, payload


def check_solve(tag: str, code: int, payload: dict, label: str, out: Outcome):
    out.expect(code == 0, f"{tag}: exit code {code}")
    out.expect(payload.get("converged") is True, f"{tag}: not converged")
    out.expect(payload.get("label") == label, f"{tag}: label {payload.get('label')}")
    out.expect(payload.get("fixed_point_residual", math.inf) <= FIXED_POINT_MAX,
               f"{tag}: fixed-point residual")
    out.expect(payload.get("boundary_residuals", [math.inf])[0] <= U0_MAX, f"{tag}: |u(0)|")


def solution_error(tag: str, nodes, values, exact, out: Outcome, rows: int | None = None,
                   limit: float = SUP_ERR_MAX):
    """Sup difference at 101 uniform points against the exact values."""
    if rows is not None:
        out.expect(nodes.size == rows, f"{tag}: {nodes.size} rows, expected {rows}")
    err = float(np.max(np.abs(interpolate(nodes, values, SUP_POINTS) - exact)))
    out.expect(err <= limit, f"{tag}: sup error {err:.3g}")
    out.sup_err = max(out.sup_err, err)


def paper(seed: int, run_dir: Path):
    e41, e42 = bundled("example41"), bundled("example42")
    reference = np.array(json.loads(REFERENCE.read_text())["u"])
    csv41, csv42 = str(run_dir / "example41.csv"), str(run_dir / "example42.csv")

    def op() -> Outcome:
        out = Outcome()
        code, payload = run_cli(["verify-paper"], out)
        out.expect(code == 0 and payload.get("all_within_tolerance") is True
                   and len(payload.get("rows", ())) == 6, "verify-paper")
        for cfg, verdict in ((e41, "exists-positive"), (e42, "unique-solution")):
            code, payload = run_cli(["check", cfg], out)
            out.expect(code == 0, f"check {cfg}: exit code {code}")
            out.expect(payload.get("certificate", {}).get("verdict") == verdict,
                       f"check {cfg}: verdict")
            kernel = payload.get("kernel", {})
            out.expect(all(kernel.get(k) is True for k in
                           ("hypothesis_ok", "positivity_ok", "seam_ok", "bound_ok")),
                       f"check {cfg}: kernel properties")
        for cfg, csv, verdict, exact in ((e41, csv41, "exists-positive", np.zeros_like(reference)),
                                         (e42, csv42, "unique-solution", reference)):
            code, payload = run_cli(["solve", cfg, "-o", csv], out)
            check_solve(f"solve {cfg}", code, payload, f"certified:{verdict}", out)
            data = read_csv(csv, "t,u")
            solution_error(f"solve {cfg}", data[:, 0], data[:, 1], exact, out, rows=2048)
        return out

    return op, e41


def fine(seed: int, run_dir: Path):
    text, exact = fine_problem(seed)
    cfg = run_dir / "fine.cfg"
    cfg.write_text(text)
    csv = str(run_dir / "fine.csv")
    exact_values = exact.exact(SUP_POINTS)

    def op() -> Outcome:
        out = Outcome()
        code, payload = run_cli(["solve", str(cfg), "-o", csv], out)
        check_solve("fine", code, payload, "best-effort", out)
        data = read_csv(csv, "t,u")
        solution_error("fine", data[:, 0], data[:, 1], exact_values, out, rows=4096)
        return out

    return op, str(cfg)


def scan(seed: int, run_dir: Path):
    problems = scan_problems(seed)
    for p in problems:
        if p.table_name is not None:
            (run_dir / p.table_name).write_text(p.table_text)
    first = run_dir / "scan-first.cfg"
    first.write_text(problems[0].config)
    exact = {p.name: p.exact.exact(SUP_POINTS) for p in problems if p.exact is not None}
    verdicts = {"uniqueness": "unique-solution", "positive-existence": "exists-positive"}

    def op() -> Outcome:
        out = Outcome()
        for p in problems:
            config = fracbvp.config.parse_config(p.config, base_dir=run_dir)
            problem = fracbvp.config.build_problem(config)
            grid = fracbvp.build_grid(problem.params.phi, config.grid_size)
            cert = fracbvp.build_certificate(problem.spec, problem.kernel, config.mode, grid=grid)
            out.expect(cert.verdict == verdicts[p.mode], f"{p.name}: verdict {cert.verdict}")
            report = fracbvp.picard_solve(problem.spec, problem.kernel,
                                          fracbvp.GridFunction.constant(grid, 0.0),
                                          tol=config.tol, max_iter=config.max_iter,
                                          certificate=cert)
            out.expect(report.converged, f"{p.name}: not converged")
            out.expect(report.fixed_point_residual <= FIXED_POINT_MAX,
                       f"{p.name}: fixed-point residual")
            out.expect(report.boundary_residuals[0] <= U0_MAX, f"{p.name}: |u(0)|")
            if p.mode == "positive-existence":
                out.expect(report.solution_min > 0.0, f"{p.name}: solution not positive")
            if p.name in exact:
                solution_error(p.name, grid.nodes, report.solution.values, exact[p.name], out,
                               limit=SCAN_SUP_ERR_MAX)
        return out

    return op, str(first)


def laws(seed: int, run_dir: Path):
    rates = laws_rates(seed)
    e42 = bundled("example42")
    kernels = [fracbvp.config.build_problem(fracbvp.config.load_config(bundled(name))).kernel
               for name in ("example41", "example42")]
    maps = {kind: fracbvp.phi_catalog(kind) for kind in LAWS_MAPS}
    points = np.linspace(0.1, 0.9, 9)
    csv = str(run_dir / "green.csv")

    def op() -> Outcome:
        out = Outcome()
        for kind, phi in maps.items():
            k = rates[kind]
            grid = fracbvp.build_grid(phi, LAWS_PANELS)
            u = fracbvp.GridFunction(grid, np.exp(k * grid.nodes))
            defect = fracbvp.semigroup_defect(*LAW_ORDERS, phi, u)
            out.expect(defect <= TOL_INTEGRAL_IDENTITY, f"{kind}: semigroup defect {defect:.3g}")
            w = fracbvp.GridFunction(grid, np.array(
                [fracbvp.frac_integral(LAW_ALPHA, phi, u, float(t)) for t in grid.nodes]))
            err = max(abs(fracbvp.frac_derivative(LAW_ALPHA, phi, w, float(t)) - math.exp(k * t))
                      for t in points)
            out.expect(err <= TOL_DERIVATIVE_IDENTITY, f"{kind}: derivative identity {err:.3g}")
            out.sup_err = max(out.sup_err, err)
        for kernel in kernels:
            out.expect(fracbvp.check_kernel_properties(kernel).passed, "kernel properties")
        code, payload = run_cli(["green", e42, "-o", csv, "--resolution", "200"], out)
        out.expect(code == 0, f"green: exit code {code}")
        out.expect(read_csv(csv, "t,s,G").shape == (40000, 3), "green: row count")
        return out

    return op, e42


BUILDERS = {"paper": paper, "fine": fine, "scan": scan, "laws": laws}
