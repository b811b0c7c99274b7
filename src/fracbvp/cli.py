"""Command-line interface.

Commands:

* ``check <cfg>``: evaluate the certificate requested by the config's
  mode and print the certificate table.
* ``solve <cfg> -o <csv>``: run the Picard iteration and write the
  solution as CSV plus a sidecar text report.
* ``green <cfg> -o <csv> --resolution N``: tabulate the kernel on a
  uniform N x N grid, 2 <= N <= 1024.
* ``verify-paper [--json]``: recompute the six reference constants of
  the two bundled example problems and compare them with their
  published approximations.

Exit codes: 0 success, 1 configuration error, 2 certificate failure,
3 non-convergence.  ``--json`` output is strict JSON: a non-finite
number is written as null.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from importlib import resources
from pathlib import Path

import numpy as np

from . import __version__
from .calculus import GridFunction
from .config import Config, Problem, build_problem, load_config
from .errors import FracBvpError
from .green import check_kernel_properties, green_values
from .solver import (
    Certificate,
    SolveReport,
    build_certificate,
    picard_solve,
    resolve_seed,
)

__all__ = ["main", "entrypoint", "REFERENCE_CONSTANTS", "REFERENCE_TOLERANCE",
           "bundled_config_path", "reference_table"]

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_CERTIFICATE = 2
EXIT_NO_CONVERGENCE = 3

# published approximations of the derived constants for the two bundled
# example problems, compared by verify-paper at absolute tolerance 1e-4
REFERENCE_TOLERANCE = 1e-4
REFERENCE_CONSTANTS = (
    ("example41", "beta_bound", 2.95903),
    ("example41", "mu", 0.22703),
    ("example42", "beta_bound", 5.60946),
    ("example42", "mu", 0.0346236),
    ("example42", "g_sup", 0.895984),
    ("example42", "uniqueness_threshold", 1.95333),
)

# the largest green --resolution: the table's text rows take about 250 B
# each, so 1024**2 rows stay near 300 MiB
_MAX_GREEN_RESOLUTION = 1024


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems are configuration errors
        raise FracBvpError(message)


def _fmt(x: float) -> str:
    """Shortest round-trip decimal representation."""
    return repr(float(x))


def bundled_config_path(name: str) -> Path:
    """Filesystem path of a bundled configuration file."""
    return Path(resources.files("fracbvp").joinpath("configs", f"{name}.cfg"))


def _apply_overrides(config: Config, args) -> Config:
    """The config with the command's --grid (check, solve) and --tol and
    --max-iter (solve) applied; Config validates them."""
    updates = {key: getattr(args, flag) for key, flag in
               (("grid_size", "grid"), ("tol", "tol"), ("max_iter", "max_iter"))
               if getattr(args, flag, None) is not None}
    return dataclasses.replace(config, **updates) if updates else config


def _print_json(payload: dict) -> None:
    """Print payload as strict JSON: a non-finite number becomes null."""
    strict = json.loads(json.dumps(payload), parse_constant=lambda _: None)
    print(json.dumps(strict, sort_keys=True, indent=2, allow_nan=False))


def _provenance_lines(problem: Problem, command: str, seed: int) -> list[str]:
    cfg = problem.config
    lines = [f"fracbvp {__version__}", f"command: {command}"]
    for key, value in cfg.items:
        lines.append(f"config: {key} = {value}")
    lines.append(
        "effective: "
        f"grid_size = {cfg.grid_size} | tol = {_fmt(cfg.tol)} | "
        f"max_iter = {cfg.max_iter} | mode = {cfg.mode}")
    lines.append(
        f"grid: panels = {cfg.grid_size} | scheme = graded-gauss2 | "
        f"nodes = {2 * cfg.grid_size}")
    lines.append(f"seed: {seed}")
    return lines


def _certificate_lines(cert: Certificate) -> list[str]:
    lines = [
        f"mode                  {cert.mode}",
        f"mu                    {_fmt(cert.mu)}",
        f"beta_bound            {_fmt(cert.beta_bound)}",
        f"uniqueness_threshold  {_fmt(cert.uniqueness_threshold)}",
    ]
    if cert.g_sup is not None:
        lines.append(f"g_sup                 {_fmt(cert.g_sup)}")
    if cert.lam is not None:
        lines.append(f"lambda                {_fmt(cert.lam)}")
    for hyp in cert.hypotheses:
        status = "recorded" if hyp.ok is None else ("pass" if hyp.ok else "FAIL")
        lines.append(f"  [{status:8s}] {hyp.name}: {hyp.note}")
    lines.append(f"verdict               {cert.verdict}")
    return lines


def _certificate_json(cert: Certificate) -> dict:
    return {
        "mode": cert.mode,
        "mu": cert.mu,
        "beta_bound": cert.beta_bound,
        "uniqueness_threshold": cert.uniqueness_threshold,
        "g_sup": cert.g_sup,
        "lambda": cert.lam,
        "hypotheses": [
            {"name": h.name, "ok": h.ok, "note": h.note, "required": h.required}
            for h in cert.hypotheses
        ],
        "verdict": cert.verdict,
    }


def _atomic_write(path: Path, text: str) -> None:
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


def _cmd_check(args) -> int:
    config = _apply_overrides(load_config(args.config), args)
    problem = build_problem(config)
    if config.mode == "solve-only":
        raise FracBvpError("key 'mode': must be uniqueness or positive-existence for check")
    seed = resolve_seed()
    grid = problem.grid()
    cert = build_certificate(problem.spec, problem.kernel, config.mode,
                             grid=grid, seed=seed)
    kernel_report = check_kernel_properties(problem.kernel)
    if args.json:
        payload = {
            "certificate": _certificate_json(cert),
            "kernel": dataclasses.asdict(kernel_report),
            "provenance": _provenance_lines(problem, "check", seed),
        }
        _print_json(payload)
    else:
        for line in _provenance_lines(problem, "check", seed):
            print(f"# {line}")
        for line in _certificate_lines(cert):
            print(line)
        print(f"kernel checks         "
              f"hypothesis={'ok' if kernel_report.hypothesis_ok else 'VIOLATED'} "
              f"positivity={'ok' if kernel_report.positivity_ok else 'FAIL'} "
              f"seams={'ok' if kernel_report.seam_ok else 'FAIL'} "
              f"bound={'ok' if kernel_report.bound_ok else 'FAIL'}")
    return EXIT_OK if cert.passed else EXIT_CERTIFICATE


def _solve_csv(problem: Problem, report: SolveReport, seed: int) -> str:
    lines = [f"# {line}" for line in _provenance_lines(problem, "solve", seed)]
    lines.append(f"# converged: {report.converged} | iterations: {report.iterations}")
    lines.append("t,u")
    # tolist() gives Python floats, whose repr is _fmt's shortest round trip
    solution = report.solution
    lines.extend(f"{t!r},{u!r}" for t, u in zip(solution.grid.nodes.tolist(),
                                                 solution.values.tolist()))
    return "\n".join(lines) + "\n"


def _solve_report_text(problem: Problem, report: SolveReport,
                       cert: Certificate | None, seed: int) -> str:
    lines = [f"# {line}" for line in _provenance_lines(problem, "solve", seed)]
    if cert is not None:
        lines.extend(_certificate_lines(cert))
    lines.append(f"label                 {report.label}")
    lines.append(f"converged             {report.converged}")
    lines.append(f"iterations            {report.iterations}")
    lines.append(f"final_step_distance   {_fmt(report.final_step_distance)} (squared scale, tol {_fmt(report.tol)})")
    lines.append(f"fixed_point_residual  {_fmt(report.fixed_point_residual)}")
    b0, b1, b2 = report.boundary_residuals
    lines.append(f"boundary_residuals    |u(0)| = {_fmt(b0)} | |u'(0)| = {_fmt(b1)} | "
                 f"|u'(1) - beta*u(eta)| = {_fmt(b2)}")
    lines.append(f"solution_min          {_fmt(report.solution_min)} "
                 f"(strictly positive: {report.solution_min > 0.0})")
    ratios = " ".join(_fmt(r) for r in report.observed_ratios)
    lines.append(f"observed_ratios       {ratios}")
    return "\n".join(lines) + "\n"


def _cmd_solve(args) -> int:
    config = _apply_overrides(load_config(args.config), args)
    problem = build_problem(config)
    seed = resolve_seed()
    grid = problem.grid()
    cert = None
    if config.mode != "solve-only":
        cert = build_certificate(problem.spec, problem.kernel, config.mode,
                                 grid=grid, seed=seed)
    u0 = GridFunction.constant(grid, 0.0)
    report = picard_solve(problem.spec, problem.kernel, u0,
                          tol=config.tol, max_iter=config.max_iter, certificate=cert)
    out = Path(args.output)
    _atomic_write(out, _solve_csv(problem, report, seed))
    sidecar = out.with_name(out.stem + ".report.txt")
    _atomic_write(sidecar, _solve_report_text(problem, report, cert, seed))
    if args.json:
        payload = {key: getattr(report, key) for key in (
            "converged", "iterations", "label", "tol", "final_step_distance", "step_distances",
            "observed_ratios", "fixed_point_residual", "boundary_residuals", "solution_min")}
        payload.update(csv=str(out), report=str(sidecar))
        if cert is not None:
            payload["certificate"] = _certificate_json(cert)
        _print_json(payload)
    else:
        print(f"wrote {out} and {sidecar} "
              f"(converged={report.converged}, iterations={report.iterations}, label={report.label})")
    return EXIT_OK if report.converged else EXIT_NO_CONVERGENCE


def _cmd_green(args) -> int:
    if not 2 <= args.resolution <= _MAX_GREEN_RESOLUTION:
        raise FracBvpError(f"--resolution must lie in [2, {_MAX_GREEN_RESOLUTION}], "
                           f"got {args.resolution}")
    problem = build_problem(load_config(args.config))
    seed = resolve_seed()
    kernel = problem.kernel
    pts = np.linspace(0.0, 1.0, args.resolution)
    gmat = green_values(kernel, pts[:, None], pts[None, :])
    lines = [f"# {line}" for line in _provenance_lines(problem, "green", seed)]
    lines.append(f"# mu: {_fmt(kernel.mu)}")
    lines.append(f"# beta_bound: {_fmt(kernel.beta_bound)}")
    lines.append("t,s,G")
    # each axis value is formatted once; G values as in _solve_csv
    axis = [_fmt(p) for p in pts]
    for t, row in zip(axis, gmat.tolist()):
        lines.extend(f"{t},{s},{g!r}" for s, g in zip(axis, row))
    _atomic_write(Path(args.output), "\n".join(lines) + "\n")
    if args.json:
        payload = {
            "csv": str(args.output),
            "resolution": args.resolution,
            "mu": kernel.mu,
            "beta_bound": kernel.beta_bound,
        }
        _print_json(payload)
    else:
        print(f"wrote {args.output} ({args.resolution}x{args.resolution} points)")
    return EXIT_OK


def reference_table() -> list[dict]:
    """Computed-versus-published rows for the bundled examples."""
    problems = {}
    for name in ("example41", "example42"):
        problems[name] = build_problem(load_config(bundled_config_path(name)))
    values = {}
    for name, problem in problems.items():
        values[(name, "mu")] = problem.kernel.mu
        values[(name, "beta_bound")] = problem.kernel.beta_bound
    p42 = problems["example42"]
    cert = build_certificate(p42.spec, p42.kernel, "uniqueness", grid=p42.grid())
    values[("example42", "g_sup")] = cert.g_sup
    values[("example42", "uniqueness_threshold")] = cert.uniqueness_threshold
    rows = []
    for name, constant, reference in REFERENCE_CONSTANTS:
        computed = float(values[(name, constant)])
        rows.append({
            "problem": name,
            "constant": constant,
            "computed": computed,
            "reference": reference,
            "abs_diff": abs(computed - reference),
        })
    return rows


def _cmd_verify_paper(args) -> int:
    rows = reference_table()
    ok = all(row["abs_diff"] <= REFERENCE_TOLERANCE for row in rows)
    if args.json:
        payload = {
            "tolerance": REFERENCE_TOLERANCE,
            "all_within_tolerance": ok,
            "rows": rows,
        }
        _print_json(payload)
    else:
        header = f"{'problem':<10} {'constant':<22} {'computed':<22} {'reference':<12} {'abs diff':<12}"
        print(header)
        for row in rows:
            print(f"{row['problem']:<10} {row['constant']:<22} "
                  f"{row['computed']:<22.12g} {row['reference']:<12g} "
                  f"{row['abs_diff']:<12.3g}")
        print(f"all within {REFERENCE_TOLERANCE:g}: {ok}")
    return EXIT_OK if ok else EXIT_CERTIFICATE


def _build_parser() -> _Parser:
    parser = _Parser(prog="fracbvp",
                     description="Kernel construction, certificates and certified "
                                 "Picard solves for a three-point fractional "
                                 "boundary value problem.")
    sub = parser.add_subparsers(dest="cmd", required=True)
    check = sub.add_parser("check", help="evaluate the certificate for a config")
    solve = sub.add_parser("solve", help="run the Picard iteration")
    green_p = sub.add_parser("green", help="tabulate the kernel on a uniform grid")
    verify = sub.add_parser("verify-paper",
                            help="recompute the reference constants of the bundled "
                                 "examples and compare with their published values")
    for p in (check, solve, green_p):
        p.add_argument("config", help="path to a key = value configuration file")
    for p in (solve, green_p):
        p.add_argument("-o", "--output", required=True, help="output CSV path")
    for p in (check, solve):
        p.add_argument("--grid", type=int, default=None, help="override grid_size")
    solve.add_argument("--tol", type=float, default=None, help="override tol")
    solve.add_argument("--max-iter", type=int, default=None, help="override max_iter")
    green_p.add_argument("--resolution", type=int, default=100,
                         help="points per axis, 2 to 1024 (default 100)")
    for p in (check, solve, green_p, verify):
        p.add_argument("--json", action="store_true", help="structured report on stdout")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.cmd == "check":
            return _cmd_check(args)
        if args.cmd == "solve":
            return _cmd_solve(args)
        if args.cmd == "green":
            return _cmd_green(args)
        return _cmd_verify_paper(args)
    except FracBvpError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def entrypoint() -> None:
    sys.exit(main())
