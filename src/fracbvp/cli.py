"""Command-line interface.

Commands:

* ``check <cfg>``: evaluate the certificate requested by the config's
  mode and print it with the kernel's property checks.
* ``solve <cfg> -o <csv>``: run the Picard iteration and write the
  solution as CSV plus a sidecar text report.
* ``green <cfg> -o <csv> --resolution N``: tabulate the kernel on a
  uniform N x N grid, 2 <= N <= 1024.
* ``verify-paper [--json]``: recompute the six reference constants of
  the two bundled example problems and compare them with their
  published approximations.

A text report (``check``'s output, ``solve``'s sidecar) is the
provenance as comments, then the rows of the command's ``--json``
payload.

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
from .calculus import GridFunction, QuadratureGrid
from .config import Config, Problem, build_problem, load_config
from .errors import ConfigurationError, FracBvpError
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

# the status column of a certificate's hypothesis rows, by Hypothesis.ok
_STATUS = {True: "pass", False: "FAIL", None: "recorded"}

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


def _config(args) -> Config:
    """The command's config with its --grid (check, solve) and --tol and
    --max-iter (solve) applied; Config validates them."""
    config = load_config(args.config)
    updates = {key: getattr(args, flag) for key, flag in
               (("grid_size", "grid"), ("tol", "tol"), ("max_iter", "max_iter"))
               if getattr(args, flag, None) is not None}
    return dataclasses.replace(config, **updates) if updates else config


def _built(config: Config) -> tuple[Problem, int]:
    """The problem of config and the seed of the run."""
    return build_problem(config), resolve_seed()


def _certified(config: Config) -> tuple[Problem, int, QuadratureGrid, Certificate | None]:
    """The problem of config, the seed, the config's grid and the
    certificate of its mode on that grid, None for solve-only."""
    problem, seed = _built(config)
    grid = problem.grid()
    cert = None
    if config.mode != "solve-only":
        cert = build_certificate(problem.spec, problem.kernel, config.mode, grid=grid, seed=seed)
    return problem, seed, grid, cert


def _output_path(text: str) -> Path:
    """The -o path, refused when it names no file ('', '.', '/')."""
    path = Path(text)
    if not path.name:
        raise argparse.ArgumentTypeError(f"{text!r} names no file")
    return path


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


def _certificate_json(cert: Certificate) -> dict:
    kernel = cert.kernel
    return {
        "mode": cert.mode,
        "mu": kernel.mu,
        "beta_bound": kernel.beta_bound,
        "uniqueness_threshold": kernel.uniqueness_threshold,
        "g_sup": cert.g_sup,
        "lambda": cert.lam,
        "hypotheses": [
            {"name": h.name, "ok": h.ok, "note": h.note} for h in cert.hypotheses
        ],
        "verdict": cert.verdict,
    }


def _rows(payload: dict) -> list[str]:
    """The text rows of a --json payload in its order: one row per key,
    padded to 22 columns, with floats in _fmt's shortest round trip and a
    list's items joined by spaces; a nested object gives its own rows, a
    certificate's hypotheses one row each, and a null value no row."""
    lines = []
    for key, value in payload.items():
        if key == "hypotheses":
            lines.extend(f"  [{_STATUS[h['ok']]:8s}] {h['name']}: {h['note']}" for h in value)
        elif isinstance(value, dict):
            lines.extend(_rows(value))
        elif value is not None:
            items = value if isinstance(value, (list, tuple)) else (value,)
            lines.append(f"{key:22s}" + " ".join(
                _fmt(v) if isinstance(v, float) else str(v) for v in items))
    return lines


def _text_report(problem: Problem, command: str, seed: int, payload: dict) -> str:
    """The provenance as comments, then the rows of payload."""
    lines = [f"# {line}" for line in _provenance_lines(problem, command, seed)]
    return "\n".join(lines + _rows(payload)) + "\n"


def _atomic_write(*files: tuple[Path, str]) -> None:
    """Write each (path, text) to path.tmp, then move them onto the paths
    last first, so the first path appears only beside all the others;
    ConfigurationError naming a path that cannot be written, with no .tmp
    file and no path already moved left behind."""
    moves = [(path, path.with_name(path.name + ".tmp"), text) for path, text in files]
    moved = []
    try:
        for path, tmp, text in moves:
            tmp.write_text(text)
        for path, tmp, _ in reversed(moves):
            os.replace(tmp, path)
            moved.append(path)
    except OSError as exc:
        for leftover in [tmp for _, tmp, _ in moves] + moved:
            leftover.unlink(missing_ok=True)
        raise ConfigurationError(f"cannot write {str(path)!r}: {exc.strerror or exc}") from None


def _cmd_check(args) -> int:
    problem, seed, _, cert = _certified(_config(args))
    if cert is None:
        raise FracBvpError("key 'mode': must be uniqueness or positive-existence for check")
    kernel_report = check_kernel_properties(problem.kernel)
    payload = {
        "certificate": _certificate_json(cert),
        "kernel": dict(dataclasses.asdict(kernel_report), mu=problem.kernel.mu,
                       beta_bound=problem.kernel.beta_bound),
    }
    if args.json:
        _print_json(dict(payload, provenance=_provenance_lines(problem, "check", seed)))
    else:
        print(_text_report(problem, "check", seed, payload), end="")
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


def _cmd_solve(args) -> int:
    problem, seed, grid, cert = _certified(_config(args))
    report = picard_solve(problem.spec, problem.kernel, GridFunction.constant(grid, 0.0),
                          tol=problem.config.tol, max_iter=problem.config.max_iter,
                          certificate=cert)
    out = args.output
    sidecar = out.with_name(out.stem + ".report.txt")
    # the sidecar is the rows of this payload; --json adds the csv and report paths
    payload = {} if cert is None else {"certificate": _certificate_json(cert)}
    payload.update((key, getattr(report, key)) for key in (
        "converged", "iterations", "label", "tol", "final_step_distance", "step_distances",
        "observed_ratios", "fixed_point_residual", "boundary_residuals", "solution_min",
        "accelerated_steps"))
    _atomic_write((out, _solve_csv(problem, report, seed)),
                  (sidecar, _text_report(problem, "solve", seed, payload)))
    if args.json:
        _print_json(dict(payload, csv=str(out), report=str(sidecar)))
    else:
        print(f"wrote {out} and {sidecar} "
              f"(converged={report.converged}, iterations={report.iterations}, label={report.label})")
    return EXIT_OK if report.converged else EXIT_NO_CONVERGENCE


def _cmd_green(args) -> int:
    if not 2 <= args.resolution <= _MAX_GREEN_RESOLUTION:
        raise FracBvpError(f"--resolution must lie in [2, {_MAX_GREEN_RESOLUTION}], "
                           f"got {args.resolution}")
    problem, seed = _built(_config(args))
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
    _atomic_write((args.output, "\n".join(lines) + "\n"))
    if args.json:
        _print_json({"csv": str(args.output), "resolution": args.resolution,
                     "mu": kernel.mu, "beta_bound": kernel.beta_bound})
    else:
        print(f"wrote {args.output} ({args.resolution}x{args.resolution} points)")
    return EXIT_OK


def reference_table() -> list[dict]:
    """Computed-versus-published rows for the bundled examples."""
    p41 = build_problem(load_config(bundled_config_path("example41")))
    p42, _, _, cert42 = _certified(load_config(bundled_config_path("example42")))
    kernels = {"example41": p41.kernel, "example42": p42.kernel}
    rows = []
    for name, constant, reference in REFERENCE_CONSTANTS:
        computed = float(cert42.g_sup if constant == "g_sup" else getattr(kernels[name], constant))
        rows.append(dict(problem=name, constant=constant, computed=computed,
                         reference=reference, abs_diff=abs(computed - reference)))
    return rows


def _cmd_verify_paper(args) -> int:
    rows = reference_table()
    ok = all(row["abs_diff"] <= REFERENCE_TOLERANCE for row in rows)
    if args.json:
        _print_json({"tolerance": REFERENCE_TOLERANCE, "all_within_tolerance": ok, "rows": rows})
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
        p.add_argument("-o", "--output", required=True, type=_output_path,
                       help="output CSV path")
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
