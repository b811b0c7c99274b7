"""Write the outputs that the CI compares between a change and its base.

Usage: ``PYTHONPATH=<checkout>/src python tests/bundled_outputs.py <out-dir>``,
then ``python tests/bundled_outputs.py --compare <base-dir> <head-dir>``
to print how far the numbers of each differing CSV moved and a unified
diff, cut at 40 lines, of each differing ``.txt`` output, so that the
report rows that moved show and not only the files.
``PYTHONPATH`` picks the fracbvp that runs, so one script renders both
sides; the diff of the two out-dirs shows every moved byte.  Into
<out-dir> it writes, for each bundled config, the ``solve`` CSV, sidecar
and ``--json`` payload, ``check`` as text and ``--json`` and a
64-point ``green`` table; the same three outputs of example42's
``solve --grid 1536``, whose operator is filled on one worker thread per
usable CPU, so the thread pool's output is compared bit for bit on the
CPUs it runs on; ``verify-paper --json``; 64-panel solves of a
custom expression that uses every operator and function of the grammar
and of a ``phi = table`` config, with that config's ``green`` table; a
256-panel solve of a slow contraction, the only output on which
picard_solve mixes; and ``calculus.txt``, the repr of frac_integral,
semigroup_defect and frac_derivative of u = exp(s) on the three
closed-form maps and that table map at 64 and 512 panels, with the
scalar frac_integral at every node of the 512-panel grids of the sin
and sqrt maps at orders 0.8 and 2.5, one call per node as the
benchmark's ``laws`` workload makes them.  Commands run
in <out-dir> with relative paths, so the JSON ``csv`` and ``report``
fields of the two sides compare equal.  It uses only the CLI and
public names that the base has too.
"""

from __future__ import annotations

import contextlib
import difflib
import io
import math
import os
import sys
from pathlib import Path

import numpy as np

from fracbvp import (GridFunction, build_grid, frac_derivative, frac_integral,
                     phi_catalog, semigroup_defect)
from fracbvp.cli import bundled_config_path, main

EXPR_CONFIG = """\
alpha = 2.5
beta = 1
eta = 0.5
phi = identity
f = custom-expression
f.expr = 0.05*sin(u)*cos(pi*t) - 0.02*tan(t/2)^2 + exp(-t)**2/4 + pow(t, 1.5)*abs(u)/(10 + abs(u))
g = custom-expression
g.expr = +0.05 + 1e-1*t^1.5
mode = uniqueness
"""

TABLE_CONFIG = """\
alpha = 2.5
beta = 1
eta = 0.5
phi = table
phi.table = table.txt
f = example42
mode = uniqueness
"""

# a slow contraction (squared step ratio about 0.1) on which picard_solve
# mixes: 26 plain steps, 9 mixed ones at 256 panels
ACCEL_CONFIG = """\
alpha = 2.5
beta = 1
eta = 0.5
phi = sin_quarter_pi
f = custom-expression
f.expr = 4*sin(u) + 1 + t
mode = solve-only
tol = 1e-26
max_iter = 500
"""


def _run(argv: list[str], stdout: str | None = None) -> None:
    """One CLI command; its stdout goes to the file ``stdout``, if given."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        main(argv)
    if stdout is not None:
        Path(stdout).write_text(buf.getvalue())


def _calculus(table: np.ndarray) -> str:
    maps = {k: phi_catalog(k) for k in ("identity", "sin_quarter_pi", "sqrt_half")}
    maps["table"] = phi_catalog("table", table)
    ts = np.linspace(0.0, 1.0, 65)
    lines = []
    for name, phi in maps.items():
        for panels in (64, 512):
            u = GridFunction.sample(build_grid(phi, panels), np.exp)
            for a in (0.3, 0.5, 0.8, 1.2, 2.0, 2.5, 3.7):
                lines.append(f"{name} {panels} {a} {frac_integral(a, phi, u, ts).tolist()}")
                lines.append(f"{name} {panels} {a} {[frac_integral(a, phi, u, k / 8) for k in range(9)]}")
            if panels == 512 and name in ("sin_quarter_pi", "sqrt_half"):
                for a in (0.8, 2.5):
                    lines.append(f"{name} {panels} {a} nodes "
                                 f"{[frac_integral(a, phi, u, float(t)) for t in u.grid.nodes]}")
            lines.append(f"{name} {panels} semigroup {semigroup_defect(1.2, 0.8, phi, u)!r}")
            for a in (0.5, 1.5, 2.5):
                lines.append(f"{name} {panels} derivative {a} "
                             f"{[frac_derivative(a, phi, u, t) for t in (0.25, 0.5, 0.75)]}")
    return "\n".join(lines) + "\n"


def write_outputs(out: Path) -> None:
    out.mkdir(parents=True, exist_ok=True)
    os.chdir(out)
    Path("expr.cfg").write_text(EXPR_CONFIG)
    Path("table.cfg").write_text(TABLE_CONFIG)
    Path("accel.cfg").write_text(ACCEL_CONFIG)
    # 17 rows of sqrt(1/4 + t/2) at t = k/16
    Path("table.txt").write_text(
        "".join(f"{k / 16!r} {math.sqrt(0.25 + k / 32)!r}\n" for k in range(17)))
    for c in ("example41", "example42"):
        cfg = str(bundled_config_path(c))
        _run(["solve", cfg, "-o", f"{c}.csv", "--json"], f"{c}.solve.json")
        _run(["check", cfg], f"{c}.check.txt")
        _run(["check", cfg, "--json"], f"{c}.check.json")
        _run(["green", cfg, "--resolution", "64", "-o", f"{c}.green.csv"])
    # 1536 panels, the smallest grid whose operator fill is split across worker threads
    _run(["solve", str(bundled_config_path("example42")), "--grid", "1536",
          "-o", "example42.1536.csv", "--json"], "example42.1536.solve.json")
    _run(["verify-paper", "--json"], "verify-paper.json")
    _run(["solve", "expr.cfg", "--grid", "64", "-o", "expr.csv"])
    _run(["solve", "table.cfg", "--grid", "64", "-o", "table.csv"])
    _run(["green", "table.cfg", "--resolution", "64", "-o", "table.green.csv"])
    _run(["solve", "accel.cfg", "--grid", "256", "-o", "accel.csv"])
    Path("calculus.txt").write_text(_calculus(np.loadtxt("table.txt")))


def compare_csvs(base: Path, head: Path) -> None:
    """For each CSV that differs between two out-dirs, print its row count
    and the largest |head - base| of each numeric column."""
    for path in sorted(base.glob("*.csv")):
        other = head / path.name
        if other.is_file() and other.read_bytes() == path.read_bytes():
            continue
        if not other.is_file():
            print(f"{path.name}: missing from {head}")
            continue
        (names, a), (_, b) = (_read_csv(p) for p in (path, other))
        if a.shape != b.shape:
            print(f"{path.name}: {len(a)} rows against {len(b)}")
            continue
        deltas = np.max(np.abs(b - a), axis=0, initial=0.0)
        print(f"{path.name}: {len(a)} rows, max |delta| "
              + ", ".join(f"{name} {d:.3g}" for name, d in zip(names, deltas)))


def compare_texts(base: Path, head: Path, limit: int = 40) -> None:
    """For each .txt output that differs between two out-dirs, print the
    first ``limit`` lines of its unified diff, each cut at 200 columns."""
    for path in sorted(base.glob("*.txt")):
        other = head / path.name
        if not other.is_file():
            print(f"{path.name}: missing from {head}")
            continue
        diff = list(difflib.unified_diff(path.read_text().splitlines(),
                                         other.read_text().splitlines(),
                                         f"base/{path.name}", f"head/{path.name}", lineterm=""))
        if not diff:
            continue
        print("\n".join(line[:200] for line in diff[:limit]))
        if len(diff) > limit:
            print(f"... {len(diff) - limit} more lines of {path.name}'s diff")


def _read_csv(path: Path) -> tuple[list[str], np.ndarray]:
    """The header and the rows of a CSV whose comment lines start with #."""
    lines = [line for line in path.read_text().splitlines() if not line.startswith("#")]
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    return lines[0].split(","), rows.reshape(len(lines) - 1, -1)


if __name__ == "__main__":
    if len(sys.argv) == 4 and sys.argv[1] == "--compare":
        compare_csvs(Path(sys.argv[2]), Path(sys.argv[3]))
        compare_texts(Path(sys.argv[2]), Path(sys.argv[3]))
    elif len(sys.argv) == 2:
        write_outputs(Path(sys.argv[1]).resolve())
    else:
        sys.exit("usage: python tests/bundled_outputs.py <out-dir>\n"
                 "       python tests/bundled_outputs.py --compare <base-dir> <head-dir>")
