"""Regenerate the stored example42 reference behind the paper workload's sup_err.

    python3 perfbench/make_reference.py

Solves the bundled example42 with the CLI at 2048 panels (twice the
shipped grid, the finest whose dense operator fits comfortably in memory)
and a Picard tolerance of 1e-28 (1e-14 in sup norm), then stores the
solution at the 101 uniform points where the benchmark compares.  The
exact solution of example41 is 0, so it needs no stored reference.
"""

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import fracbvp.cli  # noqa: E402

from inputs import SUP_POINTS, interpolate  # noqa: E402
from workloads import REFERENCE, bundled, read_csv  # noqa: E402

PANELS = 2048
TOL = 1e-28


def main() -> int:
    with tempfile.TemporaryDirectory(dir=BENCH.parent) as tmp:
        csv = str(Path(tmp) / "example42.csv")
        with contextlib.redirect_stdout(io.StringIO()):
            code = fracbvp.cli.main(["solve", bundled("example42"), "-o", csv,
                                     "--grid", str(PANELS), "--tol", repr(TOL)])
        if code != 0:
            print(f"solve exited with code {code}", file=sys.stderr)
            return 1
        data = read_csv(csv, "t,u")
    values = interpolate(data[:, 0], data[:, 1], SUP_POINTS)
    REFERENCE.parent.mkdir(exist_ok=True)
    REFERENCE.write_text(json.dumps({
        "command": "python3 perfbench/make_reference.py",
        "problem": "bundled example42",
        "grid_size": PANELS,
        "tol": TOL,
        "t": [float(t) for t in SUP_POINTS],
        "u": [float(u) for u in values],
    }, indent=1) + "\n")
    print(f"wrote {REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
