"""One set-up sample, in a fresh process: ``probe.py <src dir> <config path>``.

Prints the seconds from just before ``import fracbvp`` (numpy included)
to the end of the first load_config / build_problem / build_grid.
"""

import sys
import time
from pathlib import Path

src = Path(sys.argv[1]).resolve()
sys.path.insert(0, str(src))
start = time.perf_counter()
import fracbvp  # noqa: E402
import fracbvp.config  # noqa: E402

config = fracbvp.config.load_config(sys.argv[2])
problem = fracbvp.config.build_problem(config)
fracbvp.build_grid(problem.params.phi, config.grid_size)
elapsed = time.perf_counter() - start
if not Path(fracbvp.__file__).resolve().is_relative_to(src):
    sys.exit(f"fracbvp was imported from {fracbvp.__file__}, not from {src}")
print(repr(elapsed))
