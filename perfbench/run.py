"""fracbvp benchmark: one seeded workload, timed in a closed loop.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload paper --seed 1 --seconds 24 --trace 0
    python3 perfbench/run.py --workload all              # every workload in turn

One client runs one operation at a time in this process; the next starts
when the previous one has finished.  BLAS keeps its default thread count,
which the output records.  Set-up time is measured in fresh processes
(``probe.py``), spread over the run.  Operation times are reported
relative to a fixed calibration load timed just before and just after
each operation, which takes out the drift of a shared host's speed.  With
``--trace 0`` the run reports the end-to-end metrics; with ``--trace 1``
it alternates untraced and traced operations and reports the per-layer
metrics of the traced ones, plus the tracing overhead.  Every operation's
outputs are checked; a failed check counts the operation as failed and
the run goes on.  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics.

fracbvp is imported from ``src/`` of this checkout; without it the
benchmark exits with code 1 before measuring anything.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
WORKLOADS = ("paper", "fine", "scan", "laws")
PROBES = 9  # set-up samples per run, spread over it; the median is reported
RUN_LIMIT_S = 150.0  # no operation starts after this many seconds
_SC_LEVEL3_CACHE_SIZE = 194  # glibc sysconf name


def import_fracbvp():
    """Import fracbvp from this checkout's src/, or exit with code 1."""
    if not (SRC / "fracbvp" / "__init__.py").is_file():
        sys.exit(f"error: no fracbvp sources under {SRC}")
    sys.path.insert(0, str(SRC))
    try:
        import fracbvp
    except ImportError as exc:
        sys.exit(f"error: cannot import fracbvp from {SRC}: {exc}")
    if not Path(fracbvp.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"error: fracbvp was imported from {fracbvp.__file__}, not from {SRC}")


def environment() -> dict:
    import numpy as np

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    threads = None
    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        dll = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(dll, symbol, None)
            if fn is not None:
                threads = int(fn())
                break
    libc = ctypes.CDLL(None)
    libc.sysconf.restype = ctypes.c_long
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "nproc": len(os.sched_getaffinity(0)),
        "l3_mib": libc.sysconf(_SC_LEVEL3_CACHE_SIZE) / 2**20,
    }


class Calibration:
    """A fixed load that fracbvp does not touch: a pure-Python loop and
    dense 512 x 512 matvecs, about 50 ms together, two thirds of it in
    the loop.  Its time tracks the host's current speed for
    interpreter-bound and BLAS-bound work."""

    def __init__(self):
        import numpy as np

        self.matrix = np.random.default_rng(0).random((512, 512))
        self.vector = np.ones(512)

    def __call__(self) -> float:
        t0 = time.perf_counter()
        s = 0.0
        for i in range(300_000):
            s += math.sqrt(i)
        v = self.vector
        for _ in range(200):
            v = self.matrix @ v
            v /= v.max()
        return time.perf_counter() - t0


def probe(config: str) -> float:
    done = subprocess.run([sys.executable, str(BENCH / "probe.py"), str(SRC), config],
                          capture_output=True, text=True, timeout=60, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def run_workload(name: str, seed: int, seconds: float, trace: bool, started: float,
                 units: dict[str, str]):
    """Run one workload; return (report lines, result object)."""
    from tracer import Tracer, layer_metrics
    from workloads import BUILDERS

    run_dir = OUT / f"run-{os.getpid()}-{name}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        os.environ["FRACBVP_SEED"] = str(seed)
        op, first_config = BUILDERS[name](seed, run_dir)
        tracer = Tracer() if trace else None
        calibrate = Calibration()
        counts = {"attempted": 0, "failed": 0}
        sup_err = 0.0

        def attempt():
            nonlocal sup_err
            t0 = time.perf_counter()
            try:
                out = op()
            except Exception:
                traceback.print_exc()
                out = None
            elapsed = time.perf_counter() - t0
            counts["attempted"] += 1
            if out is not None:
                sup_err = max(sup_err, out.sup_err)
            if out is None or out.failures:
                counts["failed"] += 1
                print(f"{name}: operation failed: {out.failures if out else 'exception'}",
                      file=sys.stderr)
            return elapsed, out

        attempt()  # warm-up: caches fill, lazy set-up finishes
        times, ratios, cal_times, traced_times, traced_ops = [], [], [], [], []
        setup = []
        cal_before = calibrate()
        next_probe = time.perf_counter()
        end = next_probe + seconds
        i = 0
        while (time.perf_counter() < end or not times or (trace and not traced_times)) \
                and time.perf_counter() - started < RUN_LIMIT_S:
            if trace and i % 2:
                tracer.install(i)
                try:
                    elapsed, out = attempt()
                finally:
                    tracer.uninstall()
                traced_times.append(elapsed)
                traced_ops.append((i, out.cli_bytes if out else 0))
            else:
                elapsed = attempt()[0]
                if not trace and len(setup) < PROBES and time.perf_counter() >= next_probe:
                    setup.append(probe(first_config))
                    next_probe += seconds / PROBES
                cal_after = calibrate()
                times.append(elapsed)
                cal_times.append(cal_after)
                ratios.append(elapsed / (0.5 * (cal_before + cal_after)))
                cal_before = cal_after
            i += 1
        if not trace:
            setup += [probe(first_config) for _ in range(PROBES - len(setup))]
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    lines = [f"closed loop, 1 client in 1 process; {len(times)} untraced"
             + (f" and {len(traced_times)} traced" if trace else "")
             + " operations timed after 1 warm-up"]
    if trace:
        per_op = tracer.per_op()
        ops = []
        for op_id, cli_bytes in traced_ops:
            values = dict(per_op.get(op_id, {}))
            values["cli.bytes_written"] = cli_bytes
            ops.append(values)
        metrics = layer_metrics(ops)
        metrics["trace.overhead_frac"] = (statistics.median(traced_times)
                                          / statistics.median(times) - 1.0)
        metrics["trace.missing_targets"] = len(tracer.missing)
        OUT.mkdir(exist_ok=True)
        trace_file = OUT / f"trace-{name}.jsonl"
        tracer.write(trace_file)
        lines.append(f"{len(tracer.spans)} spans written to {trace_file.relative_to(ROOT)}")
        for target in tracer.missing:
            lines.append(f"missing trace target: {target}")
    else:
        tail = p90(ratios)
        beyond = sum(r > tail for r in ratios)
        lines.append(f"op_tail_rel is p90 of {len(ratios)} samples, {beyond} beyond it")
        lines.append(f"wall time per operation: median {statistics.median(times):.4g} s, "
                     f"p90 {p90(times):.4g} s; calibration load: median "
                     f"{statistics.median(cal_times):.4g} s")
        lines.append(f"setup_s is the median of {len(setup)} fresh processes")
        metrics = {
            "setup_s": statistics.median(setup),
            "op_p50_rel": statistics.median(ratios),
            "op_tail_rel": tail,
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "sup_err": sup_err,
        }
    if set(units) != set(metrics):
        raise SystemExit(f"error: metrics {sorted(set(units) ^ set(metrics))} "
                         "are not both measured and declared in BENCHMARK.json")
    attempted, failed = counts["attempted"], counts["failed"]
    lines.append(f"failed_frac = {failed}/{attempted} = {failed / attempted:.3g}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()},
    }
    return lines, result


def p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[-1] \
        if len(values) > 1 else values[0]


def run_all(args) -> int:
    """Each workload in its own process, so peak RSS is its own."""
    results = {}
    for name in WORKLOADS:
        done = subprocess.run([sys.executable, __file__, "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)], stdout=subprocess.PIPE, text=True)
        if done.returncode != 0:
            return done.returncode
        *lines, last = done.stdout.splitlines()
        print("\n".join(lines))
        results[name] = json.loads(last)
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{n}.{k}": m for n, r in results.items() for k, m in r["metrics"].items()},
    }))
    return 0


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    started = time.perf_counter()
    import_fracbvp()
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(BENCH))
    env = environment()
    declared = spec["per_layer" if args.trace else "end_to_end"]
    lines, result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                                 started, {m["name"]: m["unit"] for m in declared})
    print("# env: " + " | ".join(f"{k} {v}" for k, v in env.items()))
    print(f"# workload {args.workload}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    for line in lines:
        print(f"#   {line}")
    for key, m in result["metrics"].items():
        print(f"#   {key:<34} {m['value']:<24.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
