"""Spans and counts at the boundaries of fracbvp's modules, from outside.

The tracer replaces public names where their callers look them up: every
``fracbvp`` module attribute that is the original function is swapped for
a wrapper, and ``PhiMap`` methods are swapped on the class.  A wrapper
records a span (name, start, end, parent span, operation id) plus the
counts that the call's arguments or result give.  Spans stay in memory
until the run ends.  A target that no longer exists is reported as
missing; the rest of the trace still runs.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
import tracemalloc
from statistics import median

import numpy as np


def _size(x) -> int:
    return int(np.size(x))


def _green_points(args, kwargs, result):
    return {"points": _size(result)}


def _phi_points(args, kwargs, result):
    return {"points": _size(args[1])}


def _apply_counts(args, kwargs, result):
    n = result.values.size
    return {"matvec_bytes": 8 * n * n}


def _picard_counts(args, kwargs, result):
    n = result.solution.values.size
    return {"iterations": result.iterations, "matvec_bytes": 8 * n * n * result.iterations}


def _residual_counts(args, kwargs, result):
    n = args[2].values.size
    return {"matvec_bytes": 8 * n * n}


def _pair_counts(args, kwargs, result):
    return {"pairs_checked": result.checked, "pairs_attempted": result.checked + result.skipped}


# (span name, module, attribute path, counts from (args, kwargs, result))
TARGETS = (
    ("cli.main", "fracbvp.cli", "main", None),
    ("config.load_config", "fracbvp.config", "load_config", None),
    ("config.parse_config", "fracbvp.config", "parse_config", None),
    ("config.build_problem", "fracbvp.config", "build_problem", None),
    ("expressions.compile", "fracbvp.expressions", "compile_expression", None),
    ("calculus.build_grid", "fracbvp.calculus", "build_grid", None),
    ("calculus.frac_integral", "fracbvp.calculus", "frac_integral", None),
    ("calculus.frac_derivative", "fracbvp.calculus", "frac_derivative", None),
    ("calculus.semigroup_defect", "fracbvp.calculus", "semigroup_defect", None),
    ("green.green_values", "fracbvp.green", "green_values", _green_points),
    ("green.check_kernel_properties", "fracbvp.green", "check_kernel_properties", None),
    ("special.phi_eval", "fracbvp.special", "PhiMap.__call__", _phi_points),
    ("special.phi_inverse", "fracbvp.special", "PhiMap.inverse", _phi_points),
    ("solver.operator_matrix", "fracbvp.solver", "operator_matrix", None),
    ("solver.apply_operator", "fracbvp.solver", "apply_operator", _apply_counts),
    ("solver.build_certificate", "fracbvp.solver", "build_certificate", None),
    ("solver.picard_solve", "fracbvp.solver", "picard_solve", _picard_counts),
    ("solver.residual_report", "fracbvp.solver", "residual_report", _residual_counts),
    ("bmetric.geraghty", "fracbvp.bmetric", "geraghty_inequality_check", _pair_counts),
    ("bmetric.admissibility", "fracbvp.bmetric", "admissibility_check", _pair_counts),
)

# spans whose peak traced allocation is recorded
_PEAK_SPANS = {"solver.operator_matrix"}


class Tracer:
    """Installs wrappers for the duration of one operation at a time."""

    def __init__(self):
        self.spans: list[tuple] = []  # (id, name, start, end, parent, op, counts)
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._op = -1
        self._patches: list[tuple[object, str, object, object]] = []
        self._resolve()

    def _resolve(self):
        self._originals = []
        for name, module, attr, counts in TARGETS:
            try:
                owner = importlib.import_module(module)
                *path, leaf = attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = getattr(owner, leaf)
            except (ImportError, AttributeError):
                self.missing.append(f"{module}.{attr}")
                continue
            self._originals.append((name, owner, leaf, original, counts))

    def _wrap(self, name, fn, counts):
        tracer = self

        def wrapper(*args, **kwargs):
            span_id = len(tracer.spans)
            tracer.spans.append(None)  # reserve the id; filled in on exit
            parent = tracer._stack[-1] if tracer._stack else None
            tracer._stack.append(span_id)
            peak = name in _PEAK_SPANS and not tracemalloc.is_tracing()
            if peak:
                tracemalloc.start()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                extra = {}
                if peak:
                    extra["peak_bytes"] = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                tracer._stack.pop()
                tracer.spans[span_id] = (span_id, name, start, end, parent, tracer._op, extra)
            if counts is not None:
                extra.update(counts(args, kwargs, result))
            return result

        return wrapper

    def install(self, op: int):
        """Swap every lookup site of every target for its wrapper."""
        self._op = op
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "fracbvp" or n.startswith("fracbvp."))]
        for name, owner, leaf, original, counts in self._originals:
            wrapper = self._wrap(name, original, counts)
            if isinstance(owner, type):
                self._patches.append((owner, leaf, original, wrapper))
                continue
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, attr, original, wrapper))
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original, _ in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def write(self, path):
        with open(path, "w") as fh:
            for span in self.spans:
                sid, name, start, end, parent, op, extra = span
                fh.write(json.dumps({"id": sid, "name": name, "start": start, "end": end,
                                     "parent": parent, "op": op, **extra}) + "\n")

    def per_op(self) -> dict[int, dict[str, float]]:
        """Self seconds, calls and summed counts per operation, keyed
        ``<span name>.<quantity>``."""
        child_time = [0.0] * len(self.spans)
        for sid, name, start, end, parent, op, extra in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        ops: dict[int, dict[str, float]] = {}
        for sid, name, start, end, parent, op, extra in self.spans:
            acc = ops.setdefault(op, {})
            acc[name + ".self_s"] = acc.get(name + ".self_s", 0.0) + (end - start) - child_time[sid]
            acc[name + ".calls"] = acc.get(name + ".calls", 0) + 1
            for key, value in extra.items():
                key = f"{name}.{key}"
                if key.endswith(".peak_bytes"):
                    acc[key] = max(acc.get(key, 0), value)
                else:
                    acc[key] = acc.get(key, 0) + value
        return ops


def layer_metrics(ops: list[dict[str, float]]) -> dict[str, float]:
    """Per-layer metrics: the median over traced operations of each value."""
    def med(*keys):
        return float(median(sum(o.get(k, 0.0) for k in keys) for o in ops))

    def ratio(num, den):
        return float(median(o[num] / o[den] if o.get(den) else 0.0 for o in ops))

    for o in ops:
        for quantity in ("pairs_checked", "pairs_attempted"):
            o[quantity] = (o.get(f"bmetric.geraghty.{quantity}", 0)
                           + o.get(f"bmetric.admissibility.{quantity}", 0))
    return {
        "green.green_values_s": med("green.green_values.self_s"),
        "green.green_values_points": med("green.green_values.points"),
        "special.phi_eval_points": med("special.phi_eval.points"),
        "special.phi_eval_s": med("special.phi_eval.self_s"),
        "solver.operator_matrix_s": med("solver.operator_matrix.self_s"),
        "solver.operator_matrix_calls": med("solver.operator_matrix.calls"),
        "solver.operator_peak_mib": med("solver.operator_matrix.peak_bytes") / 2**20,
        "solver.apply_operator_calls": med("solver.apply_operator.calls"),
        "solver.matvec_bytes": med("solver.apply_operator.matvec_bytes",
                                   "solver.picard_solve.matvec_bytes",
                                   "solver.residual_report.matvec_bytes"),
        "solver.build_certificate_s": med("solver.build_certificate.self_s"),
        "bmetric.geraghty_s": med("bmetric.geraghty.self_s"),
        "bmetric.admissibility_s": med("bmetric.admissibility.self_s"),
        "bmetric.pairs_checked": med("pairs_checked"),
        "bmetric.pairs_useful_ratio": ratio("pairs_checked", "pairs_attempted"),
        "solver.picard_solve_s": med("solver.picard_solve.self_s"),
        "solver.picard_iterations": med("solver.picard_solve.iterations"),
        "solver.residual_report_s": med("solver.residual_report.self_s"),
        "calculus.frac_integral_s": med("calculus.frac_integral.self_s"),
        "calculus.frac_integral_calls": med("calculus.frac_integral.calls"),
        "calculus.frac_derivative_s": med("calculus.frac_derivative.self_s"),
        "calculus.semigroup_defect_s": med("calculus.semigroup_defect.self_s"),
        "special.phi_inverse_s": med("special.phi_inverse.self_s"),
        "special.phi_inverse_points": med("special.phi_inverse.points"),
        "calculus.build_grid_s": med("calculus.build_grid.self_s"),
        "calculus.build_grid_calls": med("calculus.build_grid.calls"),
        "config.load_config_s": med("config.load_config.self_s"),
        "config.parse_config_s": med("config.parse_config.self_s"),
        "config.build_problem_s": med("config.build_problem.self_s"),
        "expressions.compile_s": med("expressions.compile.self_s"),
        "green.check_kernel_properties_s": med("green.check_kernel_properties.self_s"),
        "cli.self_s": med("cli.main.self_s"),
        "cli.bytes_written": med("cli.bytes_written"),
    }
