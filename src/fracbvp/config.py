"""Flat key = value problem configurations and the builtin registry.

A configuration file is plain text, one ``key = value`` per line, with
``#`` comments.  Nested fields use dotted keys (``phi.table``,
``f.expr``).  The format is deliberately language-neutral and
diff-friendly.

Builtin nonlinearities, each written as expression text and compiled
like any custom expression:

* ``example41`` - the linear map c * u whose slope is a sixteenth of
  the kernel's uniqueness threshold (its Lipschitz envelope is the same
  constant, and it maps nonnegative states to nonnegative values); the
  slope is written into the text as its exact repr;
* ``example42`` - the tan/cos^2/exp nonlinearity of the second bundled
  example together with its Lipschitz envelope;
* ``zero`` - f identically zero;
* ``custom-expression`` - an expression of (t, u) in the small
  arithmetic grammar, with an optional envelope expression for g.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .calculus import DEFAULT_PANELS, build_grid
from .errors import ConfigurationError
from .expressions import compile_expression
from .green import BvpParams, GreenKernel, build_kernel
from .solver import _MAX_GRID_SIZE, ProblemSpec
from .special import PHI_KINDS, phi_catalog

__all__ = ["Config", "parse_config", "load_config", "Problem", "build_problem",
           "F_KINDS", "MODES", "load_phi_table"]

F_KINDS = ("example41", "example42", "zero", "custom-expression")
# f text, envelope g text (None: no envelope) and f domain of the
# builtins whose text does not depend on the kernel
_BUILTIN_TEXTS = {
    "example42": ("0.1*tan(pi/3*t)*cos(u)^2 - exp(0.5*t)/3*abs(u)/(1+abs(u))",
                  "0.2*tan(pi/3*t) + exp(0.5*t)/3", "real"),
    "zero": ("0", None, "nonnegative"),
}
MODES = ("uniqueness", "positive-existence", "solve-only")

_KNOWN_KEYS = {
    "alpha", "beta", "eta",
    "phi", "phi.table",
    "f", "f.expr", "f.domain",
    "g", "g.expr",
    "grid_size", "tol", "max_iter", "mode",
}


@dataclass(frozen=True)
class Config:
    """Parsed problem configuration (values echoed in reports)."""

    alpha: float
    beta: float
    eta: float
    phi_kind: str
    phi_table: str | None
    f_kind: str
    f_expr: str | None
    f_domain: str | None
    g_expr: str | None
    grid_size: int
    tol: float
    max_iter: int
    mode: str
    items: tuple[tuple[str, str], ...]

    def __post_init__(self):
        # runs for parsed configs and for dataclasses.replace overrides alike
        if self.grid_size < 64:
            raise ConfigurationError(f"key 'grid_size': must be at least 64, got {self.grid_size}")
        if self.grid_size % 2:
            raise ConfigurationError(f"key 'grid_size': must be even, got {self.grid_size}")
        if self.grid_size > _MAX_GRID_SIZE:
            raise ConfigurationError(f"key 'grid_size': grid_size {self.grid_size} is above "
                                     f"the largest accepted grid_size {_MAX_GRID_SIZE}")
        if not (self.tol > 0.0 and math.isfinite(self.tol)):
            raise ConfigurationError(f"key 'tol': must be finite and positive, got {self.tol}")
        if self.max_iter < 1:
            raise ConfigurationError(f"key 'max_iter': must be at least 1, got {self.max_iter}")


def _float(raw: str, key: str) -> float:
    try:
        return float(raw)
    except ValueError:
        raise ConfigurationError(f"key {key!r}: expected a number, got {raw!r}") from None


def _int(raw: str, key: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ConfigurationError(f"key {key!r}: expected an integer, got {raw!r}") from None


def parse_config(text: str, base_dir: Path | None = None) -> Config:
    """Parse configuration text; diagnostics name the offending key."""
    values: dict[str, str] = {}
    items: list[tuple[str, str]] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigurationError(f"line {lineno}: expected 'key = value', got {stripped!r}")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        raw = raw.strip()
        if key not in _KNOWN_KEYS:
            raise ConfigurationError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigurationError(f"line {lineno}: duplicate key {key!r}")
        values[key] = raw
        items.append((key, raw))

    def req(key: str) -> str:
        if key not in values:
            raise ConfigurationError(f"missing required key {key!r}")
        return values[key]

    def companion(key: str, kind: str | None, selects: str) -> str | None:
        """values[key], required when the kind is ``selects``, refused otherwise."""
        kind_key = key.partition(".")[0]
        if kind == selects and key not in values:
            raise ConfigurationError(f"key {key!r}: required when {kind_key} = {selects}")
        if kind != selects and key in values:
            got = "" if kind is None else f", got {kind_key} = {kind}"
            raise ConfigurationError(f"key {key!r}: only allowed when {kind_key} = {selects}{got}")
        return values.get(key)

    alpha = _float(req("alpha"), "alpha")
    beta = _float(req("beta"), "beta")
    eta = _float(req("eta"), "eta")

    phi_kind = req("phi")
    if phi_kind not in PHI_KINDS:
        raise ConfigurationError(f"key 'phi': unknown kind {phi_kind!r} (expected one of {PHI_KINDS})")
    phi_table = companion("phi.table", phi_kind, "table")
    if phi_table is not None and base_dir is not None and not Path(phi_table).is_absolute():
        phi_table = str(base_dir / phi_table)

    f_kind = req("f")
    if f_kind not in F_KINDS:
        raise ConfigurationError(f"key 'f': unknown kind {f_kind!r} (expected one of {F_KINDS})")
    f_expr = companion("f.expr", f_kind, "custom-expression")
    f_domain = values.get("f.domain")
    if f_domain is not None and f_domain not in ("real", "nonnegative"):
        raise ConfigurationError(f"key 'f.domain': expected real|nonnegative, got {f_domain!r}")

    g_kind = values.get("g")
    if g_kind is not None and g_kind != "custom-expression":
        raise ConfigurationError(f"key 'g': only custom-expression is supported, got {g_kind!r}")
    g_expr = companion("g.expr", g_kind, "custom-expression")

    grid_size = _int(values.get("grid_size", str(DEFAULT_PANELS)), "grid_size")
    tol = _float(values.get("tol", "1e-16"), "tol")
    max_iter = _int(values.get("max_iter", "100"), "max_iter")
    mode = values.get("mode", "solve-only")
    if mode not in MODES:
        raise ConfigurationError(f"key 'mode': expected one of {MODES}, got {mode!r}")

    return Config(
        alpha=alpha, beta=beta, eta=eta,
        phi_kind=phi_kind, phi_table=phi_table,
        f_kind=f_kind, f_expr=f_expr, f_domain=f_domain,
        g_expr=g_expr,
        grid_size=grid_size, tol=tol, max_iter=max_iter, mode=mode,
        items=tuple(items),
    )


def load_config(path: str | Path) -> Config:
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigurationError(f"cannot read config {str(path)!r}: {exc}") from None
    return parse_config(text, base_dir=path.parent)


def load_phi_table(path: str | Path) -> np.ndarray:
    """Read a two-column (t, phi(t)) table; '#' lines are comments."""
    rows = []
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigurationError(f"cannot read phi table {str(path)!r}: {exc}") from None
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        parts = [p for p in stripped.replace(",", " ").split() if p]
        if len(parts) != 2:
            raise ConfigurationError(f"phi table line {lineno}: expected two columns")
        try:
            rows.append((float(parts[0]), float(parts[1])))
        except ValueError:
            raise ConfigurationError(f"phi table line {lineno}: bad number") from None
    return np.asarray(rows, dtype=float)


@dataclass(frozen=True)
class Problem:
    """Everything a command needs: parsed config plus built objects."""

    config: Config
    kernel: GreenKernel
    spec: ProblemSpec

    @property
    def params(self) -> BvpParams:
        return self.kernel.params

    def grid(self, panels: int | None = None):
        return build_grid(self.params.phi, panels if panels is not None else self.config.grid_size)


def _compile_key(key: str, text: str):
    """compile_expression(text), its diagnostic prefixed with the key."""
    try:
        return compile_expression(text)
    except ConfigurationError as exc:
        raise ConfigurationError(f"key {key!r}: {exc}") from None


def build_problem(config: Config) -> Problem:
    """Materialize a parsed configuration into library objects."""
    if config.phi_kind == "table":
        phi = phi_catalog("table", samples=load_phi_table(config.phi_table))
    else:
        phi = phi_catalog(config.phi_kind)
    params = BvpParams(alpha=config.alpha, beta=config.beta, eta=config.eta, phi=phi)
    kernel = build_kernel(params)

    if config.f_kind == "example41":
        try:
            c = kernel.uniqueness_threshold / 16.0
        except ConfigurationError as exc:
            raise ConfigurationError(f"f = example41: the slope is undefined: {exc}") from None
        f_text, g_text, domain = f"{c!r}*u", repr(c), "nonnegative"
    elif config.f_kind == "custom-expression":
        f_text, g_text, domain = config.f_expr, None, "real"
    else:
        f_text, g_text, domain = _BUILTIN_TEXTS[config.f_kind]
    if config.g_expr is not None:
        g_text = config.g_expr
    if config.f_domain is not None:
        domain = config.f_domain

    f = _compile_key("f.expr", f_text)
    g = None
    if g_text is not None:
        g_expr = _compile_key("g.expr", g_text)
        g = lambda t: g_expr(t, 0.0)  # noqa: E731  (envelope depends on t only)

    spec = ProblemSpec(f=f, g=g, f_domain=domain)
    return Problem(config=config, kernel=kernel, spec=spec)
