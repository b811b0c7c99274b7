"""The interval walk over compiled expressions and the positive-existence
certificate it proves."""

import math
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fracbvp as fb
from fracbvp import solver
from fracbvp.errors import ConfigurationError
from fracbvp.expressions import compile_expression

INF = math.inf
LINE = (-INF, INF)


def enclosure(text):
    return compile_expression(text).enclosure()


def holds(interval, exact):
    """Whether the float interval holds the exact rational or float value."""
    lo, hi = interval
    return Fraction(lo) <= Fraction(exact) <= Fraction(hi)


def ulps(a, b):
    """How many floats separate a and b."""
    n = 0
    while a < b:
        a, n = math.nextafter(a, INF), n + 1
    return n


@pytest.mark.parametrize("text, value, slope", [
    ("2.5", (2.5, 2.5), (0.0, 0.0)),
    ("t", (0.0, 1.0), (0.0, 0.0)),
    ("u", (0.0, INF), (1.0, 1.0)),
    ("+u", (0.0, INF), (1.0, 1.0)),
    ("-t", (-1.0, 0.0), (0.0, 0.0)),
    ("0*u", (0.0, 0.0), (0.0, 0.0)),
    ("3*u", (0.0, INF), (3.0, 3.0)),
    ("2*t + 1", (1.0, 3.0), (0.0, 0.0)),
    ("u/2", (0.0, INF), (0.5, 0.5)),
    ("abs(t - 0.5)", (0.0, 0.5), (0.0, 0.0)),
    ("abs(-u)", (0.0, INF), (1.0, 1.0)),
    ("abs(u - 1)", (0.0, INF), (-1.0, 1.0)),
    ("pow(t, 2)", (0.0, 1.0), (0.0, 0.0)),
    ("u^2", (0.0, INF), (0.0, INF)),
    ("sin(2*t)", (0.0, 1.0), (0.0, 0.0)),
    ("sin(5*t)", (-1.0, 1.0), (0.0, 0.0)),
    ("cos(4*t)", (-1.0, 1.0), (0.0, 0.0)),
    ("sin(u)", (-1.0, 1.0), (-1.0, 1.0)),
    ("exp(1000*t)", (1.0, INF), (0.0, 0.0)),
    ("exp(u)", (1.0, INF), (1.0, INF)),
    ("tan(2*t)", LINE, LINE),
    ("tan(u)", LINE, LINE),
    ("1/t", LINE, LINE),
    ("(t - 1)^2", LINE, LINE),
    ("t^u", LINE, LINE),
    ("pow(u + 1, t)", (1.0, INF), (0.0, 1.0)),
])
def test_exact_enclosures(text, value, slope):
    # exact results stay exact: zeros, x + 0, x * 1, powers of two, infinities
    assert enclosure(text) == (value, slope)


@pytest.mark.parametrize("text, exact_lo, exact_hi", [
    ("sin(t)", 0.0, math.sin(1.0)),
    ("cos(t)", math.cos(1.0), 1.0),
    ("tan(t)", 0.0, math.tan(1.0)),
    ("exp(t)", 1.0, math.e),
    ("exp(-t)", math.exp(-1.0), 1.0),
    ("pow(t, 2.5)", 0.0, 1.0),
    ("pow(2, t)", 1.0, 2.0),
])
def test_rounded_enclosures_are_tight(text, exact_lo, exact_hi):
    # a libm endpoint is two ulps outward, an exact one is kept
    (lo, hi), slope = enclosure(text)
    assert slope == (0.0, 0.0)
    assert lo <= exact_lo and exact_hi <= hi
    assert ulps(lo, exact_lo) <= 2 and ulps(exact_hi, hi) <= 2


def test_rational_enclosures_hold_the_exact_value():
    (lo, hi), _ = enclosure("pi")
    assert (lo, hi) == (math.pi, math.nextafter(math.pi, INF))
    assert lo < Fraction(314159265358979323846, 10**20) < hi
    assert holds(enclosure("1/3")[0], Fraction(1, 3))
    assert enclosure("1/3")[0] != (1 / 3, 1 / 3)
    assert holds(enclosure("0.1 + 0.2")[0], Fraction(0.1) + Fraction(0.2))
    assert holds(enclosure("0.1*0.7")[0], Fraction(0.1) * Fraction(0.7))


def test_quotient_slope():
    # d/du 1/(1 + u) = -1/(1 + u)^2 lies in [-1, 0]
    (lo, hi), (dlo, dhi) = enclosure("1/(1 + u)")
    assert lo == 0.0 and 1.0 <= hi
    assert dlo <= -1.0 and dhi == 0.0


def test_walk_waits_for_the_certificate():
    # a process that builds a problem and its grid neither imports nor
    # compiles the walk; the first enclosure does
    code = ("import sys\n"
            "from fracbvp.cli import bundled_config_path\n"
            "from fracbvp.config import build_problem, load_config\n"
            "problem = build_problem(load_config(bundled_config_path('example41')))\n"
            "problem.grid(64)\n"
            "print(sorted({'fracbvp.intervals', 'fractions'} & set(sys.modules)))\n"
            "problem.spec.f.enclosure()\n"
            "print(sorted({'fracbvp.intervals', 'fractions'} & set(sys.modules)))\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n")[:2] == ["[]", "['fracbvp.intervals', 'fractions']"]


TEXTS = [
    "0.3*u + 0.7*(1+t)",
    "sin(3*u) + cos(t)",
    "tan(pi/3*t)*cos(u)",
    "exp(-u)*t - 2",
    "abs(u - 2)/(1 + u)",
    "pow(t, 2.5)*u - u^0.5",
    "0.1*tan(pi/3*t)*cos(u)^2 - exp(0.5*t)/3*abs(u)/(1+abs(u))",
    "-u/(2 + sin(u))",
    "t^3 - 2*t*u + +1",
    "exp(0.1*u) - u",
]


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(TEXTS), st.floats(0.0, 1.0), st.floats(1e-3, 50.0))
def test_values_and_slopes_lie_inside_their_enclosures(text, t, u):
    f = compile_expression(text)
    (lo, hi), (dlo, dhi) = f.enclosure()
    value = float(f(t, u))
    h = 1e-6
    slope = (float(f(t, u + h)) - float(f(t, u - h))) / (2.0 * h)
    slack = 1e-6 * (1.0 + abs(value))
    assert lo - slack <= value <= hi + slack
    assert dlo - slack <= slope <= dhi + slack


@pytest.fixture(scope="module")
def grid41(problem41):
    return problem41.grid(64)


def positive(problem41, grid41, text):
    spec = fb.ProblemSpec(f=compile_expression(text), f_domain="nonnegative")
    return fb.build_certificate(spec, problem41.kernel, "positive-existence", grid=grid41)


@pytest.mark.parametrize("text", ["u^2", "tan(u)", "exp(u)"])
def test_unbounded_slope_gets_no_certificate(problem41, grid41, text):
    cert = positive(problem41, grid41, text)
    rows = {h.name: h.ok for h in cert.hypotheses}
    assert cert.verdict == solver.VERDICT_NONE
    assert rows["lipschitz_bound"] is False and rows["geraghty_inequality"] is False
    assert cert.lam == INF


def test_negative_values_fail_admissibility(problem41, grid41):
    rows = {h.name: h.ok for h in positive(problem41, grid41, "0.01*u - 0.5*t").hypotheses}
    assert rows["f_nonnegative"] is False and rows["admissibility"] is False
    assert rows["lipschitz_bound"] is True


def test_linear_forcing_passes_with_the_closed_form_lambda(problem41, grid41):
    kernel = problem41.kernel
    c = 0.05 * kernel.uniqueness_threshold
    text = f"{c!r}*u + {0.37!r}*(1+t)"
    assert compile_expression(text).enclosure()[1] == (c, c)
    cert = positive(problem41, grid41, text)
    assert cert.verdict == solver.VERDICT_EXISTS and cert.g_sup is None
    alpha = kernel.params.alpha
    closed = (c * kernel.deriv_one * kernel.shifted_one ** (alpha - 1.0)
              / (kernel.mu * fb.gamma(alpha))) ** 2
    assert cert.lam == closed
    # c is a twentieth of the threshold: lambda = 1/800
    assert cert.lam == pytest.approx(1.0 / 800.0, rel=1e-12)


def test_bare_callable_needs_an_envelope(problem41, grid41):
    spec = fb.ProblemSpec(f=lambda t, u: 0.01 * np.asarray(u, dtype=float),
                          f_domain="nonnegative")
    with pytest.raises(ConfigurationError, match="requires a Lipschitz envelope"):
        fb.build_certificate(spec, problem41.kernel, "positive-existence", grid=grid41)
    # with one, L is sup g and the rows on f are marked sampled
    spec = fb.ProblemSpec(f=spec.f, g=lambda t: 0.01, f_domain="nonnegative")
    cert = fb.build_certificate(spec, problem41.kernel, "positive-existence", grid=grid41)
    rows = {h.name: h.ok for h in cert.hypotheses}
    assert rows["f_nonnegative_sampled"] and rows["lipschitz_envelope_sampled"]
    assert cert.g_sup == 0.01 and cert.lam == solver._lam(problem41.kernel, 0.01)
    assert cert.verdict == solver.VERDICT_EXISTS
