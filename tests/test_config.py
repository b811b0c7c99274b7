"""Configuration parsing, the expression grammar, and problem building."""

import dataclasses
import math

import numpy as np
import pytest

import fracbvp as fb
from fracbvp.config import build_problem, load_phi_table, parse_config
from fracbvp.errors import ConfigurationError
from fracbvp.expressions import compile_expression

BASE = """\
alpha = 2.5
beta = 4
eta = 0.3333333333333333
phi = sqrt_half
f = example42
mode = uniqueness
"""


def test_parse_defaults():
    cfg = parse_config(BASE)
    assert cfg.alpha == 2.5
    assert cfg.grid_size == 1024
    assert cfg.tol == 1e-16
    assert cfg.max_iter == 100
    assert cfg.mode == "uniqueness"
    assert cfg.items[0] == ("alpha", "2.5")


@pytest.mark.parametrize("line,fragment", [
    ("bogus = 1", "unknown key"),
    ("alpha = fast", "'alpha'"),
    ("grid_size = 32", "'grid_size'"),
    ("grid_size = 129", "'grid_size'"),
    ("tol = 0", "'tol'"),
    ("tol = inf", "'tol'"),
    ("max_iter = 0", "'max_iter'"),
    ("grid_size = big", "'grid_size': expected an integer"),
    ("max_iter = 2.5", "'max_iter': expected an integer"),
    ("f.domain = positive", "'f.domain'"),
    ("g = builtin", "key 'g': only custom-expression"),
    ("mode = sideways", "'mode'"),
    ("alpha = 2.5", "duplicate"),
    # expression keys that the builtin f or the missing g would ignore
    ("f.expr = 100*u", "'f.expr'"),
    ("g.expr = 1", "'g.expr'"),
    ("phi.table = t.txt", "'phi.table'"),
    # the kind keys are spelled phi, f and g, with no aliases
    ("phi.kind = identity", "unknown key 'phi.kind'"),
    ("f.kind = zero", "unknown key 'f.kind'"),
    ("g.kind = custom-expression", "unknown key 'g.kind'"),
])
def test_parse_diagnostics_name_the_key(line, fragment):
    with pytest.raises(ConfigurationError, match=fragment):
        parse_config(BASE + line + "\n")


@pytest.mark.parametrize("key,value", [
    ("grid_size", 32), ("grid_size", 129), ("grid_size", 8194), ("tol", 0.0), ("tol", math.inf),
    ("max_iter", 0),
])
def test_overrides_validated_like_parsed_values(key, value):
    cfg = parse_config(BASE)
    with pytest.raises(ConfigurationError, match=f"'{key}'"):
        dataclasses.replace(cfg, **{key: value})


def test_grid_size_limit_is_the_operators():
    # the largest grid_size is the one whose nodes the operator assembles
    assert parse_config(BASE + "grid_size = 8192\n").grid_size == 8192
    assert 2 * 8192 == fb.solver._MAX_NODES


def test_parse_missing_required():
    with pytest.raises(ConfigurationError, match="'alpha'"):
        parse_config("beta = 1\neta = 0.5\nphi = identity\nf = zero\n")
    with pytest.raises(ConfigurationError, match="'phi'"):
        parse_config("alpha = 2.5\nbeta = 1\neta = 0.5\nf = zero\n")
    with pytest.raises(ConfigurationError, match="'f'"):
        parse_config("alpha = 2.5\nbeta = 1\neta = 0.5\nphi = identity\n")


def test_parse_unknown_kind():
    with pytest.raises(ConfigurationError, match="key 'phi': unknown kind 'parabola'"):
        parse_config("alpha = 2.5\nbeta = 1\neta = 0.5\nphi = parabola\nf = zero\n")
    with pytest.raises(ConfigurationError, match="key 'f': unknown kind 'mystery'"):
        parse_config("alpha = 2.5\nbeta = 1\neta = 0.5\nphi = identity\nf = mystery\n")


def test_parse_expression_requirements():
    with pytest.raises(ConfigurationError, match="f.expr"):
        parse_config("alpha = 2.5\nbeta = 1\neta = 0.5\nphi = identity\nf = custom-expression\n")
    with pytest.raises(ConfigurationError, match="phi.table"):
        parse_config("alpha = 2.5\nbeta = 1\neta = 0.5\nphi = table\nf = zero\n")


def test_parse_not_key_value():
    with pytest.raises(ConfigurationError, match="key = value"):
        parse_config("alpha: 2.5\n")


def test_expression_example42_form():
    expr = compile_expression(
        "0.1*tan(pi/3*t)*cos(u)^2 - (1/3)*exp(t/2)*abs(u)/(1+abs(u))")
    ts = np.linspace(0.0, 1.0, 17)
    us = np.linspace(-2.0, 2.0, 17)
    expected = (0.1 * np.tan(np.pi / 3 * ts) * np.cos(us) ** 2
                - np.exp(0.5 * ts) / 3.0 * np.abs(us) / (1 + np.abs(us)))
    assert np.max(np.abs(expr(ts, us) - expected)) <= 1e-15


def test_expression_operators():
    expr = compile_expression("-t^2 + pow(u, 3) - 2*t*u + +1")
    assert float(expr(2.0, 3.0)) == pytest.approx(-4.0 + 27.0 - 12.0 + 1.0, abs=1e-14)
    assert float(compile_expression("2**3")(0.0, 0.0)) == 8.0
    assert float(compile_expression("sin(pi/2)")(0.0, 0.0)) == pytest.approx(1.0, abs=1e-15)
    # '^' keeps the grammar's precedence over unary minus and its right-associativity;
    # surrounding whitespace and line breaks between tokens are ignored
    for text, t, u, expected in (("-2^2", 0.0, 0.0, -4.0), ("2^3^2", 0.0, 0.0, 512.0),
                                 ("2^-1", 0.0, 0.0, 0.5), ("8/2/2", 0.0, 0.0, 2.0),
                                 ("2*-t", 3.0, 0.0, -6.0), ("  t\n + u \n", 2.0, 3.0, 5.0),
                                 ("\t01 + .5e1", 0.0, 0.0, 6.0)):
        assert float(compile_expression(text)(t, u)) == expected, text


@pytest.mark.parametrize("text", [
    "", "t +", "sin()", "sin(t, u)", "pow(t)", "t ? u", "q + 1", "log(t)", "(t",
    "1 2",
    # Python-only syntax that ast.parse accepts or silently drops
    "u # c", "abs(pi,)", "1_0", "0x10", "1j", "True", "None", "__import__('os')",
    "sin(x=1)", "pow(t, u=2)", "sin(t, **u)", "t if u else 1", "t < u", "t @ u", "~t",
    "t % u", "t // u", "t[0]", "t.real", "(t, u)", "sin(*t)", "1if t else 0",
    pytest.param("-" * 3000 + "t", id="nested-too-deeply"),
])
def test_expression_rejections(text, recwarn):
    with pytest.raises(ConfigurationError):
        compile_expression(text)
    assert not recwarn.list  # Python's SyntaxWarning ('1if') does not leak


def test_build_problem_example41_slope(problem41):
    # linear in the state with a slope fixed by the kernel constants
    k = problem41.kernel
    p = k.params
    slope = k.mu * fb.gamma(p.alpha) / (
        16.0 * math.sqrt(2.0) * k.deriv_one * k.shifted_one ** (p.alpha - 1.0))
    us = np.linspace(0.0, 3.0, 7)
    assert np.max(np.abs(problem41.spec.f(0.3, us) - slope * us)) <= 1e-15
    assert float(problem41.spec.f(0.5, 0.0)) == 0.0
    assert problem41.spec.f_domain == "nonnegative"
    assert float(problem41.spec.g(0.2)) == pytest.approx(slope, rel=1e-14)


def test_build_problem_example42_envelope(problem42):
    ts = np.linspace(0.0, 1.0, 11)
    expected = 0.2 * np.tan(np.pi / 3 * ts) + np.exp(0.5 * ts) / 3.0
    assert np.max(np.abs(problem42.spec.g(ts) - expected)) <= 1e-15
    assert problem42.spec.f_domain == "real"


def test_builtin_texts_match_former_formulas(problem41, problem42):
    # the numpy formulas the builtins had before they became expression text
    rng = np.random.default_rng(8)
    t = rng.uniform(0.0, 1.0, 10**6)
    u = rng.uniform(-10.0, 10.0, 10**6)
    k = problem41.kernel
    c = k.scale / (16.0 * math.sqrt(2.0) * k.deriv_one * k.shifted_one ** (k.params.alpha - 1.0))
    zero = build_problem(parse_config(
        "alpha = 2.5\nbeta = 0.5\neta = 0.5\nphi = identity\nf = zero\n"))
    cases = [
        (problem41.spec.f, c * u, problem41.spec.g, np.full_like(t, c)),
        (problem42.spec.f,
         0.1 * np.tan(np.pi / 3.0 * t) * np.cos(u) ** 2
         - np.exp(0.5 * t) / 3.0 * np.abs(u) / (1.0 + np.abs(u)),
         problem42.spec.g, 0.2 * np.tan(np.pi / 3.0 * t) + np.exp(0.5 * t) / 3.0),
        (zero.spec.f, np.zeros_like(u), None, None),
    ]
    for f, f_ref, g, g_ref in cases:
        assert np.array_equal(np.broadcast_to(f(t, u), u.shape), f_ref)
        if g is not None:
            assert np.array_equal(np.broadcast_to(g(t), t.shape), g_ref)
    assert zero.spec.g is None


def test_build_problem_zero_and_custom():
    cfg = parse_config("alpha = 2.5\nbeta = 0.5\neta = 0.5\nphi = identity\nf = zero\n")
    prob = build_problem(cfg)
    assert float(prob.spec.f(0.3, 4.0)) == 0.0
    cfg = parse_config(
        "alpha = 2.5\nbeta = 0.5\neta = 0.5\nphi = identity\n"
        "f = custom-expression\nf.expr = t + u\n"
        "g = custom-expression\ng.expr = 1 + 0*t\nf.domain = nonnegative\n")
    prob = build_problem(cfg)
    assert float(prob.spec.f(0.25, 0.5)) == 0.75
    assert float(prob.spec.g(0.9)) == 1.0
    assert prob.spec.f_domain == "nonnegative"


@pytest.mark.parametrize("key", ["f.expr", "g.expr"])
def test_build_problem_expression_diagnostics_name_the_key(key):
    exprs = {"f.expr": "u", "g.expr": "1", key: "log(t)"}
    cfg = parse_config(
        "alpha = 2.5\nbeta = 0.5\neta = 0.5\nphi = identity\n"
        "f = custom-expression\ng = custom-expression\n"
        + "".join(f"{k} = {v}\n" for k, v in exprs.items()))
    with pytest.raises(ConfigurationError, match=rf"^key '{key}': 'log\(t\)'"):
        build_problem(cfg)


def test_load_phi_table(tmp_path):
    path = tmp_path / "tab.csv"
    path.write_text("# comment\n0,0\n0.25,0.3\n0.75,0.8\n1,1\n")
    table = load_phi_table(path)
    assert table.shape == (4, 2)
    with pytest.raises(ConfigurationError, match="two columns"):
        bad = tmp_path / "bad.csv"
        bad.write_text("0,0,0\n")
        load_phi_table(bad)
    with pytest.raises(ConfigurationError, match="line 2: bad number"):
        bad = tmp_path / "word.csv"
        bad.write_text("0,0\n0.5,half\n")
        load_phi_table(bad)
    with pytest.raises(ConfigurationError, match="cannot read"):
        load_phi_table(tmp_path / "absent.csv")


def test_table_config_resolves_relative_path(tmp_path):
    table = tmp_path / "ident.csv"
    ts = np.linspace(0.0, 1.0, 9)
    table.write_text("\n".join(f"{float(t)!r},{float(t)!r}" for t in ts) + "\n")
    cfg_path = tmp_path / "prob.cfg"
    cfg_path.write_text(
        "alpha = 2.5\nbeta = 0.5\neta = 0.5\nphi = table\nphi.table = ident.csv\nf = zero\n")
    from fracbvp.config import load_config
    prob = build_problem(load_config(cfg_path))
    assert float(prob.params.phi(0.5)) == 0.5
