"""Outward-rounded interval enclosures of compiled expressions.

``enclose`` walks the checked syntax tree of an expression once in
forward mode, in interval arithmetic over extended reals (Moore, Kearfott
and Cloud, *Introduction to Interval Analysis*, SIAM 2009), and returns
intervals (lo, hi) holding the value and the u-derivative of f over the
box t in [0, 1], u in [0, inf].  Numbers are the floats the compiled
callable uses; each rounded result is stepped one ulp outward unless it
is exact (an infinite operand, or a finite result equal to the rational
one), a libm result two ulps unless its argument is 0 or infinite, and
0 * inf is 0.  A pole of tan, a divisor interval holding 0, and pow with
an exponent that depends on u or a base that may be negative give the
whole line for value and derivative.
"""

from __future__ import annotations

import ast
import math
import operator
from fractions import Fraction
from typing import Callable

__all__ = ["enclose"]

_LINE = (-math.inf, math.inf)
_ZERO = (0.0, 0.0)
_ONE = (1.0, 1.0)
# float pi lies below pi, its successor above
_PI = (math.pi, math.nextafter(math.pi, math.inf))
# sin, cos and tan are enclosed from their endpoints only within this
# distance of 0, where _crossed's test errs by far less than its slack
_TRIG_REACH = 1e6
# x + 0 and x * 1 need no rational check
_IDENTITY = {operator.add: 0.0, operator.mul: 1.0}
_BOX = {"t": ((0.0, 1.0), _ZERO), "u": ((0.0, math.inf), _ONE), "pi": (_PI, _ZERO)}


def _rounded(op: Callable, a: float, b: float) -> tuple[float, float]:
    """(lo, hi) holding op(a, b) for op in +, *, / over extended reals:
    the float result, stepped one ulp outward unless it is exact; 0 * inf
    is 0, and inf - inf is the whole line."""
    if op is operator.mul and (a == 0.0 or b == 0.0):
        return _ZERO
    r = op(a, b)
    if math.isnan(r):
        return _LINE
    if not (math.isfinite(a) and math.isfinite(b)) or (math.isfinite(r) and (
            _IDENTITY.get(op) in (a, b) or op(Fraction(a), Fraction(b)) == r)):
        return r, r
    return math.nextafter(r, -math.inf), math.nextafter(r, math.inf)


def _libm(fn: Callable, x: float) -> tuple[float, float]:
    """(lo, hi) holding fn(x) for a libm function: exact at x = 0 or
    infinite, else two ulps outward (libm errs by under one); overflow is inf."""
    try:
        r = fn(x)
    except OverflowError:
        r = math.inf
    if x == 0.0 or math.isinf(x):
        return r, r
    return (math.nextafter(math.nextafter(r, -math.inf), -math.inf),
            math.nextafter(math.nextafter(r, math.inf), math.inf))


def _hull(parts) -> tuple[float, float]:
    parts = list(parts)
    return min(lo for lo, _ in parts), max(hi for _, hi in parts)


def _add(x, y):
    return _rounded(operator.add, x[0], y[0])[0], _rounded(operator.add, x[1], y[1])[1]


def _neg(x):
    return -x[1], -x[0]


def _mul(x, y):
    return _hull(_rounded(operator.mul, a, b) for a in x for b in y)


def _power(x: float, y: float) -> tuple[float, float]:
    """(lo, hi) holding x ** y for x in [0, inf]: 0 ** 0 = 1, 0 ** y < 0
    = inf, inf ** y < 0 = 0."""
    if y == 0.0 or x == 1.0:
        return _ONE
    if x == 0.0 or math.isinf(x):
        r = 0.0 if (x == 0.0) == (y > 0.0) else math.inf
        return r, r
    lo, hi = _libm(lambda z: z ** y, x)
    return max(lo, 0.0), hi


def _crossed(x, point: float, period: float) -> bool:
    """Whether x may hold point + k * period for an integer k: yes for x a
    period wide or beyond _TRIG_REACH, else by a test erring toward yes."""
    lo, hi = x
    if not (hi - lo < period and -_TRIG_REACH < lo and hi < _TRIG_REACH):
        return True
    return math.floor((hi - point) / period + 1e-9) >= math.ceil((lo - point) / period - 1e-9)


def _wave(fn: Callable, crest: float, x) -> tuple[float, float]:
    """fn = sin (crest pi/2) or cos (crest 0) over x: its endpoint values,
    raised to 1 where x may hold a crest and lowered to -1 where it may
    hold a trough."""
    top, bottom = _crossed(x, crest, 2.0 * math.pi), _crossed(x, crest + math.pi, 2.0 * math.pi)
    if top and bottom:
        return -1.0, 1.0
    low, high = _hull((_libm(fn, x[0]), _libm(fn, x[1])))
    return -1.0 if bottom else max(low, -1.0), 1.0 if top else min(high, 1.0)


def _quotient(a, b):
    (va, da), (vb, db) = a, b
    if vb[0] <= 0.0 <= vb[1]:
        return _LINE, _LINE
    inverse = (_rounded(operator.truediv, 1.0, vb[1])[0], _rounded(operator.truediv, 1.0, vb[0])[1])
    value = _mul(va, inverse)
    # (a / b)' = (a' - (a / b) b') / b
    return value, _mul(_add(da, _neg(_mul(value, db))), inverse)


def _pow(a, b):
    """x ** y is exp(y ln x), whose extremes over a box lie at its corners;
    (x ** y)' = y x ** (y - 1) x' while y does not depend on u."""
    (va, da), (vb, db) = a, b
    if db != _ZERO or not va[0] >= 0.0:
        return _LINE, _LINE
    slope = _hull(_power(x, q) for x in va for q in _add(vb, (-1.0, -1.0)))
    return _hull(_power(x, y) for x in va for y in vb), _mul(_mul(vb, slope), da)


def _exp(a):
    value = (max(_libm(math.exp, a[0][0])[0], 0.0), _libm(math.exp, a[0][1])[1])
    return value, _mul(value, a[1])


def _tan(a):
    (lo, hi), d = a
    if _crossed(a[0], 0.5 * math.pi, math.pi):
        return _LINE, _LINE
    value = (_libm(math.tan, lo)[0], _libm(math.tan, hi)[1])
    return value, _mul(_add(_ONE, _mul(value, value)), d)


def _abs(a):
    (lo, hi), d = a
    if lo >= 0.0:
        return a
    if hi <= 0.0:
        return _neg(a[0]), _neg(d)
    return (0.0, max(-lo, hi)), _mul((-1.0, 1.0), d)


_BINARY_RULES = {
    ast.Add: lambda a, b: (_add(a[0], b[0]), _add(a[1], b[1])),
    ast.Sub: lambda a, b: (_add(a[0], _neg(b[0])), _add(a[1], _neg(b[1]))),
    ast.Mult: lambda a, b: (_mul(a[0], b[0]), _add(_mul(a[1], b[0]), _mul(a[0], b[1]))),
    ast.Div: _quotient,
    ast.Pow: _pow,
}
_CALL_RULES = {
    "sin": lambda a: (_wave(math.sin, 0.5 * math.pi, a[0]),
                      _mul(_wave(math.cos, 0.0, a[0]), a[1])),
    "cos": lambda a: (_wave(math.cos, 0.0, a[0]),
                      _mul(_neg(_wave(math.sin, 0.5 * math.pi, a[0])), a[1])),
    "tan": _tan, "exp": _exp, "abs": _abs, "pow": _pow,
}


def enclose(node: ast.expr):
    """(value, slope) of one node of a tree that ``compile_expression``
    checked, and whose literals it set to their floats, over the box t in
    [0, 1], u in [0, inf]."""
    if isinstance(node, ast.Constant):
        return (node.value, node.value), _ZERO
    if isinstance(node, ast.Name):
        return _BOX[node.id]
    if isinstance(node, ast.UnaryOp):
        value, slope = enclose(node.operand)
        return (value, slope) if isinstance(node.op, ast.UAdd) else (_neg(value), _neg(slope))
    if isinstance(node, ast.BinOp):
        return _BINARY_RULES[type(node.op)](enclose(node.left), enclose(node.right))
    return _CALL_RULES[node.func.id](*(enclose(arg) for arg in node.args))
