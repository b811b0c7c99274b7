"""Arithmetic expressions of (t, u) for user-supplied nonlinearities.

Grammar, a subset of Python's expression grammar, over the variables
``t`` and ``u`` and the constant ``pi``:

    expr   := term (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := ('+' | '-') unary | power
    power  := atom (('^' | '**') unary)?          (right-associative)
    atom   := NUMBER | 't' | 'u' | 'pi' | FUNC '(' expr (',' expr)* ')'
            | '(' expr ')'

FUNC is sin, cos, tan, exp, abs (one argument) or pow (two); NUMBER is
a decimal literal (``2``, ``0.5``, ``.5``, ``1e-3``).  The text, with
``^`` read as ``**``, is parsed by ``ast.parse`` and refused unless every
node lies in the grammar: comments, ``_``, hexadecimal and complex
literals, keyword arguments, trailing commas and all other Python-only
syntax raise ``ConfigurationError``.  A compiled ``Expression`` is a
numpy-vectorized callable of (t, u) that keeps its checked syntax tree,
which ``Expression.enclosure`` walks in interval arithmetic
(``intervals.py``).
"""

from __future__ import annotations

import ast
import operator
import re
import warnings
from typing import Callable

import numpy as np

from .errors import ConfigurationError

__all__ = ["Expression", "compile_expression"]

_ALPHABET = re.compile(r"[A-Za-z0-9_. +\-*/(),]*")
_TRAILING_COMMA = re.compile(r",\s*\)")
_DECIMAL = re.compile(r"(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?")
# Python refuses the integer literal 01; the grammar reads it as 1
_LEADING_ZEROS = re.compile(r"(?<![\w.])0+(?=\d)")

_NAMES = {"t": lambda t, u: np.asarray(t, dtype=float),
          "u": lambda t, u: np.asarray(u, dtype=float), "pi": lambda t, u: np.pi}
_FUNCTIONS = {"sin": (np.sin, 1), "cos": (np.cos, 1), "tan": (np.tan, 1),
              "exp": (np.exp, 1), "abs": (np.abs, 1), "pow": (np.power, 2)}
_BINARY = {ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul,
           ast.Div: operator.truediv, ast.Pow: np.power}


def _literal(node: ast.Constant, source: str) -> float:
    """The float of a decimal literal node; refuse any other literal."""
    literal = source[node.col_offset:node.end_col_offset]
    if not _DECIMAL.fullmatch(literal):
        raise ConfigurationError(f"{literal!r} in expression is not a decimal number")
    return float(literal)


def _build(node: ast.AST, source: str) -> Callable:
    """Return the callable of one node of the grammar; refuse any other node."""
    if isinstance(node, ast.Constant):
        const = _literal(node, source)
        return lambda t, u: const
    if isinstance(node, ast.Name) and node.id in _NAMES:
        return _NAMES[node.id]
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.UAdd, ast.USub)):
        inner = _build(node.operand, source)
        return inner if isinstance(node.op, ast.UAdd) else lambda t, u: -inner(t, u)
    if isinstance(node, ast.BinOp) and type(node.op) in _BINARY:
        fn = _BINARY[type(node.op)]
        a, b = _build(node.left, source), _build(node.right, source)
        return lambda t, u: fn(a(t, u), b(t, u))
    if (isinstance(node, ast.Call) and getattr(node.func, "id", None) in _FUNCTIONS
            and not node.keywords):
        fn, arity = _FUNCTIONS[node.func.id]
        if len(node.args) != arity:
            raise ConfigurationError(f"function {node.func.id!r} takes {arity} argument(s)")
        args = [_build(arg, source) for arg in node.args]
        if arity == 1:
            return lambda t, u: fn(args[0](t, u))
        return lambda t, u: fn(args[0](t, u), args[1](t, u))
    raise ConfigurationError(f"{ast.unparse(node)!r} in expression is outside the grammar")


class Expression:
    """A compiled expression: a numpy-vectorized callable of (t, u) that
    keeps its checked syntax tree for ``enclosure``."""

    __slots__ = ("_fn", "_tree", "_source")

    def __init__(self, fn: Callable, tree: ast.expr, source: str):
        self._fn, self._tree, self._source = fn, tree, source

    def __call__(self, t, u):
        return self._fn(t, u)

    def enclosure(self) -> tuple[tuple[float, float], tuple[float, float]]:
        """(value, slope): intervals (lo, hi) that hold f(t, u) and df/du(t, u)
        for every t in [0, 1] and u in [0, inf]."""
        # imported here: without a bytecode cache, compiling the walk and
        # importing fractions (with decimal) take about 3 ms each, which a
        # process that only builds or solves a problem would pay for nothing
        from .intervals import enclose
        return enclose(self._tree, self._source)


def compile_expression(text: str) -> Expression:
    """Compile an expression of (t, u) into a vectorized callable."""
    source = _LEADING_ZEROS.sub("", " ".join(text.replace("^", "**").split()))
    if not source or not _ALPHABET.fullmatch(source) or _TRAILING_COMMA.search(source):
        raise ConfigurationError(f"expression {text!r}: empty or outside the grammar")
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a SyntaxWarning ('1if') refuses the text
            tree = ast.parse(source, mode="eval").body
            return Expression(_build(tree, source), tree, source)
    except (SyntaxError, RecursionError) as exc:
        raise ConfigurationError(f"expression {text[:80]!r}: {getattr(exc, 'msg', exc)}") from None
