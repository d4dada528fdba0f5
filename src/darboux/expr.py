"""Scene expression language: parsing, ASTs, and jet evaluation.

The grammar is plain infix arithmetic with ``^`` binding tighter than unary
minus, then ``*``/``/``, then ``+``/``-``, all left-associative, with
parentheses and the elementary functions sin, cos, exp, log, sqrt.
Integer powers require literal non-negative integer exponents.

Numeric literals are kept as exact rationals (decimal literals included),
so polynomial expressions can be evaluated either in float64 jets or in
exact rational jets.  During evaluation a literal stays a number (a float,
or the rational itself in exact mode) and enters jet arithmetic as a scalar:
adding it moves the value part only, multiplying or dividing by it scales
the coefficients.  Only a subtree made of literals alone is computed in
constant jets, so every result is bit-identical (for finite values) to
evaluating each literal as a constant jet.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import (
    DomainError,
    ExactModeError,
    OrderError,
    ParseError,
    UnknownVariableError,
)
from .jets import Jet, jet_space

FUNCTIONS = ("sin", "cos", "exp", "log", "sqrt")
# The highest jet order :func:`eval_jet` builds.
MAX_ORDER = 10


@dataclass(frozen=True)
class Expr:
    pass


@dataclass(frozen=True)
class Const(Expr):
    """A literal; ``number`` is its float, made once (not compared)."""

    value: Fraction
    number: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "number", float(self.value))


@dataclass(frozen=True)
class Var(Expr):
    name: str


@dataclass(frozen=True)
class Add(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Sub(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Mul(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Div(Expr):
    left: Expr
    right: Expr


# The binary nodes and their operator symbols.
_BINARY = {Add: "+", Sub: "-", Mul: "*", Div: "/"}
_APPLY = {Add: operator.add, Sub: operator.sub, Mul: operator.mul, Div: operator.truediv}


@dataclass(frozen=True)
class Pow(Expr):
    base: Expr
    exponent: int


@dataclass(frozen=True)
class Neg(Expr):
    operand: Expr


@dataclass(frozen=True)
class Call(Expr):
    function: str
    argument: Expr


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<number>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?"
    r"|\d+(?:[eE][+-]?\d+)?)|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)|(?P<op>[-+*/^()]))"
)


def _tokenize(text):
    tokens, pos, end = [], 0, len(text.rstrip())
    while pos < end:
        match = _TOKEN_RE.match(text, pos)
        if match is None or match.end() == pos:
            stripped = text[pos:].lstrip()
            where = len(text) - len(stripped)
            raise ParseError(f"unexpected character {text[where]!r}", where)
        kind = match.lastgroup
        if kind is not None:
            tokens.append((kind, match.group(kind), match.start(kind)))
        pos = match.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text, variables):
        self.text = text
        self.variables = set(variables)
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        token = self.tokens[self.pos]
        self.pos += 1
        return token

    def expect_op(self, symbol):
        kind, value, where = self.peek()
        if kind != "op" or value != symbol:
            raise ParseError(f"expected '{symbol}'", where)
        return self.advance()

    def parse(self):
        expr = self.sum()
        kind, value, where = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected token {value!r}", where)
        return expr

    def sum(self):
        return self.chain(self.product, Add, Sub)

    def product(self):
        return self.chain(self.unary, Mul, Div)

    def chain(self, operand, first, second):
        """``operand`` (op operand)*, left-associative, op that of ``first`` or ``second``."""
        node = operand()
        while True:
            kind, value, _ = self.peek()
            if kind != "op" or value not in (_BINARY[first], _BINARY[second]):
                return node
            self.advance()
            node = (first if value == _BINARY[first] else second)(node, operand())

    def unary(self):
        kind, value, _ = self.peek()
        if kind == "op" and value == "-":
            self.advance()
            return Neg(self.unary())
        return self.power()

    def power(self):
        node = self.atom()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value == "^":
                self.advance()
                nkind, nvalue, nwhere = self.peek()
                if nkind != "number" or not nvalue.isdigit():
                    raise ParseError("exponent must be a non-negative integer literal", nwhere)
                self.advance()
                node = Pow(node, int(nvalue))
            else:
                return node

    def atom(self):
        kind, value, where = self.advance()
        if kind == "number":
            return Const(Fraction(value))
        if kind == "ident":
            nkind, nvalue, _ = self.peek()
            if nkind == "op" and nvalue == "(":
                if value not in FUNCTIONS:
                    raise ParseError(f"unknown function '{value}'", where)
                self.advance()
                argument = self.sum()
                self.expect_op(")")
                return Call(value, argument)
            if value not in self.variables:
                raise UnknownVariableError(value, where)
            return Var(value)
        if kind == "op" and value == "(":
            node = self.sum()
            self.expect_op(")")
            return node
        raise ParseError(f"unexpected token {value!r}" if value else "unexpected end of input", where)


def parse_expression(text, variables):
    """Parse ``text`` against an ordered list of declared variable names."""
    if not text or not text.strip():
        raise ParseError("empty expression", 0)
    return _Parser(text, variables).parse()


# -- evaluation ---------------------------------------------------------


def eval_expr(expr, env, exact=False):
    """Evaluate an AST over a dict of variable-name -> Jet bindings.

    Literals stay numbers (``float``, or ``Fraction`` in exact mode) and
    meet jets through the jets' number paths, so ``t^2/2`` costs one
    product and a scaling.  A subtree made only of literals, such as
    ``-2`` or ``1/3``, is computed in constant jets of the first binding's
    space and order, as is a literal on its own, so the result is always a
    Jet and its coefficients are those of an all-jet evaluation.
    """
    return _as_jet(_evaluate(expr, env, exact), env, exact)


def _as_jet(value, env, exact):
    if isinstance(value, Jet):
        return value
    sample = next(iter(env.values()))
    return Jet.constant(sample.space, value, sample.order, exact, sample.coeffs.shape[:-1])


def _evaluate(expr, env, exact):
    if isinstance(expr, Const):
        return expr.value if exact else expr.number
    if isinstance(expr, Var):
        return env[expr.name]
    if type(expr) in _APPLY:
        left = _evaluate(expr.left, env, exact)
        right = _evaluate(expr.right, env, exact)
        if not isinstance(left, Jet) and not isinstance(right, Jet):
            left, right = _as_jet(left, env, exact), _as_jet(right, env, exact)
        return _APPLY[type(expr)](left, right)
    if isinstance(expr, Pow):
        return _as_jet(_evaluate(expr.base, env, exact), env, exact) ** expr.exponent
    if isinstance(expr, Neg):
        return -_as_jet(_evaluate(expr.operand, env, exact), env, exact)
    if isinstance(expr, Call):
        if exact:
            raise ExactModeError("elementary functions are not available in exact mode")
        arg = _as_jet(_evaluate(expr.argument, env, exact), env, exact)
        return getattr(arg, expr.function)()
    raise TypeError(f"not an expression node: {expr!r}")


def eval_jet(expr, variables, point, order, exact=False):
    """Jet of ``expr`` at ``point`` through total order ``order``.

    ``variables`` fixes the coordinate order of the jet space.  Raises
    OrderError above ``MAX_ORDER`` and DomainError when the point leaves
    the domain of an elementary function.
    """
    if order < 0:
        raise OrderError("jet order must be non-negative")
    if order > MAX_ORDER:
        raise OrderError(f"jet order {order} exceeds the configured maximum {MAX_ORDER}")
    if len(point) != len(variables):
        raise DomainError(
            f"point has {len(point)} coordinates for {len(variables)} variables"
        )
    space = jet_space(len(variables), order)
    env = {
        name: Jet.variable(space, k, point[k], order, exact)
        for k, name in enumerate(variables)
    }
    return eval_expr(expr, env, exact)


def eval_scalar(expr, variables, point):
    return float(eval_jet(expr, variables, point, 0).value)


# -- symbolic utilities --------------------------------------------------


def _is_zero(expr):
    return isinstance(expr, Const) and expr.value == 0


def _is_one(expr):
    return isinstance(expr, Const) and expr.value == 1


def _add(a, b):
    if _is_zero(a):
        return b
    if _is_zero(b):
        return a
    return Add(a, b)


def _mul(a, b):
    if _is_zero(a) or _is_zero(b):
        return Const(Fraction(0))
    if _is_one(a):
        return b
    if _is_one(b):
        return a
    return Mul(a, b)


def derivative(expr, name):
    """Symbolic partial derivative, with light zero/one folding only."""
    if isinstance(expr, Const):
        return Const(Fraction(0))
    if isinstance(expr, Var):
        return Const(Fraction(1 if expr.name == name else 0))
    if isinstance(expr, Add):
        return _add(derivative(expr.left, name), derivative(expr.right, name))
    if isinstance(expr, Sub):
        da, db = derivative(expr.left, name), derivative(expr.right, name)
        if _is_zero(db):
            return da
        return Sub(da, db)
    if isinstance(expr, Mul):
        return _add(
            _mul(derivative(expr.left, name), expr.right),
            _mul(expr.left, derivative(expr.right, name)),
        )
    if isinstance(expr, Div):
        da, db = derivative(expr.left, name), derivative(expr.right, name)
        if _is_zero(db):
            return Div(da, expr.right)
        return Div(Sub(_mul(da, expr.right), _mul(expr.left, db)), Pow(expr.right, 2))
    if isinstance(expr, Pow):
        if expr.exponent == 0:
            return Const(Fraction(0))
        power = Pow(expr.base, expr.exponent - 1) if expr.exponent > 1 else Const(Fraction(1))
        return _mul(Const(Fraction(expr.exponent)), _mul(power, derivative(expr.base, name)))
    if isinstance(expr, Neg):
        return Neg(derivative(expr.operand, name))
    if isinstance(expr, Call):
        inner = derivative(expr.argument, name)
        if _is_zero(inner):
            return Const(Fraction(0))
        arg = expr.argument
        outer = {
            "sin": Call("cos", arg),
            "cos": Neg(Call("sin", arg)),
            "exp": Call("exp", arg),
            "log": Div(Const(Fraction(1)), arg),
            "sqrt": Div(Const(Fraction(1)), Mul(Const(Fraction(2)), Call("sqrt", arg))),
        }[expr.function]
        return _mul(outer, inner)
    raise TypeError(f"not an expression node: {expr!r}")


def substitute(expr, mapping):
    """Replace variable references by expressions (capture-free)."""
    if isinstance(expr, Const):
        return expr
    if isinstance(expr, Var):
        return mapping.get(expr.name, expr)
    if type(expr) in _BINARY:
        return type(expr)(substitute(expr.left, mapping), substitute(expr.right, mapping))
    if isinstance(expr, Pow):
        return Pow(substitute(expr.base, mapping), expr.exponent)
    if isinstance(expr, Neg):
        return Neg(substitute(expr.operand, mapping))
    if isinstance(expr, Call):
        return Call(expr.function, substitute(expr.argument, mapping))
    raise TypeError(f"not an expression node: {expr!r}")


# -- serialization --------------------------------------------------------


def _const_text(value):
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def to_prefix(expr):
    """Prefix (Polish) rendering, one expression per line, for debug dumps."""
    if isinstance(expr, Const):
        return _const_text(expr.value)
    if isinstance(expr, Var):
        return expr.name
    if type(expr) in _BINARY:
        return f"({_BINARY[type(expr)]} {to_prefix(expr.left)} {to_prefix(expr.right)})"
    if isinstance(expr, Pow):
        return f"(^ {to_prefix(expr.base)} {expr.exponent})"
    if isinstance(expr, Neg):
        return f"(neg {to_prefix(expr.operand)})"
    if isinstance(expr, Call):
        return f"({expr.function} {to_prefix(expr.argument)})"
    raise TypeError(f"not an expression node: {expr!r}")


def to_infix(expr):
    """Deterministic fully-parenthesized infix rendering; re-parses identically."""
    if isinstance(expr, Const):
        value = _const_text(expr.value)
        return f"({value})" if "/" in value else value
    if isinstance(expr, Var):
        return expr.name
    if type(expr) in _BINARY:
        op = _BINARY[type(expr)]
        return f"({to_infix(expr.left)}{f' {op} ' if op in '+-' else op}{to_infix(expr.right)})"
    if isinstance(expr, Pow):
        return f"{to_infix(expr.base)}^{expr.exponent}" if isinstance(expr.base, (Var,)) \
            else f"({to_infix(expr.base)})^{expr.exponent}"
    if isinstance(expr, Neg):
        return f"(-{to_infix(expr.operand)})"
    if isinstance(expr, Call):
        return f"{expr.function}({to_infix(expr.argument)})"
    raise TypeError(f"not an expression node: {expr!r}")
