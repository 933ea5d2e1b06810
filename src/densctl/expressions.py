"""Small arithmetic expression language over grid coordinates.

Variables are x1, x2, ... (1-indexed). Supported syntax: numeric literals,
+ - * /, ^ for powers (right associative, binds tighter than unary minus),
parentheses, and the functions exp, log, sqrt, sin, cos, tanh, abs (one
argument) and min, max (two arguments).

This module parses, prints and evaluates trees, compiles a tree once
into a closure for repeated evaluation, and takes symbolic partial
derivatives of trees.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Union

import numpy as np


class ExpressionError(ValueError):
    """Parse or evaluation failure, with the byte offset in the source text."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    index: int  # 1-based axis index


@dataclass(frozen=True)
class Neg:
    arg: "Expr"


@dataclass(frozen=True)
class BinOp:
    op: str  # one of + - * / ^
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Call:
    name: str
    args: tuple["Expr", ...]


Expr = Union[Num, Var, Neg, BinOp, Call]
EXPR_TYPES = (Num, Var, Neg, BinOp, Call)

FUNCTIONS: dict[str, int] = {
    "exp": 1, "log": 1, "sqrt": 1, "sin": 1, "cos": 1, "tanh": 1, "abs": 1,
    "min": 2, "max": 2,
}

_FN_IMPL = {
    "exp": np.exp, "log": np.log, "sqrt": np.sqrt, "sin": np.sin,
    "cos": np.cos, "tanh": np.tanh, "abs": np.abs,
    "min": np.minimum, "max": np.maximum,
}

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^(),]))"
)

_VAR_RE = re.compile(r"^x([1-9][0-9]*)$")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None or m.end() == pos:
            # skip over trailing whitespace before declaring failure
            rest = text[pos:]
            if rest.strip() == "":
                break
            bad = pos + len(rest) - len(rest.lstrip())
            raise ExpressionError(f"unexpected character {text[bad]!r}", bad)
        kind = m.lastgroup
        tokens.append((kind, m.group(kind), m.start(kind)))
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def take(self):
        tok = self.peek()
        if tok is None:
            raise ExpressionError("unexpected end of expression", len(self.text))
        self.i += 1
        return tok

    def expect_op(self, op: str):
        tok = self.take()
        if tok[0] != "op" or tok[1] != op:
            raise ExpressionError(f"expected {op!r}", tok[2])

    def parse(self) -> Expr:
        node = self.sum()
        tok = self.peek()
        if tok is not None:
            raise ExpressionError(f"unexpected token {tok[1]!r}", tok[2])
        return node

    def sum(self) -> Expr:
        node = self.term()
        while (tok := self.peek()) and tok[0] == "op" and tok[1] in "+-":
            self.take()
            node = BinOp(tok[1], node, self.term())
        return node

    def term(self) -> Expr:
        node = self.unary()
        while (tok := self.peek()) and tok[0] == "op" and tok[1] in "*/":
            self.take()
            node = BinOp(tok[1], node, self.unary())
        return node

    def unary(self) -> Expr:
        tok = self.peek()
        if tok and tok[0] == "op" and tok[1] == "-":
            self.take()
            return Neg(self.unary())
        if tok and tok[0] == "op" and tok[1] == "+":
            self.take()
            return self.unary()
        return self.power()

    def power(self) -> Expr:
        base = self.atom()
        tok = self.peek()
        if tok and tok[0] == "op" and tok[1] == "^":
            self.take()
            # right associative; exponent may carry its own unary minus
            return BinOp("^", base, self.unary())
        return base

    def atom(self) -> Expr:
        tok = self.take()
        kind, text, off = tok
        if kind == "num":
            return Num(float(text))
        if kind == "ident":
            nxt = self.peek()
            if nxt and nxt[0] == "op" and nxt[1] == "(":
                if text not in FUNCTIONS:
                    raise ExpressionError(f"unknown function {text!r}", off)
                self.take()
                args = [self.sum()]
                while (t := self.peek()) and t[0] == "op" and t[1] == ",":
                    self.take()
                    args.append(self.sum())
                self.expect_op(")")
                if len(args) != FUNCTIONS[text]:
                    raise ExpressionError(
                        f"{text} takes {FUNCTIONS[text]} argument(s), got {len(args)}", off)
                return Call(text, tuple(args))
            m = _VAR_RE.match(text)
            if m is None:
                raise ExpressionError(f"unknown identifier {text!r}", off)
            return Var(int(m.group(1)))
        if kind == "op" and text == "(":
            node = self.sum()
            self.expect_op(")")
            return node
        raise ExpressionError(f"unexpected token {text!r}", off)


def parse_expression(text: str) -> Expr:
    """Parse source text into an expression tree.

    Raises ExpressionError with a byte offset on syntax errors, unknown
    identifiers and arity mismatches.
    """
    if not isinstance(text, str):
        raise TypeError("expression source must be a string")
    return _Parser(text).parse()


def free_variables(expr: Expr) -> set[int]:
    """Set of 1-based variable indices appearing in the expression."""
    if isinstance(expr, Var):
        return {expr.index}
    if isinstance(expr, Num):
        return set()
    if isinstance(expr, Neg):
        return free_variables(expr.arg)
    if isinstance(expr, BinOp):
        return free_variables(expr.left) | free_variables(expr.right)
    return set().union(*(free_variables(a) for a in expr.args)) if expr.args else set()


def evaluate(expr: Expr, coords: np.ndarray) -> np.ndarray:
    """Evaluate at coords of shape (m, n); returns shape (m,).

    Variable indices beyond n raise ExpressionError. Nonfinite results are
    returned as-is; callers decide whether they are acceptable.
    """
    return compile_expression(expr)(coords)


def compile_expression(expr: Expr):
    """Turn a tree into a function of coords (m, n) -> fresh array (m,).

    The tree is walked once, here; constant subtrees are folded. The
    function behaves as `evaluate`: floating-point warnings are silenced
    and a variable index beyond n raises ExpressionError. It is
    `compile_body` behind those checks.
    """
    body = compile_body(expr)
    need = max(free_variables(expr), default=0)

    def compiled(coords: np.ndarray) -> np.ndarray:
        coords = np.asarray(coords, dtype=float)
        if coords.ndim != 2:
            raise ValueError("coords must have shape (m, n)")
        if need > coords.shape[1]:
            raise ExpressionError(
                f"variable x{need} exceeds dimension {coords.shape[1]}", 0)
        with np.errstate(all="ignore"):
            return body(coords)

    return compiled


def compile_body(expr: Expr):
    """The bare function of compile_expression: coords (m, n) -> fresh (m,).

    It neither checks coords nor silences floating-point warnings, so a
    caller that evaluates in a loop checks the variables once and holds
    one np.errstate around the loop.
    """
    body = _compile(expr)
    if not callable(body):
        return lambda x: np.full(x.shape[0], body)
    if isinstance(expr, Var):
        # a bare variable is a view of coords; hand out a copy
        return lambda x: body(x).copy()
    return body


_BINARY = {"+": np.add, "-": np.subtract, "*": np.multiply, "/": np.divide,
           "^": np.power}


def _compile(expr: Expr):
    """A float for a constant subtree, else a closure over coords."""
    if isinstance(expr, Num):
        return np.float64(expr.value)
    if isinstance(expr, Var):
        i = expr.index - 1
        return lambda x: x[:, i]
    if isinstance(expr, Neg):
        parts, fn = [_compile(expr.arg)], np.negative
    elif isinstance(expr, BinOp):
        parts, fn = [_compile(expr.left), _compile(expr.right)], _BINARY[expr.op]
    else:
        parts, fn = [_compile(a) for a in expr.args], _FN_IMPL[expr.name]
    if not any(callable(p) for p in parts):
        with np.errstate(all="ignore"):
            return np.float64(fn(*parts))
    if len(parts) == 1:
        (a,) = parts
        return lambda x: fn(a(x))
    a, b = parts
    # a constant operand goes in as a 0-d array, which numpy dispatches
    # faster than a scalar of the same value
    if not callable(a):
        a = np.array(a)
        return lambda x: fn(a, b(x))
    if not callable(b):
        b = np.array(b)
        return lambda x: fn(a(x), b)
    return lambda x: fn(a(x), b(x))


# ---------------------------------------------------------------------------
# symbolic differentiation

def _is_num(e: Expr, v: float) -> bool:
    return isinstance(e, Num) and e.value == v


def _add(a: Expr, b: Expr) -> Expr:
    if _is_num(a, 0.0):
        return b
    if _is_num(b, 0.0):
        return a
    return BinOp("+", a, b)


def _sub(a: Expr, b: Expr) -> Expr:
    if _is_num(b, 0.0):
        return a
    return _neg(b) if _is_num(a, 0.0) else BinOp("-", a, b)


def _neg(a: Expr) -> Expr:
    if isinstance(a, Num):
        return Num(-a.value)
    return a.arg if isinstance(a, Neg) else Neg(a)


def _mul(a: Expr, b: Expr) -> Expr:
    if _is_num(a, 0.0) or _is_num(b, 0.0):
        return Num(0.0)
    if _is_num(a, 1.0):
        return b
    return a if _is_num(b, 1.0) else BinOp("*", a, b)


def _div(a: Expr, b: Expr) -> Expr:
    if _is_num(a, 0.0) or _is_num(b, 1.0):
        return a
    return BinOp("/", a, b)


def _pow(a: Expr, b: Expr) -> Expr:
    return a if _is_num(b, 1.0) else BinOp("^", a, b)


def _sign(a: Expr) -> Expr:
    # a/|a| with sign(0) = 0, the central-difference slope of |a| at 0
    return BinOp("/", a, Call("max", (Call("abs", (a,)), Num(1e-300))))


def derivative(expr: Expr, k: int) -> Expr:
    """Symbolic partial derivative with respect to x_k (1-based).

    Sums and products by the usual rules, with 0 and 1 folded; |a| has
    slope sign(a) with sign(0) = 0, and min/max are differentiated as
    (a + b -/+ |a - b|)/2, so a tie takes the mean of both slopes.
    """
    if k not in free_variables(expr):
        return Num(0.0)
    if isinstance(expr, Var):
        return Num(1.0)
    if isinstance(expr, Neg):
        return _neg(derivative(expr.arg, k))
    if isinstance(expr, BinOp):
        a, b, op = expr.left, expr.right, expr.op
        da, db = derivative(a, k), derivative(b, k)
        if op == "+":
            return _add(da, db)
        if op == "-":
            return _sub(da, db)
        if op == "*":
            return _add(_mul(da, b), _mul(a, db))
        if op == "/":
            return _div(_sub(da, _mul(expr, db)), b)
        if _is_num(db, 0.0):
            e = Num(b.value - 1.0) if isinstance(b, Num) else _sub(b, Num(1.0))
            return _mul(_mul(b, _pow(a, e)), da)
        log_a = Call("log", (a,))
        if _is_num(da, 0.0):
            return _mul(_mul(expr, log_a), db)
        return _mul(expr, _add(_mul(db, log_a), _div(_mul(b, da), a)))
    name, args = expr.name, expr.args
    if name in ("min", "max"):
        a, b = args
        gap = Call("abs", (BinOp("-", a, b),))
        half = BinOp("-" if name == "min" else "+", BinOp("+", a, b), gap)
        return derivative(BinOp("/", half, Num(2.0)), k)
    (a,) = args
    outer = {
        "exp": lambda: expr,
        "log": lambda: BinOp("/", Num(1.0), a),
        "sqrt": lambda: BinOp("/", Num(0.5), expr),
        "sin": lambda: Call("cos", (a,)),
        "cos": lambda: Neg(Call("sin", (a,))),
        "tanh": lambda: BinOp("-", Num(1.0), BinOp("^", expr, Num(2.0))),
        "abs": lambda: _sign(a),
    }[name]()
    return _mul(outer, derivative(a, k))


_PREC = {"+": 10, "-": 10, "*": 20, "/": 20, "neg": 30, "^": 40, "atom": 50}


def to_string(expr: Expr) -> str:
    """Render to source text; parse(to_string(e)) reproduces the same tree.

    No command renders expressions. It stays public because the parser's
    round-trip property test re-parses the text that it renders."""
    return _fmt(expr)[0]


def _fmt(expr: Expr) -> tuple[str, int]:
    if isinstance(expr, Num):
        return repr(expr.value), _PREC["atom"]
    if isinstance(expr, Var):
        return f"x{expr.index}", _PREC["atom"]
    if isinstance(expr, Call):
        inner = ", ".join(_fmt(a)[0] for a in expr.args)
        return f"{expr.name}({inner})", _PREC["atom"]
    if isinstance(expr, Neg):
        s, p = _fmt(expr.arg)
        # parenthesize anything the unary sign would not rebind to itself
        if p < _PREC["neg"]:
            s = f"({s})"
        return f"-{s}", _PREC["neg"]
    op = expr.op
    prec = _PREC[op]
    ls, lp = _fmt(expr.left)
    rs, rp = _fmt(expr.right)
    if op == "^":
        # right associative, and unary minus on the left must be wrapped
        if lp <= prec:
            ls = f"({ls})"
        if rp < prec and not isinstance(expr.right, Neg):
            rs = f"({rs})"
    else:
        # left associative: a right child at equal precedence needs parens
        # so that parse(to_string(t)) rebuilds the same tree
        if lp < prec:
            ls = f"({ls})"
        if rp <= prec:
            rs = f"({rs})"
    return f"{ls} {op} {rs}", prec
