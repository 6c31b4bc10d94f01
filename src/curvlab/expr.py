"""Small infix expression language used for warp profiles and test fields.

Grammar (columns are 1-based, ^ is right-associative):

    expr   := term  (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := '-' unary | power
    power  := atom ('^' unary)?
    atom   := NUMBER | IDENT | IDENT '(' expr ')' | '(' expr ')'

Identifiers are variables (``t``, ``x1`` .. ``x99``) or the function names
ln, exp, sin, cos, sinh, cosh, sqrt.  Derivatives are taken symbolically on
the tree; evaluation is numpy-aware (scalars or arrays).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

from .errors import ExpressionError, ieee
import numpy as np

FUNCTIONS = {
    "ln": np.log,
    "exp": np.exp,
    "sin": np.sin,
    "cos": np.cos,
    "sinh": np.sinh,
    "cosh": np.cosh,
    "sqrt": np.sqrt,
}

_VAR_RE = re.compile(r"^(t|x[1-9][0-9]?)$")


# ---------------------------------------------------------------------------
# AST nodes


class Node:
    __slots__ = ()

    def eval(self, env):
        raise NotImplementedError

    def diff(self, var):
        raise NotImplementedError

    def unparse(self):
        raise NotImplementedError

    def free_vars(self):
        out = set()
        self._collect_vars(out)
        return out

    def _collect_vars(self, out):
        pass


@dataclass(frozen=True, slots=True)
class Const(Node):
    value: float

    def eval(self, env):
        return self.value

    def diff(self, var):
        return Const(0.0)

    def unparse(self):
        v = self.value
        if math.copysign(1.0, v) < 0:
            # parenthesized, so a power keeps it whole: (-2)^t, not -(2^t)
            return f"(-{Const(-v).unparse()})"
        if v == int(v) and abs(v) < 1e16:
            return str(int(v))
        return repr(v)


@dataclass(frozen=True, slots=True)
class Var(Node):
    name: str

    def eval(self, env):
        try:
            return env[self.name]
        except KeyError:
            raise ExpressionError(f"variable '{self.name}' not bound")

    def diff(self, var):
        return Const(1.0 if self.name == var else 0.0)

    def unparse(self):
        return self.name

    def _collect_vars(self, out):
        out.add(self.name)


@dataclass(frozen=True, slots=True)
class Neg(Node):
    a: Node

    def eval(self, env):
        return -self.a.eval(env)

    def diff(self, var):
        return neg(self.a.diff(var))

    def unparse(self):
        return f"(-{self.a.unparse()})"

    def _collect_vars(self, out):
        self.a._collect_vars(out)


@dataclass(frozen=True, slots=True)
class BinOp(Node):
    a: Node
    b: Node

    def _collect_vars(self, out):
        self.a._collect_vars(out)
        self.b._collect_vars(out)


class Add(BinOp):
    def eval(self, env):
        return self.a.eval(env) + self.b.eval(env)

    def diff(self, var):
        return add(self.a.diff(var), self.b.diff(var))

    def unparse(self):
        return f"({self.a.unparse()} + {self.b.unparse()})"


class Sub(BinOp):
    def eval(self, env):
        return self.a.eval(env) - self.b.eval(env)

    def diff(self, var):
        return sub(self.a.diff(var), self.b.diff(var))

    def unparse(self):
        return f"({self.a.unparse()} - {self.b.unparse()})"


class Mul(BinOp):
    def eval(self, env):
        return self.a.eval(env) * self.b.eval(env)

    def diff(self, var):
        return add(mul(self.a.diff(var), self.b), mul(self.a, self.b.diff(var)))

    def unparse(self):
        return f"({self.a.unparse()}*{self.b.unparse()})"


class Div(BinOp):
    def eval(self, env):
        a, b = self.a.eval(env), self.b.eval(env)
        try:
            return a / b
        except ZeroDivisionError:  # Python floats; IEEE gives +-inf or nan
            return float(ieee(np.divide, a, b))

    def diff(self, var):
        da, db = self.a.diff(var), self.b.diff(var)
        num = sub(mul(da, self.b), mul(self.a, db))
        return div(num, mul(self.b, self.b))

    def unparse(self):
        return f"({self.a.unparse()}/{self.b.unparse()})"


class Pow(BinOp):
    def eval(self, env):
        base = self.a.eval(env)
        expo = self.b.eval(env)
        if isinstance(self.b, Const) and float(self.b.value) == int(self.b.value):
            try:
                return base ** int(self.b.value)
            except (ZeroDivisionError, OverflowError):  # Python floats
                return float(ieee(np.power, base, expo))
        return np.power(base, expo)

    def diff(self, var):
        a, b = self.a, self.b
        if isinstance(b, Const):
            # d/dx a^c = c a^(c-1) a'
            return mul(mul(b, pow_(a, Const(b.value - 1.0))), a.diff(var))
        # general: a^b (b' ln a + b a'/a)
        term = add(mul(b.diff(var), Call("ln", a)), div(mul(b, a.diff(var)), a))
        return mul(self, term)

    def unparse(self):
        return f"({self.a.unparse()}^{self.b.unparse()})"


@dataclass(frozen=True, slots=True)
class Call(Node):
    func: str
    arg: Node

    def eval(self, env):
        return FUNCTIONS[self.func](self.arg.eval(env))

    def diff(self, var):
        a = self.arg
        da = a.diff(var)
        f = self.func
        if f == "ln":
            outer = div(Const(1.0), a)
        elif f == "exp":
            outer = self
        elif f == "sin":
            outer = Call("cos", a)
        elif f == "cos":
            outer = neg(Call("sin", a))
        elif f == "sinh":
            outer = Call("cosh", a)
        elif f == "cosh":
            outer = Call("sinh", a)
        elif f == "sqrt":
            outer = div(Const(0.5), self)
        else:  # pragma: no cover - parser rejects unknown functions
            raise ExpressionError(f"unknown function '{f}'")
        return mul(outer, da)

    def unparse(self):
        return f"{self.func}({self.arg.unparse()})"

    def _collect_vars(self, out):
        self.arg._collect_vars(out)


# ---------------------------------------------------------------------------
# smart constructors with constant folding (keeps derivative trees small)


def _is_const(n, v=None):
    return isinstance(n, Const) and (v is None or n.value == v)


def add(a, b):
    if _is_const(a) and _is_const(b):
        return Const(a.value + b.value)
    if _is_const(a, 0.0):
        return b
    if _is_const(b, 0.0):
        return a
    return Add(a, b)


def sub(a, b):
    if _is_const(a) and _is_const(b):
        return Const(a.value - b.value)
    if _is_const(b, 0.0):
        return a
    if _is_const(a, 0.0):
        return neg(b)
    return Sub(a, b)


def mul(a, b):
    if _is_const(a) and _is_const(b):
        return Const(a.value * b.value)
    if _is_const(a, 0.0) or _is_const(b, 0.0):
        return Const(0.0)
    if _is_const(a, 1.0):
        return b
    if _is_const(b, 1.0):
        return a
    return Mul(a, b)


def div(a, b):
    if _is_const(a, 0.0):
        return Const(0.0)
    if _is_const(b, 1.0):
        return a
    if _is_const(a) and _is_const(b) and b.value != 0:
        return Const(a.value / b.value)
    return Div(a, b)


def neg(a):
    if _is_const(a):
        return Const(-a.value)
    if isinstance(a, Neg):
        return a.a
    return Neg(a)


def pow_(a, b):
    if _is_const(b, 1.0):
        return a
    if _is_const(b, 0.0):
        return Const(1.0)
    if _is_const(a) and _is_const(b):
        return Const(a.value ** b.value)
    return Pow(a, b)


# ---------------------------------------------------------------------------
# tokenizer / parser


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()]))"
)


def _tokenize(source):
    tokens = []
    pos = 0
    while pos < len(source):
        m = _TOKEN_RE.match(source, pos)
        if m is None or m.end() == pos:
            # skip leading whitespace handled by regex; anything else is junk
            stripped = source[pos:].lstrip()
            if not stripped:
                break
            col = len(source) - len(stripped) + 1
            raise ExpressionError(f"unexpected character '{stripped[0]}'", col)
        col = m.start(m.lastgroup) + 1
        text = source[m.start(m.lastgroup): m.end()]
        tokens.append((m.lastgroup, text, col))
        pos = m.end()
    tokens.append(("end", "", len(source) + 1))
    return tokens


class _Parser:
    def __init__(self, source):
        self.source = source
        self.tokens = _tokenize(source)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, symbol, message):
        kind, text, col = self.peek()
        if kind == "op" and text == symbol:
            return self.advance()
        raise ExpressionError(message, col)

    def parse(self):
        node = self.expr()
        kind, text, col = self.peek()
        if kind != "end":
            raise ExpressionError(f"unexpected token '{text}'", col)
        return node

    def expr(self):
        node = self.term()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "+-":
                self.advance()
                rhs = self.term()
                node = Add(node, rhs) if text == "+" else Sub(node, rhs)
            else:
                return node

    def term(self):
        node = self.unary()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "*/":
                self.advance()
                rhs = self.unary()
                node = Mul(node, rhs) if text == "*" else Div(node, rhs)
            else:
                return node

    def unary(self):
        kind, text, _ = self.peek()
        if kind == "op" and text == "-":
            self.advance()
            return neg(self.unary())
        return self.power()

    def power(self):
        base = self.atom()
        kind, text, _ = self.peek()
        if kind == "op" and text == "^":
            self.advance()
            return Pow(base, self.unary())
        return base

    def atom(self):
        kind, text, col = self.advance()
        if kind == "num":
            return Const(float(text))
        if kind == "ident":
            nk, nt, _ = self.peek()
            if nk == "op" and nt == "(":
                if text not in FUNCTIONS:
                    raise ExpressionError(f"unknown function '{text}'", col)
                self.advance()
                arg = self.expr()
                self.expect_op(")", "unbalanced parenthesis")
                return Call(text, arg)
            if not _VAR_RE.match(text):
                raise ExpressionError(f"unknown identifier '{text}'", col)
            return Var(text)
        if kind == "op" and text == "(":
            node = self.expr()
            self.expect_op(")", "unbalanced parenthesis")
            return node
        if kind == "end":
            raise ExpressionError("unexpected end of expression", col)
        raise ExpressionError(f"unexpected token '{text}'", col)


def parse(source):
    """Parse an expression string into an AST.

    Raises ExpressionError (with 1-based column) on malformed input.
    """
    if not source or not source.strip():
        raise ExpressionError("empty expression", 1)
    return _Parser(source).parse()
