"""Closed-form expression engine: parsing, symbolic differentiation, evaluation.

Fields (metric entries, potentials, gauge phases, diffeo components) enter the
laboratory as expression strings over the spacetime variables x0..xn.  Keeping
them symbolic lets every derivative used by an oracle or a coefficient be exact,
so discretization error enters only where a PDE is actually discretized.

Grammar:

    expr     := term (('+' | '-') term)*
    term     := factor (('*' | '/') factor)*
    factor   := ('+' | '-') factor | atom ('^' exponent)?
    exponent := '-'? (NUMBER | '(' exponent ')')
    atom     := NUMBER | NAME | NAME '(' expr ')' | '(' expr ')'

NAME is a variable x0..x9, a named constant (pi, e), or a function (sin, cos,
exp, sqrt, log).  '^' binds tighter than unary minus (-2^2 is -4) and does
not chain (x0^2^3 is an error); its exponent is a numeric literal, which
keeps differentiation closed over the grammar.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Expr",
    "Const",
    "Var",
    "Add",
    "Sub",
    "Mul",
    "Div",
    "Pow",
    "Neg",
    "Call",
    "ExprError",
    "parse_expr",
]

_FUNCTIONS = {
    "sin": (np.sin, math.sin),
    "cos": (np.cos, math.cos),
    "exp": (np.exp, math.exp),
    "sqrt": (np.sqrt, math.sqrt),
    "log": (np.log, math.log),
}

_CONSTANTS = {"pi": math.pi, "e": math.e}


class ExprError(ValueError):
    """Syntax or semantic error in an expression string.

    line/col are 1-based and refer to the offending token within the source
    string handed to parse_expr.
    """

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{message} (line {line}, column {col})")
        self.message = message
        self.line = line
        self.col = col


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------

class Expr:
    """Base expression node. Nodes are immutable; build new trees, never mutate."""

    __slots__ = ()

    # -- algebra helpers so library code can assemble trees fluently --------
    def __add__(self, other):
        return _simp_add(self, _coerce(other))

    def __radd__(self, other):
        return _simp_add(_coerce(other), self)

    def __sub__(self, other):
        return _simp_sub(self, _coerce(other))

    def __rsub__(self, other):
        return _simp_sub(_coerce(other), self)

    def __mul__(self, other):
        return _simp_mul(self, _coerce(other))

    def __rmul__(self, other):
        return _simp_mul(_coerce(other), self)

    def __truediv__(self, other):
        return _simp_div(self, _coerce(other))

    def __rtruediv__(self, other):
        return _simp_div(_coerce(other), self)

    def __neg__(self):
        return _simp_neg(self)

    def diff(self, name) -> "Expr":
        """Symbolic partial derivative; `name` is "x1" or the axis index 1."""
        raise NotImplementedError

    def evaluate(self, env: dict) -> object:
        raise NotImplementedError

    def variables(self) -> frozenset:
        raise NotImplementedError

    def render(self) -> str:
        raise NotImplementedError

    def __repr__(self):
        return f"<{type(self).__name__} {self.render()}>"

    def __eq__(self, other):
        return isinstance(other, Expr) and self.render() == other.render()

    def __hash__(self):
        return hash(self.render())


def _coerce(value) -> Expr:
    if isinstance(value, Expr):
        return value
    if isinstance(value, (int, float)):
        return Const(float(value))
    raise TypeError(f"cannot use {value!r} in an expression")


@dataclass(frozen=True, eq=False)
class Const(Expr):
    value: float

    def diff(self, name):
        return Const(0.0)

    def evaluate(self, env):
        return self.value

    def variables(self):
        return frozenset()

    def render(self):
        v = self.value
        if v == int(v) and abs(v) < 1e16:
            return str(int(v))
        return repr(v)


@dataclass(frozen=True, eq=False)
class Var(Expr):
    name: str

    def diff(self, name):
        if isinstance(name, int):
            name = f"x{name}"
        return Const(1.0 if name == self.name else 0.0)

    def evaluate(self, env):
        try:
            return env[self.name]
        except KeyError:
            raise KeyError(f"no value bound for variable {self.name!r}") from None

    def variables(self):
        return frozenset({self.name})

    def render(self):
        return self.name


@dataclass(frozen=True, eq=False)
class Add(Expr):
    left: Expr
    right: Expr

    def diff(self, name):
        return _simp_add(self.left.diff(name), self.right.diff(name))

    def evaluate(self, env):
        return self.left.evaluate(env) + self.right.evaluate(env)

    def variables(self):
        return self.left.variables() | self.right.variables()

    def render(self):
        return f"{self.left.render()} + {_wrap_sum(self.right)}"


@dataclass(frozen=True, eq=False)
class Sub(Expr):
    left: Expr
    right: Expr

    def diff(self, name):
        return _simp_sub(self.left.diff(name), self.right.diff(name))

    def evaluate(self, env):
        return self.left.evaluate(env) - self.right.evaluate(env)

    def variables(self):
        return self.left.variables() | self.right.variables()

    def render(self):
        return f"{self.left.render()} - {_wrap_sum(self.right)}"


@dataclass(frozen=True, eq=False)
class Mul(Expr):
    left: Expr
    right: Expr

    def diff(self, name):
        return _simp_add(
            _simp_mul(self.left.diff(name), self.right),
            _simp_mul(self.left, self.right.diff(name)),
        )

    def evaluate(self, env):
        return self.left.evaluate(env) * self.right.evaluate(env)

    def variables(self):
        return self.left.variables() | self.right.variables()

    def render(self):
        return f"{_wrap_sum(self.left)}*{_wrap_sum(self.right)}"


@dataclass(frozen=True, eq=False)
class Div(Expr):
    left: Expr
    right: Expr

    def diff(self, name):
        # (u/v)' = (u'v - uv')/v^2
        u, v = self.left, self.right
        num = _simp_sub(_simp_mul(u.diff(name), v), _simp_mul(u, v.diff(name)))
        return _simp_div(num, _simp_pow(v, Const(2.0)))

    def evaluate(self, env):
        return self.left.evaluate(env) / self.right.evaluate(env)

    def variables(self):
        return self.left.variables() | self.right.variables()

    def render(self):
        return f"{_wrap_sum(self.left)}/{_wrap_tight(self.right)}"


@dataclass(frozen=True, eq=False)
class Pow(Expr):
    base: Expr
    exponent: Expr  # always a Const (grammar restriction)

    def diff(self, name):
        # d(u^c) = c*u^(c-1)*u'
        c = self.exponent.value
        du = self.base.diff(name)
        return _simp_mul(
            _simp_mul(Const(c), _simp_pow(self.base, Const(c - 1.0))), du
        )

    def evaluate(self, env):
        base = self.base.evaluate(env)
        c = self.exponent.value
        if c == int(c):
            return base ** int(c)
        return base ** c

    def variables(self):
        return self.base.variables()

    def render(self):
        return f"{_wrap_tight(self.base)}^{_wrap_tight(self.exponent)}"


@dataclass(frozen=True, eq=False)
class Neg(Expr):
    operand: Expr

    def diff(self, name):
        return _simp_neg(self.operand.diff(name))

    def evaluate(self, env):
        return -self.operand.evaluate(env)

    def variables(self):
        return self.operand.variables()

    def render(self):
        return f"-{_wrap_tight(self.operand)}"


@dataclass(frozen=True, eq=False)
class Call(Expr):
    func: str
    arg: Expr

    def diff(self, name):
        da = self.arg.diff(name)
        if self.func == "sin":
            outer = Call("cos", self.arg)
        elif self.func == "cos":
            outer = _simp_neg(Call("sin", self.arg))
        elif self.func == "exp":
            outer = self
        elif self.func == "sqrt":
            outer = _simp_div(Const(0.5), self)
        elif self.func == "log":
            return _simp_div(da, self.arg)
        else:  # pragma: no cover - guarded at parse time
            raise ValueError(f"unknown function {self.func}")
        return _simp_mul(outer, da)

    def evaluate(self, env):
        value = self.arg.evaluate(env)
        np_fn, scalar_fn = _FUNCTIONS[self.func]
        if isinstance(value, np.ndarray):
            return np_fn(value)
        return scalar_fn(value)

    def variables(self):
        return self.arg.variables()

    def render(self):
        return f"{self.func}({self.arg.render()})"


# ---------------------------------------------------------------------------
# Light simplification; keeps derivative trees from exploding.
# ---------------------------------------------------------------------------

def _is_const(e: Expr, v=None) -> bool:
    if not isinstance(e, Const):
        return False
    return True if v is None else e.value == v


def _simp_add(a: Expr, b: Expr) -> Expr:
    if _is_const(a) and _is_const(b):
        return Const(a.value + b.value)
    if _is_const(a, 0.0):
        return b
    if _is_const(b, 0.0):
        return a
    return Add(a, b)


def _simp_sub(a: Expr, b: Expr) -> Expr:
    if _is_const(a) and _is_const(b):
        return Const(a.value - b.value)
    if _is_const(b, 0.0):
        return a
    if _is_const(a, 0.0):
        return _simp_neg(b)
    return Sub(a, b)


def _simp_mul(a: Expr, b: Expr) -> Expr:
    if _is_const(a) and _is_const(b):
        return Const(a.value * b.value)
    if _is_const(a, 0.0) or _is_const(b, 0.0):
        return Const(0.0)
    if _is_const(a, 1.0):
        return b
    if _is_const(b, 1.0):
        return a
    if _is_const(a, -1.0):
        return _simp_neg(b)
    if _is_const(b, -1.0):
        return _simp_neg(a)
    return Mul(a, b)


def _simp_div(a: Expr, b: Expr) -> Expr:
    if _is_const(a, 0.0):
        return Const(0.0)
    if _is_const(b, 1.0):
        return a
    if _is_const(a) and _is_const(b) and b.value != 0.0:
        return Const(a.value / b.value)
    return Div(a, b)


def _simp_pow(a: Expr, c: Const) -> Expr:
    if c.value == 0.0:
        return Const(1.0)
    if c.value == 1.0:
        return a
    if _is_const(a):
        return Const(a.value ** c.value)
    return Pow(a, c)


def _simp_neg(a: Expr) -> Expr:
    if _is_const(a):
        return Const(-a.value)
    if isinstance(a, Neg):
        return a.operand
    return Neg(a)


# rendering helpers: wrap sub-expressions whose top-level operator binds looser
def _wrap_sum(e: Expr) -> str:
    if isinstance(e, (Add, Sub, Neg)):
        return f"({e.render()})"
    return e.render()


def _wrap_tight(e: Expr) -> str:
    if isinstance(e, (Add, Sub, Mul, Div, Neg, Pow)):
        return f"({e.render()})"
    return e.render()


# ---------------------------------------------------------------------------
# Tokenizer / parser
# ---------------------------------------------------------------------------

_OPERATORS = set("+-*/^()")


@dataclass(frozen=True)
class _Token:
    kind: str  # 'num' | 'name' | 'op' | 'end'
    text: str
    line: int
    col: int


def _tokenize(source: str) -> list:
    tokens = []
    line, col = 1, 1
    i = 0
    n = len(source)
    while i < n:
        ch = source[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        start_col = col
        if ch in _OPERATORS:
            tokens.append(_Token("op", ch, line, start_col))
            i += 1
            col += 1
            continue
        if ch.isdigit() or ch == ".":
            j = i
            seen_dot = False
            seen_exp = False
            while j < n:
                c = source[j]
                if c.isdigit():
                    j += 1
                elif c == "." and not seen_dot and not seen_exp:
                    seen_dot = True
                    j += 1
                elif c in "eE" and j + 1 < n and (source[j + 1].isdigit() or source[j + 1] in "+-") and j > i:
                    seen_exp = True
                    j += 1
                    if source[j] in "+-":
                        j += 1
                else:
                    break
            text = source[i:j]
            try:
                float(text)
            except ValueError:
                raise ExprError(f"malformed number {text!r}", line, start_col)
            tokens.append(_Token("num", text, line, start_col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            tokens.append(_Token("name", source[i:j], line, start_col))
            col += j - i
            i = j
            continue
        raise ExprError(f"unexpected character {ch!r}", line, start_col)
    tokens.append(_Token("end", "", line, col))
    return tokens


class _Parser:
    def __init__(self, tokens, n_vars):
        self.tokens = tokens
        self.pos = 0
        self.n_vars = n_vars

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, text: str):
        tok = self.peek()
        if tok.kind == "op" and tok.text == text:
            return self.advance()
        raise ExprError(f"expected {text!r}", tok.line, tok.col)

    def parse(self) -> Expr:
        e = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            raise ExprError(f"unexpected token {tok.text!r}", tok.line, tok.col)
        return e

    def expr(self) -> Expr:
        e = self.term()
        while True:
            tok = self.peek()
            if tok.kind == "op" and tok.text in "+-":
                self.advance()
                rhs = self.term()
                e = Add(e, rhs) if tok.text == "+" else Sub(e, rhs)
            else:
                return e

    def term(self) -> Expr:
        e = self.factor()
        while True:
            tok = self.peek()
            if tok.kind == "op" and tok.text in "*/":
                self.advance()
                rhs = self.factor()
                e = Mul(e, rhs) if tok.text == "*" else Div(e, rhs)
            else:
                return e

    def factor(self) -> Expr:
        # power binds tighter than unary minus: -x^2 means -(x^2)
        tok = self.peek()
        if tok.kind == "op" and tok.text == "-":
            self.advance()
            return Neg(self.factor())
        if tok.kind == "op" and tok.text == "+":
            self.advance()
            return self.factor()
        base = self.atom()
        tok = self.peek()
        if tok.kind == "op" and tok.text == "^":
            self.advance()
            exponent = self.exponent_literal()
            return Pow(base, exponent)
        return base

    def exponent_literal(self) -> Const:
        # exponents are (possibly negated) numeric literals so differentiation
        # stays closed over the grammar
        tok = self.peek()
        sign = 1.0
        if tok.kind == "op" and tok.text == "-":
            self.advance()
            sign = -1.0
            tok = self.peek()
        if tok.kind == "num":
            self.advance()
            return Const(sign * float(tok.text))
        if tok.kind == "op" and tok.text == "(":
            self.advance()
            inner = self.exponent_literal()
            self.expect_op(")")
            return Const(sign * inner.value)
        raise ExprError(f"exponent must be a numeric literal, got {tok.text!r}", tok.line, tok.col)

    def atom(self) -> Expr:
        tok = self.advance()
        if tok.kind == "num":
            return Const(float(tok.text))
        if tok.kind == "name":
            name = tok.text
            nxt = self.peek()
            if nxt.kind == "op" and nxt.text == "(":
                if name not in _FUNCTIONS:
                    raise ExprError(f"unknown function {name!r}", tok.line, tok.col)
                self.advance()
                arg = self.expr()
                self.expect_op(")")
                return Call(name, arg)
            if name in _CONSTANTS:
                return Const(_CONSTANTS[name])
            if name.startswith("x") and name[1:].isdigit():
                index = int(name[1:])
                if self.n_vars is not None and index > self.n_vars:
                    raise ExprError(
                        f"variable {name} out of range (expected x0..x{self.n_vars})",
                        tok.line,
                        tok.col,
                    )
                return Var(name)
            raise ExprError(f"unknown name {name!r}", tok.line, tok.col)
        if tok.kind == "op" and tok.text == "(":
            e = self.expr()
            self.expect_op(")")
            return e
        if tok.kind == "end":
            raise ExprError("unexpected end of expression", tok.line, tok.col)
        raise ExprError(f"unexpected token {tok.text!r}", tok.line, tok.col)


def parse_expr(source: str, n_vars: int | None = None) -> Expr:
    """Parse an expression string.

    n_vars, when given, bounds the allowed variables to x0..x{n_vars}; anything
    beyond raises ExprError with the position of the offending name.
    """
    return _Parser(_tokenize(source), n_vars).parse()
