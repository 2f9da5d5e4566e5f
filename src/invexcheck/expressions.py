"""Tiny expression language with forward-mode differentiation.

Grammar (whitespace insignificant)::

    expr    := term (('+' | '-') term)*
    term    := factor (('*' | '/') factor)*
    factor  := atom ('^' integer)?
    atom    := number | identifier | '(' expr ')' | '-' atom
             | func '(' expr ')' | piecewise
    func    := 'exp' | 'ln' | 'sin' | 'cos' | 'abs'
    piecewise := 'piecewise' '(' (cond ':' expr ';')* expr ')'
    cond    := expr ('<' | '<=' | '>' | '>=') expr

Binary operators are left-associative; '^' takes a literal (optionally signed)
integer exponent. Piecewise selects the first branch whose condition holds,
else the trailing default. Values and gradients come from one forward pass
over an (N, s) array of points that carries a dual-number tangent column per
variable; at a piecewise seam the active branch's derivative is used.
`BinOp`, `Pow` and `Call` nodes keep the source text they were parsed from
(outside comparisons), which a `DomainError` quotes.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from itertools import repeat

import numpy as np

FUNCTIONS = ("exp", "ln", "sin", "cos", "abs")
RELATIONS = ("<", "<=", ">", ">=")


class ExprSyntaxError(ValueError):
    """Parse failure; `offset` is the character position in the source text."""

    def __init__(self, offset: int, message: str):
        super().__init__(f"offset {offset}: {message}")
        self.offset = offset
        self.reason = message


class UnknownVariableError(ValueError):
    def __init__(self, name: str, offset: int = -1):
        super().__init__(f"unknown variable {name!r}")
        self.name = name
        self.offset = offset


class UnknownFunctionError(ValueError):
    def __init__(self, name: str, offset: int = -1):
        super().__init__(f"unknown function {name!r}")
        self.name = name
        self.offset = offset


class DomainError(ArithmeticError):
    """Evaluation hit a pole or an out-of-domain function argument."""

    def __init__(self, message: str, node: "Expr"):
        super().__init__(f"{message} in `{node.text}`")
        self.node = node


@dataclass(frozen=True)
class Const:
    value: float


@dataclass(frozen=True)
class Var:
    index: int
    name: str


@dataclass(frozen=True)
class Neg:
    arg: "Expr"


@dataclass(frozen=True)
class BinOp:
    op: str  # one of + - * /
    left: "Expr"
    right: "Expr"
    text: str = field(default="", compare=False, repr=False)


@dataclass(frozen=True)
class Pow:
    base: "Expr"
    exponent: int
    text: str = field(default="", compare=False, repr=False)


@dataclass(frozen=True)
class Call:
    func: str
    arg: "Expr"
    text: str = field(default="", compare=False, repr=False)


@dataclass(frozen=True)
class Condition:
    lhs: "Expr"
    op: str  # one of < <= > >=
    rhs: "Expr"


@dataclass(frozen=True)
class Piecewise:
    branches: tuple[tuple[Condition, "Expr"], ...]
    default: "Expr"


Expr = Const | Var | Neg | BinOp | Pow | Call | Piecewise

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<number>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op><=|>=|[+\-*/^():;<>]))"
)


@dataclass(frozen=True)
class _Token:
    kind: str  # number | ident | op | end
    text: str
    offset: int


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None or match.end() == pos:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            at = len(text) - len(stripped)
            raise ExprSyntaxError(at, f"unexpected character {text[at]!r}")
        for kind in ("number", "ident", "op"):
            if match.group(kind) is not None:
                tokens.append(_Token(kind, match.group(kind), match.start(kind)))
        pos = match.end()
    tokens.append(_Token("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str, variables: tuple[str, ...]):
        self._text = text
        self._tokens = _tokenize(text)
        self._index = 0
        self._vars = {name: i for i, name in enumerate(variables)}

    @property
    def _token(self) -> _Token:
        return self._tokens[self._index]

    def _advance(self) -> _Token:
        tok = self._token
        self._index += 1
        return tok

    def _expect(self, text: str) -> _Token:
        tok = self._token
        if tok.kind != "op" or tok.text != text:
            raise ExprSyntaxError(tok.offset, f"expected {text!r}, found {tok.text or 'end of input'!r}")
        return self._advance()

    def _since(self, start: int) -> str:
        """The source from offset ``start`` to the end of the last token read."""
        last = self._tokens[self._index - 1]
        return self._text[start : last.offset + len(last.text)]

    def parse(self) -> Expr:
        expr = self._expr()
        tok = self._token
        if tok.kind != "end":
            raise ExprSyntaxError(tok.offset, f"unexpected trailing input {tok.text!r}")
        return expr

    def _expr(self) -> Expr:
        start, node = self._token.offset, self._term()
        while self._token.kind == "op" and self._token.text in "+-":
            op = self._advance().text
            node = BinOp(op, node, self._term(), self._since(start))
        return node

    def _term(self) -> Expr:
        start, node = self._token.offset, self._factor()
        while self._token.kind == "op" and self._token.text in "*/":
            op = self._advance().text
            node = BinOp(op, node, self._factor(), self._since(start))
        return node

    def _factor(self) -> Expr:
        start, node = self._token.offset, self._atom()
        if self._token.kind == "op" and self._token.text == "^":
            self._advance()
            node = Pow(node, self._integer(), self._since(start))
        return node

    def _integer(self) -> int:
        sign = 1
        if self._token.kind == "op" and self._token.text == "-":
            self._advance()
            sign = -1
        tok = self._token
        if tok.kind != "number" or not re.fullmatch(r"\d+", tok.text):
            raise ExprSyntaxError(tok.offset, "integer exponent expected after '^'")
        self._advance()
        return sign * int(tok.text)

    def _atom(self) -> Expr:
        tok = self._token
        if tok.kind == "number":
            self._advance()
            return Const(float(tok.text))
        if tok.kind == "op" and tok.text == "-":
            self._advance()
            return Neg(self._atom())
        if tok.kind == "op" and tok.text == "(":
            self._advance()
            node = self._expr()
            self._expect(")")
            return node
        if tok.kind == "ident":
            self._advance()
            if self._token.kind == "op" and self._token.text == "(":
                if tok.text == "piecewise":
                    return self._piecewise()
                if tok.text not in FUNCTIONS:
                    raise UnknownFunctionError(tok.text, tok.offset)
                self._expect("(")
                arg = self._expr()
                self._expect(")")
                return Call(tok.text, arg, self._since(tok.offset))
            if tok.text not in self._vars:
                raise UnknownVariableError(tok.text, tok.offset)
            return Var(self._vars[tok.text], tok.text)
        raise ExprSyntaxError(tok.offset, f"expected an operand, found {tok.text or 'end of input'!r}")

    def _piecewise(self) -> Expr:
        self._expect("(")
        branches: list[tuple[Condition, Expr]] = []
        while True:
            first = self._expr()
            tok = self._token
            if tok.kind == "op" and tok.text in RELATIONS:
                self._advance()
                rhs = self._expr()
                self._expect(":")
                value = self._expr()
                self._expect(";")
                branches.append((Condition(first, tok.text, rhs), value))
                continue
            self._expect(")")
            return Piecewise(tuple(branches), first)


def parse(text: str, variables: tuple[str, ...] | list[str]) -> Expr:
    """Parse `text` against the ordered variable names."""
    return _Parser(text, tuple(variables)).parse()


def _elementwise(fn, values: np.ndarray, *args) -> tuple[np.ndarray, np.ndarray | None]:
    """``fn(v, *args)`` for each value as a Python float, and where it raised
    (as NaN). Python's float power and `math` give the bits scalar code gets;
    numpy's pow, exp, log, sin and cos may differ in the last place."""
    try:
        return np.fromiter(map(fn, values.tolist(), *map(repeat, args)), float, values.size), None
    except (OverflowError, ValueError):  # overflow, or sin/cos of ±inf
        out, bad = np.empty(values.size), np.zeros(values.size, dtype=bool)
        for i, v in enumerate(values.tolist()):
            try:
                out[i] = fn(v, *args)
            except (OverflowError, ValueError):
                out[i], bad[i] = math.nan, True
        return out, bad


def _power(v: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray | None]:
    """``v ** k`` as `_elementwise` gives it; Python's v**0 is 1 and v**1 is v."""
    if k in (0, 1):
        return (np.ones(v.size) if k == 0 else v), None
    return _elementwise(pow, v, k)


class _Pass:
    """One forward pass over the rows of an (N, s) point array.

    `run` gives a node's values (M,) and tangents (M, width) on a subset of
    the rows: width s carries one dual-number tangent column per variable,
    width 0 values only. Constants and variable tangents keep one row and
    broadcast. Each operation keeps the scalar order of arithmetic. A
    failure marks its rows and the pass goes on; `failures` keeps them in
    the order a scalar walk meets them, ranked (expression, tangent, seen).
    """

    def __init__(self):
        self.expression = 0  # index of the expression being run
        self.failures: list[tuple[tuple, np.ndarray, str, Expr]] = []

    def fail(self, rows, bad, message: str, node: Expr, tangent=False) -> None:
        hit = rows[np.broadcast_to(bad, rows.shape)] if bad is not None else rows[:0]
        if hit.size:
            rank = (self.expression, tangent, len(self.failures))
            self.failures.append((rank, hit, message, node))

    def run(self, node: Expr, x: np.ndarray, rows: np.ndarray, width: int):
        if isinstance(node, Const):
            return np.array([node.value]), np.zeros((1, width))
        if isinstance(node, Var):
            d = np.zeros((1, width))
            d[:, node.index : node.index + 1] = 1.0  # no column when width is 0
            return x[:, node.index], d
        if isinstance(node, Neg):
            v, d = self.run(node.arg, x, rows, width)
            return -v, -d
        if isinstance(node, BinOp):
            a, da = self.run(node.left, x, rows, width)
            b, db = self.run(node.right, x, rows, width)
            if node.op == "+":
                return a + b, da + db
            if node.op == "-":
                return a - b, da - db
            if node.op == "*":
                return a * b, da * b[:, None] + a[:, None] * db
            self.fail(rows, b == 0.0, "division by zero", node)
            return a / b, (da * b[:, None] - a[:, None] * db) / (b * b)[:, None]
        if isinstance(node, Pow):
            v, dv = self.run(node.base, x, rows, width)
            k = node.exponent
            if k < 0:
                self.fail(rows, v == 0.0, "zero base with negative exponent", node)
                v = np.where(v == 0.0, 1.0, v)
            value, overflow = _power(v, k)
            self.fail(rows, overflow, "power overflow", node)
            if not width or k == 0:
                return value, np.zeros_like(dv)
            slope, overflow = _power(v, k - 1)
            self.fail(rows, overflow, "power overflow", node, tangent=True)
            return value, (k * slope)[:, None] * dv
        if isinstance(node, Call):
            v, dv = self.run(node.arg, x, rows, width)
            if node.func == "abs":
                return np.abs(v), np.where(v == 0.0, 0.0, np.copysign(1.0, v))[:, None] * dv
            if node.func == "ln":
                self.fail(rows, v <= 0.0, "ln of a nonpositive value", node)
                return _elementwise(math.log, np.where(v <= 0.0, 1.0, v))[0], dv / v[:, None]
            value, bad = _elementwise(getattr(math, node.func), v)
            if node.func == "exp":
                self.fail(rows, bad, "exp overflow", node)
                return value, value[:, None] * dv
            self.fail(rows, bad, f"{node.func} of an infinite value", node)
            if node.func == "sin":
                return value, _elementwise(math.cos, v)[0][:, None] * dv
            return value, (-_elementwise(math.sin, v)[0])[:, None] * dv
        if isinstance(node, Piecewise):
            value, tangent = np.empty(len(x)), np.empty((len(x), width))
            open_ = np.arange(len(x))  # conditions and branches see only the rows not yet selected
            for cond, branch in (*node.branches, (None, node.default)):
                xs, rs = x[open_], rows[open_]
                holds = np.ones(open_.size, dtype=bool)
                if cond is not None:
                    a, b = self.run(cond.lhs, xs, rs, 0)[0], self.run(cond.rhs, xs, rs, 0)[0]
                    holds = np.broadcast_to(_RELATION[cond.op](a, b), open_.shape)
                pick, open_ = open_[holds], open_[~holds]
                value[pick], tangent[pick] = self.run(branch, xs[holds], rs[holds], width)
            return value, tangent
        raise TypeError(f"not an expression node: {node!r}")


_RELATION = {"<": np.less, "<=": np.less_equal, ">": np.greater, ">=": np.greater_equal}


def forward(exprs, points, gradient: bool = True) -> tuple[np.ndarray, np.ndarray]:
    """Values (N, k) and gradients (N, k, s) of k expressions at the N rows
    of ``points`` (shape (N, s)), one batched pass per expression.

    Without ``gradient`` the Jacobian has no columns. Raises the DomainError
    of the lowest-index failing point, at the node a scalar walk of the
    expressions in turn (values, then gradients) meets first there.
    """
    points = np.asarray(points, dtype=float)
    width = points.shape[1] if gradient else 0
    state = _Pass()
    values = np.empty((len(points), len(exprs)))
    jacobian = np.empty((len(points), len(exprs), width))
    rows = np.arange(len(points))
    with np.errstate(all="ignore"):
        for i, expr in enumerate(exprs):
            state.expression = i
            values[:, i], jacobian[:, i] = state.run(expr, points, rows, width)
    if state.failures:
        row = min(hit.min() for _, hit, _, _ in state.failures)
        _, _, message, node = min(f for f in state.failures if row in f[1])
        raise DomainError(message, node)
    return values, jacobian
