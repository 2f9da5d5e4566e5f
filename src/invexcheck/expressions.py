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
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
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
        super().__init__(f"{message} in `{to_text(node)}`")
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


@dataclass(frozen=True)
class Pow:
    base: "Expr"
    exponent: int


@dataclass(frozen=True)
class Call:
    func: str
    arg: "Expr"


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

    def parse(self) -> Expr:
        expr = self._expr()
        tok = self._token
        if tok.kind != "end":
            raise ExprSyntaxError(tok.offset, f"unexpected trailing input {tok.text!r}")
        return expr

    def _expr(self) -> Expr:
        node = self._term()
        while self._token.kind == "op" and self._token.text in "+-":
            op = self._advance().text
            node = BinOp(op, node, self._term())
        return node

    def _term(self) -> Expr:
        node = self._factor()
        while self._token.kind == "op" and self._token.text in "*/":
            op = self._advance().text
            node = BinOp(op, node, self._factor())
        return node

    def _factor(self) -> Expr:
        node = self._atom()
        if self._token.kind == "op" and self._token.text == "^":
            self._advance()
            node = Pow(node, self._integer())
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
                return Call(tok.text, arg)
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


_PREC_ADD, _PREC_MUL = 1, 2


def _paren(text: str) -> str:
    return f"({text})"


def _fmt_const(value: float) -> str:
    if value == int(value) and abs(value) < 1e16:
        return str(int(value))
    return repr(value)


def _fmt(node: Expr, prec: int) -> str:
    if isinstance(node, Const):
        text = _fmt_const(node.value)
        return _paren(text) if node.value < 0 else text
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Neg):
        inner = _fmt(node.arg, 99)
        if not isinstance(node.arg, (Const, Var, Call, Piecewise, Neg)):
            inner = _paren(inner)
        text = f"-{inner}"
        # '-' binds at atom level; protect from a following '^' stealing the sign
        return _paren(text) if prec >= 3 else text
    if isinstance(node, BinOp):
        mine = _PREC_ADD if node.op in "+-" else _PREC_MUL
        left = _fmt(node.left, 0)
        right = _fmt(node.right, 0)
        if isinstance(node.left, BinOp):
            lp = _PREC_ADD if node.left.op in "+-" else _PREC_MUL
            if lp < mine:
                left = _paren(left)
        if isinstance(node.right, BinOp):
            rp = _PREC_ADD if node.right.op in "+-" else _PREC_MUL
            # a same-precedence right operand keeps its parentheses: float
            # addition and multiplication are not associative either
            if rp <= mine:
                right = _paren(right)
        text = f"{left} {node.op} {right}"
        return _paren(text) if prec > mine else text
    if isinstance(node, Pow):
        base = _fmt(node.base, 0)
        if isinstance(node.base, (BinOp, Pow)):
            base = _paren(base)
        exponent = str(node.exponent) if node.exponent >= 0 else f"-{-node.exponent}"
        return f"{base}^{exponent}"
    if isinstance(node, Call):
        return f"{node.func}({_fmt(node.arg, 0)})"
    if isinstance(node, Piecewise):
        parts = [
            f"{_fmt(cond.lhs, 0)} {cond.op} {_fmt(cond.rhs, 0)} : {_fmt(value, 0)}"
            for cond, value in node.branches
        ]
        parts.append(_fmt(node.default, 0))
        return "piecewise(" + "; ".join(parts) + ")"
    raise TypeError(f"not an expression node: {node!r}")


def to_text(expr: Expr) -> str:
    """Render an AST back to concrete syntax that reparses to the same tree."""
    return _fmt(expr, 0)


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


@dataclass
class SmoothnessViolation:
    x: np.ndarray
    deviation: float
    note: str


@dataclass
class SmoothnessReport:
    violations: list[SmoothnessViolation]
    samples_checked: int

    @property
    def ok(self) -> bool:
        return not self.violations


_FD_STEP = 1e-6
_SEAM_OFFSET = 1e-5
_SEAM_FD_STEP = 2e-5  # straddles the seam from the offset samples
_REL_THRESHOLD = 1e-4
_SMOOTHNESS_SEED = 724212


def _fd_deviation(expr: Expr, x: np.ndarray, step: float) -> float:
    """Largest relative gap between the gradient and central differences."""
    ad = forward((expr,), x[None])[1][0, 0]
    shifted = np.repeat(x[None], 2 * x.size, axis=0)  # rows x + h e_i, x - h e_i, ...
    shifted[2 * np.arange(x.size), np.arange(x.size)] += step
    shifted[2 * np.arange(x.size) + 1, np.arange(x.size)] -= step
    values = forward((expr,), shifted, gradient=False)[0][:, 0]
    fd = (values[0::2] - values[1::2]) / (2.0 * step)
    return float(np.max(np.abs(ad - fd) / np.maximum(1.0, np.abs(fd)))) if x.size else 0.0


def _seam_generators(node: Expr, acc: list[Expr]) -> None:
    """Collect expressions whose zero crossings are potential kinks."""
    if isinstance(node, Piecewise):
        for cond, value in node.branches:
            acc.append(BinOp("-", cond.lhs, cond.rhs))
            _seam_generators(cond.lhs, acc)
            _seam_generators(cond.rhs, acc)
            _seam_generators(value, acc)
        _seam_generators(node.default, acc)
    elif isinstance(node, Call):
        if node.func == "abs":
            acc.append(node.arg)
        _seam_generators(node.arg, acc)
    elif isinstance(node, Neg):
        _seam_generators(node.arg, acc)
    elif isinstance(node, BinOp):
        _seam_generators(node.left, acc)
        _seam_generators(node.right, acc)
    elif isinstance(node, Pow):
        _seam_generators(node.base, acc)


def _locate_seams_1d(expr: Expr, lo: float, hi: float) -> list[float]:
    generators: list[Expr] = []
    _seam_generators(expr, generators)
    seams: list[float] = []
    if not generators:
        return seams
    grid = np.linspace(lo, hi, 2048)
    for gen in generators:
        try:
            values = forward((gen,), grid[:, None], gradient=False)[0][:, 0]
        except DomainError:
            continue
        signs = np.sign(values)
        for i in range(len(grid) - 1):
            if signs[i] == 0.0:
                seams.append(float(grid[i]))
            elif signs[i] * signs[i + 1] < 0.0:
                a, b = float(grid[i]), float(grid[i + 1])
                for _ in range(80):
                    mid = 0.5 * (a + b)
                    fm = forward((gen,), np.array([[mid]]), gradient=False)[0][0, 0]
                    if fm == 0.0:
                        a = b = mid
                        break
                    if np.sign(fm) == signs[i]:
                        a = mid
                    else:
                        b = mid
                seams.append(0.5 * (a + b))
    seams.sort()
    deduped: list[float] = []
    for s in seams:
        if not deduped or s - deduped[-1] > 1e-10:
            deduped.append(s)
    return deduped


def validate_smoothness(expr: Expr, box: list[tuple[float, float]], samples: int) -> SmoothnessReport:
    """Compare dual-number gradients to central finite differences over the box.

    Regular samples use step 1e-6; near every piecewise condition boundary and
    abs() argument crossing, extra samples at the seam +/- 1e-5 use a step wide
    enough to straddle the seam, which is what exposes genuine kinks. A sample
    is reported when the relative deviation exceeds 1e-4.
    """
    box = [(float(lo), float(hi)) for lo, hi in box]
    dims = len(box)
    inset = max(1e-9, _FD_STEP)
    points: list[np.ndarray] = []
    if dims == 1:
        lo, hi = box[0]
        points = [np.array([t]) for t in np.linspace(lo + inset, hi - inset, samples)]
    else:
        rng = np.random.default_rng(_SMOOTHNESS_SEED)
        lows = np.array([lo for lo, _ in box]) + inset
        highs = np.array([hi for _, hi in box]) - inset
        points = [rng.uniform(lows, highs) for _ in range(samples)]
    checks = [(x, _FD_STEP, "gradient/finite-difference mismatch") for x in points]
    if dims == 1:
        lo, hi = box[0]
        for seam in _locate_seams_1d(expr, lo, hi):
            for t in (seam - _SEAM_OFFSET, seam + _SEAM_OFFSET):
                if lo + _SEAM_FD_STEP <= t <= hi - _SEAM_FD_STEP:
                    note = f"kink detected near seam at {seam:.6g}"
                    checks.append((np.array([t]), _SEAM_FD_STEP, note))
    violations: list[SmoothnessViolation] = []
    for x, step, note in checks:
        try:
            dev = _fd_deviation(expr, x, step)
        except DomainError as exc:
            violations.append(SmoothnessViolation(x, math.inf, f"evaluation failed: {exc}"))
            continue
        if dev > _REL_THRESHOLD:
            violations.append(SmoothnessViolation(x, dev, note))
    return SmoothnessReport(violations=violations, samples_checked=len(checks))
