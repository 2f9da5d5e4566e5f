"""Expression grammar, evaluation, dual-number gradients."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from invexcheck.expressions import (
    FUNCTIONS,
    RELATIONS,
    BinOp,
    Call,
    Condition,
    Const,
    DomainError,
    ExprSyntaxError,
    Neg,
    Piecewise,
    Pow,
    UnknownFunctionError,
    UnknownVariableError,
    Var,
    forward,
    parse,
)

X = ("x",)
XY = ("x", "y")


def value_at(expr, x):
    """The value of one expression at one point, by the batched pass."""
    return float(forward((expr,), np.asarray(x, dtype=float)[None], gradient=False)[0][0, 0])


def gradient_at(expr, x):
    return forward((expr,), np.asarray(x, dtype=float)[None])[1][0, 0]


def ev(text, *args, variables=X):
    return value_at(parse(text, variables), list(args))


def grad(text, *args, variables=X):
    return gradient_at(parse(text, variables), list(args))


def test_arithmetic_precedence():
    assert ev("2 + 3 * x", 4.0) == 14.0
    assert ev("(2 + 3) * x", 4.0) == 20.0
    assert ev("10 - 4 - 3", 0.0) == 3.0  # left associative
    assert ev("12 / 4 / 3", 1.0) == 1.0


def test_unary_minus_nests_inside_power_base():
    # the grammar reads '-' as part of the atom, so -x^2 squares (-x)
    assert ev("-x^2", 2.0) == 4.0
    assert ev("-(x^2)", 2.0) == -4.0


def test_power_takes_a_single_integer_exponent():
    assert ev("(x^2)^3", 2.0) == 64.0
    assert ev("x^-1", 2.0) == 0.5
    with pytest.raises(ExprSyntaxError):
        parse("x^2^3", X)
    with pytest.raises(ExprSyntaxError):
        parse("x^y", XY)


def test_function_calls():
    assert ev("exp(0)", 1.0) == 1.0
    assert ev("ln(exp(1))", 0.0) == pytest.approx(1.0)
    assert ev("sin(0) + cos(0)", 0.0) == pytest.approx(1.0)
    assert ev("abs(0 - x)", 3.5) == 3.5


def test_multivariable():
    assert ev("x * y + y^2", 2.0, 3.0, variables=XY) == 15.0


PIECEWISE = "piecewise(x > 1: (x - 1)^2; x < -1: (x + 1)^2; 0)"


@pytest.mark.parametrize(
    "x,expected",
    [(2.0, 1.0), (-2.0, 1.0), (0.0, 0.0), (1.0, 0.0), (-1.0, 0.0), (1.5, 0.25)],
)
def test_piecewise_branches(x, expected):
    assert ev(PIECEWISE, x) == expected


def test_piecewise_gradient_at_branch_points():
    # quadratic pieces meet the zero plateau with zero slope: C^1 everywhere
    assert grad(PIECEWISE, 2.0)[0] == pytest.approx(2.0)
    assert grad(PIECEWISE, -2.0)[0] == pytest.approx(-2.0)
    assert grad(PIECEWISE, 0.0)[0] == 0.0


def test_gradient_hand_cases():
    assert grad("x^3", 2.0)[0] == pytest.approx(12.0)
    g = grad("x * y + y^2", 2.0, 3.0, variables=XY)
    assert g == pytest.approx([3.0, 8.0])
    x = 0.3
    expected = math.cos(x) * math.exp(x) + math.sin(x) * math.exp(x)
    assert grad("sin(x) * exp(x)", x)[0] == pytest.approx(expected)


def test_abs_gradient_away_from_kink():
    assert grad("abs(x)", 2.0)[0] == 1.0
    assert grad("abs(x)", -2.0)[0] == -1.0


def test_syntax_error_carries_offset():
    with pytest.raises(ExprSyntaxError) as exc:
        parse("2 + * 3", X)
    assert exc.value.offset == 4
    with pytest.raises(ExprSyntaxError) as exc:
        parse("2 +", X)
    assert exc.value.offset == 3


def test_trailing_garbage_rejected():
    with pytest.raises(ExprSyntaxError):
        parse("x + 1 )", X)


def test_unknown_variable_and_function():
    with pytest.raises(UnknownVariableError):
        parse("y + 1", X)
    with pytest.raises(UnknownFunctionError):
        parse("foo(x)", X)


def test_domain_errors():
    with pytest.raises(DomainError, match=r"^ln of a nonpositive value in `ln\( x\+1 \)`$"):
        ev("2 * ln( x+1 )", -1.0)
    with pytest.raises(DomainError, match=r"^division by zero in `x/\(x - x\)`$"):
        ev("1 + x/(x - x)", 1.0)


# -- random expressions ------------------------------------------------------

_leaf = st.one_of(
    st.sampled_from(["x", "y"]),
    st.integers(min_value=0, max_value=9).map(str),
    st.floats(min_value=0.25, max_value=4.0).map(lambda v: f"{v:.3f}"),
)


def _combine(children):
    op = st.sampled_from([" + ", " - ", " * "])
    return st.one_of(
        st.tuples(op, children, children).map(lambda t: f"({t[1]}{t[0]}{t[2]})"),
        children.map(lambda c: f"(-{c})"),
        children.map(lambda c: f"sin({c})"),
        children.map(lambda c: f"abs({c})"),
        st.tuples(children, st.integers(min_value=1, max_value=3)).map(
            lambda t: f"({t[0]})^{t[1]}"
        ),
    )


expression_texts = st.recursive(_leaf, _combine, max_leaves=12)


@settings(max_examples=200, deadline=None)
@given(expression_texts)
def test_quoted_nodes_are_source_spans(text):
    """Each node a DomainError can name keeps a slice of the source that
    reparses to the same node."""
    stack = [parse(text, XY)]
    while stack:
        node = stack.pop()
        if isinstance(node, (BinOp, Pow, Call)):
            assert node.text in text
            assert parse(node.text, XY) == node
        stack += [getattr(node, f) for f in ("left", "right", "base", "arg") if hasattr(node, f)]


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.floats(-4, 4), min_size=4, max_size=4),
    st.floats(-2.5, 2.5),
)
def test_polynomial_gradient_matches_finite_differences(coeffs, xv):
    text = " + ".join(f"({c:.6f}) * x^{k}" for k, c in enumerate(coeffs))
    expr = parse(text, X)
    h = 1e-6
    fd = (value_at(expr, [xv + h]) - value_at(expr, [xv - h])) / (2 * h)
    g = gradient_at(expr, [xv])
    assert abs(g[0] - fd) <= 1e-6 * max(1.0, abs(fd))


# -- the scalar walkers, as the reference for the batched forward pass --------


def _math(func, v, node):
    """math.<func>(v); overflow and sin/cos of ±inf raise DomainError."""
    try:
        return getattr(math, func)(v)
    except OverflowError as exc:
        raise DomainError(f"{func} overflow", node) from exc
    except ValueError as exc:
        raise DomainError(f"{func} of an infinite value", node) from exc


def _pow(v, k, node):
    try:
        return float(v**k)
    except OverflowError as exc:
        raise DomainError("power overflow", node) from exc


def ref_value(node, x):
    """Value of ``node`` at one point, walking the tree with Python floats."""
    if isinstance(node, Const):
        return node.value
    if isinstance(node, Var):
        return float(x[node.index])
    if isinstance(node, Neg):
        return -ref_value(node.arg, x)
    if isinstance(node, BinOp):
        a = ref_value(node.left, x)
        b = ref_value(node.right, x)
        if node.op == "+":
            return a + b
        if node.op == "-":
            return a - b
        if node.op == "*":
            return a * b
        if b == 0.0:
            raise DomainError("division by zero", node)
        return a / b
    if isinstance(node, Pow):
        base = ref_value(node.base, x)
        if node.exponent < 0 and base == 0.0:
            raise DomainError("zero base with negative exponent", node)
        return _pow(base, node.exponent, node)
    if isinstance(node, Call):
        v = ref_value(node.arg, x)
        if node.func == "ln":
            if v <= 0.0:
                raise DomainError("ln of a nonpositive value", node)
            return math.log(v)
        if node.func == "abs":
            return abs(v)
        return _math(node.func, v, node)
    if isinstance(node, Piecewise):
        return ref_value(_ref_branch(node, x), x)
    raise TypeError(node)


def _ref_branch(node, x):
    for cond, value in node.branches:
        a, b = ref_value(cond.lhs, x), ref_value(cond.rhs, x)
        if {"<": a < b, "<=": a <= b, ">": a > b, ">=": a >= b}[cond.op]:
            return value
    return node.default


def ref_dual(node, x, seed):
    """(value, d/dx_seed) at one point with dual-number arithmetic."""
    if isinstance(node, Const):
        return node.value, 0.0
    if isinstance(node, Var):
        return float(x[node.index]), 1.0 if node.index == seed else 0.0
    if isinstance(node, Neg):
        v, d = ref_dual(node.arg, x, seed)
        return -v, -d
    if isinstance(node, BinOp):
        a, da = ref_dual(node.left, x, seed)
        b, db = ref_dual(node.right, x, seed)
        if node.op == "+":
            return a + b, da + db
        if node.op == "-":
            return a - b, da - db
        if node.op == "*":
            return a * b, da * b + a * db
        if b == 0.0:
            raise DomainError("division by zero", node)
        return a / b, (da * b - a * db) / (b * b)
    if isinstance(node, Pow):
        v, dv = ref_dual(node.base, x, seed)
        k = node.exponent
        if k == 0:
            return 1.0, 0.0
        if k < 0 and v == 0.0:
            raise DomainError("zero base with negative exponent", node)
        return _pow(v, k, node), k * _pow(v, k - 1, node) * dv
    if isinstance(node, Call):
        v, dv = ref_dual(node.arg, x, seed)
        if node.func == "exp":
            e = _math("exp", v, node)
            return e, e * dv
        if node.func == "ln":
            if v <= 0.0:
                raise DomainError("ln of a nonpositive value", node)
            return math.log(v), dv / v
        if node.func == "sin":
            return _math("sin", v, node), _math("cos", v, node) * dv
        if node.func == "cos":
            return _math("cos", v, node), -_math("sin", v, node) * dv
        sign = 0.0 if v == 0.0 else math.copysign(1.0, v)
        return abs(v), sign * dv
    if isinstance(node, Piecewise):
        return ref_dual(_ref_branch(node, x), x, seed)
    raise TypeError(node)


def ref_forward(exprs, points, gradient):
    """The scalar loop: per point, per expression, the value walk, then one
    dual walk per variable; raises what the first failing walk raises."""
    values = np.empty((len(points), len(exprs)))
    jacobian = np.empty((len(points), len(exprs), points.shape[1] if gradient else 0))
    for p, x in enumerate(points):
        for i, expr in enumerate(exprs):
            values[p, i] = ref_value(expr, x)
            for seed in range(jacobian.shape[2]):
                _, jacobian[p, i, seed] = ref_dual(expr, x, seed)
    return values, jacobian


def outcome(fn, *args):
    """(values, jacobian) bytes, or the exception type, message and node."""
    try:
        values, jacobian = fn(*args)
    except DomainError as exc:
        return type(exc), str(exc), id(exc.node)
    return values.tobytes(), jacobian.tobytes(), jacobian.shape


_LATTICE = [-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0]
_CONSTANTS = [0.0, 0.5, 1.0, 2.0, -1.5, 3.0]


@st.composite
def trees(draw, dims):
    """Random ASTs over `dims` variables that use every node kind."""
    leaves = st.one_of(
        st.sampled_from([Var(i, f"x{i}") for i in range(dims)]),
        st.sampled_from(_CONSTANTS).map(Const),
    )

    def extend(children):
        conditions = st.builds(Condition, children, st.sampled_from(RELATIONS), children)
        return st.one_of(
            st.builds(Neg, children),
            st.builds(BinOp, st.sampled_from("+-*/"), children, children),
            st.builds(Pow, children, st.integers(-3, 4)),
            st.builds(Call, st.sampled_from(FUNCTIONS), children),
            st.builds(
                Piecewise,
                st.lists(st.tuples(conditions, children), max_size=2).map(tuple),
                children,
            ),
        )

    return draw(st.recursive(leaves, extend, max_leaves=16))


@st.composite
def batches(draw):
    """Expressions and an (N, s) point array, N in {1, 64}: lattice nodes hit
    poles, zero bases and seams; uniform draws fill in between."""
    dims = draw(st.integers(1, 3))
    exprs = draw(st.lists(trees(dims), min_size=1, max_size=2))
    count = draw(st.sampled_from([1, 64]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    points = rng.choice(_LATTICE, size=(count, dims))
    uniform = rng.random(count) < 0.5
    points[uniform] = rng.uniform(-2.5, 2.5, size=(int(uniform.sum()), dims))
    return exprs, points


X1 = parse("piecewise(x > 0: ln(x); 0)", X)
X2 = parse("piecewise(x > 0: 1; ln(x) > 0: 2; 3)", X)
# ln(x) only where x > 0: the other points never see it
@example(([X1], np.array([[-1.0], [0.0], [2.0]])), True)
# ln(x) > 0 is not reached where x > 0 holds, so x = 1 evaluates; x = -1 fails
@example(([X2], np.array([[1.0]])), True)
@example(([X2], np.array([[1.0], [0.5], [-1.0], [0.0]])), False)
# overflow: of the value, and of the slope v^(k-1) alone
@example(([parse("x^200", X)], np.array([[1.0], [100.0]])), True)
@example(([parse("x^-2", X)], np.array([[1e-154]])), True)
@settings(max_examples=150, deadline=None)
@given(batches(), st.booleans())
def test_forward_matches_scalar_walkers(batch, gradient):
    """Values, gradients and DomainErrors of the batched pass are those of
    the scalar walkers, bit for bit, with and without exp, ln, sin, cos."""
    exprs, points = batch
    assert outcome(forward, exprs, points, gradient) == outcome(
        ref_forward, exprs, points, gradient
    )
    # and the values and gradients at the points where every walk succeeds
    valid = [
        p for p in range(len(points))
        if isinstance(outcome(ref_forward, exprs, points[p : p + 1], gradient)[0], bytes)
    ]
    assert outcome(forward, exprs, points[valid], gradient) == outcome(
        ref_forward, exprs, points[valid], gradient
    )


HAND_CASES = [
    "x / y",
    "(x * y - 1) / (x + 2.5) - y / x^2",
    "x^-3 * y + (x - y)^4 / 3",
    "-(x^2) * -y + abs(x * y - 1)",
    "ln(abs(x) + 1) / exp(y) + ln(x)",
    "sin(x) * cos(y) / (1 + x^2) - cos(x * y)",
    "exp(x * y) * sin(x / y)",
    "piecewise(x > y: x / y; abs(x) <= 1: ln(x + 2) * y; -x^3)",
    "piecewise(sin(x) < 0.5: piecewise(y >= 0: y^2; -y); 1 / (x - 2))",
    # bases whose tangents are not 0 or 1, so every rounding step shows
    "(x * y - 0.3)^3 + (x / 3 + y)^-3 - abs(x * y - 0.5)",
    "ln(x * y + 7) + exp(x * y / 3) + sin(x * y) + cos(x / 3 - y)",
]


@pytest.mark.parametrize("text", HAND_CASES)
@pytest.mark.parametrize("gradient", [True, False])
def test_forward_matches_scalar_walkers_on_hand_cases(text, gradient):
    expr = parse(text, XY)
    rng = np.random.default_rng(7)
    points = np.vstack([rng.uniform(-2.5, 2.5, (64, 2)), rng.choice(_LATTICE, (16, 2))])
    valid = [
        p for p in range(len(points))
        if isinstance(outcome(ref_forward, [expr], points[p : p + 1], gradient)[0], bytes)
    ]
    assert len(valid) > 32
    for rows in (valid, slice(None)):
        assert outcome(forward, [expr], points[rows], gradient) == outcome(
            ref_forward, [expr], points[rows], gradient
        )


def test_forward_names_the_lowest_failing_point():
    x_inv = parse("1 / (x - 1)", X)
    ln_x = parse("ln(x)", X)
    points = np.array([[2.0], [1.0], [-1.0]])
    with pytest.raises(DomainError) as exc:
        forward((x_inv, ln_x), points)
    assert exc.value.node is x_inv  # point 1 fails in the first expression
    with pytest.raises(DomainError) as exc:
        forward((ln_x, x_inv), points)
    assert exc.value.node is x_inv  # ln(1) is fine; 1/(x-1) fails at point 1


def test_power_overflow_is_a_domain_error():
    with pytest.raises(DomainError, match="power overflow"):
        ev("x^200", 100.0)
    assert ev("x^200", 1.0) == 1.0
    with pytest.raises(DomainError, match="sin of an infinite value"):
        ev("sin(x^3 * x^3 * x^3 * x^3 * x^3 * x^3)", 1e60)
