"""Hypothesis strategies for small random problems, shared by the test modules."""

from hypothesis import strategies as st

from invexcheck.problems import Problem

_COEFFICIENTS = st.sampled_from([-2.0, -1.5, -1.0, -0.5, 0.5, 1.0, 1.5, 2.0])


@st.composite
def small_polynomial_problems(draw):
    variables = ("x", "y")[: draw(st.integers(1, 2))]
    exponents = st.tuples(*[st.integers(0, 3) for _ in variables])

    def polynomial():
        terms = draw(
            st.lists(st.tuples(_COEFFICIENTS, exponents), min_size=1, max_size=3)
        )
        parts = []
        for coeff, powers in terms:
            factors = [f"({coeff!r})"] + [
                f"{v}^{k}" for v, k in zip(variables, powers) if k
            ]
            parts.append(" * ".join(factors))
        return " + ".join(parts)

    return Problem(
        name="random-polynomial",
        variables=variables,
        objectives=(polynomial(), polynomial()),
        constraints=tuple(polynomial() for _ in range(draw(st.integers(0, 1)))),
        box=((-1.0, 1.0),) * len(variables),
    )
