"""The Motzkin decider, with and without weak rows (Gordan's theorem): hand
oracles, exactly-one branch, witness replay."""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from invexcheck.alternative import (
    AlternativeBranch,
    motzkin,
    validate_motzkin,
)
from invexcheck.simplex import DEFAULT_TOL, DimensionMismatchError
from lpgen import planted_motzkin, random_matrix
from reference_simplex import reference_run


def test_gordan_strictly_solvable():
    out = motzkin(np.array([[1.0]]))
    assert out.branch is AlternativeBranch.PRIMAL
    assert out.primal_witness is not None
    assert float(np.array([1.0]) @ out.primal_witness) < 0
    assert out.strict_margin == pytest.approx(1.0)
    assert out.dual_witness_y is None


def test_gordan_dual_pair():
    # rows 1 and -1: no x with both x < 0 and -x < 0
    out = motzkin(np.array([[1.0], [-1.0]]))
    assert out.branch is AlternativeBranch.DUAL
    assert out.dual_witness_y == pytest.approx([0.5, 0.5])
    assert out.dual_witness_z.size == 0
    assert out.primal_witness is None


def test_gordan_zero_row_forces_dual():
    # a zero row can never be strictly negative
    A = np.array([[0.0, 1.0], [0.0, 0.0], [0.0, 0.0]])
    out = motzkin(A)
    assert out.branch is AlternativeBranch.DUAL
    y = out.dual_witness_y
    assert y is not None
    assert y.sum() == pytest.approx(1.0)
    assert np.max(np.abs(A.T @ y)) <= 1e-9


def test_motzkin_weak_rows_can_allow_or_block():
    out = motzkin(np.array([[1.0]]), np.array([[1.0]]))
    assert out.branch is AlternativeBranch.PRIMAL

    out = motzkin(np.array([[1.0]]), np.array([[-1.0]]))
    assert out.branch is AlternativeBranch.DUAL
    assert out.dual_witness_y == pytest.approx([1.0])
    assert out.dual_witness_z == pytest.approx([1.0])

    out = motzkin(np.array([[-1.0]]), np.array([[1.0]]))
    assert out.branch is AlternativeBranch.DUAL
    assert out.dual_witness_y == pytest.approx([1.0])
    assert out.dual_witness_z == pytest.approx([1.0])


def test_motzkin_without_weak_block_degrades_to_gordan():
    # no B and an empty B pose the same Gordan system, with equal outcomes
    A = np.array([[2.0, -1.0], [0.0, 3.0]])
    g = motzkin(A)
    for m in (motzkin(A, None), motzkin(A, np.zeros((0, 2)))):
        assert g.branch is m.branch
        assert g.strict_margin == m.strict_margin
        assert np.array_equal(g.primal_witness, m.primal_witness)


def test_scale_invariance_of_branch():
    rng = np.random.default_rng(55)
    for _ in range(50):
        A = random_matrix(rng)
        assert motzkin(A).branch is motzkin(3.7 * A).branch


def test_random_instances_take_exactly_one_branch_and_replay():
    rng = np.random.default_rng(2718)
    primal = dual = 0
    for i in range(400):
        A = random_matrix(rng)
        if i % 2 == 0:
            out = motzkin(A)
            assert validate_motzkin(A, None, out) == []
            one_sided = (out.primal_witness is None) != (out.dual_witness_y is None)
            assert one_sided
        else:
            B = rng.uniform(-5, 5, size=(int(rng.integers(1, 5)), A.shape[1]))
            out = motzkin(A, B)
            assert validate_motzkin(A, B, out) == []
        if out.branch is AlternativeBranch.PRIMAL:
            primal += 1
        else:
            dual += 1
    assert primal > 0 and dual > 0


def test_validator_rejects_corrupted_witness():
    A = np.array([[1.0]])
    out = motzkin(A)
    assert out.branch is AlternativeBranch.PRIMAL
    out.primal_witness[0] = 1.0  # now A x > 0
    assert validate_motzkin(A, None, out) != []


def test_input_validation():
    with pytest.raises(DimensionMismatchError):
        motzkin(np.zeros((0, 2)))
    with pytest.raises(DimensionMismatchError):
        motzkin(np.array([1.0, 2.0]))  # 1-D
    with pytest.raises(DimensionMismatchError):
        motzkin(np.array([[1.0, 2.0]]), np.array([[1.0]]))  # column mismatch


@settings(max_examples=80, deadline=None)
@given(
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_gordan_replays_for_any_shape(m, n, seed):
    rng = np.random.default_rng(seed)
    A = rng.uniform(-5, 5, size=(m, n))
    out = motzkin(A)
    assert validate_motzkin(A, None, out) == []


@pytest.mark.parametrize("seed, strict, weak, cols", [(101, 80, 20, 40), (3, 120, 30, 50)])
def test_dense_degenerate_systems_decide(seed, strict, weak, cols):
    # both ran into the 10 000-pivot cap when Bland's rule broke the streaks
    rng = np.random.default_rng(seed)
    A = rng.uniform(-5, 5, (strict, cols))
    B = rng.uniform(-5, 5, (weak, cols))
    out = motzkin(A, B)
    assert out.branch is AlternativeBranch.DUAL
    assert validate_motzkin(A, B, out) == []


def test_decisions_match_reference_pivot_loop():
    # random and planted 8x4 systems: pickle-identical wherever the old loop
    # never reached its Bland switch; the same branch and a replayable
    # witness everywhere
    rng = np.random.default_rng(4242)
    reached = 0
    for i in range(600):
        if i % 3 == 0:
            A = random_matrix(rng)
            B = rng.uniform(-5, 5, size=(int(rng.integers(0, 4)), A.shape[1]))
            branch = None
        else:
            primal = i % 3 == 1
            A, B = planted_motzkin(rng, 8, 4, 4, primal)
            branch = AlternativeBranch.PRIMAL if primal else AlternativeBranch.DUAL
        want, hit = reference_run(lambda: motzkin(A, B), DEFAULT_TOL)
        got = motzkin(A, B)
        assert got.branch is want.branch
        assert branch is None or got.branch is branch
        assert validate_motzkin(A, B, got) == []
        if hit:
            reached += 1
        else:
            assert pickle.dumps(got) == pickle.dumps(want)
    assert 0 < reached < 300, reached
