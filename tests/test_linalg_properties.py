"""Property-based tests for the exact linear algebra kernels."""

from fractions import Fraction

import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from dihedral_torus.linalg import (
    Matrix,
    hnf,
    left_nullspace,
    subgroup_coefficients,
)

from test_linalg import brute_force_member

F = Fraction


@st.composite
def int_matrices(draw, max_dim=6, max_entry=9):
    rows = draw(st.integers(1, max_dim))
    cols = draw(st.integers(1, max_dim))
    return [
        [draw(st.integers(-max_entry, max_entry)) for _ in range(cols)]
        for _ in range(rows)
    ]


@st.composite
def rat_matrices(draw, max_dim=5):
    rows = draw(st.integers(1, max_dim))
    cols = draw(st.integers(1, max_dim))
    return Matrix(
        [
            [
                F(draw(st.integers(-6, 6)), draw(st.integers(1, 4)))
                for _ in range(cols)
            ]
            for _ in range(rows)
        ]
    )


@st.composite
def membership_instances(draw):
    dim = draw(st.integers(1, 3))
    n_gens = draw(st.integers(0, 3))
    rational = st.fractions(
        min_value=-2, max_value=2, max_denominator=4
    )
    gens = [
        [draw(rational) for _ in range(dim)] for _ in range(n_gens)
    ]
    if n_gens and draw(st.booleans()):
        coeffs = [draw(st.integers(-2, 2)) for _ in range(n_gens)]
        v = [
            sum(c * g[j] for c, g in zip(coeffs, gens))
            for j in range(dim)
        ]
    else:
        v = [draw(rational) for _ in range(dim)]
    return v, gens


@given(int_matrices())
@settings(deadline=None)
def test_hnf_decomposition_is_exact_and_canonical(a):
    dec = hnf(a)
    u = Matrix(dec.u)
    assert (u @ Matrix(a)).rows == tuple(
        tuple(F(e) for e in row) for row in dec.h
    )
    assert abs(sympy.Matrix(dec.u).det()) == 1
    # Echelon with positive pivots and above-pivot entries in [0, pivot).
    prev_col = -1
    for i in range(dec.rank):
        row = dec.h[i]
        col = next(j for j, e in enumerate(row) if e)
        assert col > prev_col
        prev_col = col
        assert row[col] > 0
        for above in range(i):
            assert 0 <= dec.h[above][col] < row[col]
    for i in range(dec.rank, len(dec.h)):
        assert all(e == 0 for e in dec.h[i])
    assert dec.rank == sympy.Matrix(a).rank()


@given(int_matrices(max_dim=4, max_entry=5))
@settings(deadline=None)
def test_hnf_preserves_integer_row_span(a):
    dec = hnf(a)
    nonzero_h = [list(row) for row in dec.h[: dec.rank]]
    for row in a:
        coeffs = subgroup_coefficients(row, nonzero_h) if nonzero_h else None
        if nonzero_h:
            assert coeffs is not None
        else:
            assert all(e == 0 for e in row)


@given(rat_matrices())
@settings(deadline=None)
def test_left_nullspace_annihilates_and_complements_rank(m):
    basis = left_nullspace(m)
    assert len(basis) == m.n_rows - sympy.Matrix(m.rows).rank()
    for row in basis:
        image = [
            sum(row[i] * m.rows[i][j] for i in range(m.n_rows))
            for j in range(m.n_cols)
        ]
        assert all(e == 0 for e in image)


@given(membership_instances())
@settings(deadline=None)
def test_membership_agrees_with_enumeration(instance):
    v, gens = instance
    coeffs = subgroup_coefficients(v, gens)
    if coeffs is None:
        # A claimed non-member must defeat the exhaustive small search.
        assert not brute_force_member(v, gens, bound=4)
    else:
        # A claimed member comes with an exact witness.
        rebuilt = [
            sum(c * F(g[j]) for c, g in zip(coeffs, gens))
            for j in range(len(v))
        ]
        assert rebuilt == [F(e) for e in v]


@given(membership_instances(), membership_instances())
@settings(deadline=None)
def test_membership_is_deterministic(a, b):
    va, gens_a = a
    assert subgroup_coefficients(va, gens_a) == subgroup_coefficients(
        va, gens_a
    )
