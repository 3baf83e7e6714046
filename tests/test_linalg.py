"""Example-based tests for the exact linear algebra kernels."""

from fractions import Fraction
from itertools import product

import pytest
import sympy

from dihedral_torus.linalg import (
    Matrix,
    det,
    hnf,
    left_nullspace,
    subgroup_coefficients,
    subgroup_membership,
    vector,
)

F = Fraction


def brute_force_member(v, gens, bound):
    """Exhaustive search over integer combinations with |c_i| <= bound."""
    v = tuple(F(e) for e in v)
    if not gens:
        return all(e == 0 for e in v)
    for coeffs in product(range(-bound, bound + 1), repeat=len(gens)):
        combo = [
            sum(c * F(g[j]) for c, g in zip(coeffs, gens))
            for j in range(len(v))
        ]
        if tuple(combo) == v:
            return True
    return False


class TestHnf:
    def test_identity(self):
        dec = hnf([[1, 0], [0, 1]])
        assert dec.h == ((1, 0), (0, 1))
        assert dec.rank == 2

    def test_known_2x2(self):
        a = [[2, 4], [1, 1]]
        dec = hnf(a)
        assert dec.h == ((1, 1), (0, 2))
        assert dec.rank == 2
        # Independent witness: some small unimodular U' must map A to this H.
        found = False
        for entries in product(range(-3, 4), repeat=4):
            u = [[entries[0], entries[1]], [entries[2], entries[3]]]
            if abs(u[0][0] * u[1][1] - u[0][1] * u[1][0]) != 1:
                continue
            prod_rows = tuple(
                tuple(sum(u[i][k] * a[k][j] for k in range(2)) for j in range(2))
                for i in range(2)
            )
            if prod_rows == dec.h:
                found = True
                break
        assert found
        # Both H rows lie in the integer row span of A.
        for row in dec.h:
            assert brute_force_member(row, a, bound=4)

    def test_zero_matrix(self):
        dec = hnf([[0, 0], [0, 0]])
        assert dec.rank == 0
        assert dec.h == ((0, 0), (0, 0))

    def test_transform_is_exact(self):
        a = [[6, 10, 15], [10, 15, 6], [15, 6, 10]]
        dec = hnf(a)
        u = Matrix(dec.u)
        assert (u @ Matrix(a)).rows == tuple(
            tuple(F(e) for e in row) for row in dec.h
        )
        assert abs(det(u)) == 1

    def test_rank_deficient(self):
        dec = hnf([[2, 4], [4, 8], [1, 2]])
        assert dec.rank == 1
        assert dec.h[1] == (0, 0) and dec.h[2] == (0, 0)

    def test_rejects_non_integer(self):
        with pytest.raises(ValueError):
            hnf([[F(1, 2), 0], [0, 1]])


class TestLeftNullspace:
    def test_full_rank_empty(self):
        assert left_nullspace(Matrix.identity(2)) == ()

    def test_symmetric_rank_one(self):
        basis = left_nullspace(Matrix([[1, 1], [1, 1]]))
        assert len(basis) == 1
        (row,) = basis
        # Spans {(a, -a)}: the two entries are opposite and nonzero.
        assert row[0] == -row[1] != 0

    def test_reflection_difference_matrix(self):
        # M - I for the n=1 reflection: block antidiagonal -I2 pairs plus
        # the negated last block.
        m = Matrix(
            [
                [-1, 0, -1, 0, 0, 0],
                [0, -1, 0, -1, 0, 0],
                [-1, 0, -1, 0, 0, 0],
                [0, -1, 0, -1, 0, 0],
                [0, 0, 0, 0, -2, 0],
                [0, 0, 0, 0, 0, -2],
            ]
        )
        basis = left_nullspace(m)
        for row in basis:
            image = [
                sum(row[i] * m.rows[i][j] for i in range(6)) for j in range(6)
            ]
            assert all(e == 0 for e in image)
        sym_rank = sympy.Matrix(
            [[int(e) for e in row] for row in m.rows]
        ).rank()
        assert len(basis) + sym_rank == m.n_rows


class TestSubgroupMembership:
    GENS = [[1, 0], [0, 1], [F(1, 2), F(1, 2)]]

    def test_generator_is_member(self):
        assert subgroup_membership([F(1, 2), F(1, 2)], self.GENS)

    def test_half_unit_is_not(self):
        assert not subgroup_membership([F(1, 2), 0], self.GENS)
        assert not brute_force_member([F(1, 2), 0], self.GENS, bound=4)

    def test_zero_with_no_generators(self):
        assert subgroup_membership([0, 0], [])
        assert not subgroup_membership([1, 0], [])

    def test_empty_vectors(self):
        assert subgroup_membership([], [])

    def test_coefficients_are_witnesses(self):
        gens = [[2, 1, 0], [0, 3, 1], [F(1, 3), 0, F(1, 6)]]
        v = [F(8, 3), F(-2), F(-2, 3)]  # 1*g0 - 1*g1 + 2*g2
        coeffs = subgroup_coefficients(v, gens)
        assert coeffs is not None
        rebuilt = [
            sum(c * F(g[j]) for c, g in zip(coeffs, gens)) for j in range(3)
        ]
        assert rebuilt == [F(e) for e in v]

    def test_non_member_returns_none(self):
        assert subgroup_coefficients([F(1, 2), 0], self.GENS) is None

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            subgroup_membership([1, 0], [[1, 0, 0]])


class TestMatrixBasics:
    def test_det_matches_sympy(self):
        rows = [[3, 1, 4], [1, 5, 9], [2, 6, 5]]
        assert det(Matrix(rows)) == sympy.Matrix(rows).det()

    def test_det_singular(self):
        assert det(Matrix([[1, 2], [2, 4]])) == 0

    def test_empty_matrix_rejected(self):
        with pytest.raises(ValueError):
            Matrix([])

    def test_ragged_matrix_rejected(self):
        with pytest.raises(ValueError):
            Matrix([[1, 2], [3]])


def test_vector_keeps_existing_fractions():
    half = F(1, 2)
    entries = vector([half, 3, F(6, 4)])
    assert entries == (F(1, 2), F(3), F(3, 2))
    assert all(type(e) is Fraction for e in entries)
    # A Fraction entry is reused, not copied: shared cached points
    # then hold one object per distinct value.
    assert entries[0] is half
