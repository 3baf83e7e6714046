"""Cross-check of the signed-permutation core against a dense reference.

The reference below works on dense `Matrix` values only: products by
`Matrix.__matmul__`, orders by repeated products, and fixed points by
projecting onto `left_nullspace(M − I)` and deciding `subgroup_membership`.
It is the general-matrix method and uses none of the cycle structure the
core's closed forms rely on.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dihedral_torus.analysis import exists_fixed_point, order
from dihedral_torus.linalg import Matrix, left_nullspace, subgroup_membership
from dihedral_torus.torus import (
    AffineAuto,
    EnlargedLattice,
    TorusShape,
    _power,
    compose,
    inverse,
    realify,
)

from conftest import EMPTY, kept
from test_torus import lattices, monomial_maps

SHAPE = TorusShape(1)
M = SHAPE.real_dim


def _matvec(a, v):
    return tuple(sum(x * y for x, y in zip(row, v)) for row in a.rows)


def dense_compose(g, h):
    """(M_g·M_h, M_g·t_h + t_g mod L) from dense products."""
    moved = _matvec(g.linear, h.translation.coords)
    t = tuple(a + b for a, b in zip(moved, g.translation.coords))
    return g.linear @ h.linear, g.lattice.reduce(t)


def dense_inverse(g):
    """Signed permutations are orthogonal: (M^T, −M^T·t mod L)."""
    inv = g.linear.transpose()
    t = tuple(-e for e in _matvec(inv, g.translation.coords))
    return inv, g.lattice.reduce(t)


def dense_order(g, cap=512):
    identity = Matrix.identity(M)
    linear, t = g.linear, g.translation
    for k in range(1, cap + 1):
        if linear == identity and t.is_zero:
            return k
        moved = _matvec(g.linear, t.coords)
        linear = g.linear @ linear
        t = g.lattice.reduce(tuple(a + b for a, b in zip(moved, g.translation)))
    raise AssertionError("dense order exceeds the cap")


def dense_fixed_point(g):
    shifted = Matrix(
        [
            [e - (1 if i == j else 0) for j, e in enumerate(row)]
            for i, row in enumerate(g.linear.rows)
        ]
    )
    kernel = left_nullspace(shifted)
    if not kernel:
        return True

    def project(v):
        return tuple(sum(a * b for a, b in zip(row, v)) for row in kernel)

    gens = [project(b) for b in g.lattice.canonical_basis]
    return subgroup_membership(project(g.translation.coords), gens)


@st.composite
def invariant_cases(draw):
    """Maps of the n=1 product and a lattice every one of them preserves.

    The lattice is Z^m plus the orbits of random extras under the group
    the maps' linear parts generate, so it is invariant by construction.
    """
    cmaps = [draw(monomial_maps()), draw(monomial_maps())]
    seeds = draw(lattices(m=M)).extra_generators
    linears = [realify(c, SHAPE).linear for c in cmaps]
    orbit, frontier = set(seeds), list(seeds)
    while frontier:
        v = frontier.pop()
        for a in linears:
            image = _matvec(a, v)
            if image not in orbit:
                orbit.add(image)
                frontier.append(image)
    lattice = EnlargedLattice.from_extra_generators(M, sorted(orbit))
    return [realify(c, SHAPE, lattice) for c in cmaps]


@given(invariant_cases())
@settings(deadline=None, max_examples=60)
def test_compose_and_inverse_match_dense_products(case):
    g, h = case
    gh = compose(g, h)
    assert (gh.linear, gh.translation) == dense_compose(g, h)
    g_inv = inverse(g)
    assert (g_inv.linear, g_inv.translation) == dense_inverse(g)
    assert compose(g, g_inv).is_identity


@given(invariant_cases())
@settings(deadline=None, max_examples=60)
def test_order_and_fixed_points_match_dense_decisions(case):
    for g in (case[0], compose(*case)):
        assert order(g) == dense_order(g)
        assert exists_fixed_point(g) == dense_fixed_point(g)


# L = Z^6 + Z·e_2/2 + Z·e_3/2 is kept by the swap of coordinates 2 and 3,
# whose closed cycle has kernel vector e_2 + e_3.  Both extras project
# onto it as 1/2, so t, reduced into [0, 1/2) there, is decided by the
# fixed-point decision's coupled case: t_2 + t_3 ∈ Z + Z·(1/2), both ways.
HALVES = EnlargedLattice.from_extra_generators(
    M, [(0, 0, Fraction(1, 2), 0, 0, 0), (0, 0, 0, Fraction(1, 2), 0, 0)]
)


@pytest.mark.parametrize("t3, fixed", [(Fraction(1, 4), True), (0, False)])
def test_coupled_fixed_point_matches_the_dense_decision(t3, fixed):
    t = (0, 0, Fraction(1, 4), t3, 0, 0)
    g = AffineAuto((0, 1, 3, 2, 4, 5), (1,) * M, t, HALVES)
    assert exists_fixed_point(g) == dense_fixed_point(g) == fixed


# L = Z^6 + Z·(1/6, 1/6, 0, 0, 0, 0) has denominator d = 6.  g^k is the
# translation by T = (1/12, y, 0, ...), whose denominator modulo L is 12,
# so base = 12/gcd(12, 6) = 2; 2T = (1/6, 2y) lies in L after e steps.
SIXTHS = EnlargedLattice.from_extra_generators(
    M, [(Fraction(1, 6), Fraction(1, 6), 0, 0, 0, 0)]
)


@pytest.mark.parametrize(
    "e, y",
    [(1, Fraction(1, 12)), (2, Fraction(1, 3)), (3, Fraction(1, 4)), (6, 0)],
)
@pytest.mark.parametrize("perm, k", [((0, 1, 2, 3, 4, 5), 1), ((0, 1, 3, 2, 4, 5), 2)])
def test_order_is_base_times_least_passing_divisor(e, y, perm, k):
    shift = (Fraction(1, 12 * k), Fraction(y) / k, 0, 0, 0, 0)
    g = AffineAuto(perm, (1,) * M, shift, SIXTHS)
    assert order(g) == k * 2 * e == dense_order(g)


def _fresh(g):
    return AffineAuto(g.perm, g.signs, g.translation, g.lattice)


def _filled(g):
    """g walked and decided, with g^2 kept unless g^2 is g."""
    order(g), exists_fixed_point(g), _power(g, 2)
    return g


@given(invariant_cases(), st.integers(-(10**30), 10**30))
@settings(deadline=None, max_examples=60)
def test_powers_are_kept_under_the_exponent_mod_the_order(case, k):
    g = compose(*case)
    n = order(g)
    for e in range(-3 * n, 3 * n + 1):
        assert _power(g, e) is _power(g, e + k * n)
        assert len(g._powers or {}) <= n  # the identity keeps no power
    assert _power(g, 1) is g and _power(g, n + 1) is g


@given(invariant_cases())
@settings(deadline=None, max_examples=60)
def test_kept_powers_match_compositions_and_a_fresh_copy(case):
    g = case[0]
    product, g_inv = AffineAuto.identity(g.lattice), inverse(g)
    inverse_product = product
    for e in range(2 * order(g) + 2):
        assert _power(g, e) == product == _power(_fresh(g), e)
        assert _power(g, -e) == inverse_product == _power(_fresh(g), -e)
        product, inverse_product = compose(product, g), compose(inverse_product, g_inv)


@given(invariant_cases())
@settings(deadline=None, max_examples=60)
def test_kept_facts_change_no_verdict_and_no_value(case):
    for g in (case[0], compose(*case)):
        filled, fresh = _filled(_fresh(g)), _fresh(g)
        assert None not in (filled._cycles, filled._order, filled._fixed)
        assert kept(fresh) == EMPTY
        assert filled == fresh and hash(filled) == hash(fresh)
        assert (order(filled), exists_fixed_point(filled)) == (
            order(fresh), exists_fixed_point(fresh)
        )


@given(invariant_cases())
@settings(deadline=None, max_examples=60)
def test_derived_maps_start_with_empty_slots(case):
    g, h = (_filled(x) for x in case)
    # Every signed permutation keeps Z^m and Z^m + Z·(1/2, ..., 1/2).
    standard = EnlargedLattice.standard(M)
    halved = EnlargedLattice.from_extra_generators(M, [[Fraction(1, 2)] * M])
    other = standard if g.lattice != standard else halved
    for derived in (compose(g, h), inverse(g), g.linear_part(), g.with_lattice(other)):
        assert derived is not g and kept(derived) == EMPTY
