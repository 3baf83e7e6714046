"""Tests for the torus model: lattices, monomial maps, realification."""

from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dihedral_torus import torus
from dihedral_torus.dihedral import (
    ambient_lattice,
    build_r,
    build_s,
    build_w,
    quotient_lattice,
)
from dihedral_torus.linalg import Matrix, det, hnf
from dihedral_torus.torus import (
    AffineAuto,
    ComplexMonomialMap,
    EnlargedLattice,
    TorsionPoint,
    TorusShape,
    compose,
    equal_mod_lattice,
    inverse,
    realify,
)
from dihedral_torus.words import _power

F = Fraction
H = F(1, 2)


class TestTorusShape:
    def test_dimensions(self):
        shape = TorusShape(3)
        assert shape.complex_dim == 7
        assert shape.real_dim == 14
        assert shape.eprime_index == 6
        assert shape.is_eprime(6)
        assert not shape.is_eprime(0)

    def test_rejects_nonpositive_n(self):
        with pytest.raises(ValueError):
            TorusShape(0)


class TestTorsionPoint:
    def test_arithmetic(self):
        p = TorsionPoint.of((H, F(0)))
        q = TorsionPoint.of((F(1, 4), F(1)))
        assert (p + q).coords == (F(3, 4), F(1))
        assert (p - q).coords == (F(1, 4), F(-1))
        assert (-p).coords == (-H, F(0))
        assert TorsionPoint.zero(3).is_zero
        assert not p.is_zero
        assert list(p) == [H, F(0)]
        assert p[0] == H


class TestEnlargedLattice:
    def test_standard_reduce(self):
        std = EnlargedLattice.standard(6)
        p = (F(3, 2), F(0), F(0), F(0), F(0), F(0))
        assert std.reduce(p).coords == (H, F(0), F(0), F(0), F(0), F(0))
        assert std.index == 1

    def test_standard_takes_no_reduction(self, monkeypatch):
        # Z^m is its own HNF: a cold build, past the shared cache, reduces
        # nothing and equals Z^m generated with a zero extra.
        m = 7
        reductions = []

        def counting_hnf(rows):
            reductions.append(rows)
            return hnf(rows)

        monkeypatch.setattr(torus, "hnf", counting_hnf)
        std = EnlargedLattice.standard.__wrapped__(EnlargedLattice, m)
        assert reductions == []
        padded = EnlargedLattice.from_extra_generators(m, [[0] * m])
        assert len(reductions) == 1
        assert std == padded and hash(std) == hash(padded)
        assert std.canonical_basis == padded.canonical_basis
        assert (std.index, std.extra_generators) == (1, ())

    def test_quotient_lattice_canonical_form(self):
        lat = quotient_lattice(1)
        assert lat.index == 2
        assert lat.canonical_basis == (
            (H, F(0), H, F(0), F(0), F(0)),
            (F(0), F(1), F(0), F(0), F(0), F(0)),
            (F(0), F(0), F(1), F(0), F(0), F(0)),
            (F(0), F(0), F(0), F(1), F(0), F(0)),
            (F(0), F(0), F(0), F(0), F(1), F(0)),
            (F(0), F(0), F(0), F(0), F(0), F(1)),
        )

    def test_quotient_contains_half_period_shift(self):
        lat = quotient_lattice(1)
        w = build_w(1)
        assert lat.contains(w)
        assert lat.reduce(w).is_zero
        half_in_one_factor = (H, F(0), F(0), F(0), F(0), F(0))
        assert not lat.contains(half_in_one_factor)

    def test_quotient_index_is_two_for_small_n(self):
        for n in range(1, 7):
            assert quotient_lattice(n).index == 2

    def test_generators_include_standard_basis(self):
        lat = quotient_lattice(1)
        gens = lat.generators
        assert len(gens) == 7
        assert gens[0] == (F(1),) + (F(0),) * 5
        assert gens[-1] == build_w(1).coords

    def test_structural_equality_ignores_generating_set(self):
        # Same lattice described by different extras compares equal.
        a = EnlargedLattice.from_extra_generators(2, [(H, F(0))])
        b = EnlargedLattice.from_extra_generators(2, [(H, F(1)), (H, F(0))])
        assert a == b
        assert a != EnlargedLattice.standard(2)
        # Equality and hashing are over the canonical integer HNF data.
        w = build_w(1)
        e0 = TorsionPoint.of((1, 0, 0, 0, 0, 0))
        quotient = quotient_lattice(1)
        for extras in (
            [w.coords],
            [(-w).coords],
            [w.coords, (w + w).coords],
            [w.coords, (w + e0).coords],
        ):
            lat = EnlargedLattice.from_extra_generators(6, extras)
            assert lat == quotient
            assert hash(lat) == hash(quotient)
            assert lat.canonical_basis == quotient.canonical_basis
        half = (H,) + (F(0),) * 5
        quarter = tuple(x / 2 for x in w.coords)
        others = [
            EnlargedLattice.standard(6),
            EnlargedLattice.from_extra_generators(6, [half]),
            EnlargedLattice.from_extra_generators(6, [w.coords, half]),
            EnlargedLattice.from_extra_generators(6, [quarter]),
            quotient_lattice(2),
        ]
        assert all(other != quotient for other in others)
        assert len(set(others)) == len(others)

    def test_validation(self):
        with pytest.raises(ValueError):
            EnlargedLattice.from_extra_generators(0)
        with pytest.raises(ValueError):
            EnlargedLattice.from_extra_generators(2, [(H,)])
        with pytest.raises(ValueError):
            EnlargedLattice.standard(2).reduce((F(0),))


def monomial_identity(c):
    return ComplexMonomialMap(tuple(range(c)), (1,) * c, TorsionPoint.zero(2 * c))


class TestMonomialMaps:
    def test_compose_applies_right_map_first(self):
        # f: z0 ↦ z1, z1 ↦ z0;  g: z0 ↦ −z0 + t, on E × E × E′.
        shape = TorusShape(1)
        f = ComplexMonomialMap((1, 0, 2), (1, 1, 1), TorsionPoint.zero(6))
        t = TorsionPoint.of((H, F(0), F(0), F(0), F(0), F(0)))
        g = ComplexMonomialMap((0, 1, 2), (-1, 1, 1), t)
        fg = compose(realify(f, shape), realify(g, shape))
        # (f∘g)(z0, z1, z2) = f(−z0 + t, z1, z2) = (z1, −z0 + t, z2).
        expected = ComplexMonomialMap(
            (1, 0, 2), (1, -1, 1), TorsionPoint.of((0, 0, H, 0, 0, 0))
        )
        assert fg == realify(expected, shape)

    def test_power_matches_repeated_compose(self):
        r = realify(build_r(2), TorusShape(2))
        acc = AffineAuto.identity(r.lattice)
        for e in range(9):
            assert _power(r, e) == acc
            assert _power(r, -e) == inverse(acc)
            acc = compose(acc, r)

    def test_validation(self):
        with pytest.raises(ValueError):
            ComplexMonomialMap((0, 0), (1, 1), TorsionPoint.zero(4))
        with pytest.raises(ValueError):
            ComplexMonomialMap((0, 1), (2, 1), TorsionPoint.zero(4))
        with pytest.raises(ValueError):
            ComplexMonomialMap((0, 1), (1, 1), TorsionPoint.zero(2))


class TestRealify:
    def test_rotation_matrix_for_n_equals_one(self):
        g = realify(build_r(1), TorusShape(1))
        assert g.linear == Matrix(
            [
                [0, 0, -1, 0, 0, 0],
                [0, 0, 0, -1, 0, 0],
                [1, 0, 0, 0, 0, 0],
                [0, 1, 0, 0, 0, 0],
                [0, 0, 0, 0, 1, 0],
                [0, 0, 0, 0, 0, 1],
            ]
        )
        assert g.translation.coords == (
            F(0), F(0), F(0), F(0), F(1, 4), F(0),
        )

    def test_reflection_matrix_for_n_equals_one(self):
        g = realify(build_s(1), TorusShape(1))
        assert g.linear == Matrix(
            [
                [0, 0, -1, 0, 0, 0],
                [0, 0, 0, -1, 0, 0],
                [-1, 0, 0, 0, 0, 0],
                [0, -1, 0, 0, 0, 0],
                [0, 0, 0, 0, -1, 0],
                [0, 0, 0, 0, 0, -1],
            ]
        )
        assert g.translation.coords == (H, H, F(0), H, F(0), F(0))

    def test_identity_realifies_to_identity(self):
        shape = TorusShape(1)
        g = realify(monomial_identity(3), shape)
        assert g.is_identity

    def test_rejects_mixing_curve_types(self):
        shape = TorusShape(1)
        swap_into_eprime = ComplexMonomialMap(
            (2, 1, 0), (1, 1, 1), TorsionPoint.zero(6)
        )
        with pytest.raises(ValueError, match="E′|mixes"):
            realify(swap_into_eprime, shape)

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            realify(monomial_identity(2), TorusShape(1))


class TestAffineAuto:
    def test_constructor_validates_unimodularity(self):
        # A signed permutation is unimodular; a repeated source or a sign
        # other than ±1 is not.
        lat = EnlargedLattice.standard(2)
        with pytest.raises(ValueError, match="sign"):
            AffineAuto((0, 1), (2, 1), (F(0), F(0)), lat)
        with pytest.raises(ValueError, match="permutation"):
            AffineAuto((0, 0), (1, 1), (F(0), F(0)), lat)

    def test_constructor_validates_shape(self):
        lat = EnlargedLattice.standard(2)
        with pytest.raises(ValueError, match="length m"):
            AffineAuto((0, 1, 2), (1, 1, 1), (F(0), F(0)), lat)
        with pytest.raises(ValueError, match="length m"):
            AffineAuto((0, 1), (1,), (F(0), F(0)), lat)
        with pytest.raises(ValueError, match="length"):
            AffineAuto((0, 1), (1, 1), (F(0),) * 3, lat)

    def test_constructor_validates_lattice_preservation(self):
        # The swap sends the extra generator (1/2, 0) to (0, 1/2) ∉ L.
        lat = EnlargedLattice.from_extra_generators(2, [(H, F(0))])
        with pytest.raises(ValueError, match="preserve"):
            AffineAuto((1, 0), (1, 1), (F(0), F(0)), lat)
        negation = AffineAuto((0, 1), (-1, -1), (F(3, 2), F(1, 3)), lat)
        assert negation.translation.coords == (F(0), F(1, 3))
        assert negation.linear == Matrix([[-1, 0], [0, -1]])

    def test_constructor_matches_realify(self):
        for n in (1, 2):
            for cmap in (build_r(n), build_s(n)):
                g = realify(cmap, TorusShape(n), quotient_lattice(n))
                again = AffineAuto(g.perm, g.signs, cmap.translation, g.lattice)
                assert again == g
                assert (again.shift, again.denominator) == (g.shift, g.denominator)

    def test_translation_stored_in_reduced_form(self):
        lat = EnlargedLattice.standard(2)
        g = AffineAuto.translation_by((F(5, 2), F(-1, 3)), lat)
        assert g.translation.coords == (H, F(2, 3))

    def test_apply(self):
        r = realify(build_r(1), TorusShape(1))
        image = r.apply(TorsionPoint.zero(6))
        assert image.coords == (F(0), F(0), F(0), F(0), F(1, 4), F(0))
        moved = r.apply((F(1, 4), F(0), F(0), F(0), F(0), F(0)))
        assert moved.coords == (F(0), F(0), F(1, 4), F(0), F(1, 4), F(0))

    def test_with_lattice_revalidates(self):
        lat = EnlargedLattice.from_extra_generators(2, [(H, F(0))])
        swap = AffineAuto((1, 0), (1, 1), (F(0), F(0)), EnlargedLattice.standard(2))
        with pytest.raises(ValueError, match="preserve"):
            swap.with_lattice(lat)
        same = swap.with_lattice(EnlargedLattice.standard(2))
        assert same is swap


class TestComposeInverse:
    def test_reflection_squares_to_half_period_translation(self):
        shape = TorusShape(1)
        s = realify(build_s(1), shape)
        s2 = compose(s, s)
        expected = AffineAuto.translation_by(build_w(1), s.lattice)
        assert s2 == expected

    def test_quotient_collapses_the_half_period(self):
        shape = TorusShape(1)
        s_ambient = realify(build_s(1), shape)
        s_quotient = realify(build_s(1), shape, quotient_lattice(1))
        assert not compose(s_ambient, s_ambient).is_identity
        assert compose(s_quotient, s_quotient).is_identity

    def test_equal_mod_lattice(self):
        shape = TorusShape(1)
        s = realify(build_s(1), shape)
        s2 = compose(s, s)
        e = AffineAuto.identity(s.lattice)
        assert equal_mod_lattice(s2, e, quotient_lattice(1))
        assert not equal_mod_lattice(s2, e, ambient_lattice(1))
        assert not equal_mod_lattice(s, e, quotient_lattice(1))

    def test_inverse_of_rotation_is_its_cube(self):
        shape = TorusShape(1)
        lat = quotient_lattice(1)
        r = realify(build_r(1), shape, lat)
        r3 = compose(r, compose(r, r))
        assert inverse(r) == r3
        assert compose(r, inverse(r)).is_identity

    def test_translation_inverse(self):
        lat = ambient_lattice(1)
        t = AffineAuto.translation_by(build_w(1), lat)
        assert inverse(t) == t  # half periods are 2-torsion
        assert compose(t, t).is_identity

    def test_compose_requires_shared_lattice(self):
        shape = TorusShape(1)
        g = realify(build_r(1), shape)
        h = realify(build_r(1), shape, quotient_lattice(1))
        with pytest.raises(ValueError, match="lattice"):
            compose(g, h)


# --- property-based coverage ------------------------------------------------

rationals = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@st.composite
def lattices(draw, m=4):
    n_extras = draw(st.integers(0, 2))
    extras = [
        [
            F(draw(st.integers(0, 5)), draw(st.sampled_from((1, 2, 3, 4))))
            for _ in range(m)
        ]
        for _ in range(n_extras)
    ]
    return EnlargedLattice.from_extra_generators(m, extras)


@st.composite
def monomial_maps(draw, n=1):
    """Random holomorphic monomial map of the shape-(n) product."""
    c = 2 * n + 1
    e_perm = draw(st.permutations(range(2 * n)))
    perm = tuple(e_perm) + (2 * n,)
    signs = tuple(draw(st.sampled_from((1, -1))) for _ in range(c))
    translation = TorsionPoint.of([draw(rationals) for _ in range(2 * c)])
    return ComplexMonomialMap(perm, signs, translation)


@given(lattices())
@settings(deadline=None)
def test_canonical_basis_is_the_hermite_basis(lat):
    m = lat.m
    d = lcm(1, *(e.denominator for g in lat.extra_generators for e in g))
    rows = [[int(e * d) for e in g] for g in lat.extra_generators]
    rows += [[d if i == j else 0 for j in range(m)] for i in range(m)]
    h = hnf(rows).h[:m]
    assert lat.canonical_basis == tuple(tuple(F(e, d) for e in row) for row in h)


@given(lattices(), st.integers(-2, 2))
@settings(deadline=None)
def test_other_generating_sets_give_equal_lattices(lat, c):
    extras = list(lat.extra_generators)
    # c·(sum of the extras) + e_0 lies in the lattice already.
    member = [c * sum(col) for col in zip(*extras)] if extras else [0] * lat.m
    member[0] += 1
    other = EnlargedLattice.from_extra_generators(lat.m, extras[::-1] + [member])
    assert other == lat
    assert hash(other) == hash(lat)


@given(lattices(), lattices())
@settings(deadline=None)
def test_equality_is_equality_of_lattices(a, b):
    same = all(b.contains(row) for row in a.canonical_basis) and all(
        a.contains(row) for row in b.canonical_basis
    )
    assert (a == b) == same


@given(lattices(), st.lists(rationals, min_size=4, max_size=4))
@settings(deadline=None)
def test_reduce_is_idempotent_and_shifts_by_lattice(lat, point):
    reduced = lat.reduce(point)
    assert lat.reduce(reduced) == reduced
    diff = tuple(a - b for a, b in zip(point, reduced.coords))
    assert lat.contains(diff)


@given(
    lattices(),
    st.lists(rationals, min_size=4, max_size=4),
    st.lists(st.integers(-3, 3), min_size=4, max_size=4),
)
@settings(deadline=None)
def test_reduce_constant_on_lattice_cosets(lat, point, coeffs):
    shift = [
        sum(c * row[j] for c, row in zip(coeffs, lat.canonical_basis))
        for j in range(lat.m)
    ]
    shifted = [a + b for a, b in zip(point, shift)]
    assert lat.reduce(shifted) == lat.reduce(point)


@given(monomial_maps())
@settings(deadline=None)
def test_realified_maps_are_unimodular(cmap):
    g = realify(cmap, TorusShape(1))
    assert abs(det(g.linear)) == 1


def monomial_compose(f, g):
    """f ∘ g in monomial form (g applied first), for the property below."""
    perm = tuple(g.perm[src] for src in f.perm)
    signs = tuple(e * g.signs[src] for src, e in zip(f.perm, f.signs))
    shift = []
    for j, (src, e) in enumerate(zip(f.perm, f.signs)):
        for k in (0, 1):
            shift.append(e * g.translation[2 * src + k] + f.translation[2 * j + k])
    return ComplexMonomialMap(perm, signs, TorsionPoint.of(shift))


@given(monomial_maps(), monomial_maps())
@settings(deadline=None)
def test_realify_commutes_with_composition(f, g):
    shape = TorusShape(1)
    assert realify(monomial_compose(f, g), shape) == compose(
        realify(f, shape), realify(g, shape)
    )


@given(monomial_maps(), monomial_maps(), monomial_maps())
@settings(deadline=None, max_examples=50)
def test_composition_is_associative(f, g, h):
    shape = TorusShape(1)
    a, b, c = (realify(x, shape) for x in (f, g, h))
    assert compose(compose(a, b), c) == compose(a, compose(b, c))


@given(monomial_maps())
@settings(deadline=None)
def test_inverse_cancels(cmap):
    g = realify(cmap, TorusShape(1))
    assert compose(g, inverse(g)).is_identity
    assert compose(inverse(g), g).is_identity


@given(monomial_maps(), st.lists(rationals, min_size=6, max_size=6))
@settings(deadline=None)
def test_apply_matches_affine_formula(cmap, point):
    g = realify(cmap, TorusShape(1))
    raw = [
        sum(row[j] * point[j] for j in range(6)) + t
        for row, t in zip(g.linear.rows, g.translation.coords)
    ]
    assert g.apply(point) == g.lattice.reduce(raw)
