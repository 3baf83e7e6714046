"""Tests for group closure, fixed-point decisions, and the torsion oracle."""

import hashlib
import itertools
import tracemalloc
from fractions import Fraction
from math import lcm, prod

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from dihedral_torus import analysis as analysis_module
from dihedral_torus import oracle as oracle_module
from dihedral_torus import torus as torus_module
from dihedral_torus.analysis import (
    ClosureCapExceeded,
    GroupElement,
    OracleBudgetExceeded,
    analyze_group,
    closure,
    conjugacy_classes,
    exists_fixed_point,
    is_translation,
    order,
    torsion_fixed_points_bruteforce,
)
from dihedral_torus.dihedral import (
    ambient_lattice,
    build_corollary,
    build_r,
    build_s,
    build_w,
    quotient_lattice,
    realified_action,
)
from dihedral_torus.torus import (
    AffineAuto,
    ComplexMonomialMap,
    EnlargedLattice,
    TorsionPoint,
    TorusShape,
    _moved,
    compose,
    inverse,
    realify,
)
from dihedral_torus.words import _power, evaluate_word, parse_word

from conftest import EMPTY, assert_presents_the_listing, kept

F = Fraction


@pytest.fixture(scope="module")
def quotient_pair():
    return realified_action(1)


@pytest.fixture(scope="module")
def ambient_pair():
    return realified_action(1, ambient_lattice(1))


def zero_offset_reflection(lattice):
    cmap = ComplexMonomialMap((1, 0, 2), (-1, -1, -1), TorsionPoint.zero(6))
    return realify(cmap, TorusShape(1), lattice)


class TestOrder:
    def test_identity_has_order_one(self, quotient_pair):
        r, _ = quotient_pair
        assert order(AffineAuto.identity(r.lattice)) == 1

    def test_rotation_order_scales_with_n(self):
        for n in (1, 2):
            r, _ = realified_action(n)
            assert order(r) == 4 * n

    def test_reflection_order_depends_on_lattice(self, ambient_pair):
        _, s = ambient_pair
        assert order(s) == 4
        assert order(s.with_lattice(quotient_lattice(1))) == 2

    def test_order_is_exact_past_512(self):
        r, _ = realified_action(129)
        assert order(r) == 516


class TestIsTranslation:
    def test_identity_is_not_a_translation(self, quotient_pair):
        r, _ = quotient_pair
        assert not is_translation(AffineAuto.identity(r.lattice))

    def test_reflection_square_is_a_translation_upstairs(self, ambient_pair):
        _, s = ambient_pair
        assert is_translation(compose(s, s))
        assert not is_translation(s)

    def test_explicit_translation(self):
        lat = ambient_lattice(1)
        assert is_translation(AffineAuto.translation_by(build_w(1), lat))


class TestExistsFixedPoint:
    def test_identity_fixes_everything(self, quotient_pair):
        r, _ = quotient_pair
        assert exists_fixed_point(AffineAuto.identity(r.lattice))

    def test_generators_act_freely_downstairs(self, quotient_pair):
        r, s = quotient_pair
        assert not exists_fixed_point(r)
        assert not exists_fixed_point(s)
        assert not exists_fixed_point(compose(r, s))

    def test_reflection_without_offsets_fixes_the_origin(self):
        s0 = zero_offset_reflection(quotient_lattice(1))
        assert exists_fixed_point(s0)
        assert s0.apply(TorsionPoint.zero(6)).is_zero

    def test_translation_has_no_fixed_point_until_it_collapses(self):
        amb, quo = ambient_lattice(1), quotient_lattice(1)
        t = AffineAuto.translation_by(build_w(1), amb)
        assert not exists_fixed_point(t)
        assert exists_fixed_point(t.with_lattice(quo))

    def test_lattice_override(self, ambient_pair):
        _, s = ambient_pair
        assert not exists_fixed_point(s)
        assert not exists_fixed_point(s.with_lattice(quotient_lattice(1)))


class TestOneInputForm:
    """Each call decides a map modulo its own lattice and nothing else."""

    def test_lattice_the_map_does_not_preserve_is_refused(self):
        # The coordinate swap on Z² + Z·(1/2, 0) sends (1/2, 0) to
        # (0, 1/2), which is not in the lattice: no call may answer for it.
        lat = EnlargedLattice.from_extra_generators(2, [(F(1, 2), F(0))])
        swap = AffineAuto((1, 0), (1, 1), (F(0), F(0)), EnlargedLattice.standard(2))
        with pytest.raises(ValueError, match="preserve"):
            swap.with_lattice(lat)
        for call in (order, exists_fixed_point):
            with pytest.raises(TypeError):
                call(swap, lattice=lat)
        with pytest.raises(TypeError):
            closure([swap], lattice=lat)
        with pytest.raises(TypeError):
            analyze_group([swap], lattice=lat)
        with pytest.raises(TypeError):
            torsion_fixed_points_bruteforce(swap, 2, lattice=lat)


class TestClosure:
    def test_single_identity_generator(self, quotient_pair):
        r, _ = quotient_pair
        group = closure([AffineAuto.identity(r.lattice)])
        assert len(group) == 1
        assert group[0].auto.is_identity
        assert group[0].path == ()

    def test_quotient_group_has_eight_elements(self, quotient_pair):
        assert len(closure(quotient_pair)) == 8

    def test_ambient_group_has_sixteen_elements(self, ambient_pair):
        group = closure(ambient_pair)
        assert len(group) == 16
        # Breadth-first discovery lists the words in shortlex order.
        paths = [e.path for e in group]
        assert paths == sorted(paths, key=lambda p: (len(p), p))

    def test_generator_order_does_not_change_the_set(self, quotient_pair):
        r, s = quotient_pair
        one = {e.auto for e in closure([r, s])}
        other = {e.auto for e in closure([s, r])}
        assert one == other

    def test_closure_contains_inverses(self, quotient_pair):
        r, s = quotient_pair
        autos = {e.auto for e in closure([r, s])}
        assert inverse(r) in autos
        assert inverse(s) in autos

    def test_cap_and_validation(self, work):
        # On Z^1, r = x + 1/k closes to k elements and ⟨r, s⟩ with
        # s = −x is D_k of order 2k: both sides of the cap 1024.
        lattice = EnlargedLattice.standard(1)
        s = AffineAuto((0,), (-1,), (F(0),), lattice)

        def rotation(k):
            return AffineAuto.translation_by([F(1, k)], lattice)

        assert len(closure([rotation(1024)])) == 1024
        with pytest.raises(ClosureCapExceeded, match="^closure exceeds cap 1024$"):
            closure([rotation(1025)])
        assert len(analyze_group([rotation(512), s]).elements) == 1024
        work.clear()
        with pytest.raises(ClosureCapExceeded, match="^closure exceeds cap 1024$"):
            analyze_group([rotation(513), s])
        assert len(work.composed) == 1  # rs, before any element is listed
        with pytest.raises(ValueError):
            closure([])

    def test_lattice_argument_moves_generators(self, ambient_pair):
        moved = [g.with_lattice(quotient_lattice(1)) for g in ambient_pair]
        assert len(closure(moved)) == 8


class TestConjugacyClasses:
    def test_trivial_group(self, quotient_pair):
        r, _ = quotient_pair
        group = closure([AffineAuto.identity(r.lattice)])
        assert len(conjugacy_classes(group)) == 1

    def test_dihedral_partition(self, quotient_pair):
        group = closure(quotient_pair)
        classes = conjugacy_classes(group)
        assert sorted(len(c) for c in classes) == [1, 1, 2, 2, 2]
        assert sum(len(c) for c in classes) == 8

    def test_generating_conjugators_give_the_full_partition(
        self, quotient_pair
    ):
        group = closure(quotient_pair)
        full = conjugacy_classes(group)
        seeded = conjugacy_classes(group, conjugators=list(quotient_pair))

        def as_sets(classes):
            return {frozenset(e.auto for e in cls) for cls in classes}

        assert as_sets(full) == as_sets(seeded)

    def test_conjugation_invariants_are_constant_on_classes(
        self, quotient_pair
    ):
        analysis = analyze_group(quotient_pair)
        by_path = {e.path: rep for e, rep in
                   zip(analysis.elements, analysis.reports)}
        for cls in conjugacy_classes(analysis.elements):
            verdicts = {
                (
                    by_path[e.path].order,
                    by_path[e.path].is_translation,
                    by_path[e.path].has_fixed_point,
                )
                for e in cls
            }
            assert len(verdicts) == 1

    def test_rejects_non_closed_input(self, quotient_pair):
        r, s = quotient_pair
        fragment = [
            GroupElement(auto=AffineAuto.identity(r.lattice), path=()),
            GroupElement(auto=s, path=(1,)),
        ]
        with pytest.raises(ValueError, match="not closed"):
            conjugacy_classes(fragment, conjugators=[r])


class TestAnalyzeGroup:
    def test_quotient_analysis(self, quotient_pair):
        analysis = analyze_group(quotient_pair)
        assert analysis.group_size == 8
        assert analysis.rotation_order == 4
        assert analysis.is_free
        assert analysis.has_no_translations
        assert analysis.symmetry_class_count == 2
        assert [rep.word for rep in analysis.reports] == [
            "", "s", "r", "r s", "r^2", "r^2 s", "r^3", "r^3 s",
        ]
        identity_report = analysis.reports[0]
        assert identity_report.order == 1
        assert not identity_report.is_translation
        assert identity_report.has_fixed_point
        for rep in analysis.reports[1:]:
            assert not rep.has_fixed_point
            assert rep.order in (2, 4)

    def test_ambient_analysis_is_not_dihedral_of_the_expected_size(
        self, ambient_pair
    ):
        analysis = analyze_group(ambient_pair)
        assert analysis.group_size == 16
        assert analysis.rotation_order is None
        assert analysis.symmetry_class_count is None
        # Upstairs the action is still free, but s² survives as a
        # translation, so the group is not translation-free.
        assert not analysis.has_no_translations
        assert analysis.is_free
        # Fallback labels are BFS discovery words over the generator names.
        assert analysis.reports[0].word == ""
        assert {rep.word for rep in analysis.reports} >= {"r", "s", "s^2"}

    def test_symmetry_classes_for_larger_n(self):
        analysis = analyze_group(realified_action(2))
        assert analysis.group_size == 16
        assert analysis.symmetry_class_count == 2
        classes = conjugacy_classes(
            analysis.elements, conjugators=list(realified_action(2))
        )
        symmetry_sizes = [
            len(cls)
            for cls in classes
            if all(e.path.count(1) == 1 for e in cls)
        ]
        assert symmetry_sizes == [4, 4]

    def test_element_orders_divide_group_order(self):
        for n in (1, 2):
            analysis = analyze_group(realified_action(n))
            for rep in analysis.reports:
                assert analysis.group_size % rep.order == 0

    def test_rotation_shifts_the_last_coordinate_linearly(self):
        for n in (1, 2, 3):
            r, _ = realified_action(n)
            acc = AffineAuto.identity(r.lattice)
            for j in range(4 * n):
                assert acc.translation[4 * n] == F(j, 4 * n)
                acc = compose(acc, r)

    def test_single_generator_is_named_g1(self, quotient_pair):
        r, _ = quotient_pair
        analysis = analyze_group([r])
        assert analysis.group_size == 4
        assert analysis.rotation_order is None
        assert [rep.word for rep in analysis.reports] == [
            "", "g1", "g1^2", "g1^3",
        ]

    def test_analysis_is_deterministic(self, quotient_pair):
        assert analyze_group(quotient_pair) == analyze_group(quotient_pair)

    def test_generators_are_decided_and_composed_once(self, work):
        # The presentation check and the listing share r, s and rs: at
        # n = 2 the 16 elements take 13 compositions (rs, then r^a and
        # r^a s for a = 2..7) and 16 cycle walks, one per element.  Fresh
        # copies of r and s, since the cached ones may have been walked.
        r, s = (
            AffineAuto(g.perm, g.signs, g.translation, g.lattice)
            for g in realified_action(2)
        )
        result = analyze_group([r, s])
        assert result.group_size == 16
        assert work.counts == (13, 16, 0)
        assert sorted(map(id, work.walked)) == sorted(id(e.auto) for e in result.elements)


def _dihedral_pairs():
    """(name, (r, s)) for the family at n = 1..4 and corollary k ∈ {1, 2, 3, 5, 6}."""
    pairs = [(f"n={n}", realified_action(n)) for n in (1, 2, 3, 4)]
    # k = 1 and 2 come last, so the other cases keep their test ids.
    for k in (3, 5, 6, 1, 2):
        plan = build_corollary(k)
        r, s = realified_action(plan.params.n)
        pairs.append((f"k={k}", (_power(r, plan.rotation_power), s)))
    return pairs


def _mutant_pair(name, n):
    """(r, s) of a mutant that keeps the D_{4n} presentation, on the quotient."""
    r, s = realified_action(n)
    cmap = build_r(n) if name == "no-rotation-shift" else build_s(n)
    bare = realify(
        ComplexMonomialMap(cmap.perm, cmap.signs, TorsionPoint.zero(len(cmap.translation))),
        TorusShape(n),
        quotient_lattice(n),
    )
    return (bare, s) if name == "no-rotation-shift" else (r, bare)


class TestFastPathsAgainstGenericCode:
    """The label-arithmetic fast paths agree with composition-based code."""

    @pytest.mark.parametrize("name, pair", _dihedral_pairs())
    def test_label_classes_are_the_conjugacy_classes(self, name, pair):
        analysis = analyze_group(pair)
        k = analysis.rotation_order
        assert k is not None
        generic = conjugacy_classes(analysis.elements)
        reflection_classes = [cls for cls in generic if cls[0].path.count(1) == 1]
        assert analysis.symmetry_class_count == 2 - k % 2
        assert analysis.symmetry_class_count == len(reflection_classes)
        # The classes of r^a s are the residues of a modulo gcd(2, k).
        step = 2 - k % 2
        assert sorted(
            sorted(e.path.count(0) for e in cls) for cls in reflection_classes
        ) == [list(range(c, k, step)) for c in range(step)]

    @pytest.mark.parametrize("name, pair", _dihedral_pairs())
    def test_every_label_is_its_normal_form(self, name, pair):
        r, s = pair
        analysis = analyze_group(pair)
        k = analysis.rotation_order
        assert [e.path for e in analysis.elements] == [
            (0,) * a + (1,) * b for a in range(k) for b in (0, 1)
        ]
        power = AffineAuto.identity(r.lattice)
        for a in range(k):
            assert analysis.elements[2 * a].auto == power
            assert analysis.elements[2 * a + 1].auto == compose(power, s)
            power = compose(power, r)

    def test_no_quotient_pair_takes_the_generic_path(
        self, ambient_pair, monkeypatch
    ):
        # The generic path labels by discovery words and counts no classes,
        # so it composes nothing beyond the closure's own compositions.
        seen = []
        monkeypatch.setattr(
            analysis_module, "conjugacy_classes", lambda *a, **k: seen.append(a)
        )
        for n in (1, 2):
            pair = realified_action(n, ambient_lattice(n))
            analysis = analyze_group(pair)
            assert analysis.group_size == 16 * n
            assert analysis.rotation_order is None
            assert analysis.symmetry_class_count is None
        analyze_group(realified_action(1))
        assert seen == []

    @pytest.mark.parametrize(
        "name, pair",
        _dihedral_pairs() + [
            (f"{mutant} n={n}", _mutant_pair(mutant, n))
            for mutant in ("zero-offsets", "no-rotation-shift")
            for n in (1, 2, 3)
        ],
    )
    def test_listed_forms_are_the_closure(self, name, pair):
        # The presentation lemma, checked against an independent BFS: the
        # 2k listed normal forms are exactly the closure of the pair.
        listed = analyze_group(pair)
        closed = closure(pair)
        k = listed.rotation_order
        assert k is not None
        assert len(listed.elements) == len(closed) == 2 * k
        assert {e.auto for e in listed.elements} == {e.auto for e in closed}

    def test_pair_failing_the_presentation_gets_path_labels(self):
        # r^4 and r^6 at n = 3 generate the cyclic group ⟨r^2⟩ of order 6:
        # ord r^4 = 3 = 6/2 and ord r^6 = 2, but their product r^10 has
        # order 6, so the D_3 presentation fails.
        r, s = realified_action(3)
        pair = [evaluate_word(parse_word(w), r, s) for w in ("r^4", "r^6")]
        assert [order(g) for g in pair] == [3, 2]
        analysis = analyze_group(pair)
        assert analysis.group_size == 6
        assert analysis.rotation_order is None
        assert analysis.symmetry_class_count is None
        assert [rep.word for rep in analysis.reports] == [
            "", "r", "s", "r^2", "r s", "r^2 s",
        ]


class TestTorsionOracle:
    def test_identity_fixes_the_whole_grid(self, quotient_pair):
        r, _ = quotient_pair
        e = AffineAuto.identity(r.lattice)
        points = torsion_fixed_points_bruteforce(e, 2)
        assert len(points) == 2**6 // 2
        assert TorsionPoint.zero(6) in points
        # Canonical and deduplicated: reducing changes nothing.
        assert all(r.lattice.reduce(p) == p for p in points)
        assert len({p.coords for p in points}) == len(points)

    def test_free_reflection_has_empty_grid(self, quotient_pair):
        _, s = quotient_pair
        assert torsion_fixed_points_bruteforce(s, 4) == []

    def test_reflection_without_offsets_finds_the_origin(self):
        s0 = zero_offset_reflection(quotient_lattice(1))
        points = torsion_fixed_points_bruteforce(s0, 2)
        assert TorsionPoint.zero(6) in points

    def test_oracle_results_are_actual_fixed_points(self):
        s0 = zero_offset_reflection(quotient_lattice(1))
        for p in torsion_fixed_points_bruteforce(s0, 4):
            assert s0.apply(p) == p

    def test_lattice_override_matches_requotiented_map(self, ambient_pair):
        _, s = ambient_pair
        moved = s.with_lattice(quotient_lattice(1))
        for d in (2, 3):
            points = torsion_fixed_points_bruteforce(moved, d)
            assert points == _enumerated_fixed_points(moved, d)

    def test_budget_refusal(self, quotient_pair):
        # 20^6 / 2 grid points pass the 10^7 budget; refused before any work.
        r, _ = quotient_pair
        with pytest.raises(OracleBudgetExceeded, match="budget"):
            torsion_fixed_points_bruteforce(r, 20)
        with pytest.raises(ValueError):
            torsion_fixed_points_bruteforce(r, 0)

    def test_budget_charges_the_candidates_enumerated(self, quotient_pair):
        # The lattice denominator 2 does not divide 15, so all 15^6 > 10^7
        # grid points are candidates; 2 divides 16, so 16^6 / 2 are.
        r, _ = quotient_pair
        has_point = oracle_module._has_torsion_fixed_point
        message = "^11390625 candidates exceed the oracle budget of 10000000$"
        for search in (torsion_fixed_points_bruteforce, has_point):
            with pytest.raises(OracleBudgetExceeded, match=message):
                search(r, 15)
        assert not has_point(r, 16)

    def test_scaling_refusal_beyond_int64(self):
        # W must clear the shift's denominator; 2^63 leaves int64, 2^61 fits.
        lattice = EnlargedLattice.standard(1)
        far = AffineAuto.translation_by([Fraction(1, 2**63)], lattice)
        with pytest.raises(OracleBudgetExceeded, match="64-bit"):
            torsion_fixed_points_bruteforce(far, 1)
        near = AffineAuto.translation_by([Fraction(1, 2**61)], lattice)
        assert len(torsion_fixed_points_bruteforce(near, 1)) == 0

    def test_emptiness_query_refuses_what_the_oracle_refuses(self, quotient_pair):
        r, _ = quotient_pair
        has_point = oracle_module._has_torsion_fixed_point
        with pytest.raises(OracleBudgetExceeded, match="budget"):
            has_point(r, 20)
        with pytest.raises(ValueError):
            has_point(r, 0)
        lattice = EnlargedLattice.standard(1)
        far = AffineAuto.translation_by([Fraction(1, 2**63)], lattice)
        with pytest.raises(OracleBudgetExceeded, match="64-bit"):
            has_point(far, 1)

    def test_overflow_bound_charges_only_sheared_rows(self):
        bound = oracle_module._overflow_bound
        zero = [(), ()]
        # Start: the largest basis entry times d, here 8.
        assert bound(1, zero, [0, 0], [4, 8], {}) == 8
        # Row 0 subtracts q·(4, 4) from column 1, |q| ≤ 8 // 4 + 1 = 3.
        assert bound(1, zero, [0, 0], [4, 8], {0: [(1, 4)]}) == 8 + 3 * 4

    def test_large_n_fits_int64(self):
        r, _ = realified_action(14)
        assert len(torsion_fixed_points_bruteforce(r, 1)) == 0

    def test_oracle_never_contradicts_the_exact_decision(self, quotient_pair):
        # Soundness at any denominator: a grid fixed point is a fixed point.
        for element in closure(quotient_pair):
            points = torsion_fixed_points_bruteforce(element.auto, 2)
            if points:
                assert exists_fixed_point(element.auto)


# SHA-256 of repr([p.coords for p in points]) for fixed oracle calls,
# recorded from an earlier kernel that imaged and reduced every grid
# point; any change to the oracle must reproduce these outputs exactly.
# Zero-offset reflections at D=7 span several chunks with an odd
# denominator.
EMPTY_DIGEST = "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945"
PINNED_ORACLE_DIGESTS = {
    ("closure", (), 8): "d7aad2cac56ba2a15aa2ca85a3f8b0e734f26c8d418a34d759b544b8a184f79c",
    ("closure", (0,), 8): EMPTY_DIGEST,
    ("closure", (1,), 8): EMPTY_DIGEST,
    ("closure", (0, 0), 8): EMPTY_DIGEST,
    ("closure", (0, 1), 8): EMPTY_DIGEST,
    ("closure", (1, 0), 8): EMPTY_DIGEST,
    ("closure", (0, 0, 0), 8): EMPTY_DIGEST,
    ("closure", (0, 0, 1), 8): EMPTY_DIGEST,
    ("zero-offset-reflection", (), 3): "a8fcb3d7141bac37564431ff97115c2b9bbc573338aa7db764511605a0229f18",
    ("zero-offset-reflection", (), 4): "d8b74c5d072ece3147d6b382ffc1d14882731075088342397f45c4d67ce51429",
    ("zero-offset-reflection", (), 7): "76768118dca36339da14fc2b0e208d22233f35b1e9a02d7c413b3e6348abdf1c",
    ("identity", (), 5): "0a6fd34b525b2646880045bea34dc1b8be8303cd8e4cb9a25d22efb1917f67fd",
    ("ambient-s-on-quotient", (), 2): EMPTY_DIGEST,
}


def _pinned_oracle_points(kind, path, d):
    if kind == "closure":
        (element,) = [
            e for e in closure(realified_action(1)) if e.path == path
        ]
        return torsion_fixed_points_bruteforce(element.auto, d)
    if kind == "zero-offset-reflection":
        s0 = zero_offset_reflection(quotient_lattice(1))
        return torsion_fixed_points_bruteforce(s0, d)
    if kind == "identity":
        e = AffineAuto.identity(quotient_lattice(1))
        return torsion_fixed_points_bruteforce(e, d)
    _, s = realified_action(1, ambient_lattice(1))
    return torsion_fixed_points_bruteforce(s.with_lattice(quotient_lattice(1)), d)


@pytest.mark.parametrize("kind, path, d", sorted(PINNED_ORACLE_DIGESTS))
def test_oracle_output_matches_pinned_digest(kind, path, d):
    points = _pinned_oracle_points(kind, path, d)
    text = repr([p.coords for p in points])
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    assert digest == PINNED_ORACLE_DIGESTS[kind, path, d]


# --- property-based coverage ------------------------------------------------

rationals = st.fractions(min_value=0, max_value=1, max_denominator=4)


@st.composite
def quotient_monomial_autos(draw):
    """Random signed E-permutation maps, valid on the quotient lattice."""
    e_perm = draw(st.permutations(range(2)))
    perm = tuple(e_perm) + (2,)
    signs = tuple(draw(st.sampled_from((1, -1))) for _ in range(3))
    translation = TorsionPoint.of([draw(rationals) for _ in range(6)])
    cmap = ComplexMonomialMap(perm, signs, translation)
    return realify(cmap, TorusShape(1), quotient_lattice(1))


@given(quotient_monomial_autos())
@settings(deadline=None, max_examples=40)
def test_oracle_points_are_fixed_and_sound(g):
    points = torsion_fixed_points_bruteforce(g, 4)
    for p in points:
        assert g.apply(p) == p
    if points:
        assert exists_fixed_point(g)


@given(quotient_monomial_autos())
@settings(deadline=None, max_examples=40)
def test_order_matches_smallest_trivial_power(g):
    k = order(g)
    acc = g
    for step in range(1, k):
        assert not acc.is_identity
        acc = compose(acc, g)
    assert acc.is_identity


@given(quotient_monomial_autos(), quotient_monomial_autos())
@settings(deadline=None, max_examples=20)
def test_conjugate_elements_share_order(g, h):
    conjugate = compose(h, compose(g, inverse(h)))
    assert order(g) == order(conjugate)


@st.composite
def perturbed_family_pairs(draw):
    """n and (r, s) of the family at n ≤ 4 with redrawn shifts, on either lattice.

    r shifts E′ by c/4n and optionally one E coordinate by 1/2; s takes
    offsets from {0, 1/2}, and in about a quarter of the draws one of
    1/4, which can lift ord s past 4.  Some pairs keep the presentation,
    most of those without acting freely; the others fail it.
    """
    n = draw(st.integers(1, 4))
    lattice = draw(st.sampled_from((quotient_lattice(n), ambient_lattice(n))))
    r, s = realified_action(n, lattice)
    r_shift = [F(0)] * len(r.perm)
    r_shift[4 * n] = F(draw(st.integers(0, 4 * n - 1)), 4 * n)
    e = draw(st.none() | st.integers(0, 4 * n - 1))
    if e is not None:
        r_shift[e] = F(1, 2)
    offsets = [draw(st.sampled_from((F(0), F(1, 2)))) for _ in range(4 * n)]
    if draw(st.integers(0, 3)) == 0:
        offsets[draw(st.integers(0, 4 * n - 1))] = F(1, 4)
    return n, (
        AffineAuto(r.perm, r.signs, r_shift, lattice),
        AffineAuto(s.perm, s.signs, offsets + [F(0)] * 2, lattice),
    )


def _presents(r, s):
    """Whether ⟨r, s⟩ meets the hypotheses of D_k or of its central extension.

    Decided from orders and products alone: z = s² must commute with r,
    and no power of r may equal it.
    """
    s_order = order(s)
    if order(compose(r, s)) != 2 or s_order not in (2, 4):
        return False
    z = compose(s, s)
    return s_order == 2 or (
        z.is_linear_identity
        and compose(r, z) == compose(z, r)
        and all(_power(r, j) != z for j in range(order(r)))
    )


@given(perturbed_family_pairs())
@settings(deadline=None, max_examples=160)
def test_derived_rows_equal_the_listing(case):
    # Free or not, a pair that keeps either presentation derives every
    # row; a pair that fails both is refused, and the test finds the
    # hypothesis it fails on its own.
    _, pair = case
    try:
        analysis_module._presentation(*pair)
    except ValueError as exc:
        assert str(exc).startswith("no presentation")
        assert not _presents(*pair)
        return
    assert _presents(*pair)
    assert_presents_the_listing(*pair)


@pytest.mark.parametrize("n", [2, 3])
def test_pair_outside_both_presentations_is_refused(n, monkeypatch):
    # The identity as r and the family's r of order 4n as s fit neither
    # presentation, so ⟨1, s⟩ is refused at ord s and nothing is closed.
    def refused(*args):
        raise AssertionError("built a closure")

    for name in ("closure", "_enumerate"):
        monkeypatch.setattr(analysis_module, name, refused)
    rotation, _ = realified_action(n)
    identity = _power(rotation, 4 * n)
    assert (order(identity), order(rotation)) == (1, 4 * n)
    with pytest.raises(ValueError, match=f"ord s = {4 * n}, not 2 or 4$"):
        analysis_module._presentation(identity, rotation)


@given(quotient_monomial_autos(), st.sampled_from((1, 2, 3, 4)))
@settings(deadline=None, max_examples=40)
def test_emptiness_query_matches_the_oracle(g, d):
    assert oracle_module._has_torsion_fixed_point(g, d) == bool(
        torsion_fixed_points_bruteforce(g, d)
    )


def _enumerated_fixed_points(g, d):
    """The oracle's contract, one grid point at a time in exact arithmetic.

    Each grid point ks/d and its image are compared on integer numerators,
    after the lattice's exact reduction to lowest terms that `apply` and
    `reduce` use.
    """
    lattice = g.lattice
    fixed = set()
    for ks in itertools.product(range(d), repeat=lattice.m):
        p = lattice.reduce_scaled(ks, d)
        if lattice.reduce_scaled(*_moved(g, ks, d)) == p:
            fixed.add(p)
    points = (TorsionPoint.of(F(x, den) for x in num) for num, den in fixed)
    return sorted(points, key=lambda p: p.coords)


@given(quotient_monomial_autos(), st.sampled_from((2, 3)))
@settings(deadline=None, max_examples=30)
def test_oracle_matches_pure_python_enumeration(g, d):
    assert torsion_fixed_points_bruteforce(g, d) == _enumerated_fixed_points(g, d)


# --- the oracle's level-wise search -----------------------------------------

shifts = st.sampled_from((F(0),) * 5 + (F(1, 2), F(1, 3), F(1, 4)))
# Thirds make a carry's sign matter: a sheared entry b with 2·b ∉ Z.
fractions = st.sampled_from((F(0), F(1, 4), F(1, 2), F(3, 4), F(1, 3), F(2, 3)))


def _orbit(perm, signs, v):
    """v and its images under the signed permutation until it returns."""
    orbit = [tuple(v)]
    while True:
        v = tuple(sign * v[src] for src, sign in zip(perm, signs))
        if v == orbit[0]:
            return orbit
        orbit.append(v)


@st.composite
def signed_permutation_autos(
    draw, m, *, fixed=0, sign=None, sheared=False, entries=fractions
):
    """Signed permutations of R^m with small rational shifts.

    The first `fixed` coordinates stay put with sign +1, so the oracle's
    search assigns their digits last; `sign` pins every other sign.  With
    `sheared`, the lattice adds the orbits of two vectors drawn from
    `entries` (quarters and thirds by default), so the map preserves it,
    and is kept only if two basis rows are sheared.
    """
    perm = [*range(fixed), *draw(st.permutations(range(fixed, m)))]
    signs = [1] * fixed + [
        draw(st.sampled_from((1, -1))) if sign is None else sign
        for _ in range(fixed, m)
    ]
    extras = []
    if sheared:
        for _ in range(2):
            v = draw(st.lists(entries, min_size=m, max_size=m))
            extras += _orbit(perm, signs, v)
    lattice = EnlargedLattice.from_extra_generators(m, extras)
    assume(len(lattice.sheared_rows) >= 2 or not sheared)
    shift = draw(st.lists(shifts, min_size=m, max_size=m))
    return AffineAuto(perm, signs, shift, lattice)


def _search_matches_enumeration(g, *denominators):
    for d in denominators:
        points = torsion_fixed_points_bruteforce(g, d)
        assert points == _enumerated_fixed_points(g, d)
        assert oracle_module._has_torsion_fixed_point(g, d) == bool(points)


@given(signed_permutation_autos(6))
@settings(deadline=None, max_examples=30)
def test_search_matches_enumeration_at_m6(g):
    _search_matches_enumeration(g, 2, 3)


@given(signed_permutation_autos(10), st.sampled_from((2, 3)))
@settings(deadline=None, max_examples=6)
def test_search_matches_enumeration_at_m10(g, d):
    # The reference reduces 3^10 grid points and their images one at a
    # time, about half a second, so each example checks one denominator.
    _search_matches_enumeration(g, d)


@given(signed_permutation_autos(6, sheared=True))
@settings(deadline=None, max_examples=40)
def test_search_carries_across_sheared_rows(g):
    _search_matches_enumeration(g, 2, 3)


# Quarters and halves only: the lattice denominator divides 4, so at D = 4
# the search walks the lattice's canonical box and its carries meet
# candidates that are never reduced, while D = 3 reduces and deduplicates.
quarters = st.sampled_from((F(0), F(1, 4), F(1, 2), F(3, 4)))


@given(signed_permutation_autos(5, sheared=True, entries=quarters))
@settings(deadline=None, max_examples=30)
def test_search_carries_across_sheared_rows_in_the_box(g):
    canonical = [oracle_module._oracle_input(g, d)[2] for d in (3, 4)]
    assert canonical == [False, True]
    _search_matches_enumeration(g, 3, 4)


def _dense_bound(g, d):
    """The oracle's int64 bound from the dense M − I and HNF basis.

    The reference for the bound read off the signed permutation: W0
    clears the denominators of t and of the basis, each row of
    W0·(M − I) charges Σ|entry|·(d − 1) + |W·t_i|, the largest entry of
    W·B times d starts the basis, and each row of W·B with an
    off-diagonal entry adds (bound // pivot + 1) times its largest entry.
    """
    basis = g.lattice.canonical_basis
    entries = [*g.translation, *(e for row in basis for e in row)]
    w0 = lcm(*(x.denominator for x in entries))
    w = w0 * d
    mi = [
        [w0 * (e - (i == j)) for j, e in enumerate(row)]
        for i, row in enumerate(g.linear.rows)
    ]
    t = [x * w for x in g.translation]
    scaled = [[e * w for e in row] for row in basis]
    bound = max(sum(abs(e) for e in row) * (d - 1) + abs(x) for row, x in zip(mi, t))
    bound = max(bound, max(abs(e) for row in scaled for e in row) * d)
    for i, row in enumerate(scaled):
        if any(e for j, e in enumerate(row) if j != i):
            bound += (bound // row[i] + 1) * max(abs(e) for e in row)
    assert bound.denominator == 1
    return w, int(bound)


def _sparse_bound(g, d):
    w, _, _, *search = oracle_module._oracle_input(g, d)
    return w, oracle_module._overflow_bound(d, *search)


@given(signed_permutation_autos(6, sheared=True), st.integers(1, 12))
@settings(deadline=None, max_examples=60)
def test_overflow_bound_equals_the_dense_formula(g, d):
    assert _sparse_bound(g, d) == _dense_bound(g, d)


@pytest.mark.parametrize("n, bits", [(14, 9), (64, 12)])
def test_overflow_bound_of_r_at_d2(n, bits, monkeypatch):
    # The grid at D = 2 exceeds the budget, which is checked first.
    monkeypatch.setattr(oracle_module, "DEFAULT_ORACLE_BUDGET", 2**300)
    r, _ = realified_action(n)
    w, bound = _sparse_bound(r, 2)
    assert (w, bound) == _dense_bound(r, 2)
    assert bound.bit_length() == bits


def test_oracle_reads_no_dense_table(monkeypatch):
    """The oracle reads perm, signs, shift and the HNF data, never the
    dense linear part or the `Fraction` basis: both reads fail here."""
    elements = [e.auto for e in closure(realified_action(1))]
    large = realified_action(64)
    large = (*large, compose(*large))

    def dense(self):
        raise AssertionError("read a dense table")

    monkeypatch.setattr(AffineAuto, "linear", property(dense))
    monkeypatch.setattr(EnlargedLattice, "canonical_basis", property(dense))
    for g in elements:
        # D = 8 walks the box; D = 3 reduces and deduplicates.
        boxed = torsion_fixed_points_bruteforce(g, 8)
        reduced = torsion_fixed_points_bruteforce(g, 3)
        assert bool(boxed) == exists_fixed_point(g)
        assert not reduced or exists_fixed_point(g)
        if g.is_identity:
            assert (len(boxed), len(reduced)) == (8**6 // 2, 3**6)
    for g in large:
        assert oracle_module._has_torsion_fixed_point(g, 1) == exists_fixed_point(g)


@given(st.integers(1, 5).flatmap(lambda k: signed_permutation_autos(6, fixed=k)))
@settings(deadline=None, max_examples=20)
def test_search_expands_free_digits_last(g):
    _search_matches_enumeration(g, 2, 3)


@given(signed_permutation_autos(6, sign=-1))
@settings(deadline=None, max_examples=20)
def test_search_without_free_digits(g):
    _search_matches_enumeration(g, 2, 3)


@given(
    st.sampled_from((None, -1)).flatmap(
        lambda sign: signed_permutation_autos(5, sign=sign, sheared=sign is None)
    ),
    st.data(),
)
@settings(deadline=None, max_examples=40)
def test_power_is_composition_in_closed_form(g, data):
    # With every sign −1, a cycle of odd length is open (σ = −1), and five
    # coordinates always leave one.  Compositions of g and of its inverse
    # are the reference for every e with |e| ≤ 2·ord g + 3.
    k = order(g)
    powers = {0: AffineAuto.identity(g.lattice)}
    g_inv = inverse(g)
    for e in range(1, 2 * k + 4):
        powers[e] = compose(powers[e - 1], g)
        powers[-e] = compose(powers[1 - e], g_inv)
    for e, expected in powers.items():
        assert _power(g, e) == expected
        assert _power(g, 10**40 + e) == powers[(10**40 + e) % k]
    exponents = st.integers(-2 * k - 3, 2 * k + 3)
    for _ in range(8):
        a, b = data.draw(exponents), data.draw(exponents)
        assert compose(_power(g, a), _power(g, b)) == _power(g, a + b)


def _counting(counts, name, original):
    def wrapper(*args):
        counts[name] += 1
        return original(*args)

    return wrapper


class TestCycleSlot:
    """Each map is decomposed into signed cycles at most once, lazily."""

    def test_order_and_fixed_point_share_one_decomposition(self, work):
        r, s = realified_action(2)
        for g in (r, s, compose(r, s)):
            fresh = AffineAuto(g.perm, g.signs, g.translation, g.lattice)
            work.clear()
            order(fresh), exists_fixed_point(fresh), order(fresh)
            assert work.walked == [fresh] and work.walked[0] is fresh

    def test_derived_maps_start_empty(self):
        shared, s = realified_action(2)
        # A fresh copy: the shared r keeps the powers other tests decided.
        r = AffineAuto(shared.perm, shared.signs, shared.translation, shared.lattice)
        order(r), order(s)
        assert _power(r, 9) is r and _power(r, 1) is r  # ord r = 8
        derived = [compose(r, s), inverse(r), *(_power(r, e) for e in (-3, 0, 2))]
        assert all(kept(g) == EMPTY for g in derived)

    def test_filled_slot_changes_no_value(self):
        for n, lattice in ((1, None), (2, ambient_lattice(2))):
            r, s = realified_action(n, lattice)
            for g in (r, s, compose(r, s), _power(r, 3)):
                filled = AffineAuto(g.perm, g.signs, g.translation, g.lattice)
                fresh = AffineAuto(g.perm, g.signs, g.translation, g.lattice)
                verdicts = (order(filled), exists_fixed_point(filled))
                assert filled._cycles is not None and fresh._cycles is None
                assert filled == fresh and hash(filled) == hash(fresh)
                assert verdicts == (order(fresh), exists_fixed_point(fresh))


def test_huge_power_makes_no_composition_and_one_reduction(monkeypatch):
    shared, _ = realified_action(64)
    # A fresh copy, so that no earlier test has built r^0 on it.
    r = AffineAuto(shared.perm, shared.signs, shared.translation, shared.lattice)
    assert order(r) == 256
    counts = {"compose": 0, "reduce_scaled": 0}
    monkeypatch.setattr(torus_module, "compose", _counting(counts, "compose", compose))
    monkeypatch.setattr(
        EnlargedLattice, "reduce_scaled",
        _counting(counts, "reduce_scaled", EnlargedLattice.reduce_scaled),
    )
    g = _power(r, 10**4000)
    assert counts == {"compose": 0, "reduce_scaled": 1}
    monkeypatch.undo()
    assert g == _power(shared, 10**4000 % 256)


def test_search_prunes_before_the_whole_grid(monkeypatch, quotient_pair):
    """Free elements build few candidates; the identity builds its classes once.

    Candidates are built as digit rows by `_expand` or, on the box's last
    level, as packed keys by `_expanded_keys`; the spies count both.
    """
    built = []

    def counting(expand):
        def spy(*args):
            for piece in expand(*args):
                built[-1] += piece.shape[-1]
                yield piece

        return spy

    for name in ("_expand", "_expanded_keys"):
        monkeypatch.setattr(
            oracle_module, name, counting(getattr(oracle_module, name))
        )
    for element in closure(quotient_pair):
        built.append(0)
        points = torsion_fixed_points_bruteforce(element.auto, 8)
        if element.path == ():
            # One candidate per class: the lattice's canonical box.
            assert built[-1] == len(points) == 8**6 // 2
        else:
            assert built[-1] <= 4096 and not points
    assert len(built) == 8


# --- the oracle's lazy result -----------------------------------------------


class TestOracleResult:
    @pytest.fixture(scope="class")
    def grid(self):
        """Identity at D=2 on the n=1 quotient: 32 points, and a list copy."""
        e = AffineAuto.identity(quotient_lattice(1))
        points = torsion_fixed_points_bruteforce(e, 2)
        return points, list(points)

    def test_len_and_truth_build_no_point(self, monkeypatch):
        built = []

        def spy(coords):
            built.append(coords)
            return TorsionPoint(coords)

        monkeypatch.setattr(oracle_module, "TorsionPoint", spy)
        e = AffineAuto.identity(quotient_lattice(1))
        points = torsion_fixed_points_bruteforce(e, 8)
        assert len(points) == 8**6 // 2
        assert points
        assert not torsion_fixed_points_bruteforce(realified_action(1)[1], 4)
        assert built == []
        points[0]
        assert len(built) == 1

    def test_indexing_slicing_iteration_and_membership(self, grid):
        points, listed = grid
        assert len(listed) == 32
        assert listed == sorted(listed, key=lambda p: p.coords)
        assert [points[i] for i in range(32)] == listed
        assert points[-1] == listed[-1]
        assert points[-32] == listed[0]
        with pytest.raises(IndexError):
            points[32]
        with pytest.raises(IndexError):
            points[-33]
        with pytest.raises(TypeError):
            points[1.0]
        assert points[3:9] == listed[3:9]
        assert points[::-5] == listed[::-5]
        assert points[5:5] == []
        assert list(reversed(points)) == listed[::-1]
        assert listed[7] in points
        assert TorsionPoint.of([F(1, 4)] * 6) not in points
        assert points.index(listed[9]) == 9
        assert points.count(listed[9]) == 1

    def test_equality_with_sequences_both_ways(self, grid):
        points, listed = grid
        assert points == listed and listed == points
        assert points == tuple(listed) and tuple(listed) == points
        assert not points != listed
        assert points != listed[:-1] and listed[:-1] != points
        assert points != listed[::-1]
        assert points != "" and points != 7
        empty = torsion_fixed_points_bruteforce(realified_action(1)[1], 2)
        assert empty == [] and [] == empty and empty == ()
        assert empty != points

    def test_result_is_unhashable_and_read_only(self, grid):
        points, _ = grid
        with pytest.raises(TypeError):
            hash(points)
        with pytest.raises(TypeError):
            points[0] = points[1]
        with pytest.raises(AttributeError):
            points.extra = 1


def _box_case():
    """The zero-offset reflection at D = 8: 256 points of the canonical box."""
    return zero_offset_reflection(quotient_lattice(1)), 8


def _reduce_case():
    """The identity on a quarter-only lattice at D = 3: all 3^5 grid points,
    each reduced across a sheared row."""
    extra = [F(1, 4), F(1, 2), F(3, 4), F(0), F(1, 4)]
    lattice = EnlargedLattice.from_extra_generators(5, [extra])
    return AffineAuto.identity(lattice), 3


def _eager_rows(g, d):
    """The oracle's rows unpacked at once from the surviving grid points:
    scaled by W, reduced off the box, sorted, deduplicated, packed on the
    scaled radices and unpacked."""
    w, bounds, canonical, *search = oracle_module._oracle_input(g, d)
    _, _, radices, tails = search
    m = len(radices)
    pieces = oracle_module._surviving_pieces(*search, bounds)
    rows = np.concatenate([piece[:m] for piece in pieces], axis=1).T * (w // d)
    if not canonical:
        rows = oracle_module._triangular_residues(rows, radices, tails)
    keys = oracle_module._packed_keys(np.unique(rows, axis=0), radices)
    return oracle_module._unpacked_rows(keys, radices), w


class TestOracleUnpacksOnFirstRead:
    @pytest.fixture
    def unpacked(self, monkeypatch):
        """Counts the calls of `_unpacked_rows`."""
        calls, unpack = [], oracle_module._unpacked_rows

        def spy(*args):
            calls.append(args)
            return unpack(*args)

        monkeypatch.setattr(oracle_module, "_unpacked_rows", spy)
        return calls

    def test_len_truth_and_repr_unpack_nothing(self, unpacked):
        g, d = _box_case()
        points = torsion_fixed_points_bruteforce(g, d)
        assert len(points) == 256 and points
        assert repr(points) == "<256 torsion points with denominator 16>"
        empty = torsion_fixed_points_bruteforce(realified_action(1)[1], d)
        assert not empty and len(empty) == 0
        assert unpacked == []

    @pytest.mark.parametrize(
        "first_read",
        [
            lambda points: points[3],
            lambda points: points[10:20],
            lambda points: next(iter(points)),
            lambda points: points == list(points),
        ],
        ids=["index", "slice", "iteration", "equality"],
    )
    @pytest.mark.parametrize("case", [_box_case, _reduce_case], ids=["box", "reduce"])
    def test_first_read_unpacks_once(self, unpacked, first_read, case):
        points = torsion_fixed_points_bruteforce(*case())
        first_read(points)
        assert len(unpacked) == 1
        assert points[-1] in points[::-7] and points == list(points)
        assert len(points) and repr(points)
        assert len(unpacked) == 1

    @pytest.mark.parametrize("case", [_box_case, _reduce_case], ids=["box", "reduce"])
    def test_reads_equal_the_eager_rows(self, case):
        g, d = case()
        rows, w = _eager_rows(g, d)
        points = torsion_fixed_points_bruteforce(g, d)
        assert len(points) == len(rows) == (256 if d == 8 else 3**5)
        listed = [TorsionPoint.of(F(v, w) for v in row) for row in rows.tolist()]
        assert list(points) == listed
        for i in (0, 1, -2, -1):
            assert points[i] == listed[i]
        assert points[5:40:3] == listed[5:40:3]
        assert points._rows.dtype == rows.dtype
        assert np.array_equal(points._rows, rows)
        assert np.array_equal(points[::-4]._rows, rows[::-4])


def test_oracle_sorts_on_several_packed_keys():
    """Canonical rows whose radix product passes 62 bits need two sort keys.

    The zero-offset reflection at n = 3 (m = 14) fixes e_0 − e_10, so it
    preserves the quotient lattice enlarged by (e_0 − e_10)/16.  At D = 2
    that gives W = 32 and the radices 2, 32, 16, 32, ..., 32, whose
    product 2^65 passes _INT64_SAFE.
    """
    n = 3
    v = [F(0)] * 14
    v[0], v[10] = F(1, 16), F(-1, 16)
    lattice = EnlargedLattice.from_extra_generators(
        14, [*quotient_lattice(n).extra_generators, v]
    )
    s = build_s(n)
    s0 = realify(
        ComplexMonomialMap(s.perm, s.signs, TorsionPoint.zero(14)),
        TorusShape(n),
        lattice,
    )
    # W = 2·lattice.denominator, so the radices are the pivots times 2.
    radix_product = 1
    for pivot in lattice.pivots:
        radix_product *= pivot * 2
    assert radix_product > oracle_module._INT64_SAFE
    points = torsion_fixed_points_bruteforce(s0, 2)
    assert len(points) == 256
    assert points == _enumerated_fixed_points(s0, 2)


def test_oracle_box_packs_digits_into_one_key():
    """The box packs digits, not scaled rows, so one sort key always fits.

    On L = (1/512)Z^6 every signed permutation is an automorphism, and at
    D = 2048 the box holds 4^6 candidates, one per class.  The shift 1/1024
    on the negated coordinate gives W = 2^21 and six scaled radices 2^12,
    whose product 2^72 passes _INT64_SAFE; the digit bounds 4 multiply to
    the candidate count, which the budget keeps below it.  The map fixes
    coordinate 3, so the search assigns that digit last and the
    candidates arrive out of order.
    """
    lattice = EnlargedLattice.from_extra_generators(
        6, [[F(int(i == j), 512) for j in range(6)] for i in range(6)]
    )
    shift = [F(0), F(0), F(1, 1024), F(0), F(0), F(0)]
    g = AffineAuto((1, 0, 2, 3, 5, 4), (1, 1, -1, 1, 1, 1), shift, lattice)
    d = 2048
    # W = 2^21 and lattice.denominator = 2^9 scale each pivot by 2^12.
    radices = [pivot * 2**12 for pivot in lattice.pivots]
    assert len(oracle_module._key_columns(radices)) == 2
    _, bounds, canonical, _, _, pivots, _ = oracle_module._oracle_input(g, d)
    assert canonical and bounds == [4] * 6 and pivots == radices
    assert len(oracle_module._key_columns(bounds)) == 1
    # One grid point per class: digits below D/512 = 4 are canonical.
    expected = set()
    for ks in itertools.product(range(4), repeat=6):
        p = lattice.reduce_scaled(ks, d)
        if lattice.reduce_scaled(*_moved(g, ks, d)) == p:
            expected.add(p)
    points = torsion_fixed_points_bruteforce(g, d)
    assert len(points) == 4 * 2 * 4 * 4
    assert points == sorted(
        (TorsionPoint.of(F(x, den) for x in num) for num, den in expected),
        key=lambda p: p.coords,
    )


def _narrowest_unsigned(top):
    return next(
        t for t in (np.uint8, np.uint16, np.uint32, np.uint64)
        if np.iinfo(t).max >= top
    )


@st.composite
def rows_within_radices(draw):
    """Radices from 2 to 2^31 and rows whose column j lies in [0, radix_j)."""
    radices = draw(
        st.lists(
            st.one_of(st.integers(2, 300), st.integers(2**20, 2**31)),
            min_size=1,
            max_size=8,
        )
    )
    rows = draw(
        st.lists(st.tuples(*(st.integers(0, r - 1) for r in radices)), max_size=12)
    )
    return radices, rows


@given(rows_within_radices())
@example(([2**31] * 2, [(2**31 - 1, 0), (0, 2**31 - 1)]))
@example(([2**31] * 3, [(2**31 - 1, 5, 2**31 - 1)]))
@example(([2**31] * 5, [(1, 2, 3, 4, 2**31 - 1), (2**31 - 1,) * 5]))
@settings(deadline=None, max_examples=200)
def test_unpacking_inverts_packing(case):
    radices, listed = case
    rows = np.array(listed, dtype=np.int64).reshape(len(listed), len(radices))
    keys = oracle_module._packed_keys(rows, radices)
    assert len(keys) == len(oracle_module._key_columns(radices))
    out = oracle_module._unpacked_rows(keys, radices)
    assert out.dtype == _narrowest_unsigned(max(radices) - 1)
    assert np.array_equal(out, rows)


@st.composite
def partial_columns(draw):
    """Digit bounds, the digits to expand (maybe none) and partial columns,
    whose expanded digits are 0.

    The expanded digits' bounds multiply to per_column, from 1 to 2^18, so
    a piece of _CHUNK = 2^16 candidates can end inside a column or span
    many columns, and the columns number at most 2^18 / per_column.
    """
    m = draw(st.integers(1, 5))
    bounds = draw(st.lists(st.integers(1, 64), min_size=m, max_size=m))
    digits = sorted(draw(st.sets(st.integers(0, m - 1))))
    per_column = prod(bounds[k] for k in digits)
    assume(per_column <= 1 << 18)
    columns = draw(
        st.lists(
            st.tuples(
                *(
                    st.just(0) if k in digits else st.integers(0, b - 1)
                    for k, b in enumerate(bounds)
                )
            ),
            min_size=1,
            max_size=max(1, min(3000, (1 << 18) // per_column)),
        )
    )
    return bounds, digits, np.array(columns, dtype=np.int64).T


@given(partial_columns())
@example(([3, 60, 50, 30], [1, 2, 3], np.array([[0, 0, 0, 0], [2, 0, 0, 0]]).T))
@example(([7, 5, 11], [0, 2], np.tile(np.array([[0], [3], [0]]), 1000)))
@settings(deadline=None, max_examples=60)
def test_key_expansion_packs_the_expanded_rows(case):
    """The box's key pieces concatenate to the keys of `_expand`'s rows,
    also when the partial columns arrive in two pieces."""
    bounds, digits, partial = case
    rows = np.concatenate(list(oracle_module._expand(partial, digits, bounds)), 1)
    (expected,) = oracle_module._packed_keys(rows.T, bounds)
    partials = [p for p in np.array_split(partial, 2, axis=1) if p.shape[1]]
    pieces = list(oracle_module._expanded_keys(partials, digits, bounds))
    assert all(0 < len(piece) <= oracle_module._CHUNK for piece in pieces)
    assert np.array_equal(np.concatenate(pieces), expected)


def test_oracle_box_builds_no_digit_rows():
    """The n = 2 identity at D = 4 returns its 524,288 box points from keys.

    Its traced peak stays below 24 bytes a point: the key pieces and the
    offset table or the concatenated keys, 8 bytes a point each.
    """
    identity = AffineAuto.identity(quotient_lattice(2))
    tracemalloc.start()
    try:
        points = torsion_fixed_points_bruteforce(identity, 4)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(points) == 524_288
    assert peak < 24 * len(points)


def test_oracle_holds_less_than_one_int64_copy_of_its_rows():
    """The n = 2 identity at D = 4 returns 524,288 points with m = 10.

    One int64 copy of its rows takes 80 bytes a point; the oracle's traced
    peak, result included, stays below that.
    """
    identity = AffineAuto.identity(quotient_lattice(2))
    tracemalloc.start()
    try:
        points = torsion_fixed_points_bruteforce(identity, 4)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(points) == 524_288
    assert peak < 80 * len(points)


def test_oracle_and_its_first_read_hold_less_than_one_int64_copy():
    """The result unpacks on its first read, so the bound covers that too.

    The traced peak over the n = 2 identity call at D = 4 and its first
    read stays below one int64 row, 80 bytes, per returned point.
    """
    identity = AffineAuto.identity(quotient_lattice(2))
    tracemalloc.start()
    try:
        points = torsion_fixed_points_bruteforce(identity, 4)
        points[0]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(points) == 524_288
    assert peak < 80 * len(points)
