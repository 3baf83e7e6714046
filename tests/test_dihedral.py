"""Tests for the action builders, the five-step verifier, and the embeddings."""

import inspect
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dihedral_torus import analysis, certificate, dihedral, torus
from dihedral_torus.analysis import CACHE_BOUND, order
from dihedral_torus.dihedral import (
    MUTANTS,
    Certificate,
    ConstructionParams,
    ambient_lattice,
    build_b,
    build_corollary,
    build_r,
    build_s,
    build_w,
    quotient_lattice,
    realified_action,
    verify_corollary,
    verify_mutant,
    verify_theorem,
)
from dihedral_torus.linalg import Matrix
from dihedral_torus.torus import EnlargedLattice, TorusShape, realify
from dihedral_torus.words import _power, evaluate_word, parse_word

from conftest import assert_presents_the_listing, presented, verdicts, word_map

F = Fraction
H = F(1, 2)


def _fresh(g):
    """A copy of g that keeps nothing yet."""
    return torus.AffineAuto(g.perm, g.signs, g.translation, g.lattice)


class TestBuilders:
    def test_half_period_translation(self):
        assert build_w(1).coords == (H, F(0), H, F(0), F(0), F(0))
        w2 = build_w(2)
        assert len(w2) == 10
        assert all(w2[2 * i] == H for i in range(4))
        assert all(w2[2 * i + 1] == 0 for i in range(5))
        assert w2[8] == 0

    def test_reflection_offsets_alternate(self):
        offsets = build_b(2)
        assert [b.coords for b in offsets] == [
            (H, H), (F(0), H), (H, H), (F(0), H),
        ]

    def test_offsets_fold_to_half_periods_modulo_the_curve(self):
        curve = EnlargedLattice.standard(2)
        for n in (1, 2, 3):
            offsets = build_b(n)
            for i in range(2 * n):
                folded = curve.reduce(offsets[i] - offsets[2 * n - 1 - i])
                assert folded.coords == (H, F(0))

    def test_rotation_map(self):
        r = build_r(1)
        assert r.perm == (1, 0, 2)
        assert r.signs == (-1, 1, 1)
        assert r.translation.coords == (F(0),) * 4 + (F(1, 4), F(0))
        r2 = build_r(2)
        assert r2.perm == (3, 0, 1, 2, 4)
        assert r2.signs == (-1, 1, 1, 1, 1)
        assert r2.translation.coords == (F(0),) * 8 + (F(1, 8), F(0))

    def test_reflection_map(self):
        s = build_s(1)
        assert s.perm == (1, 0, 2)
        assert s.signs == (-1, -1, -1)
        assert s.translation.coords == (H, H, F(0), H, F(0), F(0))

    def test_half_turn_negates_the_curve_block(self):
        # r^{2n} acts as −1 on every E factor and as +1 on E′.
        for n in (1, 2):
            shape = TorusShape(n)
            r, _ = realified_action(n, ambient_lattice(n))
            half_turn = _power(r, 2 * n)
            m = shape.real_dim
            expected = Matrix(
                [
                    [
                        (-1 if i < 4 * n else 1) if i == j else 0
                        for j in range(m)
                    ]
                    for i in range(m)
                ]
            )
            assert half_turn.linear == expected

    def test_realified_action_defaults_to_the_quotient(self):
        r, s = realified_action(1)
        assert r.lattice == quotient_lattice(1)
        assert s.lattice == r.lattice
        r_amb, _ = realified_action(1, ambient_lattice(1))
        assert r_amb.lattice == ambient_lattice(1)

    def test_params_validation(self):
        with pytest.raises(ValueError):
            ConstructionParams(0)
        assert ConstructionParams(3).n == 3


class TestSharedConstructions:
    def test_each_lattice_is_reduced_once(self, monkeypatch):
        n = 3
        # Start cold, so the counts are those of a fresh process.
        for constructor in (dihedral._family, EnlargedLattice.standard):
            constructor.cache_clear()
        reductions, realifications = [], []

        def counting_hnf(m, d, rows):
            reductions.append(tuple(map(tuple, rows)))
            return sparse_hnf(m, d, rows)

        def counting_realify(*args):
            realifications.append(args)
            return realify(*args)

        sparse_hnf = torus._sparse_hnf
        monkeypatch.setattr(torus, "_sparse_hnf", counting_hnf)
        monkeypatch.setattr(dihedral, "realify", counting_realify)
        for _ in range(25):
            realified_action(n)
            realified_action(n, ambient_lattice(n))
        # (r, s) on each of the two lattices, once.
        assert len(realifications) == 4
        verify_theorem(n)
        verify_theorem(n)
        # verify_theorem reads the cached generators and realifies nothing.
        assert len(realifications) == 4
        # The quotient lattice, once; Z^m takes no reduction, and the
        # offset fold reads integer numerators and builds no curve lattice Z^2.
        assert len(reductions) == 1
        assert quotient_lattice(n) is quotient_lattice(n)
        assert ambient_lattice(n) is EnlargedLattice.standard(4 * n + 2)

    def test_families_are_bounded_and_rebuild_to_the_same_bytes(self):
        first = dihedral._family(1)
        before = _rendered(verify_theorem(1))
        for n in range(1, CACHE_BOUND + 5):
            verify_theorem(n)
        assert dihedral._family.cache_info().currsize == CACHE_BOUND
        assert analysis._normal_forms.cache_info().currsize <= CACHE_BOUND
        # n = 1 was evicted with its maps' kept facts; a new family decides
        # them again.
        assert dihedral._family(1) is not first
        assert _rendered(verify_theorem(1)) == before

    def test_a_third_lattice_gets_a_fresh_pair(self):
        # Z^6 enlarged by a half period of E′: neither lattice of n = 1.
        lattice = EnlargedLattice.from_extra_generators(6, [(0, 0, 0, 0, H, 0)])
        family = dihedral._family(1)
        realified_action(1)
        realified_action(1, ambient_lattice(1))
        kept = set(vars(family))
        first, second = realified_action(1, lattice), realified_action(1, lattice)
        assert first == second and first[0] is not second[0]
        assert first[0].lattice is lattice
        assert set(vars(family)) == kept and dihedral._family(1) is family

    def test_corollary_realifies_nothing_once_warm(self, monkeypatch):
        # The corollary's rotation r^{4n/k} is a power of the cached r.
        verify_corollary(5)
        calls = []

        def counting_realify(*args):
            calls.append(args)
            return realify(*args)

        monkeypatch.setattr(torus, "realify", counting_realify)
        monkeypatch.setattr(dihedral, "realify", counting_realify)
        assert verify_corollary(5).verified
        assert verify_corollary(5).verified
        assert calls == []

    def test_constructors_return_shared_immutable_values(self):
        for build in (build_w, build_b, build_r, build_s, realified_action):
            assert build(2) is build(2)
        assert isinstance(build_b(2), tuple)
        # realify's default lattice is the shared Z^m.
        assert realify(build_r(2), TorusShape(2)).lattice is ambient_lattice(2)

    def test_sharing_is_safe(self):
        n = 2
        r, s = realified_action(n)
        for text in ("r^3 s", "s r^-2", "r^8", "s s"):
            g = evaluate_word(parse_word(text), r, s)
            assert g.linear.n_rows == 4 * n + 2
        assert r.linear.n_rows == s.linear.n_rows == 4 * n + 2
        shape, lattice = TorusShape(n), quotient_lattice(n)
        cached = realified_action(n)
        fresh = (
            realify(build_r(n), shape, lattice),
            realify(build_s(n), shape, lattice),
        )
        for got, want in zip(cached, fresh):
            assert got.perm == want.perm
            assert got.signs == want.signs
            assert got.shift == want.shift
            assert got.denominator == want.denominator
            assert got.lattice == want.lattice
            assert got.linear == want.linear
            assert got == want


class TestVerifyTheorem:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_small_cases_verify(self, n):
        cert = verify_theorem(n)
        assert isinstance(cert, Certificate)
        assert cert.theorem_verified
        assert cert.dimension == 2 * n + 1
        assert cert.group_order_expected == 8 * n
        assert cert.group_order_actual == 8 * n
        assert cert.is_free
        assert cert.has_no_translations
        for step in cert.steps:
            assert step.passed
            assert all(ok for _, ok in step.checks)

    def test_reports_cover_the_whole_group(self):
        n = 2
        cert = verify_theorem(n)
        assert len(cert.reports) == 8 * n
        by_word = {rep.word: rep for rep in cert.reports}
        assert by_word[""].order == 1
        assert by_word[""].has_fixed_point
        assert by_word["r"].order == 4 * n
        assert by_word["s"].order == 2
        assert by_word["r s"].order == 2
        # Involutions: the 4n symmetries plus the central half turn.
        assert sum(1 for rep in cert.reports if rep.order == 2) == 4 * n + 1
        for rep in cert.reports:
            if rep.word:
                assert not rep.has_fixed_point
            assert not rep.is_translation

    def test_step_names_are_distinct(self):
        cert = verify_theorem(1)
        names = [step.name for step in cert.steps]
        assert len(set(names)) == 5
        assert all(names)

    def test_validates_n(self):
        with pytest.raises(ValueError):
            verify_theorem(0)

    def test_each_element_is_composed_once_and_decomposed_once(self, work):
        # Machine-independent work counts of the listing of a group of 128
        # elements: the closure composes each element with each of the two
        # generators once, and each element's verdicts come from one cycle
        # walk of its map.  Fresh copies of r and s, since the cached ones
        # may have been walked.
        n, size = 16, 128
        gens = [_fresh(g) for g in realified_action(n)]
        assert analysis.analyze_group(gens).group_size == size
        assert work.counts == (2 * size, size, 0)


class TestMutants:
    def failed_checks(self, cert):
        return {
            label
            for step in cert.steps
            for label, ok in step.checks
            if not ok
        }

    @pytest.mark.parametrize("n", [1, 2])
    def test_missing_rotation_shift_breaks_rotation_freeness(self, n):
        cert = verify_mutant("no-rotation-shift", n)
        assert not cert.theorem_verified
        assert not cert.steps[0].passed
        assert not cert.is_free
        failed = self.failed_checks(cert)
        assert "no proper rotation power has a fixed point" in failed
        assert all(step.passed for step in cert.steps[1:4])

    @pytest.mark.parametrize("n", [1, 2])
    def test_zero_offsets_breaks_reflection_freeness(self, n):
        cert = verify_mutant("zero-offsets", n)
        assert not cert.theorem_verified
        assert not cert.steps[4].passed
        assert not cert.is_free
        failed = self.failed_checks(cert)
        assert "s has no fixed point on the quotient" in failed
        assert "s² is the translation by w on the ambient torus" in failed
        assert cert.steps[0].passed

    @pytest.mark.parametrize("n", [1, 2])
    def test_skipping_the_quotient_leaves_a_translation(self, n):
        cert = verify_mutant("no-quotient", n)
        assert not cert.theorem_verified
        assert cert.group_order_actual == 16 * n
        assert not cert.has_no_translations
        assert not cert.steps[2].passed
        translations = [rep for rep in cert.reports if rep.is_translation]
        assert len(translations) == 1
        assert translations[0].order == 2

    def test_unknown_mutant_rejected(self):
        with pytest.raises(ValueError, match="unknown mutant"):
            verify_mutant("make-it-worse", 1)
        with pytest.raises(ValueError):
            verify_mutant("zero-offsets", 0)

    def test_mutant_registry_documents_each_name(self):
        assert set(MUTANTS) == {
            "no-rotation-shift", "zero-offsets", "no-quotient",
        }
        assert all(MUTANTS.values())


class TestCorollary:
    @pytest.mark.parametrize(
        "k, n, power, dimension",
        [
            (1, 1, 4, 3),
            (2, 1, 2, 3),
            (3, 3, 4, 7),
            (4, 1, 1, 3),
            (5, 5, 4, 11),
            (6, 3, 2, 7),
            (7, 7, 4, 15),
            (8, 2, 1, 5),
            (12, 3, 1, 7),
        ],
    )
    def test_plan_parameters(self, k, n, power, dimension):
        plan = build_corollary(k)
        assert plan.params.n == n
        assert plan.rotation_power == power
        assert plan.expected_dimension == dimension
        assert plan.expected_dimension == lcm(4, k) // 2 + 1
        assert plan.expected_order == 2 * k
        r, _ = realified_action(n)
        assert order(_power(r, power)) == k

    def test_full_rotation_reused_when_k_is_a_multiple_of_four(self):
        plan = build_corollary(4)
        assert plan.rotation_power == 1
        r, _ = realified_action(1)
        assert _power(r, plan.rotation_power) == r

    def test_plan_validation(self):
        with pytest.raises(ValueError):
            build_corollary(0)

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6, 7, 8, 12])
    def test_embedded_actions_verify(self, k):
        cert = verify_corollary(k)
        assert cert.verified
        assert cert.group_order_actual == 2 * k
        assert all(step.passed for step in cert.steps)
        assert cert.has_no_translations
        assert cert.is_free
        assert cert.ambient_dimension == lcm(4, k) // 2 + 1
        assert len(cert.reports) == 2 * k
        for rep in cert.reports:
            if rep.word:
                assert not rep.has_fixed_point
            assert not rep.is_translation

    def test_degenerate_group_is_just_the_reflection(self):
        cert = verify_corollary(1)
        assert cert.group_order_actual == 2
        assert sorted(rep.word for rep in cert.reports) == ["", "s"]

    def test_step_names_are_distinct(self):
        cert = verify_corollary(5)
        names = [step.name for step in cert.steps]
        assert len(set(names)) == 5
        assert all(names)
        assert names == [step.name for step in verify_corollary(3).steps]


@pytest.fixture
def closures(monkeypatch):
    """The generator lists of every closure built while the test runs."""
    calls, close = [], analysis.closure

    def spy(autos, *args, **kwargs):
        calls.append(autos)
        return close(autos, *args, **kwargs)

    monkeypatch.setattr(analysis, "closure", spy)
    return calls


class TestPresentationProof:
    @pytest.mark.parametrize("n", range(1, 17))
    def test_theorem_equals_the_enumeration(self, n, closures):
        cert = verify_theorem(n)
        assert len(closures) == 0
        assert cert.theorem_verified
        kept = assert_presents_the_listing(*realified_action(n))
        assert cert.reports is kept.rows

    @pytest.mark.parametrize("k", range(1, 32))
    def test_corollary_equals_the_enumeration(self, k, closures):
        cert = verify_corollary(k)
        # Every D_k, D_1 and D_2 included, is derived from its presentation.
        assert len(closures) == 0
        assert cert.verified
        plan = build_corollary(k)
        r, s = realified_action(plan.params.n)
        kept = assert_presents_the_listing(_power(r, plan.rotation_power), s)
        assert cert.reports is kept.rows

    @pytest.mark.parametrize("name", sorted(MUTANTS))
    def test_mutants_enumerate_once(self, name, closures):
        assert not verify_mutant(name, 2).theorem_verified
        # Two mutants keep the D_{4n} presentation; the no-quotient pair
        # (ord s = 4) is derived from its central-extension presentation.
        assert closures == []

    @pytest.mark.parametrize("n", range(1, 13))
    def test_no_quotient_equals_the_enumeration(self, n, closures):
        cert = verify_mutant("no-quotient", n)
        assert len(closures) == 0
        assert not cert.theorem_verified
        r, s = realified_action(n, ambient_lattice(n))
        kept = assert_presents_the_listing(r, s)
        assert len(closures) == 1
        assert kept.z is not None and cert.reports is kept.rows

    @pytest.mark.parametrize("e_shift", [0, F(1, 4), F(1, 2), F(3, 4)])
    def test_extension_rows_that_are_not_free(self, e_shift, closures):
        # Upstairs at n = 1, with one offset of s kept and r's E′ shift
        # redrawn, s, rs, sz and rsz do not all share their verdicts, so
        # each row must read the class of its own reflection.
        lattice = ambient_lattice(1)
        r, s = realified_action(1, lattice)
        r = torus.AffineAuto(r.perm, r.signs, (0, 0, 0, 0, e_shift, 0), lattice)
        s = torus.AffineAuto(s.perm, s.signs, (0, 0, 0, H, 0, 0), lattice)
        rows = presented(r, s).rows
        assert closures == []
        assert any(rep.has_fixed_point for rep in rows[1:])
        kept = assert_presents_the_listing(r, s)
        assert kept.z is not None
        forms = analysis._normal_forms(kept.k, True)
        assert len({
            (rep.order, rep.has_fixed_point)
            for (_, b, _), rep in zip(forms, rows) if b
        }) > 1

    @pytest.mark.parametrize(
        "r_perm, r_shift, inside, central",
        [((0, 1), (0, F(1, 4)), True, True), ((1, 0), (0, F(3, 4)), False, False)],
        ids=["z-in-r", "z-not-central"],
    )
    def test_extension_hypotheses_fail_to_a_refusal(
        self, r_perm, r_shift, inside, central, closures, monkeypatch
    ):
        # s is the translation by (0, 1/4) on Z², so ord s = 4 and z = s²
        # is the translation by (0, 1/2), and ord rs = 2 in both pairs.
        # r = s makes z = r² ∈ ⟨r⟩ (a cyclic group of order 4), and a
        # swapping r moves z to (1/2, 0), so z is not central.  Each pair
        # is refused at the hypothesis it fails, and nothing is closed.
        lattice = EnlargedLattice.standard(2)
        s = torus.AffineAuto((0, 1), (1, 1), (0, F(1, 4)), lattice)
        r = torus.AffineAuto(r_perm, (1, 1), r_shift, lattice)
        z = torus.compose(s, s)
        assert (order(s), order(torus.compose(r, s))) == (4, 2)
        assert z.is_linear_identity
        assert (_power(r, order(r) // 2) == z) == inside
        assert analysis._fixes(r, z.shift, z.denominator) == central
        listings = []
        monkeypatch.setattr(analysis, "analyze_group", listings.append)
        failed = "lies in ⟨r⟩" if inside else "is not a central translation"
        with pytest.raises(ValueError, match=f"z = s² {failed}$"):
            analysis._presentation(r, s)
        assert closures == listings == []

    def test_z_that_is_not_a_translation_is_refused(self, closures, monkeypatch):
        # On Z², s = (x, y) ↦ (−y, x) has order 4 and z = s² = −1 is no
        # translation; a swapping r makes rs a reflection, so ord rs = 2
        # and only the hypothesis on z fails.
        lattice = EnlargedLattice.standard(2)
        s = torus.AffineAuto((1, 0), (-1, 1), (0, 0), lattice)
        r = torus.AffineAuto((1, 0), (1, 1), (0, 0), lattice)
        assert (order(s), order(torus.compose(r, s))) == (4, 2)
        assert not torus.compose(s, s).is_linear_identity
        listings = []
        monkeypatch.setattr(analysis, "analyze_group", listings.append)
        with pytest.raises(ValueError, match="z = s² is not a central translation$"):
            analysis._presentation(r, s)
        assert closures == listings == []

    @pytest.mark.parametrize("n", [1, 2])
    def test_rs_that_is_not_an_involution_is_refused(self, n, closures, monkeypatch):
        # s = r^{2n} is an involution, but rs = r^{2n+1} generates ⟨r⟩
        # since 2n + 1 is prime to 4n, so ord rs = 4n and nothing is listed.
        r, _ = realified_action(n)
        s = _power(r, 2 * n)
        assert (order(r), order(s)) == (4 * n, 2)
        listings = []
        monkeypatch.setattr(analysis, "analyze_group", listings.append)
        with pytest.raises(ValueError, match=f"ord rs = {4 * n}, not 2$"):
            analysis._presentation(r, s)
        assert closures == listings == []

    @pytest.mark.parametrize(
        "verify",
        [
            lambda: verify_theorem(3),
            lambda: verify_mutant("no-quotient", 3),
            lambda: verify_mutant("no-rotation-shift", 3),
            lambda: verify_mutant("zero-offsets", 3),
            lambda: verify_corollary(6),
        ],
        ids=["theorem", "no-quotient", "no-rotation-shift", "zero-offsets", "corollary"],
    )
    def test_every_verifier_input_lists_nothing(self, verify, monkeypatch):
        # Each verifier's pair keeps a presentation, so neither the
        # closure nor the listing runs, and every row is still reported.
        def listing(*args):
            raise AssertionError("listed a group")

        for name in ("closure", "analyze_group"):
            monkeypatch.setattr(analysis, name, listing)
        cert = verify()
        assert len(cert.reports) == cert.group_order_actual > 0

    @pytest.mark.parametrize(
        "verify",
        [
            lambda: verify_mutant("zero-offsets", 2),
            lambda: verify_mutant("no-rotation-shift", 2),
            lambda: verify_corollary(2),
        ],
        ids=["zero-offsets", "no-rotation-shift", "corollary"],
    )
    def test_generator_orders_are_decided_once(
        self, verify, monkeypatch, closures, forget, work
    ):
        # From emptied slots on, over the pair's lifetime: r and s are
        # walked once each, and rs is composed and walked once, by the
        # first call; the second call reads the pair's kept rows.
        pairs, present = [], analysis._presentation

        def capture(r, s):
            pairs.append((r, s))
            return present(r, s)

        monkeypatch.setattr(dihedral, "_presentation", capture)
        verify()
        r, s = pairs[0]
        rs = torus.compose(r, s)
        forget(r, s)
        work.clear()
        verify()
        verify()
        assert pairs == [(r, s)] * 3
        assert sum(g is r for g in work.walked) == 1
        assert sum(g is s for g in work.walked) == 1
        assert work.walked.count(rs) == 1
        assert work.composed.count(rs) == 1
        assert closures == []

    @pytest.mark.parametrize("k", [1, 2])
    def test_corollaries_one_and_two_derive(self, k, closures):
        # D_1 and D_2 are decided by the prime-order checks, like every D_k.
        plan = build_corollary(k)
        r, s = realified_action(plan.params.n)
        kept = presented(_power(r, plan.rotation_power), s)
        assert (len(kept.rows), kept.k, kept.z) == (2 * k, k, None)
        assert not any(rep.has_fixed_point for rep in kept.rows[1:])
        assert not any(rep.is_translation for rep in kept.rows)
        assert verify_corollary(k).verified
        assert closures == []

    def test_theorem_composes_logarithmically_often(self, forget, work):
        # At n = 128, closing the 1,024 elements makes 2,048
        # compositions and 1,024 cycle decompositions.  The cached maps
        # are emptied first, as another test may have decided them.
        n = 128
        forget(*realified_action(n), *realified_action(n, ambient_lattice(n)))
        assert verify_theorem(n).theorem_verified
        composed, walked, _ = work.counts
        assert 0 < composed <= 32
        assert 0 < walked <= 16

    @pytest.mark.parametrize("name", ["zero-offsets", "no-rotation-shift"])
    def test_mutants_that_keep_the_presentation_list_nothing(
        self, name, monkeypatch, forget, work
    ):
        # At n = 64 listing the 512 elements made 521 compositions and
        # 517-519 cycle decompositions; the derivation decides a few
        # rotation classes instead.  The mutant's maps are emptied first.
        n = 64
        forget(*dihedral._family(n).mutants[name])
        listings = []
        monkeypatch.setattr(analysis, "analyze_group", listings.append)
        cert = verify_mutant(name, n)
        assert not cert.theorem_verified
        assert cert.group_order_actual == 8 * n
        assert listings == []
        composed, walked, _ = work.counts
        assert 0 < walked <= 16
        assert 0 < composed <= 48

    def test_no_quotient_builds_no_closure(
        self, monkeypatch, closures, forget, work
    ):
        # At n = 64 closing the 1,024 elements made 2,048 compositions and
        # 1,026 cycle decompositions.  The derivation composes rs, sz, rsz
        # and r^{128}·z, and reads z = s² and r^{128} off the cycles of s
        # and r; _certify reads the same s², kept on s.  Each map it
        # decides walks its own cycles: r, s, rs, r^{128}, sz, rsz and
        # r^{128}·z.  The mutant's r and s are emptied first, as another
        # test may have walked or decided them or built their powers.
        n = 64
        forget(*dihedral._family(n).mutants["no-quotient"])
        listings = []
        monkeypatch.setattr(analysis, "analyze_group", listings.append)
        cert = verify_mutant("no-quotient", n)
        assert cert.group_order_actual == 16 * n
        assert not cert.has_no_translations
        assert closures == listings == []
        assert work.counts == (4, 7, 2)

    @pytest.mark.parametrize(
        "extras, e_shift, holds",
        [
            ([], 0, True),
            ([(H, 0, H, 0, 0, 0)], 0, True),
            ([(0, 0, 0, 0, H, 0)], 0, False),
            ([(H, 0, H, 0, 0, 0), (H, 0, 0, 0, H, 0)], 0, True),
            ([(H, 0, H, 0, 0, 0), (H, 0, 0, 0, H, 0)], F(1, 4), False),
        ],
        ids=["ambient", "quotient", "E′-halved", "E′-sheared", "E-shifted"],
    )
    def test_power_shift_check_matches_the_powers(self, extras, e_shift, holds):
        # The closed-form check on r agrees with the E′ shift of every
        # power r^j, also on lattices that reduce the E′ coordinate and
        # for an r that also translates along E, where a sheared row
        # carries into E′.
        lattice = EnlargedLattice.from_extra_generators(6, extras)
        r, s = realified_action(1, lattice)
        r = torus.AffineAuto(r.perm, r.signs, (0, 0, e_shift, 0, F(1, 4), 0), lattice)
        cert = dihedral._certify(1, r, s, *realified_action(1, ambient_lattice(1)))
        checks = dict(cert.steps[0].checks)
        powers = [_power(r, j) for j in range(1, 4)]
        assert all(
            g.perm[4:] == (4, 5)
            and g.signs[4:] == (1, 1)
            and g.shift[4] * 4 == j * g.denominator
            for j, g in enumerate(powers, 1)
        ) == holds
        label = "every power r^j shifts the E′ coordinate by exactly j/4n"
        assert checks[label] == holds

    @pytest.mark.parametrize("offsets", [(H, 0, 0, 0), (0, H, 0, H)])
    def test_each_reflection_class_is_checked(self, offsets):
        # One of s and rs has a fixed point and the other has none, so
        # the presentation cannot prove the pair free.
        r, s = realified_action(1)
        s = torus.AffineAuto(s.perm, s.signs, offsets + (0, 0), s.lattice)
        assert analysis.exists_fixed_point(s) != analysis.exists_fixed_point(
            torus.compose(r, s)
        )
        kept = assert_presents_the_listing(r, s)
        assert any(rep.has_fixed_point for rep in kept.rows[1:])

    def test_each_prime_order_rotation_is_checked(self):
        # With E′ shift 1/4 at n = 3, r has order 12 and r^4 = r^{12/3}
        # has a fixed point while r^6 = r^{12/2} has none.
        r, s = realified_action(3)
        shift = [0] * len(r.perm)
        shift[12] = F(1, 4)
        r = torus.AffineAuto(r.perm, r.signs, shift, r.lattice)
        assert analysis.exists_fixed_point(_power(r, 4))
        assert not analysis.exists_fixed_point(_power(r, 6))
        kept = assert_presents_the_listing(r, s)
        assert any(rep.has_fixed_point for rep in kept.rows[1:])


@pytest.mark.parametrize(
    "verify",
    [
        lambda: verify_theorem(1),
        lambda: verify_mutant("no-quotient", 1),
        lambda: verify_corollary(3),
        lambda: verify_mutant("zero-offsets", 1),
        lambda: verify_mutant("no-rotation-shift", 1),
    ],
    ids=["theorem", "mutant", "corollary", "zero-offsets", "no-rotation-shift"],
)
def test_every_verifier_returns_one_certificate_type(verify):
    cert = verify()
    assert type(cert) is Certificate
    assert len(cert.steps) == 5
    assert cert.verified == cert.theorem_verified
    assert cert.ambient_dimension == cert.dimension == 2 * cert.n + 1


@pytest.mark.parametrize(
    "verify, parameters",
    [
        (verify_theorem, ["n"]),
        (verify_mutant, ["name", "n"]),
        (verify_corollary, ["k"]),
    ],
    ids=["theorem", "mutant", "corollary"],
)
def test_verifiers_take_no_cap(verify, parameters):
    # The proof is derived, so no verifier has a closure to cap.
    assert list(inspect.signature(verify).parameters) == parameters


# --- property-based coverage ------------------------------------------------


@given(st.integers(1, 5))
@settings(deadline=None, max_examples=5)
def test_rotation_power_cycles_factors_with_one_sign_flip(n):
    r, _ = realified_action(n, ambient_lattice(n))
    # One full cycle of the 2n E factors returns each with a single flip.
    full = _power(r, 2 * n)
    assert full.perm == tuple(range(4 * n + 2))
    assert full.signs == (-1,) * (4 * n) + (1, 1)
    assert full.translation[4 * n] == F(1, 2)


@given(st.integers(1, 24))
@settings(deadline=None, max_examples=24)
def test_corollary_plan_invariants(k):
    plan = build_corollary(k)
    four_n = 4 * plan.params.n
    assert four_n == lcm(4, k)
    assert four_n % k == 0
    assert plan.rotation_power * k == four_n
    assert plan.expected_dimension == 2 * plan.params.n + 1


# --- integer certificate checks ---------------------------------------------


def _signed_permutations(max_m=6):
    return st.integers(2, max_m).flatmap(
        lambda m: st.tuples(
            st.permutations(range(m)), st.lists(st.sampled_from((1, -1)), min_size=m, max_size=m)
        )
    )


_PARTS = st.sampled_from((F(0), H, F(1, 3), F(1, 4), F(3, 4), F(2, 3), F(1, 6), F(5, 2)))


@st.composite
def _maps_and_points(draw):
    """A signed permutation M on a lattice that M preserves, and a point.

    The lattice is Z^m enlarged by the M-orbit of a drawn vector, so M
    maps it onto itself; the point is drawn, or replaced by the sum of
    its M-orbit, which M fixes.
    """
    perm, signs = draw(_signed_permutations())
    m = len(perm)

    def move(v):
        return tuple(s * v[src] for src, s in zip(perm, signs))

    extras = []
    if draw(st.booleans()):
        g = tuple(draw(st.lists(_PARTS, min_size=m, max_size=m)))
        while g not in extras:
            extras.append(g)
            g = move(g)
    lattice = EnlargedLattice.from_extra_generators(m, extras)
    shift = draw(st.lists(_PARTS, min_size=m, max_size=m))
    g = torus.AffineAuto(perm, signs, shift, lattice)
    p = tuple(draw(st.lists(_PARTS, min_size=m, max_size=m)))
    if draw(st.booleans()):
        orbit, q = [p], move(p)
        while q != p:
            orbit.append(q)
            q = move(q)
        p = tuple(sum(c) for c in zip(*orbit))
    return g, p


@given(_maps_and_points())
@settings(deadline=None, max_examples=300)
def test_integer_fixes_agrees_with_apply_and_reduce(case):
    g, p = case
    num, den = g.lattice.scaled(p)
    expected = g.linear_part().apply(p) == g.lattice.reduce(p)
    assert dihedral._fixes(g, num, den) == expected


@st.composite
def _offsets(draw):
    """2n offsets that fold to (1/2, 0) modulo Z², then perhaps one changed."""
    n = draw(st.integers(1, 4))
    first = draw(st.lists(st.tuples(_PARTS, _PARTS), min_size=n, max_size=n))
    lifts = draw(st.lists(st.tuples(st.integers(-2, 2), st.integers(-2, 2)),
                          min_size=n, max_size=n))
    # b_{2n+1−i} = b_i − (1/2, 0) + a lattice vector, so both orders fold.
    second = [(x - H + p, y + q) for (x, y), (p, q) in zip(first, lifts)]
    pairs = first + second[::-1]
    if draw(st.booleans()):
        i = draw(st.integers(0, 2 * n - 1))
        pairs[i] = draw(st.tuples(_PARTS, _PARTS))
    return [torus.TorsionPoint.of(b) for b in pairs]


@given(_offsets())
@settings(deadline=None, max_examples=300)
def test_integer_offset_fold_agrees_with_reduce(offsets):
    curve = EnlargedLattice.standard(2)
    expected = all(
        curve.reduce(b - c).coords == (H, F(0))
        for b, c in zip(offsets, reversed(offsets))
    )
    assert dihedral._offsets_fold(offsets) == expected


def test_offset_fold_refuses_broken_offsets():
    offsets = list(build_b(2))
    assert dihedral._offsets_fold(offsets)
    for broken in (
        [torus.TorsionPoint.of((F(0), F(0)))] * 4,
        offsets[:1] + [torus.TorsionPoint.of((F(1, 4), H))] + offsets[2:],
        [offsets[1], offsets[0], offsets[2], offsets[3]],
    ):
        assert not dihedral._offsets_fold(broken)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_warm_verifiers_reduce_apply_and_realify_nothing(n, monkeypatch):
    verifiers = [lambda: verify_theorem(n), lambda: verify_corollary(2 * n + 1)]
    verifiers += [lambda name=name: verify_mutant(name, n) for name in MUTANTS]
    for verify in verifiers:
        verify()
    calls = []

    def counting(name, original):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(
        EnlargedLattice, "reduce", counting("reduce", EnlargedLattice.reduce)
    )
    monkeypatch.setattr(
        torus.AffineAuto, "apply", counting("apply", torus.AffineAuto.apply)
    )
    for module in (torus, dihedral):
        monkeypatch.setattr(module, "realify", counting("realify", realify))
    for verify in verifiers:
        verify()
    assert calls == []


@pytest.mark.parametrize("n", [1, 2, 3])
def test_mutants_are_the_linear_parts_of_the_realified_maps(n):
    shape = TorusShape(n)
    for build in (build_r, build_s):
        cmap = build(n)
        bare = torus.ComplexMonomialMap(
            cmap.perm, cmap.signs, torus.TorsionPoint.zero(len(cmap.translation))
        )
        for lattice in (quotient_lattice(n), ambient_lattice(n)):
            g = realify(cmap, shape, lattice)
            assert g.linear_part() == realify(bare, shape, lattice)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_row_lookup_of_the_extension_is_the_closure_row(n):
    # The derived central extension holds each closure row at its own place.
    r, s = realified_action(n, ambient_lattice(n))
    closed = analysis.analyze_group([r, s])
    kept = presented(r, s)
    assert kept.z is not None and kept.k == 4 * n
    forms = [(a, b) for a in range(-kept.k, 2 * kept.k) for b in (0, 1)]
    row = dict(zip((e.auto for e in closed.elements), closed.reports))
    expected = [
        row[torus.compose(_power(r, a), s) if b else _power(r, a)] for a, b in forms
    ]
    assert [kept.row(a, b) for a, b in forms] == expected


@pytest.mark.parametrize("k", [4, 8, 12, 13])
def test_row_lookup_of_d_k_is_the_listed_row(k):
    # k = 4n is the quotient pair (r, s) at n = 1, 2, 3, and k = 13 the
    # corollary's (r^4, s) at n = 13.  The derivation of D_k holds the row
    # of r^a s^b at its place, for a outside 0..k−1 too: its label names
    # that element, and its verdicts are the listed ones.
    plan = build_corollary(k)
    r, s = realified_action(plan.params.n)
    r = _power(r, plan.rotation_power)
    listed = analysis.analyze_group([r, s])
    kept = presented(r, s)
    assert kept.k == k and kept.z is None
    listed_verdicts = dict(zip((e.auto for e in listed.elements), map(verdicts, listed.reports)))
    for a in range(-k, 2 * k):
        for b in (0, 1):
            g = torus.compose(_power(r, a), s) if b else _power(r, a)
            row = kept.row(a, b)
            assert word_map(row.word, r, s) == g
            assert verdicts(row) == listed_verdicts[g]


@pytest.fixture
def built_rows(monkeypatch):
    """The `ElementReport`s that `analysis` builds while the test runs."""
    built, report = [], analysis.ElementReport

    def building(*fields):
        built.append(report(*fields))
        return built[-1]

    monkeypatch.setattr(analysis, "ElementReport", building)
    return built


class TestKeptFacts:
    """Each map walks its cycles, decides its order and fixed point, and
    builds each of its powers once, and keeps them for the next query;
    each generator pair keeps its rows on r."""

    @pytest.mark.parametrize(
        "verify, maps, cold",
        [
            # rs composed; r, s, rs, r^{256} and s upstairs walked; r^{256}
            # and s² upstairs built.
            (lambda: verify_theorem(128),
             lambda: (*realified_action(128), *realified_action(128, ambient_lattice(128))),
             (1, 5, 2)),
            # r^4·s composed; r, r^4, s and r^4·s walked; r^4 built.
            (lambda: verify_corollary(13), lambda: realified_action(13), (1, 4, 1)),
        ],
        ids=["theorem-128", "corollary-13"],
    )
    def test_warm_verifiers_compose_and_walk_nothing(
        self, verify, maps, cold, forget, work
    ):
        forget(*maps())
        for expected in (cold, (0, 0, 0)):
            work.clear()
            assert verify().theorem_verified
            assert work.counts == expected

    @pytest.mark.parametrize(
        "verify, maps, size",
        [
            (lambda: verify_theorem(3), lambda: realified_action(3), 24),
            *[
                (lambda name=name: verify_mutant(name, 3),
                 lambda name=name: dihedral._family(3).mutants[name], size)
                for name, size in [
                    ("no-rotation-shift", 24), ("zero-offsets", 24), ("no-quotient", 48)
                ]
            ],
            (lambda: verify_corollary(13), lambda: realified_action(13), 26),
        ],
        ids=["theorem", "no-rotation-shift", "zero-offsets", "no-quotient", "corollary"],
    )
    def test_a_pair_builds_its_rows_once(self, verify, maps, size, forget, built_rows):
        # Cold, a verifier builds one row per element of its pair's group:
        # 8n, 16n for the no-quotient extension and 2k for the corollary's
        # D_k.  Warm, it builds none and certifies the kept rows.
        forget(*maps())
        cold = verify()
        assert len(built_rows) == size == cold.group_order_actual
        built_rows.clear()
        assert verify().reports is cold.reports
        assert built_rows == []

    @pytest.mark.parametrize("name", sorted(MUTANTS))
    def test_warm_mutants_keep_their_maps(self, name, work):
        verify_mutant(name, 64)
        work.clear()
        assert not verify_mutant(name, 64).theorem_verified
        assert work.counts == (0, 0, 0)

    @pytest.mark.parametrize("lattice", [None, ambient_lattice(2)], ids=["quotient", "ambient"])
    @pytest.mark.parametrize("text", ["r^13", "r^3 s", "s r^-2", "s s"])
    def test_a_repeated_single_run_word_redoes_nothing(self, text, lattice, work, monkeypatch):
        r, s = realified_action(2, lattice)
        word = parse_word(text)
        g = evaluate_word(word, r, s)
        decided = order(g), analysis.is_translation(g), analysis.exists_fixed_point(g)
        work.clear()
        # No map is hashed or compared again: each keeps its hash.
        keyed, key = [], torus.AffineAuto._key
        monkeypatch.setattr(torus.AffineAuto, "_key", lambda h: keyed.append(h) or key(h))
        again = evaluate_word(word, r, s)
        assert decided == (
            order(again), analysis.is_translation(again), analysis.exists_fixed_point(again)
        )
        assert again is g and work.counts == (0, 0, 0) and keyed == []


def _rendered(cert):
    """A theorem certificate's bytes, its step checks and its verdict tuples."""
    text = certificate.render_json(certificate.theorem_document(cert, {"n": cert.n}))
    steps = tuple((st.name, st.checks) for st in cert.steps)
    verdicts = (cert.theorem_verified, cert.is_free, cert.has_no_translations)
    return text, steps, cert.reports, verdicts


class TestKeptClassTable:
    """A pair decides its rows once and r keeps them under s: every
    later call reads them and renders what fresh maps render."""

    @pytest.mark.parametrize("n", range(1, 7))
    def test_verifiers_sharing_r_match_fresh_maps(self, n, forget):
        # The family builds its mutants from its own pairs, so the
        # zero-offsets mutant keeps the theorem's r.
        theorem = (*realified_action(n), *realified_action(n, ambient_lattice(n)))
        mutant = dihedral._family(n).mutants["zero-offsets"]
        assert mutant[0] is theorem[0]
        forget(*theorem, *mutant)
        runs = (
            (lambda: verify_theorem(n), theorem),
            (lambda: verify_mutant("zero-offsets", n), mutant),
            (lambda: verify_theorem(n), theorem),
        )
        for verify, maps in runs:
            fresh = dihedral._certify(n, *map(_fresh, maps))
            assert _rendered(verify()) == _rendered(fresh)
        # One presentation per partner of r, each decided once.
        r = theorem[0]
        assert list(r._classes) == [theorem[1], mutant[1]]

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_corollary_of_the_whole_rotation_reads_the_theorem_table(
        self, n, forget, work
    ):
        # verify_corollary(4n) takes r^1 = r: the theorem's own pair.
        r, s = realified_action(n)
        forget(r, s)

        def rendered():
            cert = verify_corollary(4 * n)
            params = {"k": 4 * n}
            return certificate.render_json(certificate.corollary_document(cert, params))

        cold = rendered()
        verify_theorem(n)
        work.clear()
        assert rendered() == cold
        assert work.counts == (0, 0, 0)
        assert list(r._classes) == [s]

    def test_a_refused_pair_keeps_nothing(self):
        # s with its E′ sign kept, at n = 3: rs has order 12, so the pair
        # presents no dihedral group, on the first call and on the second.
        n = 3
        pairs = [realified_action(n), realified_action(n, ambient_lattice(n))]
        maps = []
        for r, s in pairs:
            signs = s.signs[:-2] + (1, 1)
            maps += [_fresh(r), torus.AffineAuto(s.perm, signs, s.translation, s.lattice)]
        for _ in range(2):
            with pytest.raises(ValueError, match="ord rs = 12, not 2$"):
                dihedral._certify(n, *maps)
            assert maps[0]._classes is None

    @pytest.mark.parametrize(
        "name, size",
        [(name, n) for name in ("theorem", *sorted(MUTANTS)) for n in (1, 2, 3)]
        + [("corollary", k) for k in (5, 6)],
    )
    def test_the_listings_neither_read_nor_fill_the_table(self, name, size, monkeypatch):
        # The reference listings are independent of the derivation: with
        # the presentation's parts and the closed-form powers made to
        # raise, the closure and its conjugacy classes still list the
        # pair, and no map they touch keeps a presentation.
        if name == "theorem":
            pair, group_size = realified_action(size), 8 * size
        elif name == "corollary":
            plan = build_corollary(size)
            r, s = realified_action(plan.params.n)
            pair, group_size = (_power(r, plan.rotation_power), s), 2 * size
        else:
            pair = dihedral._family(size).mutants[name][:2]
            group_size = (16 if name == "no-quotient" else 8) * size
        r, s = map(_fresh, pair)

        def derived(*args, **kwargs):
            raise AssertionError("read the presentation")

        for part in ("_normal_forms", "_presentation", "_rotation_flags", "_times", "_power"):
            monkeypatch.setattr(analysis, part, derived)
        monkeypatch.setattr(torus, "_power", derived)
        listed = analysis.analyze_group([r, s])
        classes = analysis.conjugacy_classes(listed.elements)
        assert listed.group_size == sum(map(len, classes)) == group_size
        assert all(g._classes is None for g in (r, s, *(e.auto for e in listed.elements)))
