"""End-to-end acceptance suite.

One test per headline guarantee of the artifact: the theorem family
verifies for all small n within a time budget, the classical order-8
case and the D_k embeddings come out exactly, deliberately broken
constructions fail, the exact fixed-point decision matches brute-force
enumeration, the integer linear algebra kernel survives a large random
suite, the defining algebraic identities hold for every small n, and
certificates are byte-reproducible.
"""

import json
import random
import subprocess
import sys
import time
from fractions import Fraction
from math import lcm

import sympy

from dihedral_torus.analysis import (
    analyze_group,
    exists_fixed_point,
    torsion_fixed_points_bruteforce,
)
from dihedral_torus.cli import EXIT_OK, main
from dihedral_torus.dihedral import (
    ambient_lattice,
    build_b,
    build_r,
    build_s,
    build_w,
    realified_action,
    verify_corollary,
    verify_mutant,
    verify_theorem,
)
from dihedral_torus.linalg import Matrix, hnf, subgroup_coefficients
from dihedral_torus.torus import (
    AffineAuto,
    EnlargedLattice,
    TorusShape,
    compose,
    equal_mod_lattice,
    realify,
)

from test_linalg import brute_force_member

F = Fraction


def test_theorem_family_verifies_for_all_small_n(capsys):
    """n = 1..8: order 8n, free, translation-free, dihedral, two symmetry
    classes — in under ten seconds total."""
    start = time.perf_counter()
    for n in range(1, 9):
        cert = verify_theorem(n)
        assert cert.theorem_verified
        assert cert.group_order_actual == 8 * n
        assert cert.is_free
        assert cert.has_no_translations
        assert len(cert.reports) == 8 * n

        by_word = {rep.word: rep for rep in cert.reports}
        assert by_word[""].order == 1
        assert by_word["r"].order == 4 * n
        assert by_word["s"].order == 2
        assert by_word["r s"].order == 2
        nonidentity = [rep for rep in cert.reports if rep.word]
        assert len(nonidentity) == 8 * n - 1
        assert all(not rep.has_fixed_point for rep in nonidentity)
        assert all(not rep.is_translation for rep in cert.reports)

        assert (
            "symmetries form exactly two conjugacy classes",
            True,
        ) in cert.steps[3].checks
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"family sweep took {elapsed:.1f}s"

    # The command-line entry point reports the same verdict.
    assert main(["verify", "--n", "1"]) == EXIT_OK
    assert "certificate: verified" in capsys.readouterr().out


def test_order_eight_action_in_dimension_three():
    """The smallest case: D_4 of order 8 acting freely in dimension 3."""
    cert = verify_theorem(1)
    assert cert.theorem_verified
    assert cert.dimension == 3
    assert cert.group_order_actual == 8
    assert cert.is_free
    analysis = analyze_group(realified_action(1))
    # D_4 is the one group of order 8 with five elements of order 2.
    assert sorted(rep.order for rep in analysis.reports) == [1, 2, 2, 2, 2, 2, 4, 4]


def test_dihedral_embeddings_for_k_up_to_twelve():
    """Every D_k with k ≤ 12 acts freely in dimension lcm(4,k)/2 + 1."""
    for k in range(1, 13):
        cert = verify_corollary(k)
        assert cert.verified, f"k={k} failed"
        assert cert.ambient_dimension == lcm(4, k) // 2 + 1
        assert cert.group_order_actual == 2 * k
        assert cert.is_free
        assert cert.has_no_translations


def test_broken_constructions_fail_verification():
    """Negative controls: each mutation trips the step that guards it."""
    for n in (1, 2):
        # (a) Without the 1/4n shift the rotation fixes the origin.
        cert = verify_mutant("no-rotation-shift", n)
        assert not cert.theorem_verified
        assert not cert.steps[0].passed
        failed = {
            label
            for step in cert.steps
            for label, ok in step.checks
            if not ok
        }
        assert "no proper rotation power has a fixed point" in failed

        # (b) Without the offsets the reflection fixes the origin.
        cert = verify_mutant("zero-offsets", n)
        assert not cert.theorem_verified
        assert not cert.steps[4].passed
        failed = {
            label
            for step in cert.steps
            for label, ok in step.checks
            if not ok
        }
        assert "s has no fixed point on the quotient" in failed

        # (c) Without the quotient, s² survives as a translation and the
        # closure doubles.
        cert = verify_mutant("no-quotient", n)
        assert not cert.theorem_verified
        assert cert.group_order_actual == 16 * n
        assert not cert.has_no_translations
        translations = [rep for rep in cert.reports if rep.is_translation]
        assert [rep.word for rep in translations] == ["s^2"]
        assert translations[0].order == 2


def test_fixed_point_decisions_match_brute_force():
    """For n ∈ {1, 2}, the exact decision agrees with full grid enumeration
    for every group element, within a minute.

    The grid denominator is 8 for n = 1 and 4 for n = 2: these are
    multiples of every torsion denominator in the respective groups
    (element orders divide 8n and all translations live in (1/4n)Z), and
    they keep the enumeration inside the oracle's point budget.
    """
    start = time.perf_counter()
    for n, denominator in ((1, 8), (2, 4)):
        analysis = analyze_group(realified_action(n))
        assert analysis.group_size == 8 * n
        for element, report in zip(analysis.elements, analysis.reports):
            points = torsion_fixed_points_bruteforce(element.auto, denominator)
            assert bool(points) == report.has_fixed_point, (
                f"n={n}, word={report.word!r}: oracle and exact decision differ"
            )
            assert bool(points) == exists_fixed_point(element.auto)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"oracle sweep took {elapsed:.1f}s"


def test_hermite_decomposition_random_suite():
    """1000 seeded random integer matrices (dims ≤ 6, entries in [−9, 9]):
    exact U·A = H, unimodular U, canonical echelon H."""
    rng = random.Random(20260825)
    for _ in range(1000):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 6)
        a = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        dec = hnf(a)

        product = Matrix(dec.u) @ Matrix(a)
        assert product.rows == tuple(
            tuple(F(e) for e in row) for row in dec.h
        )
        assert abs(sympy.Matrix(dec.u).det()) == 1
        assert dec.rank == sympy.Matrix(a).rank()

        prev_col = -1
        for i in range(dec.rank):
            row = dec.h[i]
            col = next(j for j, e in enumerate(row) if e)
            assert col > prev_col
            prev_col = col
            assert row[col] > 0
            for above in range(i):
                assert 0 <= dec.h[above][col] < row[col]
        for i in range(dec.rank, rows):
            assert all(e == 0 for e in dec.h[i])


def test_membership_matches_exhaustive_enumeration():
    """200 seeded membership instances against small-coefficient search.

    Claimed members must come with an exact reconstructing witness;
    claimed non-members must defeat the exhaustive search; anything the
    search finds must be claimed a member.
    """
    rng = random.Random(1729)
    bound = 5

    def random_fraction():
        return F(rng.randint(-8, 8), rng.choice((1, 2, 3, 4)))

    for case in range(200):
        dim = rng.randint(1, 4)
        n_gens = rng.randint(0, 3)
        gens = [
            [random_fraction() for _ in range(dim)] for _ in range(n_gens)
        ]
        if n_gens and case % 2 == 0:
            coeffs = [rng.randint(-3, 3) for _ in range(n_gens)]
            v = [
                sum(c * g[j] for c, g in zip(coeffs, gens))
                for j in range(dim)
            ]
        else:
            v = [random_fraction() for _ in range(dim)]

        claimed = subgroup_coefficients(v, gens)
        enumerated = brute_force_member(v, gens, bound=bound)
        if claimed is None:
            assert not enumerated, f"case {case}: member missed"
        else:
            rebuilt = [
                sum(c * g[j] for c, g in zip(claimed, gens))
                for j in range(dim)
            ]
            assert rebuilt == v, f"case {case}: witness does not reconstruct"
        if enumerated:
            assert claimed is not None, f"case {case}: enumeration disagrees"


def test_defining_identities_hold_for_all_small_n():
    """The three identities behind the construction, for every n ≤ 8:
    offsets fold to half periods, both linear parts fix w, and s² is the
    translation by w on the unquotiented product."""
    curve = EnlargedLattice.standard(2)
    half_period = (F(1, 2), F(0))
    for n in range(1, 9):
        offsets = build_b(n)
        for i in range(2 * n):
            folded = curve.reduce(offsets[i] - offsets[2 * n - 1 - i])
            assert folded.coords == half_period

        shape = TorusShape(n)
        ambient = ambient_lattice(n)
        w = build_w(n)
        r = realify(build_r(n), shape, ambient)
        s = realify(build_s(n), shape, ambient)
        for linear in (r.linear, s.linear):
            assert ambient.reduce(linear.matvec(w.coords)) == ambient.reduce(w)

        w_translation = AffineAuto.translation_by(w, ambient)
        assert equal_mod_lattice(compose(s, s), w_translation, ambient)


def test_json_certificates_are_byte_identical(tmp_path):
    """Two consecutive CLI runs write the same certificate, byte for byte."""
    outputs = []
    for run in range(2):
        path = tmp_path / f"run{run}.json"
        result = subprocess.run(
            [
                sys.executable,
                "-m",
                "dihedral_torus",
                "verify",
                "--n",
                "3",
                "--json",
                str(path),
            ],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0, result.stderr
        outputs.append(path.read_bytes())
    assert outputs[0] == outputs[1]
    doc = json.loads(outputs[0])
    assert doc["theorem_verified"] is True
    assert doc["group_order"] == 24
