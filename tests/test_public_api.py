"""The package's public surface: `__all__` is pinned, and every name resolves.

A name added to or removed from the exports fails here, so a change to
the surface is made on purpose and shows in the diff of this file.
"""

import dihedral_torus

PUBLIC = {
    "AffineAuto",
    "Certificate",
    "ClosureCapExceeded",
    "ComplexMonomialMap",
    "CorollaryPlan",
    "ElementReport",
    "EnlargedLattice",
    "GroupAnalysis",
    "GroupElement",
    "GroupWord",
    "MUTANTS",
    "Matrix",
    "OracleBudgetExceeded",
    "StepResult",
    "TorsionPoint",
    "TorusShape",
    "WordParseError",
    "ambient_lattice",
    "analyze_group",
    "build_b",
    "build_corollary",
    "build_r",
    "build_s",
    "build_w",
    "closure",
    "compose",
    "conjugacy_classes",
    "equal_mod_lattice",
    "evaluate_word",
    "exists_fixed_point",
    "hnf",
    "inverse",
    "is_translation",
    "order",
    "parse_word",
    "quotient_lattice",
    "realified_action",
    "realify",
    "subgroup_membership",
    "torsion_fixed_points_bruteforce",
    "verify_corollary",
    "verify_mutant",
    "verify_theorem",
}


def test_all_has_no_duplicates():
    assert len(dihedral_torus.__all__) == len(set(dihedral_torus.__all__))


def test_every_exported_name_resolves():
    missing = [n for n in dihedral_torus.__all__ if not hasattr(dihedral_torus, n)]
    assert missing == []


def test_exports_are_the_pinned_set():
    assert len(PUBLIC) == 43
    assert set(dihedral_torus.__all__) == PUBLIC
