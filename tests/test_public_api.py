"""The package's public surface: `__all__` is pinned, and every name resolves.

A name added to or removed from the exports fails here, and so does a
parameter added to, removed from or renamed in an exported function, so
a change to the surface is made on purpose and shows in the diff of
this file.
"""

import dataclasses
import inspect

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

# The parameter names of every exported function, in order.
PARAMETERS = {
    "ambient_lattice": ("n",),
    "analyze_group": ("gens",),
    "build_b": ("n",),
    "build_corollary": ("k",),
    "build_r": ("n",),
    "build_s": ("n",),
    "build_w": ("n",),
    "closure": ("gens",),
    "compose": ("g", "h"),
    "conjugacy_classes": ("group", "conjugators"),
    "equal_mod_lattice": ("g", "h", "lattice"),
    "evaluate_word": ("word", "rotation", "reflection"),
    "exists_fixed_point": ("g",),
    "hnf": ("a",),
    "inverse": ("g",),
    "is_translation": ("g",),
    "order": ("g",),
    "parse_word": ("text",),
    "quotient_lattice": ("n",),
    "realified_action": ("n", "lattice"),
    "realify": ("cmap", "shape", "lattice"),
    "subgroup_membership": ("v", "gens"),
    "torsion_fixed_points_bruteforce": ("g", "denominator"),
    "verify_corollary": ("k",),
    "verify_mutant": ("name", "n"),
    "verify_theorem": ("n",),
}

# The stored fields of the verdict types, in order.  Every summary (a
# certificate's flags, a step's `passed`, an analysis's group size) is
# read off these, so none can disagree with the rows it summarises.
FIELDS = {
    "Certificate": ("n", "group_order_expected", "steps", "reports", "k"),
    "StepResult": ("name", "checks"),
    "GroupAnalysis": ("elements", "reports", "rotation_order"),
    "GroupElement": ("auto", "path"),
}


def test_all_has_no_duplicates():
    assert len(dihedral_torus.__all__) == len(set(dihedral_torus.__all__))


def test_every_exported_name_resolves():
    missing = [n for n in dihedral_torus.__all__ if not hasattr(dihedral_torus, n)]
    assert missing == []


def test_exports_are_the_pinned_set():
    assert len(PUBLIC) == 43
    assert set(dihedral_torus.__all__) == PUBLIC


def test_function_parameters_are_pinned():
    parameters = {}
    for name in dihedral_torus.__all__:
        obj = getattr(dihedral_torus, name)
        if callable(obj) and not inspect.isclass(obj):
            parameters[name] = tuple(inspect.signature(obj).parameters)
    assert parameters == PARAMETERS


def test_verdict_types_store_only_their_rows():
    stored = {
        name: tuple(f.name for f in dataclasses.fields(getattr(dihedral_torus, name)))
        for name in FIELDS
    }
    assert stored == FIELDS
