"""Exact verification of free dihedral actions on quotients of elliptic-curve products.

For every n ≥ 1 the package builds, in exact rational arithmetic, a
dihedral group of order 8n acting on the quotient of E^{2n} × E′ by a
half-period translation, and machine-checks that the action is free and
contains no translations — the defining conditions for the quotient to
be a generalized hyperelliptic variety.  A corollary builder embeds any
dihedral group D_k freely into the family in dimension lcm(4, k)/2 + 1.

Nothing here is numerical: points are rational vectors modulo an exact
lattice, automorphisms are signed permutations of the real coordinates
with shifts kept as integers over a common denominator, and every
decision (orders, closure, conjugacy, fixed points) is made exactly,
orders and fixed points in closed form over the permutation's cycles.
"""

from .analysis import (
    ClosureCapExceeded,
    ElementReport,
    GroupAnalysis,
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
from .dihedral import (
    MUTANTS,
    Certificate,
    CorollaryPlan,
    StepResult,
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
from .torus import (
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
from .words import GroupWord, WordParseError, evaluate_word, parse_word

__version__ = "0.1.0"


def __getattr__(name: str):
    # `linalg`, the dense reference algebra, loads on first use.
    if name in ("Matrix", "hnf", "subgroup_membership"):
        from . import linalg

        return getattr(linalg, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
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
    "Matrix",
    "MUTANTS",
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
]
