"""The dihedral action family on quotients of products of elliptic curves.

For n ≥ 1 the ambient abelian variety is the product of 2n copies of an
elliptic curve E with one further curve E′, and the variety of interest
is its quotient A by the order-2 translation

    w = (1/2, ..., 1/2, 0)        (a half period in every E factor).

Two automorphisms generate the action, written in complex coordinates:

    r(z) = (−z_{2n}, z_1, ..., z_{2n−1}, z_{2n+1} + 1/4n)
    s(z) = (−z_{2n} + b_1, ..., −z_1 + b_{2n}, −z_{2n+1})

with offsets b_{2i−1} = 1/2 + τ/2 and b_{2i} = τ/2.  On A they generate
a dihedral group of order 8n acting freely and without translations, so
the quotient A / D is a generalized hyperelliptic variety.  This module
builds those objects exactly for any n, verifies the claim as five named
certificate steps, and embeds an arbitrary dihedral group D_k into the
family via the rotation-power subgroup ⟨r^{4n/k}, s⟩ with 4n = lcm(4, k).

One `_Family` holds all the construction builds for one n (w, b, r, s,
both lattices, the pair (r, s) on each, the mutants' maps), and one
cache keeps at most `CACHE_BOUND` families for the public constructors
to read.  What their maps keep (cycles, powers, presentations) dies with
an evicted family; a rebuilt one decides it again, to the same bytes.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import lcm

from .analysis import (
    CACHE_BOUND,
    ElementReport,
    _fixes,
    _linear_order,
    _presentation,
    _Summaries,
)
from .torus import (
    AffineAuto,
    ComplexMonomialMap,
    EnlargedLattice,
    TorsionPoint,
    TorusShape,
    _power,
    compose,  # unused here, but bound in every module the tracer wraps
    realify,
)

_HALF, _ZERO = Fraction(1, 2), Fraction(0)


@dataclass(frozen=True)
class ConstructionParams:
    """Where a corollary embeds: the family parameter n."""

    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be a positive integer")


@dataclass(frozen=True)
class _Family:
    """The construction for one n: its fields at once, the rest on first read."""

    shape: TorusShape
    w: TorsionPoint
    b: tuple[TorsionPoint, ...]
    r: ComplexMonomialMap
    s: ComplexMonomialMap
    ambient: EnlargedLattice
    offsets_fold: bool

    @cached_property
    def w_reduced(self) -> tuple[tuple[int, ...], int]:
        """w modulo Z^m as (numerators, denominator)."""
        return self.ambient.reduce_scaled(*self.ambient.scaled(self.w))

    @cached_property
    def quotient(self) -> EnlargedLattice:
        return EnlargedLattice.from_extra_generators(self.shape.real_dim, [self.w.coords])

    def realified(self, lattice: EnlargedLattice) -> tuple[AffineAuto, AffineAuto]:
        return tuple(realify(g, self.shape, lattice) for g in (self.r, self.s))

    @cached_property
    def pair(self) -> tuple[AffineAuto, AffineAuto]:
        return self.realified(self.quotient)

    @cached_property
    def ambient_pair(self) -> tuple[AffineAuto, AffineAuto]:
        return self.realified(self.ambient)

    @cached_property
    def mutants(self) -> dict[str, tuple[AffineAuto, ...]]:
        """Each mutant's (r, s, r_ambient, s_ambient), from this family's pairs."""
        (r, s), (r_amb, s_amb) = self.pair, self.ambient_pair
        # A mutant without a translation is the validated map's linear part.
        return {
            "no-rotation-shift": (r.linear_part(), s, r_amb.linear_part(), s_amb),
            "zero-offsets": (r, s.linear_part(), r_amb, s_amb.linear_part()),
            "no-quotient": (r_amb, s_amb, r_amb, s_amb),
        }


@lru_cache(maxsize=CACHE_BOUND)
def _family(n: int) -> _Family:
    shape, two_n = TorusShape(n), 2 * n  # TorusShape rejects n < 1
    w = TorsionPoint.of([_HALF, _ZERO] * two_n + [_ZERO, _ZERO])
    b = (TorsionPoint.of((_HALF, _HALF)), TorsionPoint.of((_ZERO, _HALF))) * n
    r_shift = TorsionPoint.of([_ZERO] * (2 * two_n) + [Fraction(1, 4 * n), _ZERO])
    r_perm = (two_n - 1, *range(two_n - 1), two_n)  # the E factors cycled
    r = ComplexMonomialMap(r_perm, (-1,) + (1,) * two_n, r_shift)
    s_shift = TorsionPoint.of([c for p in b for c in p.coords] + [_ZERO, _ZERO])
    s_perm = (*range(two_n - 1, -1, -1), two_n)  # the E factors reversed
    s = ComplexMonomialMap(s_perm, (-1,) * (two_n + 1), s_shift)
    ambient = EnlargedLattice.standard(shape.real_dim)
    return _Family(shape, w, b, r, s, ambient, _offsets_fold(b))


def build_w(n: int) -> TorsionPoint:
    """The quotient translation: a half period in each E factor, 0 in E′."""
    return _family(n).w


def build_b(n: int) -> tuple[TorsionPoint, ...]:
    """Reflection offsets b_1..b_{2n} in lattice coordinates (1-part, τ-part).

    Odd-index offsets are (1/2, 1/2) and even-index ones (0, 1/2), so that
    b_i − b_{2n+1−i} is the half period (1/2, 0) for every i.
    """
    return _family(n).b


def build_r(n: int) -> ComplexMonomialMap:
    """Rotation generator: cycle the E factors with one sign flip, shift E′."""
    return _family(n).r


def build_s(n: int) -> ComplexMonomialMap:
    """Reflection generator: reverse and negate the E factors, offset by b."""
    return _family(n).s


def ambient_lattice(n: int) -> EnlargedLattice:
    """Period lattice of the unquotiented product, plain Z^m."""
    return _family(n).ambient


def quotient_lattice(n: int) -> EnlargedLattice:
    """Period lattice of A: Z^m enlarged by the lift of w (index 2)."""
    return _family(n).quotient


def realified_action(
    n: int, lattice: EnlargedLattice | None = None
) -> tuple[AffineAuto, AffineAuto]:
    """The pair (r, s) as signed permutations modulo `lattice`.

    The lattice defaults to the quotient lattice of A; pass `ambient_lattice(n)`
    for the unquotiented product, or any other lattice for a fresh pair.
    """
    family = _family(n)
    if lattice is not None and (lattice is family.ambient or lattice == family.ambient):
        return family.ambient_pair
    if lattice is None or lattice is family.quotient or lattice == family.quotient:
        return family.pair
    return family.realified(lattice)


@dataclass(frozen=True)
class StepResult:
    """Outcome of one certificate step: named sub-checks; it passes when all do."""

    name: str
    checks: tuple[tuple[str, bool], ...]

    @property
    def passed(self) -> bool:
        return all(ok for _, ok in self.checks)


@dataclass(frozen=True)
class Certificate(_Summaries):
    """Verdict on one dihedral action: named steps and one report per element.

    The theorem, its mutants and the corollary all fill five steps; `k`
    is set only for the corollary's D_k.  Every summary is read off the
    steps and the reports, the identity's first.
    """

    n: int
    group_order_expected: int
    steps: tuple[StepResult, ...]
    reports: tuple[ElementReport, ...]
    k: int | None = None

    @property
    def dimension(self) -> int:
        return 2 * self.n + 1

    @property
    def group_order_actual(self) -> int:
        return len(self.reports)

    @cached_property
    def theorem_verified(self) -> bool:
        return (
            all(st.passed for st in self.steps)
            and self.group_order_actual == self.group_order_expected
            and self.is_free
            and self.has_no_translations
        )

    @property
    def verified(self) -> bool:
        return self.theorem_verified

    @property
    def ambient_dimension(self) -> int:
        return self.dimension


_STEP_NAMES = (
    "rotation order and freeness of rotation powers",
    "reflection squares to the quotient translation",
    "dihedral presentation and closure size",
    "conjugacy classes of symmetries",
    "reflections are fixed-point-free",
)

_COROLLARY_STEP_NAMES = (
    "rotation generator has order k",
    "reflection has order 2",
    "closure is dihedral of order 2k",
    "no translations",
    "free action",
)


def _offsets_fold(offsets: Sequence[TorsionPoint]) -> bool:
    """b_i − b_{2n+1−i} ≡ (1/2, 0) mod Z², as points of E, for every i: on numerators."""
    den = lcm(*(c.denominator for b in offsets for c in b))
    num = [[c.numerator * (den // c.denominator) for c in b] for b in offsets]
    return all(
        (2 * ((x - u) % den), (y - v) % den) == (den, 0)
        for (x, y), (u, v) in zip(num, reversed(num))
    )


def _certify(
    n: int,
    r: AffineAuto,
    s: AffineAuto,
    r_ambient: AffineAuto,
    s_ambient: AffineAuto,
) -> Certificate:
    """Certify the action of (r, s), also given on the ambient lattice Z^m."""
    four_n, family = 4 * n, _family(n)
    w_num, w_den = family.w_reduced

    kept = _presentation(r, s)
    rows = kept.reports(r, s)
    r_row, s_row, rs_row = kept.row(1, 0), kept.row(0, 1), kept.row(1, 1)
    r_order, s_order, rs_order = r_row.order, s_row.order, rs_row.order
    # r^j, 0 < j < 4n, shares the verdicts of r^d, d = gcd(j, ord r) < 4n.
    powers = [kept.row(d, 0) for d in range(1, four_n) if r_order % d == 0]

    # Step 1: the rotation and its bare linear part have order exactly
    # 4n; every proper power shifts the E′ coordinate by j/4n, so it is
    # neither a translation nor has a fixed point.  r fixes the E′ block
    # and translates only along it, so no sheared lattice row reaches the
    # shift of r^j; the lattice is Z in the E′ coordinate, so that shift
    # reduces to j/4n for every j < 4n.
    last = 2 * family.shape.eprime_index
    shifts_ok = (
        r.perm[last : last + 2] == (last, last + 1)
        and r.signs[last : last + 2] == (1, 1)
        and not any(r.shift[:last])
        and r.shift[last] * four_n == r.denominator
        and r.lattice.pivots[last] == r.lattice.denominator
    )
    step1 = StepResult(
        _STEP_NAMES[0],
        (
            ("r has order 4n on the quotient", r_order == four_n),
            ("the linear part of r has order 4n", _linear_order(r) == four_n),
            ("the linear part of r fixes w on the ambient torus",
             _fixes(r_ambient, w_num, w_den)),
            ("every power r^j shifts the E′ coordinate by exactly j/4n", shifts_ok),
            ("no proper rotation power is a translation",
             not any(f.is_translation for f in powers)),
            ("no proper rotation power has a fixed point",
             not any(f.has_fixed_point for f in powers)),
        ),
    )

    # Step 2: s² is the translation by w upstairs, the linear part of s
    # fixes w, and the offsets telescope to half periods.  Shifts on Z^m are
    # canonical, so s² (kept on s_ambient) is w iff it has w's reduced shift.
    s_squared = _power(s_ambient, 2)
    step2 = StepResult(
        _STEP_NAMES[1],
        (
            ("s² is the translation by w on the ambient torus",
             s_squared.is_linear_identity
             and (s_squared.shift, s_squared.denominator) == (w_num, w_den)),
            ("the linear part of s fixes w on the ambient torus",
             _fixes(s_ambient, w_num, w_den)),
            ("offsets satisfy b_i − b_{2n+1−i} = 1/2 for every i",
             family.offsets_fold),
            ("s has order 2 on the quotient", s_order == 2),
        ),
    )

    # Step 3: the defining dihedral relations and the closure size.
    step3 = StepResult(
        _STEP_NAMES[2],
        (
            ("orders of (r, s, rs) are (4n, 2, 2)",
             (r_order, s_order, rs_order) == (four_n, 2, 2)),
            ("closure of {r, s} has exactly 8n elements", len(rows) == 8 * n),
            ("closure satisfies the dihedral presentation",
             kept.z is None and kept.k == four_n),
        ),
    )

    # Step 4: the symmetries fall into exactly two conjugacy classes
    # (those of s and rs: D_k's reflections r^a s by a mod 2, for even k),
    # and neither representative is a translation.
    step4 = StepResult(
        _STEP_NAMES[3],
        (
            ("symmetries form exactly two conjugacy classes",
             kept.z is None and kept.k % 2 == 0),
            ("s is not a translation", not s_row.is_translation),
            ("rs is not a translation", not rs_row.is_translation),
        ),
    )

    # Step 5: the two class representatives, and with them every
    # nonidentity element, act without fixed points.
    step5 = StepResult(
        _STEP_NAMES[4],
        (
            ("s has no fixed point on the quotient", not s_row.has_fixed_point),
            ("rs has no fixed point on the quotient", not rs_row.has_fixed_point),
            ("no nonidentity element has a fixed point",
             not any(row.has_fixed_point for row in rows[1:])),
        ),
    )
    return Certificate(n, 8 * n, (step1, step2, step3, step4, step5), rows)


def verify_theorem(n: int) -> Certificate:
    """Build the order-8n action for this n and machine-check all five steps."""
    family = _family(n)
    return _certify(n, *family.pair, *family.ambient_pair)


MUTANTS = {
    "no-rotation-shift": "drop the 1/4n translation from r (origin becomes fixed)",
    "zero-offsets": "zero every reflection offset b_i (s fixes the origin)",
    "no-quotient": "skip the quotient by w (s² survives as a translation)",
}


def verify_mutant(name: str, n: int) -> Certificate:
    """Run the verifier against a deliberately broken construction.

    These negative controls prove the certificate can fail: each mutant
    violates a specific step while leaving the rest of the machinery
    intact.
    """
    if name not in MUTANTS:
        raise ValueError(f"unknown mutant {name!r}; choose from {sorted(MUTANTS)}")
    return _certify(n, *_family(n).mutants[name])


@dataclass(frozen=True)
class CorollaryPlan:
    """Where inside the theorem family a given dihedral group embeds."""

    k: int
    params: ConstructionParams
    rotation_power: int
    expected_dimension: int
    expected_order: int


def build_corollary(k: int) -> CorollaryPlan:
    """Plan a free D_k action: n = lcm(4, k)/4, generators {r^{4n/k}, s}.

    The ambient dimension is lcm(4, k)/2 + 1 and the subgroup has order
    2k; k divides 4n by construction, so the rotation power is integral.
    """
    if k < 1:
        raise ValueError("k must be a positive integer")
    four_n = lcm(4, k)
    return CorollaryPlan(
        k=k,
        params=ConstructionParams(four_n // 4),
        rotation_power=four_n // k,
        expected_dimension=four_n // 2 + 1,
        expected_order=2 * k,
    )


def verify_corollary(k: int) -> Certificate:
    """Verify the embedded D_k action directly (not just by inheritance)."""
    plan = build_corollary(k)
    n = plan.params.n
    # r^{4n/k} of the family's r; the reflection is its s itself.
    r, refl = _family(n).pair
    rot = _power(r, plan.rotation_power)
    kept = _presentation(rot, refl)
    rows = kept.reports(rot, refl)
    step_checks = (
        (("r^{4n/k} has order k on the quotient", kept.row(1, 0).order == k),),
        (("s has order 2 on the quotient", kept.row(0, 1).order == 2),),
        (
            ("closure of {r^{4n/k}, s} has exactly 2k elements",
             len(rows) == plan.expected_order),
            ("closure satisfies the dihedral presentation",
             kept.z is None and kept.k == k),
            ("r^{4n/k}s has order 2", kept.row(1, 1).order == 2),
        ),
        (("no element is a translation", not any(row.is_translation for row in rows)),),
        (("no nonidentity element has a fixed point",
          not any(row.has_fixed_point for row in rows[1:])),),
    )
    steps = tuple(map(StepResult, _COROLLARY_STEP_NAMES, step_checks))
    return Certificate(n, plan.expected_order, steps, rows, k)
