"""Group-theoretic and fixed-point analysis of affine torus automorphisms.

Everything is decided exactly.  The brute-force torsion oracle, which
checks the fixed-point decisions on grids, lives in `oracle`.

Every call takes its maps as `AffineAuto` values and decides them
modulo their own lattice.  A question about another lattice L is asked
of `g.with_lattice(L)`, which refuses an L that g's linear part does
not preserve.  `order`, which lives in `torus` beside the cycle walk
and powers it reads, and `exists_fixed_point` decide a map once and keep
the verdict on it.  r keeps the presentation of each pair (r, s) with
one, its rows once a verifier asks and the elements words asked for
(`_Presentation`).

Every automorphism is g: z ↦ M·z + t modulo a lattice L with M a signed
permutation, so both decisions have closed forms over the cycles of M.
Walk a cycle i → σ(i) → ... with potentials c_{σ(i)} = ε_i·c_i, c = ±1;
the cycle is closed when the product of its signs is +1.

- Order: M has order k = lcm over cycles of the cycle length, doubled
  for a cycle that is not closed.  g^k is the translation by
  T = Σ_{j<k} M^j·t, which vanishes on open cycles and is
  (k/len)·(c·t)·c on a closed one; the order of g is k times the least
  q with q·T ∈ L.  With T = num/den in lowest terms and d the lattice
  denominator, L ⊆ (1/d)Z^m forces den | q·d and den·T ∈ Z^m ⊆ L, so
  q = base·e with base = den/gcd(den, d) and e the least divisor of
  gcd(den, d) that passes: at most d lattice reductions, and no cap.
- Fixed points: a fixed point solves (M − I)·x = −t + λ with λ ∈ L.
  The left kernel of M − I has one ±1 vector c per closed cycle, so a
  solution exists iff the projection of t onto those vectors lies in the
  subgroup generated by the projections of L's generators (Z^m and the
  extras).  All data is rational, and the rational points of the affine
  solution space are dense in its real points, so rational solvability
  and real solvability coincide.

Dihedral groups are known from their presentation, for every k ≥ 1: if
ord r = k and ord s = ord rs = 2, then ⟨r, s⟩ is D_k of order 2k.  By
von Dyck's theorem it is a quotient of D_k, so its elements are r^a s^b;
it has order 2k because s ∉ ⟨r⟩.  Such an s would commute with r, so
r = s r s⁻¹ = r⁻¹ and k ≤ 2; but k = 1 would make s = 1, and k = 2 would
make s = r and so rs = 1.  Three orders therefore decide the group.
Each verdict (order, translation, fixed point) is a class function.
Conjugation by r sends r^a s to r^{a+2} s and by s to r^{−a} s, so the
reflections form 2 − k mod 2 classes, led by s and rs; r^a shares the
verdicts of r^{gcd(a, k)}, a generator of the same subgroup.  A power of
g fixes every point g fixes, and is a translation or the identity when
g is one, so r^d is free of both when some proper r^m with d | m is.

The central extension of D_k by a translation is known the same way.
If ord r = k, ord rs = 2, ord s = 4, z = s² is a translation that the
linear part of r fixes modulo the lattice (so z is central), and k is
odd or r^{k/2} ≠ z, then ⟨r, s⟩ has order 4k with distinct normal forms
r^a s^b z^c (a < k, b, c < 2).  It is a quotient of
⟨r, s | r^k, (rs)², s⁴, [r, s²]⟩, whose quotient by ⟨s²⟩ is D_k, so it
has at most 4k elements.  z ∉ ⟨r⟩: r^j = z forces r^{2j} = 1 and
j = k/2.  So ⟨r, z⟩ = ⟨r⟩ × ⟨z⟩ has order 2k, and s normalizes it, as
s r s⁻¹ = r⁻¹z and s² = z.  s ∉ ⟨r, z⟩, since such an s would commute
with r and make r² = z.  (Conjugating r^k = 1 by s gives z^k = 1, so k
is even.)  As s r^e = r^{−e} s z^e, right multiplication by r^e sends
(a, 0, c) to (a + e, 0, c) and (a, 1, c) to (a − e, 1, c + e), and by
s^e sends (a, b, c) to (a, (b + e) mod 2, c + ⌊(b + e)/2⌋).  r^a z^c
shares the verdicts of r^{gcd(a, k)} z^c, a generator of the same cyclic
subgroup, with order
lcm(k/gcd(a, k), ord z^c); (r^a s z^c)² = z^{a+1}, so r^a s z^c has
order 2 for odd a and 4 for even a.  Conjugation by r sends r^a s z^c
to r^{a+2} s z^{c+1} and by s to r^{−a} s z^{c+a}, so r^a s z^c shares
the verdicts of r^{a mod 2} s z^{(c − ⌊a/2⌋) mod 2}: of s, rs, sz or
rsz.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import gcd, lcm

from .torus import (
    AffineAuto,
    EnlargedLattice,
    TorsionPoint,
    _linear_order,
    _power,
    _signed_cycles,
    compose,
    inverse,
    order,
)

DEFAULT_CLOSURE_CAP = 1024
CACHE_BOUND = 16  # entries in each per-n cache: dihedral's families, normal forms


class ClosureCapExceeded(RuntimeError):
    """A closure grew past DEFAULT_CLOSURE_CAP elements."""


class OracleBudgetExceeded(RuntimeError):
    """The torsion oracle refused a grid beyond its budget or int64 range."""


@dataclass(frozen=True)
class GroupElement:
    """Group element: automorphism plus its BFS discovery word in a closure.

    path is that word as generator indices (left-to-right composition
    order, empty for the identity).  Its rendering is the `word` of the
    element's report in a `GroupAnalysis`.
    """

    auto: AffineAuto
    path: tuple[int, ...]


@dataclass(frozen=True, slots=True)
class ElementReport:
    """Verdicts on one element; certificates keep one per element."""

    word: str
    order: int
    is_translation: bool
    has_fixed_point: bool


class _Summaries:
    """is_free and has_no_translations, read off the `reports` of a
    verdict type whose identity's report comes first."""

    @cached_property
    def is_free(self) -> bool:
        return not any(rep.has_fixed_point for rep in self.reports[1:])

    @cached_property
    def has_no_translations(self) -> bool:
        return not any(rep.is_translation for rep in self.reports)


@dataclass(frozen=True)
class GroupAnalysis(_Summaries):
    """The elements of a generated group together with per-element verdicts,
    as `analyze_group` lists them: a closure's elements in its discovery
    order, the identity's first.  Every summary is read off the reports.
    """

    elements: tuple[GroupElement, ...]
    reports: tuple[ElementReport, ...]

    @property
    def group_size(self) -> int:
        return len(self.reports)


def is_translation(g: AffineAuto) -> bool:
    """True for a nonidentity element whose linear part is the identity."""
    return g.is_linear_identity and any(g.shift)


def exists_fixed_point(g: AffineAuto) -> bool:
    """Exact decision of whether g(z) = z has a solution modulo g's lattice,
    over the closed cycles of g's own walk (module docstring), kept on g."""
    if g._fixed is None:
        g._fixed = _decide_fixed_point(g)
    return g._fixed


def torsion_fixed_points_bruteforce(g: AffineAuto, denominator: int) -> Sequence[TorsionPoint]:
    """`oracle.torsion_fixed_points_bruteforce`, loaded, with numpy, on first call."""
    from . import oracle

    return oracle.torsion_fixed_points_bruteforce(g, denominator)


def _decide_fixed_point(g: AffineAuto) -> bool:
    cycles = _signed_cycles(g)
    kernel = [(coords, pots) for coords, pots, closed, _ in cycles if closed]
    if not kernel:
        # M - I invertible: (M - I)x = -t always solvable, λ = 0.
        return True
    lattice = g.lattice
    den, d = g.denominator, lattice.denominator
    t_proj = [prefix[-1] for _, _, closed, prefix in cycles if closed]
    extras = [
        [sum(c * gen[i] for i, c in zip(coords, pots)) for coords, pots in kernel]
        for gen in lattice.extra_numerators
    ]
    # Z^m projects onto Z^K.  Where every projected extra is integral, the
    # projected t must be integral; the other coordinates are decided
    # together by subgroup membership.
    coupled = []
    for j, x in enumerate(t_proj):
        if any(e[j] % d for e in extras):
            coupled.append(j)
        elif x % den:
            return False
    if not any(t_proj[j] % den for j in coupled):
        return True
    projected = EnlargedLattice.from_extra_generators(
        len(coupled), [[Fraction(e[j], d) for j in coupled] for e in extras]
    )
    residue, _ = projected.reduce_scaled([t_proj[j] for j in coupled], den)
    return not any(residue)


def _fixes(g: AffineAuto, num: Sequence[int], den: int) -> bool:
    """Whether the linear part of g fixes num/den modulo g's lattice: M·w − w ≡ 0."""
    moved = [s * num[src] - x for src, s, x in zip(g.perm, g.signs, num)]
    return not any(g.lattice.reduce_scaled(moved, den)[0])


def _report(g: AffineAuto, word: str) -> ElementReport:
    """Order, translation flag and fixed-point verdict from one decomposition."""
    return ElementReport(word, order(g), is_translation(g), exists_fixed_point(g))


def closure(gens: Sequence[AffineAuto]) -> list[GroupElement]:
    """Breadth-first closure of the generated group, identity included.

    Deterministic: elements appear in BFS discovery order with the given
    generator order (shortlex in the discovery words), each with its
    word.  A group of more than DEFAULT_CLOSURE_CAP elements raises
    ClosureCapExceeded.  Every generator has finite order in a group
    that closes under the cap, so closing under composition alone
    already yields inverses.  No verifier builds a closure; it is the
    reference that the derived rows are tested against.
    """
    autos = list(gens)
    if not autos:
        raise ValueError("need at least one generator")
    identity = AffineAuto.identity(autos[0].lattice)
    found = {identity}
    queue, paths = [identity], [()]
    for i, current in enumerate(queue):
        for gi, gen in enumerate(autos):
            nxt = compose(current, gen)
            if nxt not in found:
                if len(queue) >= DEFAULT_CLOSURE_CAP:
                    raise ClosureCapExceeded(f"closure exceeds cap {DEFAULT_CLOSURE_CAP}")
                found.add(nxt)
                queue.append(nxt)
                paths.append(paths[i] + (gi,))
    return [GroupElement(a, p) for a, p in zip(queue, paths)]


def conjugacy_classes(group: Sequence[GroupElement]) -> list[list[GroupElement]]:
    """Partition of a closed group into conjugacy classes: the class of g is
    {h·g·h⁻¹ : h in the group}, its members in the group's order, and
    the classes in the order of their first members."""
    autos = [e.auto for e in group]
    by_auto = {a: i for i, a in enumerate(autos)}
    inverses = [inverse(h) for h in autos]
    assigned = [False] * len(group)
    classes: list[list[GroupElement]] = []
    for start, g in enumerate(autos):
        if assigned[start]:
            continue
        members = set()
        for h, h_inv in zip(autos, inverses):
            idx = by_auto.get(compose(h, compose(g, h_inv)))
            if idx is None:
                raise ValueError("group is not closed under conjugation")
            members.add(idx)
        for idx in members:
            assigned[idx] = True
        classes.append([group[idx] for idx in sorted(members)])
    return classes


def _path_label(path: tuple[int, ...], names: Sequence[str]) -> str:
    parts = []
    for gi in path:
        name = names[gi]
        if parts and parts[-1][0] == name:
            parts[-1] = (name, parts[-1][1] + 1)
        else:
            parts.append((name, 1))
    return " ".join(n if e == 1 else f"{n}^{e}" for n, e in parts)


def _times(form: tuple[int, int, int], letter: str, e: int, k: int) -> tuple[int, int, int]:
    """r^a s^b z^c, as (a, b, c), times r^e or s^e on the right (module
    docstring): a mod k and c mod 2."""
    a, b, c = form
    if letter == "s":
        return a, (b + e) % 2, (c + (b + e) // 2) % 2
    return (a - e if b else a + e) % k, b, (c + b * e) % 2


@lru_cache(maxsize=CACHE_BOUND)
def _normal_forms(k: int, extension: bool) -> dict[tuple[int, int, int], tuple]:
    """Each normal form r^a s^b z^c of D_k, or of its central extension of
    order 4k, as (a, b, c), mapped in row order to its row index, its
    label and the form that leads its class (module docstring).

    D_k holds r^a s^b (c = 0) at index 2a + b, labeled by that word; the
    extension holds its forms in `closure`'s order and with its words, by
    a breadth-first search with the rules of `_times`.  r^a z^c is led by
    r^{gcd(a, k)} z^c and r^a s z^c by one of s, rs, sz and rsz.
    """
    rows = {}
    if extension:
        paths, queue = {(0, 0, 0): ()}, [(0, 0, 0)]
        for current in queue:
            for gi, letter in enumerate("rs"):
                form = _times(current, letter, 1, k)
                if form not in paths:
                    paths[form] = paths[current] + (gi,)
                    queue.append(form)
        for index, ((a, b, c), path) in enumerate(paths.items()):
            lead = (a % 2, 1, (c - a // 2) % 2) if b else (gcd(a, k), 0, c)
            rows[a, b, c] = (index, _path_label(path, ("r", "s")), lead)
    else:
        for a in range(k):
            rotation = "" if a == 0 else "r" if a == 1 else f"r^{a}"
            rows[a, 0, 0] = (2 * a, rotation, (gcd(a, k), 0, 0))
            rows[a, 1, 0] = (2 * a + 1, f"{rotation} s".lstrip(), (a % 2, 1, 0))
    return rows


def _rotation_flags(r: AffineAuto, k: int, z: AffineAuto | None):
    """(is_translation, has_fixed_point) of r^d z^c for d | k, keyed (d, c).

    c runs over 0 and, with z, 1.  The largest d comes first, and r^d z^c
    is decided only when no decided proper power (r^d z^c)^{m/d} =
    r^m z^{cm/d} is free of both; each map decided walks its own cycles.
    """
    flags = {(k, 0): (False, True)}
    if z is not None:
        flags[k, 1] = (True, False)  # a translation other than the identity
    for d in [d for d in range(k - 1, 0, -1) if k % d == 0]:
        for c in range(1 if z is None else 2):
            if any(
                m % d == 0 and e == m // d * c % 2 and not any(f)
                for (m, e), f in flags.items()
            ):
                flags[d, c] = (False, False)
                continue
            h = compose(_power(r, d), z) if c else _power(r, d)
            flags[d, c] = (is_translation(h), exists_fixed_point(h))
    return flags


@dataclass(eq=False, slots=True)
class _Presentation:
    """⟨r, s⟩ as D_k (z None) or its central extension, kept on r under s
    by `_presentation`: k = ord r, rs, z, and what is asked of the pair."""

    k: int
    rs: AffineAuto
    z: AffineAuto | None
    elements: dict  # each asked-for normal form's map
    rows: tuple[ElementReport, ...] | None = None

    def reports(self, r: AffineAuto, s: AffineAuto) -> tuple[ElementReport, ...]:
        """Each row of `_normal_forms` with its class leader's (order,
        is_translation, has_fixed_point), decided on the first call
        (`_rotation_flags`) and kept: the identity's row first."""
        if self.rows is None:
            k, z, reflections = self.k, self.z, [s, self.rs]
            if z is not None:
                reflections += [compose(g, z) for g in reflections]
            # The leaders: s, rs, sz and rsz as r^{i mod 2} s z^{i // 2}, and r^d z^c.
            leaders = {
                (i % 2, 1, i // 2): (order(g), is_translation(g), exists_fixed_point(g))
                for i, g in enumerate(reflections)
            }
            for (d, c), flags in _rotation_flags(r, k, z).items():
                leaders[d, 0, c] = (lcm(k // d, 1 + c), *flags)
            forms = _normal_forms(k, z is not None).values()
            self.rows = tuple(ElementReport(label, *leaders[lead]) for _, label, lead in forms)
        return self.rows

    def row(self, a: int, b: int) -> ElementReport:
        """The kept row of r^a s^b, for any integer a: at the index
        `_normal_forms` gives (a mod k, b, 0)."""
        return self.rows[_normal_forms(self.k, self.z is not None)[a % self.k, b, 0][0]]

    def element(self, r: AffineAuto, s: AffineAuto, form: tuple) -> AffineAuto:
        """r^a s^b z^c = r^a s^{b+2c} (c = 0 in D_k), built once, with at most
        one composition of powers r and s do not keep: one map per element."""
        a, b, c = form if self.z is not None else (*form[:2], 0)
        if (a, b, c) not in self.elements:
            j = b + 2 * c  # s^0, the identity, for (0, 0, 0)
            g = _power(r, a, keep=False) if a else _power(s, j, keep=False)
            self.elements[a, b, c] = compose(g, _power(s, j, keep=False)) if a and j else g
        return self.elements[a, b, c]


def _presentation(r: AffineAuto, s: AffineAuto) -> _Presentation:
    """⟨r, s⟩'s presentation (module docstring), kept on r under s; any other
    pair raises ValueError naming its failed hypothesis, and r keeps nothing."""
    kept = (r._classes or {}).get(s)
    if kept is not None:
        return kept
    k, s_order = order(r), order(s)
    if s_order not in (2, 4):
        raise ValueError(f"no presentation: ord s = {s_order}, not 2 or 4")
    rs = compose(r, s)
    rs_order = order(rs)
    if rs_order != 2:
        raise ValueError(f"no presentation: ord rs = {rs_order}, not 2")
    z = None
    if s_order == 4:
        z = _power(s, 2)
        if not (z.is_linear_identity and _fixes(r, z.shift, z.denominator)):
            raise ValueError("no presentation: z = s² is not a central translation")
        # r^{k/2} = z needs the linear part of r^{k/2} to be the identity.
        if not (k % 2 or (k // 2) % _linear_order(r) or _power(r, k // 2) != z):
            raise ValueError("no presentation: z = s² lies in ⟨r⟩")
    kept = _Presentation(k, rs, z, {(1 % k, 1, 0): rs})
    r._classes = {**(r._classes or {}), s: kept}
    return kept


def analyze_group(gens: Sequence[AffineAuto]) -> GroupAnalysis:
    """Every element of the generated group with its verdicts: its `closure`,
    each element labeled by its discovery word over r, s (two generators)
    or g1..gk.  A group of more than DEFAULT_CLOSURE_CAP elements raises
    ClosureCapExceeded.  Each element's verdicts come from one cycle
    decomposition of its own map and are kept on it.  No verifier calls
    it; it is the listing the derivations are tested against.
    """
    autos = list(gens)
    names = ("r", "s") if len(autos) == 2 else tuple(
        f"g{i + 1}" for i in range(len(autos))
    )
    elements = tuple(closure(autos))
    reports = tuple(_report(e.auto, _path_label(e.path, names)) for e in elements)
    return GroupAnalysis(elements, reports)
