"""Group-theoretic and fixed-point analysis of affine torus automorphisms.

Everything is decided exactly.  The one numerical ingredient, the
brute-force torsion oracle, enumerates scaled integer grids with numpy
but never leaves integer arithmetic.

Every call takes its maps as `AffineAuto` values and decides them
modulo their own lattice.  A question about another lattice L is asked
of `g.with_lattice(L)`, which refuses an L that g's linear part does
not preserve.  `order`, which lives in `torus` beside the cycle walk
and powers it reads, and `exists_fixed_point` decide a map once and keep
the verdict on it.  r keeps the class table of each pair (r, s) that
presents a dihedral group, and its analyses expand their rows from it.

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
is even.)  Right multiplication sends (a, 0, c) to (a + 1, 0, c) by r
and to (a, 1, c) by s, and (a, 1, c) to (a − 1, 1, c + 1) by r and to
(a, 0, c + 1) by s.  r^a z^c shares the verdicts of r^{gcd(a, k)} z^c,
a generator of the same cyclic subgroup, with order
lcm(k/gcd(a, k), ord z^c); (r^a s z^c)² = z^{a+1}, so r^a s z^c has
order 2 for odd a and 4 for even a.  Conjugation by r sends r^a s z^c
to r^{a+2} s z^{c+1} and by s to r^{−a} s z^{c+a}, so r^a s z^c shares
the verdicts of r^{a mod 2} s z^{(c − ⌊a/2⌋) mod 2}: of s, rs, sz or
rsz.
"""

from __future__ import annotations

import operator
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property
from math import gcd, lcm, prod

import numpy as np

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
_CAP_EXCEEDED = f"closure exceeds cap {DEFAULT_CLOSURE_CAP}"
DEFAULT_ORACLE_BUDGET = 10_000_000

_CHUNK = 1 << 16
_INT64_SAFE = 1 << 62


class ClosureCapExceeded(RuntimeError):
    """A closure grew past DEFAULT_CLOSURE_CAP elements."""


class OracleBudgetExceeded(RuntimeError):
    """The torsion oracle refused a grid beyond its budget or int64 range."""


@dataclass(frozen=True)
class GroupElement:
    """Group element: automorphism plus a word for it.

    path is that word as generator indices (left-to-right composition
    order, empty for the identity): its BFS discovery word in a closure,
    (0,)*a + (1,)*b for the normal form r^a s^b of a D_k listed by its
    presentation (module docstring).  Its rendering is the `word` of the
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
    """The elements of a generated group together with per-element verdicts.

    `elements` is empty when the verdicts are derived from a presentation
    (module docstring), free or not, and `analyze_group` fills it.
    Reports hold the normal forms of D_k (rotation_order k) or of its
    central extension (rotation_order None) in `_normal_forms` order, the
    identity's first.  Every summary is read off the reports.
    """

    elements: tuple[GroupElement, ...]
    reports: tuple[ElementReport, ...]
    rotation_order: int | None

    @property
    def group_size(self) -> int:
        return len(self.reports)

    @property
    def symmetry_class_count(self) -> int | None:
        """For D_k: the reflections r^a s fall into classes by a mod gcd(2, k)."""
        k = self.rotation_order
        return None if k is None else 2 - k % 2


def is_translation(g: AffineAuto) -> bool:
    """True for a nonidentity element whose linear part is the identity."""
    return g.is_linear_identity and any(g.shift)


def exists_fixed_point(g: AffineAuto) -> bool:
    """Exact decision of whether g(z) = z has a solution modulo g's lattice,
    over the closed cycles of g's own walk (module docstring), kept on g."""
    if g._fixed is None:
        g._fixed = _decide_fixed_point(g)
    return g._fixed


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
    reference that the derived analyses are tested against.
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
                    raise ClosureCapExceeded(_CAP_EXCEEDED)
                found.add(nxt)
                queue.append(nxt)
                paths.append(paths[i] + (gi,))
    return [GroupElement(a, p) for a, p in zip(queue, paths)]


def conjugacy_classes(
    group: Sequence[GroupElement],
    conjugators: Sequence[AffineAuto] | None = None,
) -> list[list[GroupElement]]:
    """Partition of a closed group into conjugacy classes.

    With `conjugators` given (typically the generating set), classes are
    computed as orbits under conjugation by those elements only; this is
    the full conjugacy partition whenever the conjugators generate the
    group, at a fraction of the compositions.
    """
    autos = [e.auto for e in group]
    by_auto = {a: i for i, a in enumerate(autos)}
    conj_autos = autos if conjugators is None else list(conjugators)
    inverses = [inverse(h) for h in conj_autos]
    assigned = [False] * len(group)
    classes: list[list[GroupElement]] = []
    for start, elem in enumerate(group):
        if assigned[start]:
            continue
        orbit = {start: None}
        frontier = [autos[start]]
        while frontier:
            g = frontier.pop(0)
            for h, h_inv in zip(conj_autos, inverses):
                image = compose(h, compose(g, h_inv))
                idx = by_auto.get(image)
                if idx is None:
                    raise ValueError("group is not closed under conjugation")
                if idx not in orbit:
                    orbit[idx] = None
                    frontier.append(autos[idx])
        members = sorted(orbit)
        for idx in members:
            assigned[idx] = True
        classes.append([group[idx] for idx in members])
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


@cache
def _normal_forms(k: int, extension: bool) -> dict[tuple[int, int, int], tuple]:
    """Each normal form r^a s^b z^c of D_k, or of its central extension of
    order 4k, as (a, b, c), mapped in row order to its row index, its
    label and the form that leads its class (module docstring).

    D_k holds r^a s^b (c = 0) at index 2a + b, labeled by that word; the
    extension holds its forms in `closure`'s order and with its words, by
    a breadth-first search with the multiplication rules.  r^a z^c is led
    by r^{gcd(a, k)} z^c and r^a s z^c by one of s, rs, sz and rsz.
    """
    rows = {}
    if extension:
        paths = {(0, 0, 0): ()}
        queue = [(0, 0, 0)]
        for a, b, c in queue:
            by_r = ((a - 1) % k, 1, 1 - c) if b else ((a + 1) % k, 0, c)
            by_s = (a, 0, 1 - c) if b else (a, 1, c)
            for gi, form in enumerate((by_r, by_s)):
                if form not in paths:
                    paths[form] = paths[a, b, c] + (gi,)
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


def _class_table(r: AffineAuto, s: AffineAuto) -> tuple[int, bool, dict]:
    """(k = ord r, extension, verdicts) of ⟨r, s⟩, decided once and kept on
    r under s: verdicts maps each class leader (a, b, c) of `_normal_forms`
    to (order, is_translation, has_fixed_point).

    ord s = ord rs = 2 makes D_k, led by s, rs and the r^d, d | k (module
    docstring), the largest d first, each decided unless a decided r^m
    with d | m is free: a free action decides only the r^{k/p}, p prime.
    ord s = 4, ord rs = 2 and z = s² a central translation outside ⟨r⟩
    make the central extension, led by s, rs, sz, rsz and the r^d z^c.
    Any other pair raises ValueError naming its failed hypothesis.
    """
    if s in (r._classes or ()):
        return r._classes[s]
    k, s_order = order(r), order(s)
    if s_order not in (2, 4):
        raise ValueError(f"no presentation: ord s = {s_order}, not 2 or 4")
    rs = compose(r, s)
    rs_order = order(rs)
    if rs_order != 2:
        raise ValueError(f"no presentation: ord rs = {rs_order}, not 2")
    reflections = [s, rs]
    z = None
    if s_order == 4:
        z = _power(s, 2)
        if not (z.is_linear_identity and _fixes(r, z.shift, z.denominator)):
            raise ValueError("no presentation: z = s² is not a central translation")
        # r^{k/2} = z needs the linear part of r^{k/2} to be the identity.
        if not (k % 2 or (k // 2) % _linear_order(r) or _power(r, k // 2) != z):
            raise ValueError("no presentation: z = s² lies in ⟨r⟩")
        reflections += [compose(g, z) for g in reflections]
    # The leaders: s, rs, sz and rsz as r^{i mod 2} s z^{i // 2}, and r^d z^c.
    verdicts = {
        (i % 2, 1, i // 2): (order(g), is_translation(g), exists_fixed_point(g))
        for i, g in enumerate(reflections)
    }
    for (d, c), flags in _rotation_flags(r, k, z).items():
        verdicts[d, 0, c] = (lcm(k // d, 1 + c), *flags)
    r._classes = {**(r._classes or {}), s: (k, z is not None, verdicts)}
    return r._classes[s]


def _prove_dihedral(r: AffineAuto, s: AffineAuto) -> GroupAnalysis:
    """The analysis of ⟨r, s⟩: each row of `_normal_forms` takes the
    verdicts of its leader in the pair's kept `_class_table`, so a warm
    call composes, walks and decides nothing."""
    k, extension, verdicts = _class_table(r, s)
    rows = _normal_forms(k, extension).values()
    reports = tuple(ElementReport(label, *verdicts[lead]) for _, label, lead in rows)
    return GroupAnalysis((), reports, None if extension else k)


def _facts(analysis: GroupAnalysis, *forms: tuple[int, int]) -> list[ElementReport]:
    """The verdicts the analysis of ⟨r, s⟩ holds for r^a s^b, given as (a, b).

    They sit at the index `_normal_forms` gives (a mod k, b, 0): D_k's
    when the analysis has a rotation order k, else the central extension
    of order 4k, derived or closed alike.
    """
    extension = analysis.rotation_order is None
    k = analysis.group_size // (4 if extension else 2)
    rows = _normal_forms(k, extension)
    return [analysis.reports[rows[a % k, b, 0][0]] for a, b in forms]


def analyze_group(gens: Sequence[AffineAuto]) -> GroupAnalysis:
    """Every element of the generated group with its verdicts.

    Two generators with ord r = k and ord s = ord rs = 2 generate D_k of
    order 2k (module docstring): its elements are listed as the normal
    forms r^a s^b of `_normal_forms`, at index 2a + b and with its
    labels, and its symmetry classes counted by the parity of k.  Any
    other generating set is closed breadth first, labeled by discovery
    words over r, s (two generators) or g1..gk, and counts no class.  A
    group of more than DEFAULT_CLOSURE_CAP elements raises
    ClosureCapExceeded; a D_k that large is refused before any element
    is listed.  Each element's verdicts come from one cycle decomposition
    of its own map and are kept on it; those of r, s and rs also decide
    the presentation, and rs is composed once.  No verifier calls it; it
    is the listing the derivations are tested against.
    """
    autos = list(gens)
    if len(autos) != 2:
        return _enumerate(autos)
    r, s = autos
    rs = compose(r, s)
    if (order(s), order(rs)) != (2, 2):
        return _enumerate(autos)
    k = order(r)
    if 2 * k > DEFAULT_CLOSURE_CAP:
        raise ClosureCapExceeded(_CAP_EXCEEDED)
    # r^a s^b at index 2a + b: r^a = r^{a−1}·r and r^a s = r·r^{a−1}s.
    maps = [AffineAuto.identity(r.lattice), s, r, rs]
    for _ in range(2, k):
        maps += [compose(maps[-2], r), compose(r, maps[-1])]
    forms = _normal_forms(k, False).items()
    elements = tuple(
        GroupElement(maps[i], (0,) * a + (1,) * b) for (a, b, _), (i, _, _) in forms
    )
    reports = tuple(_report(maps[i], label) for _, (i, label, _) in forms)
    return GroupAnalysis(elements, reports, k)


def _enumerate(autos: list[AffineAuto]) -> GroupAnalysis:
    """analyze_group of generators that do not present a D_k: their closure."""
    names = ("r", "s") if len(autos) == 2 else tuple(
        f"g{i + 1}" for i in range(len(autos))
    )
    elements = tuple(closure(autos))
    reports = tuple(_report(e.auto, _path_label(e.path, names)) for e in elements)
    return GroupAnalysis(elements, reports, None)


def _overflow_bound(d: int, rows, shift, pivots, tails) -> int:
    """Bound on every intermediate of the enumeration, in absolute value:
    the dense formula over M − I and W·L's basis, read off at most two
    entries a row and the sheared rows, the only ones that subtract across
    columns (each, in row order, adds (bound // pivot + 1)·its largest)."""
    bound = max(
        sum(abs(c) for _, c in row) * (d - 1) + abs(t) for row, t in zip(rows, shift)
    )
    entries = [abs(b) for tail in tails.values() for _, b in tail]
    bound = max(bound, max([*pivots, *entries]) * d)
    for i, tail in tails.items():
        bound += (bound // pivots[i] + 1) * max(pivots[i], *(abs(b) for _, b in tail))
    return bound


def _triangular_residues(v: np.ndarray, pivots, tails) -> np.ndarray:
    """Reduce rows of v modulo the upper-triangular row basis, in place.

    The basis is W·L's: row i is pivots[i] at column i plus, for a
    sheared row, the (column, entry) pairs of tails[i].  Afterwards
    column i of v holds the canonical residue in [0, pivots[i]).
    """
    for i, pivot in enumerate(pivots):
        if i not in tails:
            v[:, i] %= pivot
            continue
        q = v[:, i] // pivot
        v[:, i] -= q * pivot
        for j, b in tails[i]:
            v[:, j] -= q * b
    return v


def _key_columns(radices: Sequence[int]) -> list[list[int]]:
    """The runs of consecutive columns that share one mixed-radix key.

    A run grows while the product of its radices stays at most _INT64_SAFE.
    """
    runs: list[list[int]] = []
    span = 0
    for j, radix in enumerate(radices):
        if not runs or span * radix > _INT64_SAFE:
            runs.append([j])
            span = radix
        else:
            runs[-1].append(j)
            span *= radix
    return runs


def _packed_keys(rows: np.ndarray, radices: Sequence[int]) -> list[np.ndarray]:
    """Mixed-radix sort keys for rows whose column j lies in [0, radices[j]).

    Each key packs one run of `_key_columns`, the earlier column more
    significant; comparing the keys in order then compares the rows
    lexicographically.
    """
    keys = []
    for first, *rest in _key_columns(radices):
        key = rows[:, first].copy()
        for j in rest:
            key *= radices[j]
            key += rows[:, j]
        keys.append(key)
    return keys


def _unpacked_rows(
    keys: Sequence[np.ndarray], radices: Sequence[int], step: int = 1
) -> np.ndarray:
    """The rows that `_packed_keys(rows, radices)` packs into `keys`, times step.

    Consumes the keys: each is divided in place, one column at a time.
    Every entry lies in [0, max(radices)·step), so the rows take the
    narrowest unsigned type that holds max(radices)·step − 1.
    """
    top = max(radices) * step - 1
    rows = np.empty((len(keys[0]), len(radices)), dtype=np.min_scalar_type(top))
    for key, (first, *rest) in zip(keys, _key_columns(radices)):
        for j in reversed(rest):
            np.divmod(key, radices[j], out=(key, rows[:, j]), casting="unsafe")
        rows[:, first] = key
    # With every radix 1 every entry is 0, and step may not fit the type.
    if step > 1 and max(radices) > 1:
        rows *= step
    return rows


def _expand(partial: np.ndarray, digits: Sequence[int], bounds: Sequence[int]):
    """Every column of `partial` with every assignment to the `digits` rows.

    Digit k ranges over [0, bounds[k]).  Yields the candidates in pieces
    of at most _CHUNK columns.
    """
    per_column = prod(bounds[k] for k in digits)
    total = partial.shape[1] * per_column
    for start in range(0, total, _CHUNK):
        stop = min(start + _CHUNK, total)
        # Columns first..last of partial fill the piece, each repeated once
        # per assignment that falls inside it.
        first, last = start // per_column, (stop - 1) // per_column
        runs = per_column
        if start % per_column or stop % per_column:
            runs = np.full(last - first + 1, per_column)
            runs[0] -= start - first * per_column
            runs[-1] -= (last + 1) * per_column - stop
        piece = np.repeat(partial[:, first : last + 1], runs, axis=1)
        flat = np.arange(start, stop, dtype=np.int64)
        # The first digit varies slowest, so a grid comes out in sort order.
        for k in reversed(digits):
            np.divmod(flat, bounds[k], out=(flat, piece[k]))
        yield piece
        del piece


def _tested_pieces(
    rows, shift, pivots, tails, bounds: Sequence[int]
) -> tuple[list[int], Iterator[np.ndarray]]:
    """The digits no test reads, and the partial digit vectors that pass
    every test, as m digit rows in nonempty pieces of at most _CHUNK.

    Grid points are digit vectors with digit k in [0, bounds[k]), found
    by a search over partial digit vectors that tests the image
    coordinates i = 0..m−1 in the triangular order of the basis.  Image
    coordinate i reads only the digits of rows[i], its at most two
    (digit, coefficient) pairs, so those not yet assigned are expanded
    just before it is tested: it is Σ digit·coefficient plus shift[i],
    less what the sheared basis rows (`tails`) have carried into it, and
    must be a multiple of pivots[i], since that residue is final once
    basis rows 0..i−1 are subtracted.  A partial vector that fails is
    dropped before any later digit is assigned.  Digits that no
    coordinate reads stay 0, as each assignment to them is a fixed grid
    point (for the identity, every digit of one zero column).  The search
    goes depth first and no array holds more than _CHUNK partial vectors.
    """
    m = len(rows)
    # Partial vectors are stored one per column: m digit rows, then one
    # carry row per coordinate that a sheared row subtracts from.
    carried = sorted({j for tail in tails.values() for j, _ in tail})
    carry_row = {j: m + k for k, j in enumerate(carried)}
    new_digits, assigned = [], set()
    for row in rows:
        new_digits.append([k for k, _ in row if k not in assigned])
        assigned.update(new_digits[-1])
    free = [k for k in range(m) if k not in assigned]

    def search(partial: np.ndarray, i: int):
        if i == m:
            yield partial[:m]
            return
        pivot, fresh = pivots[i], new_digits[i]
        for piece in _expand(partial, fresh, bounds) if fresh else (partial,):
            image = np.full(piece.shape[1], shift[i], dtype=np.int64)
            for k, c in rows[i]:
                image += piece[k] * c
            if i in carry_row:
                image -= piece[carry_row[i]]
            hit = image % pivot == 0
            kept = np.count_nonzero(hit)
            if not kept:
                continue
            if kept < len(hit):
                piece, image = piece.compress(hit, axis=1), image[hit]
            # Each piece is handed down once, so it takes its carries in place.
            for j, b in tails.get(i, ()):
                piece[carry_row[j]] += image // pivot * b
            yield from search(piece, i + 1)

    return free, search(np.zeros((m + len(carry_row), 1), dtype=np.int64), 0)


def _surviving_pieces(rows, shift, pivots, tails, bounds) -> Iterator[np.ndarray]:
    """The fixed grid points as m digit rows: `_tested_pieces`, free
    digits expanded, in nonempty pieces of at most _CHUNK columns."""
    free, tested = _tested_pieces(rows, shift, pivots, tails, bounds)
    for partial in tested:
        yield from _expand(partial, free, bounds) if free else (partial,)


def _expanded_keys(partials, digits: Sequence[int], bounds: Sequence[int]):
    """`_packed_keys(rows, bounds)` of `_expand(partial, digits, bounds)`
    for each of `partials`, in nonempty pieces of at most _CHUNK keys, with
    no row built: the one key Σ_k x_k·prod(bounds[k+1:]) of digits x is a
    column's base key plus an offset by position inside the column, from
    one table of the `digits`' offsets built for the first column.  Keys
    take the narrowest type that holds prod(bounds), and so every weight."""
    offsets = None
    for partial in partials:
        if offsets is None:
            weights = [prod(bounds[k + 1 :]) for k in range(len(bounds))]
            key_type = np.min_scalar_type(prod(bounds))
            offsets = np.zeros(1, dtype=key_type)
            for k in digits:
                column = np.arange(bounds[k], dtype=key_type) * weights[k]
                offsets = (offsets[:, None] + column).ravel()
            weights, group = np.array(weights), max(1, _CHUNK // len(offsets))
        for first in range(0, partial.shape[1], group):
            base = (weights @ partial[:, first : first + group]).astype(key_type)
            for start in range(0, len(offsets), _CHUNK):
                yield np.add.outer(base, offsets[start : start + _CHUNK]).ravel()


class _TorsionPoints(Sequence):
    """Sorted canonical torsion points, held packed until they are read.

    Holds the points' sorted mixed-radix keys, their radices and the
    scale `step` that takes an unpacked row to W times its point.  `len`,
    truth tests and `repr` read the key length alone.  The first index,
    slice, iteration or comparison unpacks the keys once, through
    `_unpacked_rows`, into unsigned rows scaled by W and drops them; a
    `TorsionPoint` is built only when an item is read.  Equal to any
    sequence of the same points in the same order; immutable and, like a
    list, unhashable.
    """

    __slots__ = ("_keys", "_radices", "_step", "_rows", "_w")
    __hash__ = None

    def __init__(
        self, keys: list[np.ndarray] | None, radices: Sequence[int], step: int, w: int
    ):
        self._keys, self._radices, self._step, self._w = keys, radices, step, w
        self._rows = None

    @classmethod
    def _of_rows(cls, rows: np.ndarray, w: int) -> "_TorsionPoints":
        """The points of rows already unpacked and scaled by w."""
        points = cls(None, (), 1, w)
        points._rows = rows
        return points

    def _read(self) -> np.ndarray:
        if self._rows is None:
            rows = _unpacked_rows(self._keys, self._radices, self._step)
            rows.flags.writeable = False
            self._rows, self._keys = rows, None
        return self._rows

    def __len__(self) -> int:
        return len(self._keys[0] if self._rows is None else self._rows)

    def __getitem__(self, index):
        rows = self._read()
        if isinstance(index, slice):
            return _TorsionPoints._of_rows(rows[index], self._w)
        row = rows[operator.index(index)]
        return TorsionPoint(tuple(Fraction(v, self._w) for v in row.tolist()))

    def __iter__(self):
        rows = self._read()
        # Canonical coordinates repeat a few values, so each Fraction is
        # built once per iteration.
        table = {v: Fraction(v, self._w) for v in np.unique(rows).tolist()}
        for row in rows.tolist():
            yield TorsionPoint(tuple(map(table.__getitem__, row)))

    def __eq__(self, other):
        if not isinstance(other, Sequence) or isinstance(other, (str, bytes)):
            return NotImplemented
        return len(self) == len(other) and all(map(operator.eq, self, other))

    def __repr__(self) -> str:
        return f"<{len(self)} torsion points with denominator {self._w}>"


def torsion_fixed_points_bruteforce(
    g: AffineAuto, denominator: int
) -> Sequence[TorsionPoint]:
    """All fixed points of g with coordinates in (1/denominator)Z, mod its lattice.

    Decides every point of the grid {k/denominator : 0 ≤ k < denominator}^m,
    keeps the points with g(p) = p modulo the lattice, and returns their
    canonical representatives deduplicated and sorted lexicographically.
    Serves as an independent oracle for exists_fixed_point: any fixed
    point of an affine map with finite-order linear part and rational
    translation can be perturbed to a torsion fixed point, so a suitable
    denominator (a multiple of lcm(order, denominators involved)) makes
    the comparison exact.

    Image coordinate W·((M − I)·p + t)_i depends on at most two grid
    digits, read off the signed permutation, and the lattice enters as
    its scaled HNF pivots and sheared rows: no m×m table is built.  The
    grid is searched level by level: the digits one coordinate reads are
    assigned just before its lattice-membership test in int64, and
    partial digit vectors that fail are dropped before the next digits
    are assigned.  Digits no coordinate reads are assigned last, untested.
    Each survivor is held only as mixed-radix keys, which pack as many
    consecutive coordinates as fit in 62 bits.

    When the lattice denominator divides `denominator`, every grid class
    has its canonical form on the grid, inside the HNF box, so the search
    enumerates only the box: digit i over [0, denominator·pivot_i /
    lattice.denominator), denominator^m / [L : Z^m] candidates, each
    already canonical and in its own class (the identity at n = 1 and
    denominator 8 builds 131,072, not the 262,144 grid points).  Their
    digits, whose ranges multiply to at most the budget, fit one key of
    the narrowest type that holds their product, which the last level
    writes with no digit row.  For any other
    denominator the last level builds the digit rows of the whole grid,
    and the survivors are reduced to canonical form, packed scaled by W,
    and deduplicated by comparing adjacent keys.

    The result is an immutable sequence that holds the sorted keys:
    `len` and truth tests read their length.  The first index, slice,
    iteration or comparison unpacks them once into rows of the narrowest
    unsigned type that holds every coordinate scaled by W; a TorsionPoint
    is built only when one is indexed or iterated.  The result compares
    equal to a list of the same points, and is unhashable.

    Refuses enumerations of more candidates than DEFAULT_ORACLE_BUDGET
    (the product of the digit ranges: denominator^m / [L : Z^m] on the
    box, denominator^m otherwise), and scalings that could leave the
    int64 range, with OracleBudgetExceeded.
    """
    w, bounds, canonical, *search = _oracle_input(g, denominator)
    step = w // denominator
    if canonical:
        # A box candidate's digits are its canonical row over step.
        radices, scale = bounds, step
        free, tested = _tested_pieces(*search, bounds)
        pieces = [[key] for key in _expanded_keys(tested, free, bounds)]
    else:
        _, _, radices, tails = search
        scale = 1

        def reduced(piece):
            rows = _triangular_residues((piece * step).T, radices, tails)
            return _packed_keys(rows, radices)

        # map drops each row piece once it is packed, before the next is built.
        pieces = list(map(reduced, _surviving_pieces(*search, bounds)))
    if not pieces:
        empty = [np.empty(0, dtype=np.int64) for _ in _key_columns(radices)]
        return _TorsionPoints(empty, radices, scale, w)
    keys = [np.concatenate(column) for column in zip(*pieces)]
    del pieces
    if len(keys) == 1:
        # The box arrives in order, so timsort only has to confirm it.
        keys[0].sort(kind="stable")
    else:
        # lexsort takes its last key as the primary one: the first key leads.
        by_key = np.lexsort(keys[::-1])
        keys = [key[by_key] for key in keys]
        del by_key
    if not canonical:
        # Equal classes sort next to each other: keep the first of each run.
        keep = np.zeros(len(keys[0]), dtype=bool)
        keep[0] = True
        for key in keys:
            keep[1:] |= key[1:] != key[:-1]
        if not keep.all():
            keys = [key[keep] for key in keys]
    return _TorsionPoints(keys, radices, scale, w)


def _has_torsion_fixed_point(g: AffineAuto, denominator: int) -> bool:
    """Whether `torsion_fixed_points_bruteforce(g, denominator)` is nonempty.

    Refuses what the oracle refuses, and stops at the first partial digit
    vector that passes every test, whose free digits it never expands.
    """
    _, bounds, _, *search = _oracle_input(g, denominator)
    return next(_tested_pieces(*search, bounds)[1], None) is not None


def _oracle_input(g: AffineAuto, denominator: int):
    """W, the digit bounds, whether every candidate is canonical, and the
    grid search's integer data, once the oracle's checks pass.

    W = W0·d, where W0 clears the denominators of t and of the lattice's
    HNF data, makes W·((M − I)·p + t) integral on the grid p ∈ (1/d)Z^m.
    The data, with no m×m table: row i of W0·(M − I) as (digit,
    coefficient) pairs sorted by digit, sign·W0 at perm[i] and −W0 at i,
    merged into (sign − 1)·W0, none for sign +1, when perm[i] = i; W·t;
    and W·L's pivots and, by row, the (column, entry) tails of its
    sheared rows.

    When the lattice denominator divides d, L ⊆ (1/d)Z^m, so the canonical
    form of a grid point is a grid point in the HNF box: digit i ranges
    over [0, d·pivot_i/lattice.denominator) only.  Otherwise every digit
    ranges over [0, d).
    """
    if denominator < 1:
        raise ValueError("denominator must be positive")
    lattice = g.lattice
    d = denominator
    canonical = d % lattice.denominator == 0
    bounds = [
        d * pivot // lattice.denominator if canonical else d
        for pivot in lattice.pivots
    ]
    candidates = prod(bounds)
    if candidates > DEFAULT_ORACLE_BUDGET:
        raise OracleBudgetExceeded(
            f"{candidates} candidates exceed the oracle budget of "
            f"{DEFAULT_ORACLE_BUDGET}"
        )

    w0 = lcm(g.denominator, lattice.denominator)
    w = w0 * d
    rows = [
        ((i, -2 * w0),) * (sign < 0) if src == i
        else tuple(sorted(((src, sign * w0), (i, -w0))))
        for i, (src, sign) in enumerate(zip(g.perm, g.signs))
    ]
    shift = [x * (w // g.denominator) for x in g.shift]
    scale = w // lattice.denominator
    pivots = [pivot * scale for pivot in lattice.pivots]
    tails = {
        i: [(j, b * scale) for j, b in tail] for i, _, tail in lattice.sheared_rows
    }
    # The bound covers every entry of the image, which the search forms
    # term by term from W·t, and the carries, the reduction's own terms.
    if _overflow_bound(d, rows, shift, pivots, tails) >= _INT64_SAFE:
        raise OracleBudgetExceeded("oracle scaling exceeds 64-bit integer range")
    return w, bounds, canonical, rows, shift, pivots, tails
