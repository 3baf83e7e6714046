"""Exact model of products of elliptic curves and their quotient tori.

Points live in lattice-basis coordinates: complex coordinate i of a
product E_1 × ... × E_c is a value p + q·τ_i with (p, q) rational, and
the formal period τ_i is never evaluated.  A holomorphic automorphism
that permutes (and negates) coordinates and translates by torsion then
realifies to a signed permutation of the real coordinates plus a
rational shift, so every verification below holds for all choices of
the elliptic curves at once.

`AffineAuto` stores exactly that: one (source, sign) pair per real
coordinate, and the shift as integer numerators over one common
denominator, reduced modulo the lattice.  It is built from that form
only, `AffineAuto(perm, signs, translation, lattice)`, or by `realify`
from a `ComplexMonomialMap`, which is a map's description and not an
algebra: composition, powers and inversion act on `AffineAuto` values.
Those and equality are O(m) integer operations, and so is a hash, which
a map keeps after its first use.  `translation` shares one `Fraction`
per distinct numerator of the shift, and the dense matrix is built only
when a caller asks for it.  Each map keeps its signed cycles, walked
once, its order and fixed-point verdict, each decided once, and its
powers: g^e is read in closed form off the cycles, so its cost does not
grow with e, and kept on g under e mod ord g.

Coordinate layout: complex coordinate i (0-based) owns the two real
slots 2i, 2i+1, in order (1-part, τ-part).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, cached_property
from heapq import heappop, heappush
from math import gcd, lcm, prod
from operator import eq
from typing import Iterable, Sequence

Rational = int | Fraction
Vector = tuple[Fraction, ...]

_F0 = Fraction(0)
_F1 = Fraction(1)


def vector(entries: Iterable[Rational]) -> Vector:
    """Entries as a tuple of `Fraction`s; existing `Fraction`s are kept, not copied."""
    return tuple(e if isinstance(e, Fraction) else Fraction(e) for e in entries)


@dataclass(frozen=True)
class TorusShape:
    """Shape of the ambient product: 2n copies of E and one E′ at the end."""

    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be a positive integer")

    @property
    def complex_dim(self) -> int:
        return 2 * self.n + 1

    @property
    def real_dim(self) -> int:
        return 2 * self.complex_dim

    @property
    def eprime_index(self) -> int:
        """Complex index of the lone E′ factor (always the last one)."""
        return self.complex_dim - 1


@dataclass(frozen=True)
class TorsionPoint:
    """Rational point in lattice coordinates, length 2 per complex factor."""

    coords: Vector

    @classmethod
    def of(cls, entries: Iterable[Rational]) -> "TorsionPoint":
        return cls(vector(entries))

    @classmethod
    def zero(cls, m: int) -> "TorsionPoint":
        return cls((_F0,) * m)

    @property
    def is_zero(self) -> bool:
        return all(e == 0 for e in self.coords)

    def __len__(self) -> int:
        return len(self.coords)

    def __getitem__(self, i: int) -> Fraction:
        return self.coords[i]

    def __iter__(self):
        return iter(self.coords)

    def __add__(self, other: "TorsionPoint") -> "TorsionPoint":
        return TorsionPoint(tuple(a + b for a, b in zip(self.coords, other.coords, strict=True)))

    def __sub__(self, other: "TorsionPoint") -> "TorsionPoint":
        return TorsionPoint(tuple(a - b for a, b in zip(self.coords, other.coords, strict=True)))

    def __neg__(self) -> "TorsionPoint":
        return TorsionPoint(tuple(-a for a in self.coords))

    def __repr__(self) -> str:
        return "TorsionPoint(" + ", ".join(str(e) for e in self.coords) + ")"


def _point(num: Sequence[int], den: int) -> TorsionPoint:
    # A shift holds few distinct numerators: one shared Fraction each.
    shared = {x: Fraction(x, den) for x in set(num)}
    return TorsionPoint(tuple(map(shared.__getitem__, num)))


def _sparse_hnf(m: int, d: int, rows: Sequence[Sequence[int]]) -> tuple[tuple, tuple]:
    """(pivots, sheared rows) of the HNF of d·Z^m + Σ Z·row, for integer rows.

    From d·I, each row is inserted in column order: one extended-gcd step
    per column it reaches puts gcd(pivot, entry) on the diagonal.  Entries
    are kept in [0, d), as d·Z^m lies in the lattice, so a last sweep,
    bottom-up and in column order, reduces each stored row only in the
    columns of the other stored rows.
    """
    pivots, tails = [d] * m, {}
    for row in rows:
        v = {j: x % d for j, x in enumerate(row) if x % d}
        heap = list(v)  # increasing, so already a heap
        while heap:
            i = heappop(heap)
            if not (a := v.pop(i, 0)):
                continue
            p, tail, tails[i] = pivots[i], tails.get(i, {}), {}
            g = pivots[i] = gcd(p, a)
            y = pow(a // g, -1, p // g)
            x = (g - y * a) // p
            # (row i, v) ↦ (x·row i + y·v, (a/g)·row i − (p/g)·v): unimodular.
            for k in tail.keys() | v.keys():
                b, c = tail.get(k, 0), v.get(k, 0)
                tails[i][k] = (x * b + y * c) % d
                if k not in v:
                    heappush(heap, k)
                v[k] = (a // g * b - p // g * c) % d
    for i in sorted(tails, reverse=True):
        # An entry in a column no row met is in [0, d) = [0, pivot) already.
        tail, heap = tails[i], sorted(tails[i].keys() & tails.keys())
        while heap:
            j = heappop(heap)
            q, tail[j] = divmod(tail[j], pivots[j])
            for k, b in tails[j].items() if q else ():
                if k not in tail and k in tails:
                    heappush(heap, k)
                tail[k] = (tail.get(k, 0) - q * b) % d
    sheared = [(i, sorted((j, b) for j, b in tails[i].items() if b)) for i in sorted(tails)]
    return tuple(pivots), tuple((i, pivots[i], tuple(t)) for i, t in sheared if t)


@dataclass(frozen=True)
class EnlargedLattice:
    """Full-rank lattice Z^m + Z·g_1 + ... + Z·g_k inside Q^m.

    The lattice is stored as the unique upper-triangular HNF basis of
    `denominator`·L, where `denominator` is the exponent of L/Z^m (the
    least common denominator of the extra generators): the diagonal
    `pivots`, and (row, pivot, off-diagonal entries) of the rows that
    have off-diagonal entries, built by `_sparse_hnf` with no m×m table.
    That integer data is canonical, so equality and hashing compare it
    alone, in O(m), and two generating sets of one lattice give equal
    values.  `canonical_basis`, the same basis as rows of `Fraction`s, is
    derived from it on first use.
    """

    m: int
    extra_generators: tuple[Vector, ...] = field(compare=False)
    index: int
    denominator: int = field(repr=False)
    pivots: tuple[int, ...] = field(repr=False)
    sheared_rows: tuple = field(repr=False)
    extra_numerators: tuple[tuple[int, ...], ...] = field(compare=False, repr=False)

    @classmethod
    def from_extra_generators(
        cls, m: int, extras: Sequence[Sequence[Rational]] = ()
    ) -> "EnlargedLattice":
        if m < 1:
            raise ValueError("dimension must be positive")
        extra_vs = tuple(vector(g) for g in extras)
        if not extra_vs:
            return cls(m, (), 1, 1, (1,) * m, (), ())  # Z^m is its own HNF
        if any(len(g) != m for g in extra_vs):
            raise ValueError("extra generators must have length m")
        d = lcm(1, *(e.denominator for g in extra_vs for e in g))
        rows = tuple(
            tuple(e.numerator * (d // e.denominator) for e in g) for g in extra_vs
        )
        pivots, sheared = _sparse_hnf(m, d, rows)
        index = prod(d // p for p in pivots)  # d^m over the covolume of d·L
        return cls(m, extra_vs, index, d, pivots, sheared, rows)

    @classmethod
    @cache
    def standard(cls, m: int) -> "EnlargedLattice":
        """Z^m itself; built once per m and shared."""
        return cls.from_extra_generators(m)

    @cached_property
    def canonical_basis(self) -> tuple[Vector, ...]:
        """The HNF basis rows of L as `Fraction`s, built on first use."""
        d = self.denominator
        rows = [[_F0] * self.m for _ in range(self.m)]
        for i, pivot in enumerate(self.pivots):
            rows[i][i] = Fraction(pivot, d)
        for i, _, tail in self.sheared_rows:
            for j, b in tail:
                rows[i][j] = Fraction(b, d)
        return tuple(tuple(row) for row in rows)

    @property
    def generators(self) -> tuple[Vector, ...]:
        """The defining generating set: standard basis plus the extras."""
        std = tuple(
            tuple(_F1 if i == j else _F0 for j in range(self.m))
            for i in range(self.m)
        )
        return std + self.extra_generators

    def scaled(self, p: Sequence[Rational] | TorsionPoint) -> tuple[list[int], int]:
        """p as (integer numerators, their least common denominator)."""
        coords = p.coords if isinstance(p, TorsionPoint) else vector(p)
        if len(coords) != self.m:
            raise ValueError("point length does not match lattice dimension")
        den = lcm(1, *(e.denominator for e in coords))
        return [e.numerator * (den // e.denominator) for e in coords], den

    def reduce_scaled(
        self, num: Sequence[int], den: int
    ) -> tuple[tuple[int, ...], int]:
        """reduce() on integer numerators: (numerators, denominator) in lowest terms.

        Works at lcm(den, denominator), where the basis is integral.  Rows
        with off-diagonal entries are subtracted in order, then every
        coordinate is taken modulo its pivot (the other rows touch only
        their own coordinate).
        """
        d = self.denominator
        scale = d // gcd(d, den)
        big = den * scale
        f = big // d
        v = [x * scale for x in num] if scale != 1 else list(num)
        for i, pivot, tail in self.sheared_rows:
            q = v[i] // (pivot * f)
            if q:
                v[i] -= q * pivot * f
                for j, b in tail:
                    v[j] -= q * b * f
        v = [x % (p * f) for x, p in zip(v, self.pivots)]
        g = gcd(big, *v)
        if g != 1:
            v = [x // g for x in v]
            big //= g
        return tuple(v), big

    def reduce(self, p: Sequence[Rational] | TorsionPoint) -> TorsionPoint:
        """Canonical representative of p modulo the lattice.

        Coordinates of the result lie in [0, pivot_i) per canonical basis
        row; reduce is idempotent and reduce(p) - p is a lattice member.
        """
        return _point(*self.reduce_scaled(*self.scaled(p)))

    def contains(self, p: Sequence[Rational] | TorsionPoint) -> bool:
        return self.reduce(p).is_zero


@dataclass(frozen=True)
class ComplexMonomialMap:
    """Holomorphic affine map z_j ↦ ε_j · z_{σ(j)} + t_j on the product.

    perm[j] is the input coordinate σ(j) read by output j; signs[j] is
    ε_j ∈ {+1, −1}; translation stores t in realified lattice coordinates
    (length 2 · number of complex coordinates).
    """

    perm: tuple[int, ...]
    signs: tuple[int, ...]
    translation: TorsionPoint

    def __post_init__(self):
        c = len(self.perm)
        if sorted(self.perm) != list(range(c)):
            raise ValueError("perm must be a permutation of 0..c-1")
        if len(self.signs) != c or any(s not in (1, -1) for s in self.signs):
            raise ValueError("signs must be ±1, one per coordinate")
        if len(self.translation) != 2 * c:
            raise ValueError("translation must have two slots per coordinate")


class AffineAuto:
    """Automorphism z ↦ M·z + t of R^m modulo an enlarged lattice L.

    M is a signed permutation: output coordinate i is signs[i]·z[perm[i]].
    t is shift/denominator, with the integer shift reduced modulo L and in
    lowest terms, so equal maps have equal fields.  Values are immutable
    and hashable, so they double as closure keys.  Equality ignores the
    slots that keep its hash, cycles, order, verdict, powers and presentations.

    The constructor takes (perm, signs, translation, lattice) and checks
    that perm is a permutation of the m coordinates, that every sign is
    ±1 and that M maps the lattice onto itself.
    """

    __slots__ = ("perm", "signs", "shift", "denominator", "lattice", "__weakref__",
                 "_linear", "_cycles", "_order", "_fixed", "_powers", "_classes", "_hash")

    def __init__(
        self,
        perm: Sequence[int],
        signs: Sequence[int],
        translation: Sequence[Rational] | TorsionPoint,
        lattice: EnlargedLattice,
    ):
        m = lattice.m
        perm, signs = tuple(perm), tuple(signs)
        if len(perm) != m or len(signs) != m:
            raise ValueError("perm and signs must have length m for the lattice's m")
        if sorted(perm) != list(range(m)):
            raise ValueError("perm must be a permutation of 0..m-1")
        if any(s != 1 and s != -1 for s in signs):
            raise ValueError("every sign must be ±1")
        # A signed permutation maps Z^m onto itself, so it preserves
        # L = Z^m + Σ Z·g_i iff it maps every extra generator g_i into L
        # (then M·L ⊆ L, with equality because M has finite order).
        for g in lattice.extra_numerators:
            image = [s * g[src] for src, s in zip(perm, signs)]
            if any(lattice.reduce_scaled(image, lattice.denominator)[0]):
                raise ValueError("linear part does not preserve the lattice")
        self.perm, self.signs = perm, signs
        self.shift, self.denominator = lattice.reduce_scaled(
            *lattice.scaled(translation)
        )
        self.lattice, self._linear, self._cycles = lattice, None, None
        self._order = self._fixed = self._powers = self._classes = self._hash = None

    @classmethod
    def _make(cls, perm, signs, shift, denominator, lattice) -> "AffineAuto":
        # Internal fast path: caller guarantees the invariants (products and
        # inverses of valid automorphisms stay valid, shifts reduced).
        g = object.__new__(cls)
        g.perm, g.signs, g.shift, g.denominator = perm, signs, shift, denominator
        g.lattice, g._linear, g._cycles = lattice, None, None
        g._order = g._fixed = g._powers = g._classes = g._hash = None
        return g

    @classmethod
    def identity(cls, lattice: EnlargedLattice) -> "AffineAuto":
        m = lattice.m
        return cls._make(tuple(range(m)), (1,) * m, (0,) * m, 1, lattice)

    @classmethod
    def translation_by(
        cls, t: Sequence[Rational] | TorsionPoint, lattice: EnlargedLattice
    ) -> "AffineAuto":
        reduced = lattice.reduce_scaled(*lattice.scaled(t))
        m = lattice.m
        return cls._make(tuple(range(m)), (1,) * m, *reduced, lattice)

    @property
    def linear(self):
        """M as a dense `linalg.Matrix`, built on first use (for display and tests)."""
        if self._linear is None:
            from .linalg import Matrix

            rows = [[0] * len(self.perm) for _ in self.perm]
            for row, src, sign in zip(rows, self.perm, self.signs):
                row[src] = sign
            self._linear = Matrix(rows)
        return self._linear

    @property
    def translation(self) -> TorsionPoint:
        return _point(self.shift, self.denominator)

    @property
    def is_linear_identity(self) -> bool:
        return -1 not in self.signs and all(map(eq, self.perm, range(len(self.perm))))

    @property
    def is_identity(self) -> bool:
        return not any(self.shift) and self.is_linear_identity

    def linear_part(self) -> "AffineAuto":
        """z ↦ M·z on the same lattice."""
        zero = (0,) * len(self.perm)
        return AffineAuto._make(self.perm, self.signs, zero, 1, self.lattice)

    def apply(self, p: Sequence[Rational] | TorsionPoint) -> TorsionPoint:
        image = _moved(self, *self.lattice.scaled(p))
        return _point(*self.lattice.reduce_scaled(*image))

    def with_lattice(self, lattice: EnlargedLattice) -> "AffineAuto":
        """The same affine map regarded modulo a different lattice (revalidated)."""
        if lattice == self.lattice:
            return self
        return AffineAuto(self.perm, self.signs, self.translation, lattice)

    def _key(self) -> tuple:
        return self.perm, self.signs, self.shift, self.denominator

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, AffineAuto)
            and self._key() == other._key()
            and self.lattice == other.lattice
        )

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(self._key())
        return self._hash

    def __repr__(self) -> str:
        return (
            f"AffineAuto(perm={self.perm!r}, signs={self.signs!r}, "
            f"t={self.translation!r})"
        )


def realify(
    cmap: ComplexMonomialMap,
    shape: TorusShape,
    lattice: EnlargedLattice | None = None,
) -> AffineAuto:
    """The monomial map as a signed permutation of lattice coordinates.

    Output slots 2j, 2j+1 read slots 2σ(j), 2σ(j)+1 with sign ε_j:
    negating p + q·τ negates both lattice coordinates, and coordinates on
    distinct factors never mix.  Rejects maps that send an E coordinate
    to the E′ coordinate or back, since those are not holomorphic for
    generic periods.

    When `lattice` is omitted the map is taken modulo Z^m (the ambient
    product itself); pass the quotient's enlarged lattice to realify an
    automorphism of the quotient.
    """
    if len(cmap.perm) != shape.complex_dim:
        raise ValueError("map and shape have different numbers of coordinates")
    last = shape.eprime_index
    if any((j == last) != (src == last) for j, src in enumerate(cmap.perm)):
        raise ValueError("permutation mixes E and E′ factors (not holomorphic)")
    perm = tuple(2 * src + k for src in cmap.perm for k in (0, 1))
    signs = tuple(eps for eps in cmap.signs for _ in (0, 1))
    if lattice is None:
        lattice = EnlargedLattice.standard(shape.real_dim)
    return AffineAuto(perm, signs, cmap.translation, lattice)


def _moved(g: AffineAuto, num: Sequence[int], den: int) -> tuple[list[int], int]:
    """M·(num/den) + t as integer numerators over lcm(den, t's denominator)."""
    big = lcm(den, g.denominator)
    a, b = big // den, big // g.denominator
    return [
        s * num[src] * a + t * b for src, s, t in zip(g.perm, g.signs, g.shift)
    ], big


def compose(g: AffineAuto, h: AffineAuto) -> AffineAuto:
    """g ∘ h (h is applied first), on the automorphisms' shared lattice."""
    if g.lattice is not h.lattice and g.lattice != h.lattice:
        raise ValueError("automorphisms live on different lattices")
    hp, hs = h.perm, h.signs
    perm = tuple([hp[src] for src in g.perm])
    signs = tuple([s * hs[src] for src, s in zip(g.perm, g.signs)])
    shift = g.lattice.reduce_scaled(*_moved(g, h.shift, h.denominator))
    return AffineAuto._make(perm, signs, *shift, g.lattice)


def inverse(g: AffineAuto) -> AffineAuto:
    """z = ε_i·(y_i − t_i) at slot σ(i): the transposed pairs, shift −M⁻¹t."""
    m = len(g.perm)
    perm, signs, shift = [0] * m, [0] * m, [0] * m
    for i, (src, s, t) in enumerate(zip(g.perm, g.signs, g.shift)):
        perm[src], signs[src], shift[src] = i, s, -s * t
    shift = g.lattice.reduce_scaled(shift, g.denominator)
    return AffineAuto._make(tuple(perm), tuple(signs), *shift, g.lattice)


def _signed_cycles(g: AffineAuto) -> tuple:
    """(coordinates, potentials c, closed, prefix) per cycle of M: g's own
    walk, made on the first read and kept on g."""
    if g._cycles is None:
        g._cycles = _decompose(g)
    return g._cycles


def _decompose(g: AffineAuto) -> tuple:
    # Walk i → σ(i) → ... with potentials c_{σ(i)} = ε_i·c_i from c = 1;
    # the cycle is closed when its sign product is +1.  prefix[j] sums
    # c·t over its first j coordinates, so prefix[-1] is t's projection.
    perm, signs, shift = g.perm, g.signs, g.shift
    seen = [False] * len(perm)
    cycles = []
    for start in range(len(perm)):
        if seen[start]:
            continue
        coords, potentials, prefix, c, i = [], [], [0], 1, start
        while not seen[i]:
            seen[i] = True
            coords.append(i)
            potentials.append(c)
            prefix.append(prefix[-1] + c * shift[i])
            c *= signs[i]
            i = perm[i]
        cycles.append((tuple(coords), tuple(potentials), c == 1, tuple(prefix)))
    return tuple(cycles)


def order(g: AffineAuto) -> int:
    """Smallest k ≥ 1 with g^k the identity modulo g's lattice: exact, over
    g's cycle walk (`analysis` module docstring), decided once, kept on g."""
    return _order(g)


def _order(g: AffineAuto) -> int:
    # `order` without its public binding, which a tracer may wrap.
    if g._order is not None:
        return g._order
    k = _linear_order(g)
    total = [0] * len(g.perm)
    for coords, potentials, closed, prefix in _signed_cycles(g):
        if closed:
            for i, c in zip(coords, potentials):
                total[i] = k // len(coords) * prefix[-1] * c
    # g^k is the translation by T = num/den; the least q with q·T ∈ L is
    # base·e for the least divisor e of gcd(den, d) that passes, and
    # e = gcd(den, d), q = den, always passes.
    lattice = g.lattice
    num, den = lattice.reduce_scaled(total, g.denominator)
    common = gcd(den, lattice.denominator)
    base = den // common
    for e in range(1, common):
        q = base * e
        if common % e == 0 and not any(
            lattice.reduce_scaled([x * q for x in num], den)[0]
        ):
            break
    else:
        q = den
    g._order = k * q
    return g._order


def _linear_order(g: AffineAuto) -> int:
    """Order of g's linear part: the lcm of its cycle lengths, open ones doubled."""
    cycles = _signed_cycles(g)
    return lcm(*(len(coords) * (1 if closed else 2) for coords, _, closed, _ in cycles))


def _power(g: AffineAuto, e: int, keep: bool = True) -> AffineAuto:
    """g^e for every integer e, in closed form over g's signed cycles.

    On a cycle of length L and sign product σ, y_a = c_a·z_{coords[a]}
    moves as y_a ↦ y_{a+1} + c_a·t_{coords[a]}, with y_{a+L} = σ·y_a.  So
    for a + e = qL + b, g^e sends y_a to σ^q·y_b plus laps·total +
    σ^q·prefix[b] − prefix[a], where the q whole laps add Σ_{j<q} σ^j·total:
    laps = q when σ = 1 and q mod 2 when σ = −1.  e is taken mod ord g;
    g^1 is g, and any other power is built once (one lattice reduction, no
    composition) and kept on g under its reduced exponent (if `keep`).
    """
    k = _order(g)
    e %= k
    if e == 1 % k:  # g^e is g (for every e when g is the identity)
        return g
    if not keep:
        return _closed_power(g, e)
    powers = g._powers = g._powers or {}
    if e not in powers:
        powers[e] = _closed_power(g, e)
    return powers[e]


def _closed_power(g: AffineAuto, e: int) -> AffineAuto:
    m = len(g.perm)
    perm, signs, shift = [0] * m, [0] * m, [0] * m
    for coords, pots, closed, prefix in _signed_cycles(g):
        length, total = len(coords), prefix[-1]
        for a, i in enumerate(coords):
            q, b = divmod(a + e, length)
            flip, laps = (1, q) if closed else (1 - 2 * (q % 2), q % 2)
            perm[i], signs[i] = coords[b], flip * pots[b] * pots[a]
            shift[i] = pots[a] * (laps * total + flip * prefix[b] - prefix[a])
    shift = g.lattice.reduce_scaled(shift, g.denominator)
    return AffineAuto._make(tuple(perm), tuple(signs), *shift, g.lattice)


def equal_mod_lattice(g: AffineAuto, h: AffineAuto, lattice: EnlargedLattice) -> bool:
    """True iff the maps agree as automorphisms modulo `lattice`.

    The comparison lattice is explicit so that maps constructed on the
    ambient product can be compared as maps of a further quotient.
    """
    if g.perm != h.perm or g.signs != h.signs:
        return False
    den = lcm(g.denominator, h.denominator)
    a, b = den // g.denominator, den // h.denominator
    diff = [x * a - y * b for x, y in zip(g.shift, h.shift)]
    return not any(lattice.reduce_scaled(diff, den)[0])
