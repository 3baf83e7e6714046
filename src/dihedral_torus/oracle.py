"""The brute-force torsion oracle, an independent check of `exists_fixed_point`.

The package's one numerical ingredient: it enumerates scaled integer grids
with numpy, but never leaves integer arithmetic.  No verifier imports it.
"""

from __future__ import annotations

import operator
from collections.abc import Iterator, Sequence
from fractions import Fraction
from math import lcm, prod

import numpy as np

from .analysis import OracleBudgetExceeded
from .torus import AffineAuto, TorsionPoint

DEFAULT_ORACLE_BUDGET = 10_000_000
_CHUNK = 1 << 16
_INT64_SAFE = 1 << 62


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
