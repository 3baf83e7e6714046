"""Dense exact linear algebra: the reference the sparse core is tested against.

Everything works with arbitrary-precision `int` and `fractions.Fraction`;
no floating point appears anywhere.  Matrices are immutable and all
functions are pure, so concurrent use needs no synchronization.

The integer-lattice side of the module (`hnf`, `subgroup_membership`)
uses one canonical convention throughout: row-style Hermite normal form
with positive pivots and above-pivot entries reduced into [0, pivot).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable, Sequence

from .torus import Rational, Vector, vector

_F0 = Fraction(0)
_F1 = Fraction(1)


class Matrix:
    """Immutable dense matrix with exact rational entries.

    Construction normalizes every entry to `Fraction`.  Equality and
    hashing are structural.
    """

    __slots__ = ("rows",)

    def __init__(self, rows: Iterable[Iterable[Rational]]):
        data = tuple(
            tuple(e if isinstance(e, Fraction) else Fraction(e) for e in row)
            for row in rows
        )
        if not data or not data[0]:
            raise ValueError("matrix needs at least one row and one column")
        width = len(data[0])
        if any(len(row) != width for row in data[1:]):
            raise ValueError("rows have unequal lengths")
        self.rows = data

    @classmethod
    def _wrap(cls, data: tuple[tuple[Fraction, ...], ...]) -> "Matrix":
        m = object.__new__(cls)
        m.rows = data
        return m

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls._wrap(
            tuple(tuple(_F1 if i == j else _F0 for j in range(n)) for i in range(n))
        )

    @property
    def n_rows(self) -> int:
        return len(self.rows)

    @property
    def n_cols(self) -> int:
        return len(self.rows[0])

    @property
    def is_square(self) -> bool:
        return self.n_rows == self.n_cols

    def transpose(self) -> "Matrix":
        return Matrix._wrap(tuple(zip(*self.rows)))

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.n_cols != other.n_rows:
            raise ValueError("incompatible shapes for matrix product")
        orows = other.rows
        width = other.n_cols
        out = []
        for arow in self.rows:
            acc = [_F0] * width
            for a, brow in zip(arow, orows):
                if a:
                    for c, b in enumerate(brow):
                        if b:
                            acc[c] += a * b
            out.append(tuple(acc))
        return Matrix._wrap(tuple(out))

    def matvec(self, v: Sequence[Rational]) -> Vector:
        if len(v) != self.n_cols:
            raise ValueError("vector length does not match column count")
        out = []
        for row in self.rows:
            acc = _F0
            for a, x in zip(row, v):
                if a and x:
                    acc += a * x
            out.append(acc)
        return tuple(out)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Matrix) and self.rows == other.rows

    def __hash__(self) -> int:
        return hash(self.rows)

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(e) for e in row) for row in self.rows)
        return f"Matrix[{body}]"


def det(m: Matrix) -> Fraction:
    """Exact determinant of a square matrix."""
    if not m.is_square:
        raise ValueError("determinant requires a square matrix")
    rows = [list(r) for r in m.rows]
    n = len(rows)
    result = _F1
    for c in range(n):
        piv = next((i for i in range(c, n) if rows[i][c]), None)
        if piv is None:
            return _F0
        if piv != c:
            rows[c], rows[piv] = rows[piv], rows[c]
            result = -result
        pivot = rows[c][c]
        result *= pivot
        for i in range(c + 1, n):
            f = rows[i][c]
            if f:
                f /= pivot
                rows[i] = [a - f * b if b else a for a, b in zip(rows[i], rows[c])]
    return result


def _row_reduce(rows: list[list[Fraction]]) -> list[int]:
    """In-place reduced row echelon form; returns the pivot columns."""
    n_rows, n_cols = len(rows), len(rows[0])
    pivots: list[int] = []
    pr = 0
    for c in range(n_cols):
        piv = next((i for i in range(pr, n_rows) if rows[i][c]), None)
        if piv is None:
            continue
        rows[pr], rows[piv] = rows[piv], rows[pr]
        inv_p = _F1 / rows[pr][c]
        if inv_p != 1:
            rows[pr] = [e * inv_p for e in rows[pr]]
        for i in range(n_rows):
            if i != pr and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b if b else a for a, b in zip(rows[i], rows[pr])]
        pivots.append(c)
        pr += 1
        if pr == n_rows:
            break
    return pivots


def left_nullspace(m: Matrix) -> tuple[Vector, ...]:
    """Basis of the left kernel {x : x @ m = 0}, as row vectors.

    The basis has exactly n_rows(m) - rank(m) elements and is produced
    deterministically (free coordinate set to 1, pivots back-solved).
    """
    # x @ m = 0 is the kernel of m.transpose() acting on column vectors.
    rows = [list(r) for r in m.transpose().rows]
    width = m.n_rows
    pivots = _row_reduce(rows)
    pivot_set = set(pivots)
    basis = []
    for free in range(width):
        if free in pivot_set:
            continue
        vec = [_F0] * width
        vec[free] = _F1
        for i, p in enumerate(pivots):
            vec[p] = -rows[i][free]
        basis.append(tuple(vec))
    return tuple(basis)


@dataclass(frozen=True)
class HermiteDecomposition:
    """Row-style Hermite normal form h = u @ a with u unimodular.

    h is upper echelon with positive pivots, entries above each pivot in
    [0, pivot), and zero rows at the bottom; rank counts the nonzero rows.
    """

    h: tuple[tuple[int, ...], ...]
    u: tuple[tuple[int, ...], ...]
    rank: int

    @property
    def pivot_columns(self) -> tuple[int, ...]:
        cols = []
        for i in range(self.rank):
            cols.append(next(j for j, e in enumerate(self.h[i]) if e))
        return tuple(cols)


def _as_int_rows(a: Iterable[Iterable[Rational]]) -> list[list[int]]:
    out = []
    for row in a:
        int_row = []
        for e in row:
            if type(e) is not int:
                f = Fraction(e)
                if f.denominator != 1:
                    raise ValueError("matrix entries must be integers")
                e = f.numerator
            int_row.append(e)
        out.append(int_row)
    if not out or not out[0]:
        raise ValueError("matrix needs at least one row and one column")
    return out


def hnf(a: Iterable[Iterable[Rational]] | Matrix) -> HermiteDecomposition:
    """Hermite normal form of an integer matrix, with transform and rank."""
    if isinstance(a, Matrix):
        a = a.rows
    h = _as_int_rows(a)
    n_rows, n_cols = len(h), len(h[0])
    u = [[1 if i == j else 0 for j in range(n_rows)] for i in range(n_rows)]

    def sub_rows(target: int, source: int, q: int) -> None:
        if not q:
            return
        hs, us = h[source], u[source]
        h[target] = [a_ - q * b_ for a_, b_ in zip(h[target], hs)]
        u[target] = [a_ - q * b_ for a_, b_ in zip(u[target], us)]

    pr = 0
    for col in range(n_cols):
        while True:
            nz = [i for i in range(pr, n_rows) if h[i][col]]
            if not nz:
                break
            best = min(nz, key=lambda i: (abs(h[i][col]), i))
            if best != pr:
                h[pr], h[best] = h[best], h[pr]
                u[pr], u[best] = u[best], u[pr]
            if len(nz) == 1:
                break
            pivot = h[pr][col]
            for i in range(pr + 1, n_rows):
                if h[i][col]:
                    sub_rows(i, pr, h[i][col] // pivot)
        if not h[pr][col]:
            continue
        if h[pr][col] < 0:
            h[pr] = [-e for e in h[pr]]
            u[pr] = [-e for e in u[pr]]
        pivot = h[pr][col]
        for i in range(pr):
            sub_rows(i, pr, h[i][col] // pivot)
        pr += 1
        if pr == n_rows:
            break
    return HermiteDecomposition(
        h=tuple(tuple(row) for row in h),
        u=tuple(tuple(row) for row in u),
        rank=pr,
    )


def subgroup_coefficients(
    v: Sequence[Rational], gens: Sequence[Sequence[Rational]]
) -> tuple[int, ...] | None:
    """Integer coefficients expressing v over gens, or None if impossible.

    Decides membership of v in the subgroup of Q^k generated over Z by
    gens: denominators of v and gens are cleared jointly, then the scaled
    vector is back-substituted against the Hermite form of the scaled
    generators.  A successful answer is a constructive witness:
    sum(c_i * gens_i) == v exactly.
    """
    v = vector(v)
    k = len(v)
    if any(len(g) != k for g in gens):
        raise ValueError("all vectors must share one length")
    if k == 0:
        return ()
    if not gens:
        return () if all(e == 0 for e in v) else None
    denoms = [e.denominator for e in v]
    for g in gens:
        denoms.extend(Fraction(e).denominator for e in g)
    scale = lcm(*denoms)
    vi = [int(e * scale) for e in v]
    rows = [[int(Fraction(e) * scale) for e in g] for g in gens]
    dec = hnf(rows)
    q = [0] * len(gens)
    pivot_of_col = {}
    for i, col in enumerate(dec.pivot_columns):
        pivot_of_col[col] = i
    r = list(vi)
    for col in range(k):
        i = pivot_of_col.get(col)
        if i is None:
            if r[col]:
                return None
            continue
        quot, rem = divmod(r[col], dec.h[i][col])
        if rem:
            return None
        if quot:
            r = [a - quot * b for a, b in zip(r, dec.h[i])]
        q[i] = quot
    if any(r):
        return None
    coeffs = tuple(
        sum(q[i] * dec.u[i][j] for i in range(len(gens))) for j in range(len(gens))
    )
    return coeffs


def subgroup_membership(
    v: Sequence[Rational], gens: Sequence[Sequence[Rational]]
) -> bool:
    """True iff v lies in the subgroup of Q^k generated over Z by gens."""
    return subgroup_coefficients(v, gens) is not None
