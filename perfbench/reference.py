"""Closed-form answers for the dihedral family, independent of the package.

Nothing here imports `dihedral_torus`.  Every answer is read off a normal
form in the group the paper proves the action to be.

Quotient view (the variety A).  r and s generate D_{4n}: every element is
r^a s^b with 0 <= a < 4n, b in {0, 1}, and s r s^{-1} = r^{-1}.  r^a has
order 4n / gcd(a, 4n), every r^a s has order 2, no element is a
translation and only the identity has a fixed point.

Ambient view (the product before the quotient by w).  Here s^2 is the
translation by w, w is central and s r s^{-1} = r^{-1} w, so the group
has order 16n with normal form r^a s^b w^c.  Then (r^a s)^2 = w^(a+1),
the only translation is w, and only the identity has a fixed point: a
nonzero rotation power moves the E' coordinate by a/4n, and a reflection
without fixed points on A has none upstairs either.
"""

from __future__ import annotations

from math import gcd, lcm

MUTANTS = ("no-quotient", "no-rotation-shift", "zero-offsets")


def cyclic_order(a: int, k: int) -> int:
    """Order of the a-th power of a generator of the cyclic group of order k."""
    return k // gcd(a % k, k)


def label(a: int, b: int) -> str:
    """The certificate's rendering of r^a s^b."""
    parts = []
    if a:
        parts.append("r" if a == 1 else f"r^{a}")
    if b:
        parts.append("s")
    return " ".join(parts)


def dihedral_reports(k: int) -> list[tuple[str, int, bool, bool]]:
    """(word, order, is_translation, has_fixed_point) for a free D_k, sorted by (a, b)."""
    return [
        (label(a, b), cyclic_order(a, k) if b == 0 else 2, False, a == 0 and b == 0)
        for a in range(k)
        for b in (0, 1)
    ]


def theorem_expectation(n: int) -> dict:
    return {
        "dimension": 2 * n + 1,
        "group_order": 8 * n,
        "elements": dihedral_reports(4 * n),
    }


def corollary_expectation(k: int) -> dict:
    four_n = lcm(4, k)
    return {
        "n": four_n // 4,
        "dimension": four_n // 2 + 1,
        "group_order": 2 * k,
        "elements": dihedral_reports(k),
    }


def mutant_problems(name: str, n: int, verified: bool, is_free: bool,
                    has_no_translations: bool, group_order: int) -> list[str]:
    """Ways a mutant's certificate differs from what its mutation must break."""
    problems = []
    if verified:
        problems.append("certificate claims the theorem")
    if name in ("no-rotation-shift", "zero-offsets") and is_free:
        problems.append("action reported free")
    if name == "no-quotient":
        if has_no_translations:
            problems.append("no translation reported")
        if group_order != 16 * n:
            problems.append(f"group order {group_order}, expected {16 * n}")
    return problems


def ambient_normal_form(tokens, n: int) -> tuple[int, int, int]:
    """(a, b, c) with the word equal to r^a s^b w^c upstairs.

    Tokens are (generator, exponent) pairs in writing order; the
    rightmost factor acts first, so the word is their product left to
    right.  The product rule follows from s r^x = r^{-x} w^x s and s^2 = w.
    """
    k = 4 * n
    a, b, c = 0, 0, 0
    for gen, exp in tokens:
        if gen == "r":
            x, y, z = exp % k, 0, 0
        else:
            e = exp % 4
            x, y, z = 0, e % 2, e // 2
        if b:
            a, c = a - x, c + x + y
        else:
            a = a + x
        a, b, c = a % k, b ^ y, (c + z) % 2
    return a, b, c


def quotient_verdict(a: int, b: int, n: int) -> tuple[int, bool, bool]:
    """(order, is_translation, has_fixed_point) of r^a s^b on A."""
    order = cyclic_order(a, 4 * n) if b == 0 else 2
    return order, False, a == 0 and b == 0


def ambient_verdict(a: int, b: int, c: int, n: int) -> tuple[int, bool, bool]:
    """(order, is_translation, has_fixed_point) of r^a s^b w^c upstairs."""
    if b:
        return (2 if a % 2 else 4), False, False
    order = lcm(cyclic_order(a, 4 * n), 2 if c else 1)
    return order, a == 0 and c == 1, a == 0 and c == 0
