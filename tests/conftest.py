"""Fixtures shared by the suites: a work counter and emptied kept slots,
and the check that a pair's kept rows are what its closure lists.

Maps keep what they decide (hash, dense matrix, cycles, order, fixed
point, powers, presentations) in the slots of `AffineAuto` that are
neither its value fields nor `__weakref__`, and the cached generators
are shared by every test.  The hash is computed on its first use; a
map's `translation` is not kept, and shares one `Fraction` per distinct
numerator of the shift.  A test that counts work from a cold start
empties those slots first with `forget`, so its counts do not depend on
which tests ran before it.
"""

import sys
from dataclasses import dataclass, field

import pytest

from dihedral_torus import analysis, torus, words

VALUE_FIELDS = ("perm", "signs", "shift", "denominator", "lattice")
KEPT_SLOTS = tuple(
    s for s in torus.AffineAuto.__slots__
    if s not in VALUE_FIELDS and s != "__weakref__"
)
EMPTY = (None,) * len(KEPT_SLOTS)


def kept(g):
    """What g keeps beside its value, one entry per kept slot."""
    return tuple(getattr(g, slot) for slot in KEPT_SLOTS)


def presented(r, s):
    """The pair's kept presentation, with its rows filled."""
    kept = analysis._presentation(r, s)
    kept.reports(r, s)
    return kept


def assert_presents_the_listing(r, s):
    """All that the verifiers read of the pair (its rows, k and layout)
    is what the closure lists, checked with no read of `_normal_forms`.

    A row of D_k is checked by its label alone: folded with plain
    `compose`, it is a closure element with the row's verdicts, the rows
    name distinct elements, and there are as many rows as elements.  The
    extension's rows are the closure's own, in its order and with its
    words."""
    kept, listed = presented(r, s), analysis.analyze_group([r, s])
    if kept.z is None:
        listed_verdicts = dict(zip((e.auto for e in listed.elements), map(verdicts, listed.reports)))
        maps = [word_map(row.word, r, s) for row in kept.rows]
        assert [listed_verdicts.get(g) for g in maps] == list(map(verdicts, kept.rows))
        assert len(set(maps)) == len(kept.rows) == listed.group_size == 2 * kept.k
    else:
        assert kept.rows == listed.reports and listed.group_size == 4 * kept.k
    return kept


def verdicts(rep):
    """A report less its word: (order, is_translation, has_fixed_point)."""
    return rep.order, rep.is_translation, rep.has_fixed_point


def word_map(word, r, s):
    """The map a word names, composed one letter at a time in writing order."""
    g = torus.AffineAuto.identity(r.lattice)
    for letter, e in words.parse_word(word):
        for _ in range(e):
            g = torus.compose(g, r if letter == "r" else s)
    return g


@pytest.fixture
def forget(monkeypatch):
    """Empty every kept slot of the given maps until the test ends."""

    def empty(*maps):
        for g in maps:
            for slot in KEPT_SLOTS:
                monkeypatch.setattr(g, slot, None)

    return empty


@dataclass
class Work:
    """The maps composed, walked and raised to a power, in call order."""

    composed: list = field(default_factory=list)
    walked: list = field(default_factory=list)
    powered: list = field(default_factory=list)

    @property
    def counts(self) -> tuple[int, int, int]:
        """(compositions, cycle walks, closed-form powers) so far."""
        return len(self.composed), len(self.walked), len(self.powered)

    def clear(self):
        for seen in (self.composed, self.walked, self.powered):
            seen.clear()


@pytest.fixture
def work(monkeypatch):
    """Counts `compose` through every `dihedral_torus` binding of it, and
    `torus._decompose` and `torus._closed_power`, while the test runs."""
    seen = Work()
    compose, decompose, closed_power = (
        torus.compose, torus._decompose, torus._closed_power
    )

    def composing(g, h):
        seen.composed.append(compose(g, h))
        return seen.composed[-1]

    def walking(g):
        seen.walked.append(g)
        return decompose(g)

    def powering(g, e):
        seen.powered.append((g, e))
        return closed_power(g, e)

    for name, module in list(sys.modules.items()):
        if name.startswith("dihedral_torus") and vars(module).get("compose") is compose:
            monkeypatch.setattr(module, "compose", composing)
    monkeypatch.setattr(torus, "_decompose", walking)
    monkeypatch.setattr(torus, "_closed_power", powering)
    return seen
