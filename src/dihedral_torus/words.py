"""Parser and evaluator for words in the generators r and s.

Grammar: a word is zero or more whitespace-separated terms, each a
generator letter with an optional integer exponent:

    word := term*        term := ("r" | "s") ("^" integer)?

The empty word is the identity.  Juxtaposition is composition in writing
order with the rightmost factor applied first, so "r s" evaluates to
r ∘ s; negative exponents invert.  A presented pair (`analysis`) keeps one
map per normal form r^a s^b z^c; any other composes one power per run.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import reduce
from itertools import groupby

from .analysis import _presentation, _times
from .torus import AffineAuto, _power, compose

# Each whitespace-separated term: a well-formed one as (letter, exponent),
# any other whole as the third group.  ASCII digits only: \d would read
# "r^٣" as r^3.
_TERMS = re.compile(r"([rs])(?:\^(-?[0-9]+))?(?!\S)|(\S+)")


class WordParseError(ValueError):
    """Malformed word; `position` is the character offset of the bad term."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


@dataclass(frozen=True)
class GroupWord:
    """Parsed word: (generator, exponent) tokens in writing order."""

    tokens: tuple[tuple[str, int], ...]

    def __len__(self) -> int:
        return len(self.tokens)

    def __iter__(self):
        return iter(self.tokens)

    def __str__(self) -> str:
        return " ".join(
            g if e == 1 else f"{g}^{e}" for g, e in self.tokens
        )


def parse_word(text: str) -> GroupWord:
    """Parse a word, annotating errors with the offending term's offset."""
    tokens = []
    for match in _TERMS.finditer(text):
        gen, exp, bad = match.groups()
        if bad is not None:
            raise WordParseError(f"invalid term {bad!r}", match.start())
        try:
            power = 1 if exp is None else int(exp)
        except ValueError:  # more digits than int() converts
            raise WordParseError(
                f"exponent of {gen} has too many digits", match.start()
            ) from None
        tokens.append((gen, power))
    return GroupWord(tuple(tokens))


def evaluate_word(
    word: GroupWord, rotation: AffineAuto, reflection: AffineAuto
) -> AffineAuto:
    """Evaluate tokens against concrete generators (rightmost applied first)."""
    if rotation.lattice is not reflection.lattice and rotation.lattice != reflection.lattice:
        raise ValueError("generators live on different lattices")
    try:
        presented = _presentation(rotation, reflection)
    except ValueError:  # no presentation: one unkept power per run of a letter
        powers = [_power(rotation if gen == "r" else reflection, sum(e for _, e in run), False)
                  for gen, run in groupby(word, key=lambda token: token[0])]
        return reduce(compose, powers) if powers else AffineAuto.identity(rotation.lattice)
    k, form = presented.k, (0, 0, 0)
    for gen, e in word:
        form = _times(form, gen, e % (k if gen == "r" else 4), k)
    return presented.element(rotation, reflection, form)
