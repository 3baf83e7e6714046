"""Tests for the generator-word parser and evaluator."""

from fractions import Fraction
from itertools import groupby

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dihedral_torus import torus, words
from dihedral_torus.analysis import analyze_group, order
from dihedral_torus.cli import EXIT_USAGE, main
from dihedral_torus.dihedral import _family, ambient_lattice, realified_action
from dihedral_torus.torus import AffineAuto, compose, inverse
from dihedral_torus.words import (
    GroupWord,
    WordParseError,
    evaluate_word,
    parse_word,
)


@pytest.fixture(scope="module")
def generators():
    return realified_action(1)


class TestParsing:
    def test_simple_words(self):
        assert parse_word("r s").tokens == (("r", 1), ("s", 1))
        assert parse_word("r^3").tokens == (("r", 3),)
        assert parse_word("r^-2 s^2").tokens == (("r", -2), ("s", 2))
        assert parse_word("  r   s  ").tokens == (("r", 1), ("s", 1))

    def test_empty_word_is_identity(self, generators):
        r, s = generators
        word = parse_word("   ")
        assert word.tokens == ()
        assert evaluate_word(word, r, s).is_identity

    def test_round_trip_rendering(self):
        for text in ("", "r", "s", "r s", "r^2 s", "r^-1", "s^2"):
            word = parse_word(text)
            assert parse_word(str(word)).tokens == word.tokens

    def test_error_positions(self):
        with pytest.raises(WordParseError) as exc:
            parse_word("r q")
        assert exc.value.position == 2
        assert "at position 2" in str(exc.value)
        with pytest.raises(WordParseError) as exc:
            parse_word("r^x")
        assert exc.value.position == 0
        with pytest.raises(WordParseError) as exc:
            parse_word("r^2 rs")
        assert exc.value.position == 4

    def test_rejects_malformed_terms(self):
        for bad in ("t", "r^", "^2", "r^1.5", "R"):
            with pytest.raises(WordParseError):
                parse_word(bad)

    def test_exponents_are_ascii_digits(self, capsys):
        # Unicode decimal digits (Arabic-Indic ٣, fullwidth ３) are refused.
        for text, position in (("r^\u0663", 0), ("s r^\uff13", 2)):
            with pytest.raises(WordParseError) as exc:
                parse_word(text)
            assert exc.value.position == position
        assert main(["element", "--n", "1", "--word", "r^\u0663"]) == EXIT_USAGE
        assert "invalid term" in capsys.readouterr().err

    def test_overlong_exponent_is_a_parse_error(self):
        # int() refuses more digits than sys.get_int_max_str_digits().
        with pytest.raises(WordParseError) as exc:
            parse_word("r s^" + "1" * 5000)
        assert exc.value.position == 2
        assert "too many digits" in str(exc.value)
        assert parse_word("r^" + "1" * 4000).tokens == (("r", int("1" * 4000)),)


class TestEvaluation:
    def test_rightmost_factor_applies_first(self, generators):
        r, s = generators
        rs = evaluate_word(parse_word("r s"), r, s)
        assert rs == compose(r, s)
        # r and s do not commute in the dihedral group, so order matters.
        assert rs != compose(s, r)

    def test_exponents(self, generators):
        r, s = generators
        assert evaluate_word(parse_word("r^4"), r, s).is_identity
        assert evaluate_word(parse_word("r^5"), r, s) == r
        assert evaluate_word(parse_word("s^2"), r, s).is_identity

    def test_negative_exponents_invert(self, generators):
        r, s = generators
        assert evaluate_word(parse_word("r^-1"), r, s) == inverse(r)
        assert evaluate_word(parse_word("r^-1"), r, s) == evaluate_word(
            parse_word("r^3"), r, s
        )
        assert evaluate_word(parse_word("s r^-1"), r, s) == evaluate_word(
            parse_word("s r^3"), r, s
        )

    def test_zero_exponent_is_identity(self, generators):
        r, s = generators
        assert evaluate_word(parse_word("r^0 s^0"), r, s).is_identity

    def test_requires_shared_lattice(self, generators):
        r, s = generators
        s_ambient = s.with_lattice(ambient_lattice(1))
        with pytest.raises(ValueError, match="lattice"):
            evaluate_word(parse_word("r s"), r, s_ambient)

    def test_no_composition_with_the_identity(self, generators, forget, work):
        r, s = generators
        expected = {
            "r^4": compose(compose(r, r), compose(r, r)),
            "r s": compose(r, s),
        }
        forget(r, s)
        work.clear()
        # Powers are read off the cycles of r, with no composition at all.
        assert words._power(r, 4) == expected["r^4"]
        assert work.counts[0] == 0
        # r s is the pair's rs, composed once to decide its presentation,
        # and a word whose normal form is the identity composes nothing.
        assert evaluate_word(parse_word("r s"), r, s) == expected["r s"]
        assert evaluate_word(parse_word("r^4 s^-2"), r, s).is_identity
        assert work.composed == [r._classes[s].rs]

    def test_adjacent_terms_in_one_letter_make_one_power(
        self, generators, forget, work, monkeypatch
    ):
        r, s = generators
        word = parse_word("r^2 r^-5 r s s^3 r")
        s4 = compose(compose(s, s), compose(s, s))
        expected = compose(compose(inverse(compose(r, r)), s4), r)
        forget(r, s)
        work.clear()
        # A presented pair folds the whole word into one normal form, r^3
        # at n = 1: one closed-form power, which r does not keep.
        assert evaluate_word(word, r, s) == expected
        assert work.powered == [(r, 3)] and r._powers is None
        assert work.composed == [r._classes[s].rs]
        # A pair with no presentation makes one power per run of a letter.
        powers, power = [], words._power

        def spy(base, e, keep=True):
            powers.append((base, e, keep))
            return power(base, e, keep)

        monkeypatch.setattr(words, "_power", spy)
        r4 = compose(compose(r, r), compose(r, r))
        assert evaluate_word(word, r, r) == compose(compose(inverse(compose(r, r)), r4), r)
        assert powers == [(r, -2, False), (r, 4, False), (r, 1, False)]
        assert str(word) == "r^2 r^-5 r s s^3 r"

    def test_exponents_past_the_default_order_cap(self):
        # r has order 4n = 516 here, and orders are exact at any size.
        n = 129
        g = evaluate_word(parse_word("r^-1"), *realified_action(n))
        assert order(g) == 4 * n
        assert g.translation[4 * n] == Fraction(4 * n - 1, 4 * n)

    @pytest.mark.parametrize("n", [1, 2])
    def test_analysis_labels_evaluate_to_their_elements(self, n):
        r, s = realified_action(n)
        analysis = analyze_group([r, s])
        for element, rep in zip(analysis.elements, analysis.reports, strict=True):
            evaluated = evaluate_word(parse_word(rep.word), r, s)
            assert evaluated == element.auto


# --- property-based coverage ------------------------------------------------

tokens = st.tuples(st.sampled_from("rs"), st.integers(-6, 6))


@given(st.lists(tokens, max_size=6))
@settings(deadline=None, max_examples=60)
def test_parse_inverts_rendering(token_list):
    word = GroupWord(tuple(token_list))
    assert parse_word(str(word)).tokens == word.tokens


@given(st.lists(tokens, max_size=5), st.lists(tokens, max_size=5))
@settings(deadline=None, max_examples=30)
def test_evaluation_is_a_homomorphism(left, right):
    r, s = realified_action(1)
    joined = GroupWord(tuple(left) + tuple(right))
    split = compose(
        evaluate_word(GroupWord(tuple(left)), r, s),
        evaluate_word(GroupWord(tuple(right)), r, s),
    )
    assert evaluate_word(joined, r, s) == split


@given(st.lists(tokens, max_size=5))
@settings(deadline=None, max_examples=30)
def test_inverse_word_inverts_the_evaluation(token_list):
    r, s = realified_action(1)
    word = GroupWord(tuple(token_list))
    reversed_word = GroupWord(
        tuple((g, -e) for g, e in reversed(token_list))
    )
    product = compose(
        evaluate_word(word, r, s), evaluate_word(reversed_word, r, s)
    )
    assert product.is_identity


def _folded(word, r, s):
    """The word as one closed-form power per run of a letter, composed."""
    acc = AffineAuto.identity(r.lattice)
    for gen, run in groupby(word, key=lambda token: token[0]):
        acc = compose(acc, torus._power(r if gen == "r" else s, sum(e for _, e in run)))
    return acc


def _pairs(n):
    """Both lattices' pairs, the three mutants' pairs, and the refused (r, r)."""
    family = _family(n)
    pairs = [family.pair, family.ambient_pair]
    for maps in family.mutants.values():
        pairs += [maps[:2], maps[2:]]
    r = family.pair[0]
    return pairs + [(r, r)]


@given(st.data())
@settings(deadline=None, max_examples=80)
def test_evaluation_is_the_fold_of_its_runs(data):
    n = data.draw(st.integers(1, 3))
    r, s = data.draw(st.sampled_from(_pairs(n)))
    bound = 4 * n + 1
    terms = data.draw(st.lists(
        st.tuples(st.sampled_from("rs"), st.integers(-bound, bound)), max_size=5
    ))
    huge = data.draw(st.integers(10**39, 10**40 - 1)) * data.draw(st.sampled_from((1, -1)))
    terms.insert(data.draw(st.integers(0, len(terms))), (data.draw(st.sampled_from("rs")), huge))
    word = GroupWord(tuple(terms))
    assert evaluate_word(word, r, s) == _folded(word, r, s)
    if r is s:  # no presentation: nothing kept for the pair
        assert r not in (r._classes or {})
