"""Tests for the JSON certificate documents and their determinism."""

import hashlib
import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dihedral_torus.certificate import (
    SCHEMA_VERSION,
    _range_pieces,
    corollary_document,
    range_document,
    render_json,
    theorem_document,
)
from dihedral_torus.cli import main
from dihedral_torus.dihedral import (
    MUTANTS,
    verify_corollary,
    verify_mutant,
    verify_theorem,
)

PARAMS = {"n": 1, "range": None, "closure_cap": None, "oracle": None}

TOP_LEVEL_KEYS = [
    "schema_version",
    "command",
    "params",
    "dimension",
    "group_order",
    "elements",
    "steps",
    "theorem_verified",
    "elapsed_ms",
]


@pytest.fixture(scope="module")
def cert():
    return verify_theorem(1)


class TestTheoremDocument:
    def test_key_order_is_fixed(self, cert):
        doc = theorem_document(cert, PARAMS)
        assert list(doc) == TOP_LEVEL_KEYS

    def test_content(self, cert):
        doc = theorem_document(cert, PARAMS)
        assert doc["schema_version"] == SCHEMA_VERSION
        assert doc["command"] == "verify"
        assert doc["params"] == PARAMS
        assert doc["dimension"] == 3
        assert doc["group_order"] == 8
        assert doc["theorem_verified"] is True
        assert doc["elapsed_ms"] is None
        assert list(doc["steps"]) == [f"step{i}" for i in range(1, 6)]
        assert all(doc["steps"].values())

    def test_element_entries(self, cert):
        doc = theorem_document(cert, PARAMS)
        assert len(doc["elements"]) == 8
        for entry in doc["elements"]:
            assert list(entry) == [
                "word", "order", "is_translation", "has_fixed_point",
            ]
        identity = doc["elements"][0]
        assert identity["word"] == ""
        assert identity["order"] == 1
        assert identity["has_fixed_point"] is True

    def test_failed_run_serializes_false(self):
        failed = verify_mutant("zero-offsets", 1)
        doc = theorem_document(failed, PARAMS)
        assert doc["theorem_verified"] is False
        assert doc["steps"] == {
            f"step{i}": step.passed for i, step in enumerate(failed.steps, 1)
        }
        assert False in doc["steps"].values()
        assert any(entry["has_fixed_point"] for entry in doc["elements"][1:])


class TestRangeDocument:
    def test_aggregates_runs(self):
        certs = [verify_theorem(n) for n in (1, 2)]
        doc = range_document(certs, {"n": None, "range": 2})
        assert list(doc) == [
            "schema_version", "command", "params", "runs",
            "theorem_verified", "elapsed_ms",
        ]
        assert doc["theorem_verified"] is True
        assert [run["n"] for run in doc["runs"]] == [1, 2]
        for run in doc["runs"]:
            assert list(run) == [
                "n", "dimension", "group_order", "elements", "steps",
                "theorem_verified",
            ]
            assert run["group_order"] == 8 * run["n"]

    def test_one_failure_fails_the_aggregate(self):
        certs = [verify_theorem(1), verify_mutant("zero-offsets", 1)]
        doc = range_document(certs, {})
        assert doc["theorem_verified"] is False
        assert doc["runs"][0]["theorem_verified"] is True
        assert doc["runs"][1]["theorem_verified"] is False


class TestCorollaryDocument:
    def test_step_slots_carry_the_corollary_checks(self):
        cert = verify_corollary(3)
        doc = corollary_document(cert, {"k": 3})
        assert list(doc) == TOP_LEVEL_KEYS
        assert doc["command"] == "corollary"
        assert doc["params"] == {"k": 3}
        assert doc["dimension"] == 7
        assert doc["group_order"] == 6
        assert doc["steps"] == {
            f"step{i}": step.passed for i, step in enumerate(cert.steps, 1)
        }
        assert doc["theorem_verified"] is True


class TestRendering:
    def test_render_is_deterministic_across_recomputation(self):
        first = render_json(theorem_document(verify_theorem(1), PARAMS))
        second = render_json(theorem_document(verify_theorem(1), PARAMS))
        assert first == second

    def test_render_round_trips_and_ends_with_newline(self, cert):
        text = render_json(theorem_document(cert, PARAMS))
        assert text.endswith("\n")
        assert json.loads(text)["group_order"] == 8

    def test_written_certificate_matches_render(self, cert, tmp_path, capsys):
        path = tmp_path / "cert.json"
        assert main(["verify", "--n", "1", "--json", str(path)]) == 0
        assert path.read_bytes() == render_json(theorem_document(cert, PARAMS)).encode("utf-8")


# SHA-256 of render_json for fixed inputs, recorded from the dense-matrix
# implementation; any change to the core must reproduce these bytes.
PINNED_DIGESTS = {
    ("theorem", 1): "8809ae0b2d0117f1cd86652aa8145dcf7e8f9931ccbdb21f3e760094d57b2086",
    ("theorem", 2): "d020b741f6ba92bef58b266b8e45c2b646b10a7a484ee311bbc74f6278fb07dc",
    ("theorem", 3): "4b5a0def1f8bbe753e2712a3b138143543f477941a10d363cb2388bb4ff3acb2",
    ("theorem", 4): "31012f37fd1a34d3cbf9fae70fa3e8d4e88b01eb7b713b712bbb361ce63e61d2",
    ("range", 3): "a0df1b2155221dad45870c7c41be6605cafaa1f4a05a12f6d6e9bd19c41891fc",
    ("corollary", 3): "eb43082a253d57f1a5c7586b9deeb120fabd276cb5afbace32eb7615793afad8",
    ("corollary", 5): "094b38c6228cc70b46fbde51a8b283e8aa09aec2be38ef473665a7b2e1a0674e",
    ("corollary", 6): "e63a27b417b031422bdfe319e115b166df9041233e4e4ce6e89b662d267a4a01",
    ("no-quotient", 1): "763ec489472cc7a492f26f39bce72d7ed9aa8d9119d6adb6d29df808ce6a261d",
    ("no-rotation-shift", 1): "f95648736fc8575260a90bab4e28a8ccb54ed7ca7556350fc8e4beedcb2ba41a",
    ("zero-offsets", 1): "8265bf7925490f37d0ddf6ad36c7c185493c84bcf07fd2892728f4168cae742f",
}


def _verify_params(n, range_max=None):
    return {"n": n, "range": range_max, "closure_cap": None, "oracle": None}


def _pinned_document(kind, value):
    if kind == "theorem":
        return theorem_document(verify_theorem(value), _verify_params(value))
    if kind == "range":
        certs = [verify_theorem(n) for n in range(1, value + 1)]
        return range_document(certs, _verify_params(None, value))
    if kind == "corollary":
        return corollary_document(verify_corollary(value), {"k": value})
    return theorem_document(verify_mutant(kind, value), _verify_params(value))


@pytest.mark.parametrize("kind, value", sorted(PINNED_DIGESTS))
def test_certificate_bytes_match_pinned_digest(kind, value):
    text = render_json(_pinned_document(kind, value))
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    assert digest == PINNED_DIGESTS[kind, value]


# One SHA-256 over every theorem and mutant document for n ≤ 12 and every
# corollary document for k ≤ 31, each followed by its step names, check
# values and verdicts; recorded before the verifiers read the pair's rows.
SMALL_DOCUMENTS_DIGEST = "37e00b1dc33e61218391ee679cceddbc9bccf9faf12fb47524047ee9a5bbb715"


def _small_documents_digest():
    digest = hashlib.sha256()

    def add(doc, cert):
        checks = [(step.name, step.checks) for step in cert.steps]
        verdicts = (cert.is_free, cert.has_no_translations, cert.theorem_verified)
        digest.update(render_json(doc).encode("utf-8"))
        digest.update(repr((checks, verdicts)).encode("utf-8"))

    for n in range(1, 13):
        cert = verify_theorem(n)
        add(theorem_document(cert, _verify_params(n)), cert)
        for name in sorted(MUTANTS):
            cert = verify_mutant(name, n)
            add(theorem_document(cert, _verify_params(n)), cert)
    for k in range(1, 32):
        cert = verify_corollary(k)
        add(corollary_document(cert, {"k": k}), cert)
    return digest.hexdigest()


def test_small_documents_match_one_pinned_digest():
    # Twice: the second run reads what the first kept on the maps.
    assert _small_documents_digest() == _small_documents_digest() == SMALL_DOCUMENTS_DIGEST


# --- the writer against the standard encoder ---------------------------------

_WORDS = st.text() | st.sampled_from(
    ["", "r^3 s", "é", "ß r", "\u2028", "\ud800", '"', "\\", "\n\t", "\x7f", "😀 s"]
)
_SCALARS = (
    st.none() | st.booleans() | st.integers() | _WORDS
    | st.floats(allow_nan=True, allow_infinity=True)
)
_ROWS = st.fixed_dictionaries({
    "word": _WORDS,
    "order": st.integers(1, 10**30),
    "is_translation": st.booleans(),
    "has_fixed_point": st.booleans(),
})
# Row-shaped dicts whose values are not the usual types, or whose keys
# come in another order or with one more.
_ODD_ROWS = st.fixed_dictionaries({
    "word": _WORDS | st.none() | st.integers(),
    "order": st.integers(1, 64) | st.booleans() | st.floats() | st.none() | _WORDS,
    "is_translation": st.booleans() | st.integers(0, 1) | st.none(),
    "has_fixed_point": st.booleans() | st.integers(0, 1) | st.none(),
}) | _ROWS.map(lambda row: dict(reversed(row.items()))) | _ROWS.map(
    lambda row: {**row, "extra": None}
)
_KEYS = _WORDS | st.integers() | st.booleans() | st.none() | st.floats(allow_nan=False)


_CERTS = st.sampled_from([1, 2]).map(verify_theorem) | st.builds(
    verify_mutant, st.just("no-quotient"), st.just(1)
)
_RANGE_DOCUMENTS = st.builds(
    range_document, st.lists(_CERTS, max_size=3), st.dictionaries(_WORDS, _SCALARS, max_size=3)
)
_DOCUMENTS = st.recursive(
    _SCALARS | _ROWS | _ODD_ROWS | _RANGE_DOCUMENTS,
    lambda children: (
        st.lists(children, max_size=4)
        | st.lists(children, max_size=3).map(tuple)
        | st.dictionaries(_WORDS, children, max_size=4)
        | st.dictionaries(_KEYS, children, max_size=3)
        | st.lists(st.booleans() | st.integers(), max_size=4)
    ),
    max_leaves=12,
)


@given(_DOCUMENTS)
@settings(deadline=None, max_examples=400)
def test_render_json_is_the_standard_encoder(doc):
    assert render_json(doc) == json.dumps(doc, indent=2) + "\n"


@given(st.lists(_CERTS, max_size=3), st.dictionaries(_WORDS, _SCALARS, max_size=3))
@settings(deadline=None, max_examples=100)
@example([], {})
@example([verify_theorem(1), verify_mutant("zero-offsets", 1)], PARAMS)
def test_range_pieces_join_to_the_range_document(certs, params):
    pieces = list(_range_pieces(iter(certs), params))
    assert len(pieces) == len(certs) + 2  # head, one piece per run, tail
    assert "".join(pieces) == render_json(range_document(certs, params))


_ROW = {"word": "r s", "order": 2, "is_translation": False, "has_fixed_point": False}


@given(st.lists(_ROWS | _ODD_ROWS, max_size=4))
@settings(deadline=None, max_examples=300)
@example([{**_ROW, key: value} for key, value in [
    ("word", None), ("word", 5), ("order", True), ("order", 2.0), ("order", "2"),
    ("is_translation", 0), ("is_translation", None), ("has_fixed_point", 1),
]])
def test_render_json_writes_rows_of_any_types_as_the_standard_encoder(rows):
    doc = {"elements": rows}
    assert render_json(doc) == json.dumps(doc, indent=2) + "\n"


def test_render_json_is_the_standard_encoder_on_every_verifier_output():
    docs = []
    for n in range(1, 13):
        docs.append(theorem_document(verify_theorem(n), _verify_params(n)))
        docs += [
            theorem_document(verify_mutant(name, n), _verify_params(n))
            for name in sorted(MUTANTS)
        ]
    docs += [corollary_document(verify_corollary(k), {"k": k}) for k in range(1, 40)]
    for top in range(1, 5):
        certs = [verify_theorem(n) for n in range(1, top + 1)]
        docs.append(range_document(certs, _verify_params(None, top)))
    failing = [verify_theorem(1), verify_mutant("zero-offsets", 1)]
    docs.append(range_document(failing, _verify_params(None, 1)))
    for doc in docs:
        assert render_json(doc) == json.dumps(doc, indent=2) + "\n"
