"""Deterministic JSON certificate documents.

Documents are plain dicts built with a fixed key order and containing
only ints, bools, strings, None and nested dicts/lists of the same, so
serialization is byte-identical across runs and interpreter sessions.
The elapsed_ms field is always serialized as null: wall-clock timing is
reported on standard output instead, keeping the written certificate
bit-reproducible.  Theorem, mutant and corollary certificates share one
body, whose five named steps render as step1..step5; only the command
field tells them apart.

`render_json` returns exactly `json.dumps(doc, indent=2) + "\n"` (pinned
by tests), but json indents in pure Python: the writer nests containers
itself, fills element rows from one template, writes strings, exact ints,
bools and None as json would, and json.dumps the rest.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii as _quoted
from typing import Any, Mapping, Sequence

from .analysis import ElementReport
from .dihedral import Certificate

SCHEMA_VERSION = "1"


def _element_entries(reports: Sequence[ElementReport]) -> list[dict[str, Any]]:
    return [
        {
            "word": rep.word,
            "order": rep.order,
            "is_translation": rep.is_translation,
            "has_fixed_point": rep.has_fixed_point,
        }
        for rep in reports
    ]


def _body(cert: Certificate) -> dict[str, Any]:
    return {
        "dimension": cert.dimension,
        "group_order": cert.group_order_actual,
        "elements": _element_entries(cert.reports),
        "steps": {
            f"step{i}": step.passed for i, step in enumerate(cert.steps, 1)
        },
        "theorem_verified": cert.theorem_verified,
    }


def _document(
    command: str, cert: Certificate, params: Mapping[str, Any]
) -> dict[str, Any]:
    return {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "params": dict(params),
        **_body(cert),
        "elapsed_ms": None,
    }


def theorem_document(cert: Certificate, params: Mapping[str, Any]) -> dict[str, Any]:
    return _document("verify", cert, params)


def corollary_document(cert: Certificate, params: Mapping[str, Any]) -> dict[str, Any]:
    return _document("corollary", cert, params)


def range_document(
    certs: Sequence[Certificate], params: Mapping[str, Any]
) -> dict[str, Any]:
    """Aggregate of one verify run per n; per-run bodies match the schema."""
    runs = [{"n": cert.n, **_body(cert)} for cert in certs]
    return {
        "schema_version": SCHEMA_VERSION,
        "command": "verify",
        "params": dict(params),
        "runs": runs,
        "theorem_verified": all(c.theorem_verified for c in certs),
        "elapsed_ms": None,
    }


_ROW_KEYS = ("word", "order", "is_translation", "has_fixed_point")
_ROW_TYPES = (str, int, bool, bool)


def render_json(doc: Mapping[str, Any]) -> str:
    return _render(doc, "") + "\n"


def _render(value: Any, indent: str) -> str:
    """json.dumps(value, indent=2), for a value written at this indent."""
    kind = type(value)
    if kind is str:
        return _quoted(value)
    if kind is int:
        return str(value)
    if kind is bool or value is None:
        return "null" if value is None else "true" if value else "false"
    inner = indent + "  "
    if isinstance(value, dict) and tuple(value) == _ROW_KEYS:
        word, order, translation, fixed = value.values()
        if (type(word), type(order), type(translation), type(fixed)) == _ROW_TYPES:
            return (
                f'{{\n{inner}"word": {_quoted(word)},\n{inner}"order": {order},\n'
                f'{inner}"is_translation": {"true" if translation else "false"},\n'
                f'{inner}"has_fixed_point": {"true" if fixed else "false"}\n{indent}}}'
            )
    if isinstance(value, dict) and value and all(type(key) is str for key in value):
        items = [f"{_quoted(key)}: {_render(v, inner)}" for key, v in value.items()]
    elif isinstance(value, (list, tuple)) and value:
        items = [_render(item, inner) for item in value]
    else:
        # Other scalars, empty containers and dicts whose keys json converts;
        # strings escape their newlines, so the only raw ones are the layout's own.
        spaced = 2 if isinstance(value, dict) else None
        return json.dumps(value, indent=spaced).replace("\n", "\n" + indent)
    brackets = "{}" if isinstance(value, dict) else "[]"
    return f"{brackets[0]}\n{inner}" + f",\n{inner}".join(items) + f"\n{indent}{brackets[1]}"


def write_json(path: str, doc: Mapping[str, Any]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(render_json(doc))
