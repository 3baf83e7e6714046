"""The README names only what the package has.

Every backticked dotted name in README.md whose head is a package module
(`analysis._normal_forms`, `dihedral_torus.words`) or a class the
package exports (`EnlargedLattice.standard`) must resolve: each part an
attribute of the one before, or, last, a dataclass field or a slot of a
class.  Names with other heads (`json.dumps`, `params.closure_cap`) and
file paths are not read.  Every shell example that shows the output of
a `dihedral-torus` command must print that output, `elapsed:` lines
aside, and every Python example must run.
"""

import dataclasses
import importlib
import re
import shlex
from pathlib import Path

import dihedral_torus
from dihedral_torus import cli

README = Path(__file__).resolve().parents[1] / "README.md"
MODULES = ("torus", "analysis", "dihedral", "words", "certificate", "cli", "oracle", "linalg")
_SPAN = re.compile(r"`([^`\n]+)`")
_DOTTED = re.compile(r"(?<![\w./])[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+")
_SHELL = re.compile(r"```sh\n\$ dihedral-torus (.+)\n((?:(?!```).*\n)+)```")
_PYTHON = re.compile(r"```python\n((?:(?!```).*\n)+)```")


def _is_exported_class(head):
    return head in dihedral_torus.__all__ and isinstance(getattr(dihedral_torus, head), type)


def _package_names(text):
    """The dotted names of the backticked spans that name the package."""
    names = []
    for span in _SPAN.findall(text):
        for name in _DOTTED.findall(span):
            head = name.removeprefix("dihedral_torus.").split(".")[0]
            if head in MODULES or _is_exported_class(head):
                names.append(name)
    return names


def _members(cls):
    """A class's dataclass fields and slots, which need not be class attributes."""
    fields = {f.name for f in dataclasses.fields(cls)} if dataclasses.is_dataclass(cls) else set()
    return fields.union(*(getattr(base, "__slots__", ()) for base in cls.__mro__))


def _resolves(name):
    head, *rest = name.removeprefix("dihedral_torus.").split(".")
    if head in MODULES:
        obj = importlib.import_module(f"dihedral_torus.{head}")
    else:
        obj = getattr(dihedral_torus, head)
    for i, part in enumerate(rest):
        if hasattr(obj, part):
            obj = getattr(obj, part)
        elif isinstance(obj, type) and part in _members(obj):
            return i == len(rest) - 1
        else:
            return False
    return True


def test_every_package_name_in_the_readme_resolves():
    names = _package_names(README.read_text(encoding="utf-8"))
    assert {"analysis._normal_forms", "EnlargedLattice.standard"} <= set(names)
    assert [name for name in names if not _resolves(name)] == []


def test_the_reader_finds_and_rejects_names():
    text = (
        "`json.dumps` `tests/test_caches.py` `AffineAuto(perm, lattice).shift` "
        "`dihedral_torus.words` `GroupElement.path` `analysis._no_such_name`"
    )
    names = _package_names(text)
    assert names == [
        "dihedral_torus.words", "GroupElement.path", "analysis._no_such_name"
    ]
    assert [_resolves(name) for name in names] == [True, True, False]
    assert not _resolves("GroupElement.path.word")
    assert _resolves("AffineAuto._classes") and _resolves("torus.order")


def _without_elapsed(text):
    return "".join(
        line for line in text.splitlines(keepends=True) if not line.startswith("elapsed:")
    )


def test_the_readme_cli_examples_print_what_they_show(tmp_path, monkeypatch, capsys):
    examples = _SHELL.findall(README.read_text(encoding="utf-8"))
    assert [command for command, _ in examples] == [
        "verify --n 1", "corollary --k 6 --json k6.json"
    ]
    monkeypatch.chdir(tmp_path)
    for command, shown in examples:
        assert cli.main(shlex.split(command)) == 0
        assert _without_elapsed(capsys.readouterr().out) == _without_elapsed(shown)


def test_the_readme_python_examples_run():
    examples = _PYTHON.findall(README.read_text(encoding="utf-8"))
    assert len(examples) == 1
    for source in examples:
        exec(compile(source, str(README), "exec"), {})
