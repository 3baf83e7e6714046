"""Tests for the command-line interface: exit codes, output, JSON files."""

import argparse
import contextlib
import io
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dihedral_torus import analysis, cli, oracle
from dihedral_torus.cli import (
    EXIT_BUDGET,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VERIFICATION_FAILED,
    build_parser,
    main,
)
from dihedral_torus.dihedral import ambient_lattice, realified_action
from dihedral_torus.words import evaluate_word, parse_word


class TestVerifyCommand:
    def test_single_n_verifies(self, capsys):
        assert main(["verify", "--n", "1"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "group order 8 (expected 8)" in out
        assert "certificate: verified" in out
        assert out.count("PASS") == 5
        assert "elapsed:" in out

    def test_range_runs_every_n(self, capsys):
        assert main(["verify", "--range", "2"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "n=1:" in out
        assert "n=2:" in out
        assert out.count("certificate: verified") == 2

    def test_requires_exactly_one_mode(self, capsys):
        assert main(["verify"]) == EXIT_USAGE
        assert "one of --n or --range" in capsys.readouterr().err
        assert main(["verify", "--n", "1", "--range", "2"]) == EXIT_USAGE
        assert "mutually exclusive" in capsys.readouterr().err

    def test_rejects_bad_values(self, capsys):
        assert main(["verify", "--n", "0"]) == EXIT_USAGE
        assert main(["verify", "--range", "0"]) == EXIT_USAGE
        assert main(["verify", "--n", "1", "--oracle", "0"]) == EXIT_USAGE
        capsys.readouterr()
        # The verifiers take no closure cap, so neither does the command.
        assert main(["verify", "--n", "1", "--closure-cap", "4"]) == EXIT_USAGE
        assert "unrecognized arguments: --closure-cap" in capsys.readouterr().err

    def test_oracle_reads_the_certificate(self, capsys, monkeypatch):
        # Every closure goes through analysis.closure.
        calls, close = [], analysis.closure

        def spy(*args, **kwargs):
            calls.append(args)
            return close(*args, **kwargs)

        monkeypatch.setattr(analysis, "closure", spy)
        assert main(["verify", "--n", "2", "--oracle", "2"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "confirmed for all 16 elements of n=2" in out
        # The theorem is proved from the presentation, with no closure.
        assert len(calls) == 0

    def test_oracle_sweep_stops_at_the_first_fixed_point(
        self, capsys, monkeypatch
    ):
        # The sweep asks only whether a fixed point exists, so it never
        # sorts the fixed rows: the identity at n = 3, D = 3 fixes 3^14.
        calls, pack = [], oracle._packed_keys

        def spy(*args, **kwargs):
            calls.append(args)
            return pack(*args, **kwargs)

        monkeypatch.setattr(oracle, "_packed_keys", spy)
        assert main(["verify", "--range", "3", "--oracle", "3"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "confirmed for all 24 elements of n=3" in out
        assert calls == []

    def test_oracle_disagreement_sets_exit_code(self, capsys, monkeypatch):
        # An oracle that finds a fixed point everywhere contradicts every
        # nonidentity row of a free action, and fails the run.
        monkeypatch.setattr(oracle, "_has_torsion_fixed_point", lambda g, d: True)
        assert main(
            ["verify", "--n", "1", "--oracle", "2"]
        ) == EXIT_VERIFICATION_FAILED
        out = capsys.readouterr().out
        assert "certificate: verified" in out
        assert "oracle (D=2): DISAGREES on 's', 'r', 'r s', " in out
        assert "''" not in out

    def test_oracle_confirmation(self, capsys):
        assert main(["verify", "--n", "1", "--oracle", "2"]) == EXIT_OK
        out = capsys.readouterr().out
        assert (
            "oracle (D=2): fixed-point decisions confirmed for all 8 elements"
            in out
        )

    def test_json_certificate(self, capsys, tmp_path):
        path = tmp_path / "n1.json"
        assert main(["verify", "--n", "1", "--json", str(path)]) == EXIT_OK
        assert f"certificate written to {path}" in capsys.readouterr().out
        doc = json.loads(path.read_text(encoding="utf-8"))
        assert doc["command"] == "verify"
        assert doc["params"] == {
            "n": 1, "range": None, "closure_cap": None, "oracle": None,
        }
        assert doc["theorem_verified"] is True
        assert doc["elapsed_ms"] is None
        assert len(doc["elements"]) == 8

    def test_range_json_aggregates(self, tmp_path, capsys):
        path = tmp_path / "range.json"
        assert main(["verify", "--range", "2", "--json", str(path)]) == EXIT_OK
        capsys.readouterr()
        doc = json.loads(path.read_text(encoding="utf-8"))
        assert [run["n"] for run in doc["runs"]] == [1, 2]
        assert doc["theorem_verified"] is True


class TestCorollaryCommand:
    def test_verifies_an_embedded_group(self, capsys):
        assert main(["corollary", "--k", "3"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "D_3 of order 6 (expected 6)" in out
        assert "ambient dimension 7" in out
        assert out.count("PASS") == 5
        assert "  step1 rotation generator has order k: PASS" in out
        assert "  step5 free action: PASS" in out
        assert "certificate: verified" in out

    def test_rejects_bad_k(self, capsys):
        assert main(["corollary", "--k", "0"]) == EXIT_USAGE
        assert "--k" in capsys.readouterr().err

    def test_json_certificate(self, capsys, tmp_path):
        path = tmp_path / "k.json"
        assert main(["corollary", "--k", "2", "--json", str(path)]) == EXIT_OK
        capsys.readouterr()
        doc = json.loads(path.read_text(encoding="utf-8"))
        assert doc["command"] == "corollary"
        assert doc["params"] == {"k": 2}
        assert doc["group_order"] == 4
        assert list(doc["steps"]) == [f"step{i}" for i in range(1, 6)]


class TestElementCommand:
    def test_shows_both_views(self, capsys):
        assert main(["element", "--n", "1", "--word", "s s"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "word: s s" in out
        assert "linear part (6x6):" in out
        assert "ambient product (mod Z^m):" in out
        assert "quotient by w:" in out
        # Upstairs s² is the half-period translation; downstairs it dies.
        assert "translation (canonical): (1/2, 0, 1/2, 0, 0, 0)" in out
        assert "translation (canonical): (0, 0, 0, 0, 0, 0)" in out
        assert "is translation element: yes" in out
        assert "order: 2" in out
        assert "order: 1" in out

    @pytest.mark.parametrize(
        "n, word",
        [(1, ""), (1, "r"), (1, "s"), (1, "r^3 s"), (2, "s r^-1"), (2, "r^4 s s")],
    )
    def test_linear_part_matches_the_dense_matrix(self, capsys, n, word):
        assert main(["element", "--n", str(n), "--word", word]) == EXIT_OK
        out = capsys.readouterr().out
        rot, refl = realified_action(n, ambient_lattice(n))
        g = evaluate_word(parse_word(word), rot, refl)
        entries = [[str(e) for e in row] for row in g.linear.rows]
        width = max(len(e) for row in entries for e in row)
        expected = "".join(
            "  " + " ".join(e.rjust(width) for e in row) + "\n" for row in entries
        )
        header = f"linear part ({len(entries)}x{len(entries)}):\n"
        assert header + expected + "ambient product" in out

    def test_identity_word(self, capsys):
        assert main(["element", "--n", "1", "--word", ""]) == EXIT_OK
        out = capsys.readouterr().out
        assert "word: (identity)" in out

    def test_oracle_agreement(self, capsys):
        assert main(
            ["element", "--n", "1", "--word", "r", "--oracle", "2"]
        ) == EXIT_OK
        out = capsys.readouterr().out
        assert out.count("oracle (D=2):") == 2
        assert "DISAGREES" not in out

    def test_parse_error_reports_position(self, capsys):
        assert main(["element", "--n", "1", "--word", "r q"]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "invalid term" in err
        assert "at position 2" in err

    def test_overlong_exponent_is_a_parse_error(self, capsys):
        word = "s r^" + "7" * 5000
        assert main(["element", "--n", "1", "--word", word]) == EXIT_USAGE
        assert capsys.readouterr().err == (
            "error: exponent of r has too many digits (at position 2)\n"
        )

    def test_rejects_bad_values(self, capsys):
        assert main(["element", "--n", "0", "--word", "r"]) == EXIT_USAGE
        assert main(
            ["element", "--n", "1", "--word", "r", "--oracle", "0"]
        ) == EXIT_USAGE
        capsys.readouterr()

    def test_oracle_budget_exit_code(self, capsys):
        assert main(
            ["element", "--n", "2", "--word", "r", "--oracle", "50"]
        ) == EXIT_BUDGET
        assert "budget" in capsys.readouterr().err

    def test_one_cycle_decomposition_per_map(self, capsys, work):
        # r and s are cached per n and may be walked already: count the
        # walks of the two element maps, one per lattice.
        generators = {*realified_action(4), *realified_action(4, ambient_lattice(4))}
        assert main(["element", "--n", "4", "--word", "r^3 s"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "order: 2" in out
        assert out.count("has fixed point: no") == 2
        elements = [g for g in work.walked if g not in generators]
        assert sorted(g.lattice.index for g in elements) == [1, 2]

    def test_huge_exponents_print_their_residues(self, capsys):
        # At n = 64, r has order 256 and s order 4 upstairs, 2 below; a
        # power is read off the cycles, so 4,000 digits cost no squarings.
        a, b = int("9" * 4000), int("7" * 4000)
        outputs = []
        for word in (f"r^{a} s^-{b}", f"r^{a % 256} s^-{b % 4}"):
            assert main(["element", "--n", "64", "--word", word]) == EXIT_OK
            head, body = capsys.readouterr().out.split("\n", 1)
            assert head.startswith("word: r^")
            outputs.append(body)
        assert outputs[0] == outputs[1]
        assert "order: " in outputs[0]


@pytest.mark.parametrize(
    "args",
    [
        ["element", "--n", "2", "--word", "r", "--oracle", "50"],
        ["verify", "--n", "2", "--oracle", "50"],
    ],
)
def test_oracle_refusal_exits_3_without_traceback(args):
    result = subprocess.run(
        [sys.executable, "-m", "dihedral_torus", *args],
        capture_output=True,
        text=True,
    )
    assert result.returncode == EXIT_BUDGET
    assert "exceed the oracle budget" in result.stderr
    assert "Traceback" not in result.stderr


@pytest.mark.parametrize(
    "args",
    [
        ["verify", "--n", "1"],
        ["corollary", "--k", "3"],
        ["element", "--n", "1", "--word", "r"],
    ],
    ids=["verify", "corollary", "element"],
)
def test_closure_cap_is_unrecognized_without_traceback(args):
    # No verifier takes a closure cap, so no subcommand does.
    result = subprocess.run(
        [sys.executable, "-m", "dihedral_torus", *args, "--closure-cap", "4"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == EXIT_USAGE
    assert "unrecognized arguments: --closure-cap 4" in result.stderr
    assert "Traceback" not in result.stderr


def test_oracle_runs_past_n_13(capsys):
    # The int64 bound charges only sheared basis rows, so large n fit.
    assert main(["verify", "--n", "14", "--oracle", "1"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "fixed-point decisions confirmed for all 112 elements of n=14" in out


class TestArgumentParsing:
    def test_missing_subcommand_is_a_usage_error(self, capsys):
        assert main([]) == EXIT_USAGE
        capsys.readouterr()

    def test_non_integer_argument(self, capsys):
        assert main(["verify", "--n", "three"]) == EXIT_USAGE
        capsys.readouterr()

    @pytest.mark.parametrize(
        "args, flag",
        [
            (["verify", "--n", "0"], "--n"),
            (["verify", "--range", "-1"], "--range"),
            (["verify", "--n", "1", "--oracle", "0"], "--oracle"),
            (["corollary", "--k", "0"], "--k"),
            (["element", "--n", "0", "--word", "r"], "--n"),
            (["element", "--n", "1", "--word", "r", "--oracle", "0"], "--oracle"),
        ],
    )
    def test_non_positive_values_name_their_flag(self, args, flag, capsys):
        value = args[args.index(flag) + 1]
        assert main(args) == EXIT_USAGE
        err = capsys.readouterr().err
        assert f"argument {flag}: not a positive integer: '{value}'" in err

    def test_non_integer_reads_invalid_int_value(self, capsys):
        assert main(["corollary", "--k", "x"]) == EXIT_USAGE
        assert "argument --k: invalid int value: 'x'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "value",
        ["٣", "1_0", " 3 ", "+3", "3\n", pytest.param("9" * 5000, id="5000-digits")],
    )
    def test_counts_are_ascii_digits_only(self, value, capsys):
        # int() would read the first five as numbers; a count is -?[0-9]+,
        # and one past int()'s digit limit reads the same way.
        assert main(["corollary", "--k", value]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert f"argument --k: invalid int value: {value!r}" in err

    def test_a_negative_count_reads_not_positive(self, capsys):
        # The digit check lets one minus sign through to the bound check.
        assert main(["corollary", "--k", "-1"]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "argument --k: not a positive integer: '-1'" in err

    def test_help_exits_cleanly(self, capsys):
        assert main(["--help"]) == EXIT_OK
        assert "verify" in capsys.readouterr().out


def _parser_options():
    """Every --option of every subcommand, --help aside."""
    (subcommands,) = [
        action for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    return {
        flag
        for sub in subcommands.choices.values()
        for action in sub._actions
        for flag in action.option_strings
        if flag.startswith("--") and flag != "--help"
    }


def _readme_flags():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    return set(re.findall(r"--[a-z][a-z-]*", readme.read_text(encoding="utf-8")))


def test_readme_flags_are_parser_options():
    assert _readme_flags() - _parser_options() == set()


def test_parser_options_are_in_the_readme():
    assert _parser_options() - _readme_flags() == set()


@pytest.mark.parametrize("args", [["verify", "--n", "1"], ["corollary", "--k", "2"]])
def test_module_entry_point(args):
    result = subprocess.run(
        [sys.executable, "-m", "dihedral_torus", *args],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert "certificate: verified" in result.stdout


@pytest.mark.parametrize("name", ["missing/cert.json", ""], ids=["missing", "empty"])
@pytest.mark.parametrize(
    "args", [["verify", "--n", "1"], ["corollary", "--k", "5"]]
)
def test_unwritable_certificate_is_a_usage_error(args, name, capsys, tmp_path):
    # An empty path is a path that cannot be written, not an absent flag.
    path = str(tmp_path / name) if name else ""
    assert main([*args, "--json", path]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert "certificate: verified" in captured.out
    assert "certificate written" not in captured.out
    assert captured.err == f"error: cannot write {path}: No such file or directory\n"
    assert not (tmp_path / "missing").exists()


_JSON_NAMES = ("cert.json", "missing/cert.json", ".")
_FLAG_VALUES = {
    "--n": st.integers(-1, 4).map(str),
    "--range": st.integers(-1, 4).map(str),
    "--oracle": st.integers(-1, 4).map(str),
    "--k": st.integers(-1, 15).map(str),
    "--word": st.text(alphabet="rs^-012 x", max_size=12),
    "--json": st.sampled_from(_JSON_NAMES),
}
_COMMAND_FLAGS = {
    "verify": ["--n", "--range", "--oracle", "--json"],
    "corollary": ["--k", "--json"],
    "element": ["--n", "--word", "--oracle"],
    "bogus": [],
}
_JUNK = st.sampled_from(["", "x", "2.5", "--", "-h", "--bogus", "r s", "-1"])


@st.composite
def _argvs(draw):
    """Mostly a command with its own flags; sometimes a stray flag or token."""
    command = draw(st.sampled_from(sorted(_COMMAND_FLAGS)))
    flags = _COMMAND_FLAGS[command] * 3 + sorted(_FLAG_VALUES)
    argv = [command]
    for flag in draw(st.lists(st.sampled_from(flags), max_size=5)):
        argv.append(flag)
        if draw(st.integers(0, 9)):
            argv.append(draw(_FLAG_VALUES[flag]))
    if draw(st.integers(0, 3)) == 0:
        argv.insert(draw(st.integers(0, len(argv))), draw(_JUNK))
    return argv


@given(argv=_argvs())
@settings(deadline=None, max_examples=60)
def test_any_argv_exits_with_a_documented_code(argv, tmp_path_factory):
    directory = tmp_path_factory.getbasetemp()
    argv = [
        str(directory / a) if a in _JSON_NAMES else a
        for a in argv
    ]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (EXIT_OK, EXIT_VERIFICATION_FAILED, EXIT_USAGE, EXIT_BUDGET)
    assert "Traceback" not in err.getvalue()
