"""A verifier process loads only the proof.

The dense reference algebra (`linalg`), the brute-force oracle and numpy
load on first use.  A fresh process that verifies, inspects an element
and writes a certificate must leave all three unloaded, and each name
that reaches them must still resolve once asked for.
"""

import subprocess
import sys

OFF_THE_PROOF_PATH = ("numpy", "dihedral_torus.linalg", "dihedral_torus.oracle")

VERIFIER = f"""
import runpy, sys
import dihedral_torus
from dihedral_torus import cli
assert dihedral_torus.verify_theorem(3).theorem_verified
assert dihedral_torus.verify_corollary(5).theorem_verified
assert cli.main(["element", "--n", "2", "--word", "r^3 s"]) == 0
sys.argv = ["dihedral_torus", "verify", "--n", "2", "--json", sys.argv[1]]
try:
    runpy.run_module("dihedral_torus", run_name="__main__", alter_sys=True)
except SystemExit as exit:
    assert exit.code == 0, exit.code
print([name for name in {OFF_THE_PROOF_PATH!r} if name in sys.modules])

from dihedral_torus import linalg
assert dihedral_torus.hnf is linalg.hnf
assert dihedral_torus.Matrix is linalg.Matrix
assert dihedral_torus.subgroup_membership is linalg.subgroup_membership
r, _ = dihedral_torus.realified_action(1)
assert not dihedral_torus.torsion_fixed_points_bruteforce(r, 2)
print([name for name in {OFF_THE_PROOF_PATH!r} if name in sys.modules])
"""

# What `verify --n 2 --oracle 2` printed before the oracle left `analysis`,
# less the elapsed line.
ORACLE_RUN = """\
n=2: group order 16 (expected 16) on an abelian variety of dimension 5
  step1 rotation order and freeness of rotation powers: PASS
  step2 reflection squares to the quotient translation: PASS
  step3 dihedral presentation and closure size: PASS
  step4 conjugacy classes of symmetries: PASS
  step5 reflections are fixed-point-free: PASS
  free action: yes    translations: none
  certificate: verified
  oracle (D=2): fixed-point decisions confirmed for all 16 elements of n=2
"""


def test_a_verifier_process_loads_neither_linalg_nor_the_oracle_nor_numpy(tmp_path):
    path = tmp_path / "n2.json"
    result = subprocess.run(
        [sys.executable, "-c", VERIFIER, str(path)],
        capture_output=True,
        text=True,
        check=True,
    )
    *_, before, after = result.stdout.splitlines()
    assert before == "[]"
    assert after == repr(list(OFF_THE_PROOF_PATH))
    assert path.stat().st_size > 0


def test_the_oracle_run_prints_what_it_printed_from_analysis():
    result = subprocess.run(
        [sys.executable, "-m", "dihedral_torus", "verify", "--n", "2", "--oracle", "2"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    lines = result.stdout.splitlines(keepends=True)
    assert lines[-1].startswith("elapsed: ")
    assert "".join(lines[:-1]) == ORACLE_RUN
