"""The names the benchmark tracer binds still exist in the package.

`perfbench/tracing.py` wraps each `(module, attribute)` of its `TARGETS`
by reading `vars(owner)[attr]`, so a deleted or inherited name breaks a
`--trace 1` run.  The file is loaded by path and only read.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

from dihedral_torus import analysis, dihedral, torus, words

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_exists():
    tracing = _tracing()
    assert tracing.TARGETS
    for module_name, path, _ in tracing.TARGETS:
        owner = importlib.import_module(f"{tracing.PACKAGE}.{module_name}")
        for attr in path.split("."):
            assert attr in vars(owner), f"{module_name}.{path} is gone"
            owner = vars(owner)[attr]
        assert callable(owner)


def test_compose_is_one_binding_across_modules():
    assert analysis.compose is dihedral.compose is words.compose
    assert analysis.order is torus.order


def test_powers_read_the_order_past_its_traced_binding(monkeypatch):
    # The tracer wraps `order` in every module that binds it, so a power
    # that read it there would count as a caller's order query.
    calls = []
    monkeypatch.setattr(torus, "order", lambda *args: calls.append(args))
    r, s = dihedral.realified_action(2)
    fresh = torus.AffineAuto(r.perm, r.signs, r.translation, r.lattice)
    for e in (-1, 0, 1, 5, 10**40):
        torus._power(fresh, e)
    words.evaluate_word(words.parse_word("r^3 s^3"), fresh, s)
    assert calls == [] and fresh._order == 8


def test_traced_queries_take_the_map_positionally_and_nothing_else():
    # The tracer reads a second positional argument of `order` and
    # `exists_fixed_point`, and a third of the oracle, as a lattice.
    for fn, count in (
        (analysis.order, 1),
        (analysis.exists_fixed_point, 1),
        (analysis.torsion_fixed_points_bruteforce, 2),
    ):
        positional = [
            p for p in inspect.signature(fn).parameters.values()
            if p.kind in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD)
        ]
        assert len(positional) == count, fn.__name__


# What `perfbench/workloads.py` reads off a certificate and its reports.
CERTIFICATE_READS = (
    "theorem_verified", "is_free", "has_no_translations", "group_order_actual",
    "reports", "n", "verified", "ambient_dimension",
)
REPORT_READS = ("word", "order", "is_translation", "has_fixed_point")


def test_results_expose_what_the_benchmark_reads():
    # A certificate's summaries are properties, so a dropped name would
    # otherwise show only as a failed benchmark run.
    for cert in (
        dihedral.verify_theorem(1),
        dihedral.verify_mutant("no-quotient", 1),
        dihedral.verify_corollary(5),
    ):
        assert [a for a in CERTIFICATE_READS if not hasattr(cert, a)] == []
        for rep in cert.reports:
            assert [a for a in REPORT_READS if not hasattr(rep, a)] == []
    assert dihedral.build_corollary(5).params.n == 5
    rot, refl = dihedral.realified_action(1)
    elements = analysis.closure([rot, refl])
    assert [e.path for e in elements][:3] == [(), (0,), (1,)]
    assert all(e.auto.lattice.m == 6 for e in elements)
    g = words.evaluate_word(words.parse_word("r s"), rot, refl)
    assert len(g.translation.coords) == 6
