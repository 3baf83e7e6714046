"""Tests of the benchmark itself: reference answers, tracing, metric names.

Run from the root of the repository:

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import os
import random
import re
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
for path in (BENCH, os.path.join(ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import pytest  # noqa: E402

import dihedral_torus  # noqa: E402
from dihedral_torus import analysis, certificate, dihedral, words  # noqa: E402

import probe  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+\Z")


def _rows(reports):
    return [(r.word, r.order, r.is_translation, r.has_fixed_point) for r in reports]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_closed_form_matches_verify_theorem(n):
    cert = dihedral.verify_theorem(n)
    expected = reference.theorem_expectation(n)
    assert cert.theorem_verified
    assert cert.group_order_actual == expected["group_order"]
    assert cert.dimension == expected["dimension"]
    assert _rows(cert.reports) == expected["elements"]


@pytest.mark.parametrize("k", [3, 5, 6])
def test_closed_form_matches_verify_corollary(k):
    cert = dihedral.verify_corollary(k)
    expected = reference.corollary_expectation(k)
    assert cert.verified and cert.n == expected["n"]
    assert cert.ambient_dimension == expected["dimension"]
    assert _rows(cert.reports) == expected["elements"]


@pytest.mark.parametrize("name", reference.MUTANTS)
def test_mutants_break_what_they_should(name):
    cert = dihedral.verify_mutant(name, 1)
    assert reference.mutant_problems(
        name, 1, cert.theorem_verified, cert.is_free,
        cert.has_no_translations, cert.group_order_actual,
    ) == []


def _verdict(g):
    return analysis.order(g), analysis.is_translation(g), analysis.exists_fixed_point(g)


@pytest.mark.parametrize("n", [1, 2])
def test_normal_forms_match_both_views_on_every_element(n):
    ambient = dihedral.realified_action(n, dihedral.ambient_lattice(n))
    quotient = dihedral.realified_action(n)
    for a in range(4 * n):
        for b in (0, 1):
            for c in (0, 1):
                tokens = [("r", a), ("s", b + 2 * c)]
                text = " ".join(f"{g}^{e}" for g, e in tokens)
                assert reference.ambient_normal_form(tokens, n) == (a, b, c)
                word = words.parse_word(text)
                assert _verdict(words.evaluate_word(word, *ambient)) == (
                    reference.ambient_verdict(a, b, c, n))
                assert _verdict(words.evaluate_word(word, *quotient)) == (
                    reference.quotient_verdict(a, b, n))


def test_random_words_match_the_closed_form():
    mods, queries = workloads.queries_setup(7)
    result = workloads.PassResult()
    workloads.queries_pass((mods, queries[:40]), result)
    assert result.failed == 0, result.failures
    assert len(result.verdicts) == 40


def test_queries_depend_only_on_the_seed():
    assert workloads.make_queries(3) == workloads.make_queries(3)
    assert workloads.make_queries(3) != workloads.make_queries(4)


def test_every_seed_gets_the_same_mix_of_queries():
    for seed in (1, 2):
        queries = workloads.make_queries(seed)
        assert len(queries) == workloads.QUERY_COUNT
        sizes = [n for n, _, _ in queries]
        assert all(abs(sizes.count(n) - len(sizes) / 3) < 1 for n in workloads.QUERY_NS)
        for n, text, tokens in queries:
            assert 1 <= len(tokens) <= 4
            assert all(g in "rs" and -4 * n <= e <= 4 * n for g, e in tokens)
            assert words.parse_word(text).tokens == tokens


@pytest.mark.parametrize("kind", [probe.FRACTIONS, probe.NUMPY])
def test_probe_scale_cancels_a_uniform_slowdown(kind):
    assert kind.scale([kind.reference_s]) == pytest.approx(1.0)
    assert kind.scale([2 * kind.reference_s] * 3) == pytest.approx(0.5)
    assert kind.measure() > 0
    with probe.Sampler((kind,)) as sampler:
        end = time.thread_time() + 5 * probe.SAMPLE_INTERVAL_S
        while time.thread_time() < end:
            pass
    assert sampler.samples[kind] and sampler.spent > 0


def _bindings():
    out = {}
    for name, mod in sys.modules.items():
        if name == "dihedral_torus" or name.startswith("dihedral_torus."):
            out.update({(name, k): v for k, v in vars(mod).items()})
    out[("Matrix", "__matmul__")] = vars(dihedral_torus.Matrix)["__matmul__"]
    out[("EnlargedLattice", "reduce")] = vars(dihedral_torus.EnlargedLattice)["reduce"]
    return out


def _theorem_run(n):
    cert = dihedral.verify_theorem(n)
    doc = certificate.theorem_document(cert, {"n": n})
    return certificate.render_json(doc)


def test_wrappers_leave_results_unchanged_and_are_restored():
    before = _bindings()
    plain = _theorem_run(2)
    with tracing.Tracer() as tracer:
        assert dihedral_torus.compose is not before[("dihedral_torus", "compose")]
        assert analysis.compose is dihedral.compose is words.compose
        traced = _theorem_run(2)
    assert traced == plain
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    summary = tracer.summary()
    assert summary["dihedral.verify_theorem.calls"] == 1
    assert summary["certificate.render_json.calls"] == 1
    assert summary["torus.compose.calls"] > 0
    assert summary["linalg.matmul.calls"] == summary["torus.compose.calls"]


def test_spans_nest_and_self_time_excludes_children():
    with tracing.Tracer() as tracer:
        analysis.order(dihedral.realified_action(1)[0])
    spans = tracer.spans
    by_id = {s[0]: s for s in spans}
    for span_id, parent, _, name, start, end in spans:
        assert end >= start
        if parent >= 0:
            p = by_id[parent]
            assert p[4] <= start and end <= p[5]
    summary = tracer.summary()
    total = sum(end - start for _, parent, _, _, start, end in spans if parent < 0)
    self_sum = sum(v for k, v in summary.items() if k.endswith(".self_s"))
    assert self_sum == pytest.approx(total)
    assert summary["analysis.order.calls"] == 1
    assert summary["analysis.order.unique_ratio"] == 1.0


def test_traced_call_counts_repeat_exactly():
    counts = []
    for _ in range(2):
        with tracing.Tracer() as tracer:
            _theorem_run(2)
        counts.append({k: v for k, v in tracer.summary().items() if k.endswith(".calls")})
    assert counts[0] == counts[1]


def test_library_exception_fails_one_operation_without_aborting():
    result = workloads.PassResult()

    def boom():
        raise analysis.ClosureCapExceeded("closure exceeds cap 1")

    workloads._attempt(result, "capped", boom, None)
    workloads._attempt(result, "fine", lambda: 1, lambda v: (v, []))
    assert result.failed == 1
    assert result.errors == {"ClosureCapExceeded": 1}
    assert len(result.verdicts) == 2


def test_check_that_raises_fails_one_operation_without_aborting():
    # A result of the wrong shape makes the check itself raise.
    result = workloads.PassResult()
    workloads._attempt(result, "misshapen", lambda: {}, lambda v: (v["steps"], []))
    workloads._attempt(result, "fine", lambda: 1, lambda v: (v, []))
    assert result.failed == 1
    assert result.errors == {"check raised KeyError": 1}
    assert result.verdicts[0] == ("misshapen", ("check raised", "KeyError"))
    assert result.failures and result.failures[0].startswith("misshapen: check raised KeyError")


def test_metric_names_match_the_contract_and_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    raw = {
        "latency_s": [[0.1, 0.2, 0.3]], "pass_s": [1.0], "pass_raw_s": [1.1],
        "largest_s": [0.3], "probe_s": 0.001, "peak_rss_mb": 40.0, "failed": 0,
        "attempted": 3, "grid_points": 10,
    }
    metrics, extra = run.end_to_end(raw, [(0.2, 0.15), (0.3, 0.2)])
    assert [m["name"] for m in spec["end_to_end"]] == list(metrics)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
        k: unit for k, (_, unit) in metrics.items()}
    layers = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    assert layers == tracing.layer_metric_specs()
    names = list(metrics) + list(extra) + [name for name, _, _ in layers]
    names += [w["name"] for w in spec["workloads"]]
    assert all(NAME.match(name) and len(name) <= 64 for name in names)
    assert len(set(names)) == len(names)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_percentile_interpolates_like_statistics_quantiles():
    rng = random.Random(1)
    values = [rng.random() for _ in range(200)]
    ordered = sorted(values)
    assert run.percentile(values, 50) == pytest.approx(
        (ordered[99] + ordered[100]) / 2)
    assert ordered[189] <= run.percentile(values, 95) <= ordered[190]
