"""The four benchmark workloads: inputs, one timed pass, and the checks.

Each workload has a `setup(seed)` that imports the package and builds the
inputs, and a `run_pass(state, result)` that makes every call once, times
each operation into the `PassResult` and checks each result against
`reference` (closed form) or, for the oracle, against the exact decision.  Library calls go through
module attributes at call time, so a `tracing.Tracer` sees them.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import random
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field

import probe
import reference

THEOREM_NS = tuple(range(1, 9))
MUTANT_NS = (1, 2, 3)
COROLLARY_KS = (5, 7, 9, 11, 13)
QUERY_COUNT = 200
QUERY_NS = (1, 2, 4)
ORACLE_N = 1
ORACLE_DENOMINATOR = 8


@dataclass
class PassResult:
    """What one pass over a workload's inputs did.

    Times are CPU seconds scaled to the reference machine speed by a
    probe timed around and inside each operation (see probe.py);
    `raw_seconds` is the unscaled CPU time of the same operations and
    checks.  `probes` lists the times of the workload's first probe, and
    `last` holds each probe's latest time.
    """

    tracer: object = None
    sampler: probe.Sampler = field(default_factory=probe.Sampler)
    seconds: float = 0.0
    raw_seconds: float = 0.0
    latencies: list[float] = field(default_factory=list)
    largest: list[float] = field(default_factory=list)
    probes: list[float] = field(default_factory=list)
    last: dict = field(default_factory=dict)
    verdicts: list = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    failed: int = 0
    errors: Counter = field(default_factory=Counter)
    grid_points: int = 0


def _modules():
    return {
        name: importlib.import_module(f"dihedral_torus.{name}")
        for name in ("analysis", "certificate", "dihedral", "words")
    }


def _run(fn, *args):
    """(fn(*args), None), or (None, the exception it raised)."""
    try:
        return fn(*args), None
    except Exception as exc:  # noqa: BLE001 - reported by name, run continues
        return None, exc


def _attempt(result, what, call, check, query=True, largest=False, kind=None):
    """Time one operation, then check it; an exception fails only this operation.

    `call()` makes the library calls and returns their results; `check`
    maps those to (verdict, problems).  The verdict is compared across
    passes, problems are wrong answers.  The operation's CPU time is
    scaled by the probe `kind` (by default the workload's first probe),
    timed just before it, during it (when the pass's sampler is armed)
    and just after it.  It is kept as a query latency if `query`, and as
    a time on the workload's largest input if `largest`.
    """
    if result.tracer is not None:
        result.tracer.request = len(result.verdicts)
    sampler = result.sampler
    kind = kind or sampler.probes[0]
    if not result.last:
        result.last = {p: p.measure() for p in sampler.probes}
    before = result.last[kind]
    first, spent = len(sampler.samples[kind]), sampler.spent
    start = time.thread_time()
    value, error = _run(call)
    elapsed = time.thread_time() - start - (sampler.spent - spent)
    during = sampler.samples[kind][first:]

    start, spent = time.thread_time(), sampler.spent
    stage = "raised"
    if error is None:
        outcome, error = _run(check, value)
        stage = "check raised"
    if error is None:
        verdict, problems = outcome
    else:
        name = type(error).__name__
        if not result.errors:
            traceback.print_exception(error)
        result.errors[name if stage == "raised" else f"{stage} {name}"] += 1
        verdict, problems = (stage, name), [f"{stage} {name}: {error}"]
    checked = time.thread_time() - start - (sampler.spent - spent)
    result.verdicts.append((what, verdict))
    result.failures.extend(f"{what}: {p}" for p in problems)
    result.failed += bool(problems)

    result.last = {p: p.measure() for p in sampler.probes}
    result.probes.append(result.last[sampler.probes[0]])
    factor = kind.scale([before, *during, result.last[kind]])
    result.raw_seconds += elapsed + checked
    result.seconds += (elapsed + checked) * factor
    if query:
        result.latencies.append(elapsed * factor)
    if largest:
        result.largest.append(elapsed * factor)


def _certificate_problems(expected, doc_text, doc_text_again, cert_reports):
    """Compare a rendered certificate and its reports with the closed form."""
    problems = []
    if doc_text != doc_text_again:
        problems.append("rendering the same document twice gave different bytes")
    doc = json.loads(doc_text)
    rows = [
        (e["word"], e["order"], e["is_translation"], e["has_fixed_point"])
        for e in doc["elements"]
    ]
    reports = [
        (r.word, r.order, r.is_translation, r.has_fixed_point) for r in cert_reports
    ]
    if doc["group_order"] != expected["group_order"]:
        problems.append(
            f"group_order {doc['group_order']}, expected {expected['group_order']}"
        )
    if doc["dimension"] != expected["dimension"]:
        problems.append(f"dimension {doc['dimension']}, expected {expected['dimension']}")
    if doc["theorem_verified"] is not True or not all(doc["steps"].values()):
        problems.append("certificate does not verify")
    if rows != expected["elements"]:
        problems.append("certificate elements differ from the closed form")
    if reports != expected["elements"]:
        problems.append("element reports differ from the closed form")
    return problems


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# --- theorem-family ---------------------------------------------------------


def theorem_setup(seed):
    mods = _modules()
    mods["dihedral"].realified_action(THEOREM_NS[0])
    return mods


def theorem_pass(mods, result):
    dihedral, certificate = mods["dihedral"], mods["certificate"]
    for n in THEOREM_NS:
        params = {"n": n, "range": None, "closure_cap": None, "oracle": None}

        def call(n=n, params=params):
            cert = dihedral.verify_theorem(n)
            doc = certificate.theorem_document(cert, params)
            return cert, certificate.render_json(doc), certificate.render_json(doc)

        def check(value, n=n):
            cert, text, again = value
            expected = reference.theorem_expectation(n)
            problems = _certificate_problems(expected, text, again, cert.reports)
            if cert.group_order_actual != expected["group_order"]:
                problems.append("certificate group order differs from the closed form")
            if not (cert.theorem_verified and cert.is_free and cert.has_no_translations):
                problems.append("certificate does not claim a free, translation-free action")
            return _digest(text), problems

        _attempt(result, f"verify n={n}", call, check,
                 largest=n == THEOREM_NS[-1])
    for name in reference.MUTANTS:
        for n in MUTANT_NS:
            def check(cert, name=name, n=n):
                verdict = (
                    cert.theorem_verified,
                    cert.is_free,
                    cert.has_no_translations,
                    cert.group_order_actual,
                    tuple(cert.reports),
                )
                problems = reference.mutant_problems(name, n, *verdict[:4])
                return verdict, problems

            _attempt(
                result, f"mutant {name} n={n}",
                lambda name=name, n=n: dihedral.verify_mutant(name, n), check,
                query=False,
            )


# --- corollary-wide ---------------------------------------------------------


def corollary_setup(seed):
    mods = _modules()
    for k in COROLLARY_KS:
        plan = mods["dihedral"].build_corollary(k)
        if plan.params.n != reference.corollary_expectation(k)["n"]:
            raise RuntimeError(f"corollary k={k} embeds at n={plan.params.n}")
    return mods


def corollary_pass(mods, result):
    dihedral, certificate = mods["dihedral"], mods["certificate"]
    for k in COROLLARY_KS:
        def call(k=k):
            cert = dihedral.verify_corollary(k)
            doc = certificate.corollary_document(cert, {"k": k})
            return cert, certificate.render_json(doc), certificate.render_json(doc)

        def check(value, k=k):
            cert, text, again = value
            expected = reference.corollary_expectation(k)
            problems = _certificate_problems(expected, text, again, cert.reports)
            if cert.n != expected["n"] or not cert.verified:
                problems.append("corollary certificate does not verify at the expected n")
            return _digest(text), problems

        _attempt(result, f"corollary k={k}", call, check,
                 largest=k == COROLLARY_KS[-1])


# --- element-queries --------------------------------------------------------


def make_queries(seed: int):
    """Seeded words: (n, text, tokens), 1-4 terms, exponents in [-4n, 4n].

    Every seed gets the same mix: n and the number of terms cycle through
    all combinations, and letters and exponents are dealt from shuffled
    decks holding each value once, so a seed changes which words appear
    and in what order, not how much work they make.
    """
    rng = random.Random(seed)
    decks: dict = {}

    def deal(key, values):
        deck = decks.setdefault(key, [])
        if not deck:
            deck.extend(values)
            rng.shuffle(deck)
        return deck.pop()

    queries = []
    for i in range(QUERY_COUNT):
        n = QUERY_NS[i % len(QUERY_NS)]
        terms = 1 + (i // len(QUERY_NS)) % 4
        tokens = [
            (deal("letter", "rs"), deal(n, range(-4 * n, 4 * n + 1)))
            for _ in range(terms)
        ]
        text = " ".join(g if e == 1 else f"{g}^{e}" for g, e in tokens)
        queries.append((n, text, tuple(tokens)))
    rng.shuffle(queries)
    return queries


def queries_setup(seed):
    mods = _modules()
    dihedral = mods["dihedral"]
    for n in QUERY_NS:
        dihedral.realified_action(n, dihedral.ambient_lattice(n))
        dihedral.realified_action(n)
    return mods, make_queries(seed)


def _views(mods, n, text):
    """The calls `dihedral-torus element` makes, without the printing."""
    analysis, dihedral, words = mods["analysis"], mods["dihedral"], mods["words"]
    word = words.parse_word(text)
    ambient = dihedral.ambient_lattice(n)
    rot_ambient, refl_ambient = dihedral.realified_action(n, ambient)
    rot_quot, refl_quot = dihedral.realified_action(n)
    views = []
    for rot, refl in ((rot_ambient, refl_ambient), (rot_quot, refl_quot)):
        g = words.evaluate_word(word, rot, refl)
        views.append((
            g,
            analysis.order(g),
            analysis.is_translation(g),
            analysis.exists_fixed_point(g),
        ))
    return views


def queries_pass(state, result):
    mods, queries = state
    largest_n = max(QUERY_NS)
    for n, text, tokens in queries:
        def check(views, n=n, tokens=tokens):
            a, b, c = reference.ambient_normal_form(tokens, n)
            expected = (
                reference.ambient_verdict(a, b, c, n),
                reference.quotient_verdict(a, b, n),
            )
            got = tuple(view[1:] for view in views)
            problems = []
            for label, want, have in zip(("ambient", "quotient"), expected, got):
                if want != have:
                    problems.append(f"{label} verdict {have}, expected {want}")
            # r^a s^b moves the E' coordinate by a/4n in both views.
            for label, (g, *_) in zip(("ambient", "quotient"), views):
                shift = g.translation.coords[4 * n]
                if shift * 4 * n != a:
                    problems.append(f"{label} E' shift {shift}, expected {a}/{4 * n}")
            return got, problems

        _attempt(
            result, f"n={n} word {text!r}",
            lambda n=n, text=text: _views(mods, n, text), check,
            largest=n == largest_n,
        )


# --- oracle-grid ------------------------------------------------------------


def oracle_setup(seed):
    mods = _modules()
    rot, refl = mods["dihedral"].realified_action(ORACLE_N)
    elements = mods["analysis"].closure([rot, refl])
    if len(elements) != 8 * ORACLE_N:
        raise RuntimeError(f"closure at n={ORACLE_N} has {len(elements)} elements")
    return mods, elements


def oracle_pass(state, result):
    mods, elements = state
    analysis = mods["analysis"]
    for element in elements:
        auto = element.auto
        m = auto.lattice.m
        # Only the identity has fixed points; it fixes every grid point, and
        # the quotient lattice has index 2 over Z^m.
        identity = element.path == ()
        expected_points = ORACLE_DENOMINATOR**m // 2 if identity else 0

        def call(auto=auto):
            points = analysis.torsion_fixed_points_bruteforce(auto, ORACLE_DENOMINATOR)
            return points, analysis.exists_fixed_point(auto)

        def check(value, expected_points=expected_points, m=m):
            points, exact = value
            result.grid_points += ORACLE_DENOMINATOR**m
            problems = []
            if bool(points) != exact:
                problems.append(f"oracle found {len(points)} points, exact says {exact}")
            if len(points) != expected_points:
                problems.append(f"{len(points)} fixed points, expected {expected_points}")
            return (len(points), exact), problems

        # The numpy kernel is most of an element's time, unless the element
        # has fixed points: then turning 131,072 of them into TorsionPoint
        # objects in Python is most of it.
        kind = probe.FRACTIONS if expected_points else probe.NUMPY
        _attempt(result, f"oracle {element.path}", call, check, largest=True, kind=kind)


# name: (setup, one pass, the probes whose work slows down like the workload's)
WORKLOADS = {
    "theorem-family": (theorem_setup, theorem_pass, (probe.FRACTIONS,)),
    "corollary-wide": (corollary_setup, corollary_pass, (probe.FRACTIONS,)),
    "element-queries": (queries_setup, queries_pass, (probe.FRACTIONS,)),
    "oracle-grid": (oracle_setup, oracle_pass, (probe.NUMPY, probe.FRACTIONS)),
}
