"""Command-line front end for verifying the dihedral torus actions.

Exit codes: 0 verification succeeded, 1 verification failed, 2 usage or
parse error or a certificate that cannot be written, 3 oracle refused the
enumeration (point budget or 64-bit scaling range exceeded).
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Sequence

from .analysis import OracleBudgetExceeded, _report, torsion_fixed_points_bruteforce
from .certificate import (
    corollary_document,
    range_document,
    theorem_document,
    write_json,
)
from .dihedral import (
    Certificate,
    ambient_lattice,
    realified_action,
    verify_corollary,
    verify_theorem,
)
from .torus import AffineAuto
from .words import WordParseError, evaluate_word, parse_word

EXIT_OK = 0
EXIT_VERIFICATION_FAILED = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


def _positive(text: str) -> int:
    """argparse type of the counts and denominators: ASCII digits, at least 1."""
    try:
        if not (text.isascii() and text.removeprefix("-").isdigit()):
            raise ValueError(text)
        value = int(text)  # raises past the interpreter's digit limit
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"not a positive integer: {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dihedral-torus",
        description=(
            "Construct dihedral group actions on quotients of products of "
            "elliptic curves, in exact rational arithmetic, and verify that "
            "they are free and contain no translations."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser(
        "verify",
        help="verify the order-8n action for one n (or --range for n = 1..N)",
    )
    verify.add_argument("--n", type=_positive, help="family parameter n >= 1")
    verify.add_argument("--json", metavar="PATH", help="write a JSON certificate")
    verify.add_argument(
        "--range",
        type=_positive,
        dest="range_max",
        metavar="N",
        help="verify every n from 1 to N and aggregate the results",
    )
    verify.add_argument(
        "--oracle",
        type=_positive,
        metavar="D",
        help="cross-check every fixed-point decision by brute force over "
        "points with coordinates in (1/D)Z",
    )

    corollary = sub.add_parser(
        "corollary",
        help="verify the embedded free D_k action of order 2k",
    )
    corollary.add_argument(
        "--k", type=_positive, required=True, help="dihedral index k >= 1"
    )
    corollary.add_argument("--json", metavar="PATH", help="write a JSON certificate")

    element = sub.add_parser(
        "element",
        help="inspect one group word on both the ambient product and the quotient",
    )
    element.add_argument(
        "--n", type=_positive, required=True, help="family parameter n >= 1"
    )
    element.add_argument(
        "--word",
        required=True,
        help='word in r and s, e.g. "r^2 s" (rightmost factor applied first)',
    )
    element.add_argument(
        "--oracle",
        type=_positive,
        metavar="D",
        help="also enumerate torsion fixed points at denominator D",
    )
    return parser


def _usage_error(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_USAGE


def _write_certificate(path: str, doc) -> bool:
    """Write the JSON document; on an OS error say why on stderr instead."""
    try:
        write_json(path, doc)
    except OSError as exc:
        print(f"error: cannot write {path}: {exc.strerror or exc}", file=sys.stderr)
        return False
    print(f"certificate written to {path}")
    return True


def _print_certificate(cert: Certificate) -> None:
    if cert.k is None:
        group = f"n={cert.n}: group order"
        place = f"on an abelian variety of dimension {cert.dimension}"
    else:
        group = f"k={cert.k}: D_{cert.k} of order"
        place = f"embedded at n={cert.n}, ambient dimension {cert.dimension}"
    print(
        f"{group} {cert.group_order_actual} "
        f"(expected {cert.group_order_expected}) {place}"
    )
    for i, step in enumerate(cert.steps, 1):
        status = "PASS" if step.passed else "FAIL"
        print(f"  step{i} {step.name}: {status}")
        if not step.passed:
            for check, ok in step.checks:
                if not ok:
                    print(f"    failed: {check}")
    free = "yes" if cert.is_free else "NO"
    transl = "none" if cert.has_no_translations else "PRESENT"
    print(f"  free action: {free}    translations: {transl}")
    verdict = "verified" if cert.theorem_verified else "FAILED"
    print(f"  certificate: {verdict}")


def _oracle_sweep(cert: Certificate, denominator: int) -> list[str]:
    """Certificate words whose brute-force fixed-point answer disagrees.

    Each report's word is evaluated on the n-th action and checked
    against that report's verdict (expected: no disagreement).
    """
    from .oracle import _has_torsion_fixed_point
    r, s = realified_action(cert.n)
    mismatches = []
    for rep in cert.reports:
        g = evaluate_word(parse_word(rep.word), r, s)
        if _has_torsion_fixed_point(g, denominator) != rep.has_fixed_point:
            mismatches.append(rep.word)
    return mismatches


def cmd_verify(args) -> int:
    if args.n is None and args.range_max is None:
        return _usage_error("one of --n or --range is required")
    if args.n is not None and args.range_max is not None:
        return _usage_error("--n and --range are mutually exclusive")

    # Schema 1 keeps the closure_cap key, always null: no verifier takes a cap.
    params = {
        "n": args.n,
        "range": args.range_max,
        "closure_cap": None,
        "oracle": args.oracle,
    }
    start = time.perf_counter()
    ns = [args.n] if args.n is not None else range(1, args.range_max + 1)
    keep = args.json is not None or args.oracle is not None
    certs, ok = [], True
    for cert in map(verify_theorem, ns):
        _print_certificate(cert)  # as it is made
        ok = ok and cert.theorem_verified
        if keep:  # --json and --oracle read it again
            certs.append(cert)

    if args.oracle is not None:
        for cert in certs:
            mismatches = _oracle_sweep(cert, args.oracle)
            if mismatches:
                ok = False
                print(
                    f"  oracle (D={args.oracle}): DISAGREES on "
                    + ", ".join(repr(w) for w in mismatches)
                )
            else:
                print(
                    f"  oracle (D={args.oracle}): fixed-point decisions "
                    f"confirmed for all {cert.group_order_actual} elements "
                    f"of n={cert.n}"
                )

    elapsed_ms = (time.perf_counter() - start) * 1000.0
    print(f"elapsed: {elapsed_ms:.1f} ms")

    if args.json is not None:
        if args.range_max is not None:
            doc = range_document(certs, params)
        else:
            doc = theorem_document(certs[0], params)
        if not _write_certificate(args.json, doc):
            return EXIT_USAGE
    return EXIT_OK if ok else EXIT_VERIFICATION_FAILED


def cmd_corollary(args) -> int:
    start = time.perf_counter()
    cert = verify_corollary(args.k)
    _print_certificate(cert)
    elapsed_ms = (time.perf_counter() - start) * 1000.0
    print(f"elapsed: {elapsed_ms:.1f} ms")
    if args.json is not None and not _write_certificate(
        args.json, corollary_document(cert, {"k": args.k})
    ):
        return EXIT_USAGE
    return EXIT_OK if cert.theorem_verified else EXIT_VERIFICATION_FAILED


def _print_view(
    name: str, auto: AffineAuto, word: str, denominator: int | None
) -> bool:
    print(f"{name}:")
    coords = ", ".join(str(c) for c in auto.translation)
    print(f"  translation (canonical): ({coords})")
    report = _report(auto, word)
    print(f"  order: {report.order}")
    print(f"  is translation element: {'yes' if report.is_translation else 'no'}")
    print(f"  has fixed point: {'yes' if report.has_fixed_point else 'no'}")
    if denominator is None:
        return True
    points = torsion_fixed_points_bruteforce(auto, denominator)
    agree = bool(points) == report.has_fixed_point
    print(
        f"  oracle (D={denominator}): {len(points)} torsion fixed point(s) "
        f"-> {'agrees' if agree else 'DISAGREES'}"
    )
    return agree


def cmd_element(args) -> int:
    try:
        word = parse_word(args.word)
    except WordParseError as exc:
        return _usage_error(str(exc))

    n = args.n
    ambient = ambient_lattice(n)
    rot_ambient, refl_ambient = realified_action(n, ambient)
    rot_quot, refl_quot = realified_action(n)
    g_ambient = evaluate_word(word, rot_ambient, refl_ambient)
    g_quot = evaluate_word(word, rot_quot, refl_quot)

    rendered = str(word) if len(word) else "(identity)"
    print(f"word: {rendered}   n={n}, ambient dimension {2 * n + 1}")
    print(f"linear part ({ambient.m}x{ambient.m}):")
    # Row i of the signed permutation holds signs[i] in column perm[i].
    width = 2 if -1 in g_ambient.signs else 1
    for src, sign in zip(g_ambient.perm, g_ambient.signs):
        row = ["0"] * ambient.m
        row[src] = str(sign)
        print("  " + " ".join(e.rjust(width) for e in row))
    ok = _print_view("ambient product (mod Z^m)", g_ambient, rendered, args.oracle)
    ok &= _print_view("quotient by w", g_quot, rendered, args.oracle)
    return EXIT_OK if ok else EXIT_VERIFICATION_FAILED


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        if args.command == "verify":
            return cmd_verify(args)
        if args.command == "corollary":
            return cmd_corollary(args)
        return cmd_element(args)
    except OracleBudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET


if __name__ == "__main__":
    sys.exit(main())
