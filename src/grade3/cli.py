"""Command-line interface.

Subcommands cover the whole library surface: classifying a multiplication
table, emitting canonical tables, checking permissibility, rendering the
obstruction atlas for a format, running the linkage engine on a table,
searching for derivation certificates, replaying the rulebook against
structure constants, and verifying certificates.

Exit codes are uniform across subcommands:

* 0 — success (classified / permissible / verified / rendered)
* 1 — a definite negative (not permissible, verification failed)
* 2 — no answer (unclassifiable, unknown permissibility, nothing found)
* 3 — invalid input, reported as a one-line ``error:`` diagnostic on stderr
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence

from .cone import LinkSpec, linked_to_document, mapping_cone_presentation, verify_linkage_theorems
from .errors import DocumentError, Grade3Error
from .labels import parse_format, parse_label
from .permissible import (
    Status,
    atlas_grid,
    is_permissible,
    render_atlas_csv,
    render_atlas_text,
)
from .planner import (
    RealizeStatus,
    certificate_from_document,
    certificate_to_document,
    realize,
    verify_certificate,
)
from .presentation import (
    arrangement_ids,
    arranged_presentation,
    canonical_presentation,
    classify,
    presentation_from_document,
    presentation_to_document,
)

__all__ = ["main", "run"]


def _read_json(path: str) -> object:
    if path == "-":
        text = sys.stdin.read()
    else:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    try:
        return json.loads(text)
    except ValueError as exc:  # malformed JSON, or an integer with too many digits
        raise DocumentError(f"invalid JSON: {exc}") from exc


def _write_text(text: str, path: str | None) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
            if not text.endswith("\n"):
                handle.write("\n")


def _dump(doc: object, path: str | None) -> None:
    _write_text(json.dumps(doc, indent=2, sort_keys=True), path)


def _print_verdict(verdict) -> None:
    print(f"status: {verdict.status.value}")
    for violation in verdict.violations:
        print(f"rule {violation.rule}: {violation.detail} [{violation.cite}]")


def _cmd_classify(args: argparse.Namespace) -> int:
    doc = _read_json(args.file)
    pres = presentation_from_document(doc)
    report = classify(pres)
    print(f"format: {pres.fmt}")
    print(f"invariants: p={report.p} q={report.q} r={report.r} s1={report.s1}")
    if report.unclassifiable:
        print("class: unclassifiable (no class matches these invariants)")
        return 2
    print(f"class: {report.label}")
    return 0


def _cmd_canonical(args: argparse.Namespace) -> int:
    label = parse_label(args.label)
    fmt = parse_format(args.format)
    if args.arrangement is None:
        pres = canonical_presentation(label, fmt)
    else:
        pres = arranged_presentation(label, fmt, args.arrangement)
    _dump(presentation_to_document(pres), args.output)
    return 0


def _cmd_permissible(args: argparse.Namespace) -> int:
    label = parse_label(args.label)
    fmt = parse_format(args.format)
    verdict = is_permissible(label, fmt)
    _print_verdict(verdict)
    if verdict.status is Status.PERMISSIBLE:
        return 0
    if verdict.status is Status.NOT_PERMISSIBLE:
        return 1
    return 2


def _cmd_atlas(args: argparse.Namespace) -> int:
    fmt = parse_format(args.format)
    grid = atlas_grid(fmt)
    text = render_atlas_csv(grid) if args.csv else render_atlas_text(grid)
    _write_text(text, args.output)
    return 0


def _cmd_link(args: argparse.Namespace) -> int:
    doc = _read_json(args.file)
    pres = presentation_from_document(doc)
    spec = LinkSpec(t1=args.t1, phi2_unit=args.phi2_unit)
    linked = mapping_cone_presentation(pres, spec)
    _dump(linked_to_document(linked), args.output)
    return 0


def _cmd_realize(args: argparse.Namespace) -> int:
    label = parse_label(args.label)
    fmt = parse_format(args.format)
    result = realize(label, fmt, max_coordinate=args.max_coordinate)
    if result.status is RealizeStatus.NOT_PERMISSIBLE:
        _print_verdict(result.verdict)
        return 1
    if result.status is RealizeStatus.NOT_FOUND:
        print(f"not found: {result.detail}")
        return 2
    _dump(certificate_to_document(result.certificate), args.output)
    return 0


def _cmd_verify_theorems(args: argparse.Namespace) -> int:
    report = verify_linkage_theorems(m_max=args.m_max, n_max=args.n_max)
    for result in report.results:
        if result.passed:
            print(f"{result.scenario}: ok (checked={result.checked})")
        else:
            print(f"{result.scenario}: FAIL (checked={result.checked})")
            for failure in result.failures:
                print(f"  {failure}")
    if report.all_passed:
        print("all scenarios passed")
        return 0
    print("FAILED")
    return 1


def _cmd_verify_cert(args: argparse.Namespace) -> int:
    cert = certificate_from_document(_read_json(args.file))
    if verify_certificate(cert):
        print("certificate: valid")
        return 0
    print("certificate: INVALID")
    return 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="grade3",
        description="Classify, constrain, link, and realize grade-3 multiplication tables.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="classify a multiplication table from a JSON file")
    p.add_argument("file", help="presentation JSON file, or - for stdin")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("canonical", help="emit a canonical multiplication table as JSON")
    p.add_argument("label", help="class label, e.g. T, B, C(3), G(4), H(2,1)")
    p.add_argument("format", help="format, e.g. '(6,3)'")
    p.add_argument(
        "--arrangement",
        choices=sorted(arrangement_ids()),
        help="use a specific basis arrangement instead of the default table",
    )
    p.add_argument("-o", "--output", help="write to file instead of stdout")
    p.set_defaults(func=_cmd_canonical)

    p = sub.add_parser("permissible", help="check a (class, format) pair against the rulebook")
    p.add_argument("label", help="class label, e.g. T, B, C(3), G(4), H(2,1)")
    p.add_argument("format", help="format, e.g. '(6,3)'")
    p.set_defaults(func=_cmd_permissible)

    p = sub.add_parser("atlas", help="render the H(p,q) permissibility atlas for a format")
    p.add_argument("format", help="format, e.g. '(8,6)'")
    p.add_argument("--csv", action="store_true", help="emit CSV instead of a text grid")
    p.add_argument("-o", "--output", help="write to file instead of stdout")
    p.set_defaults(func=_cmd_atlas)

    p = sub.add_parser("link", help="apply the linkage engine to a table and emit the linked table")
    p.add_argument("file", help="presentation JSON file, or - for stdin")
    p.add_argument("--t1", type=int, required=True, choices=(0, 1, 2, 3), help="split rank")
    p.add_argument(
        "--phi2-unit",
        action="store_true",
        help="use the unit-pivot variant (requires t1=2 and e1*e2 = f1)",
    )
    p.add_argument("-o", "--output", help="write to file instead of stdout")
    p.set_defaults(func=_cmd_link)

    p = sub.add_parser("realize", help="search for a derivation certificate for a target")
    p.add_argument("label", help="class label, e.g. T, B, H(2,0)")
    p.add_argument("format", help="format, e.g. '(6,3)'")
    p.add_argument(
        "--max-coordinate",
        type=int,
        help="cap on intermediate format coordinates (default: GRADE3_MAX_SEARCH or 64)",
    )
    p.add_argument("-o", "--output", help="write certificate JSON to file instead of stdout")
    p.set_defaults(func=_cmd_realize)

    p = sub.add_parser(
        "verify-theorems", help="replay every rulebook scenario against structure constants"
    )
    p.add_argument("--m-max", type=int, default=10, help="largest m to sweep (default 10)")
    p.add_argument("--n-max", type=int, default=8, help="largest n to sweep (default 8)")
    p.set_defaults(func=_cmd_verify_theorems)

    p = sub.add_parser("verify-cert", help="strictly replay a derivation certificate")
    p.add_argument("file", help="certificate JSON file, or - for stdin")
    p.set_defaults(func=_cmd_verify_cert)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Grade3Error as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
