"""Command line front end for the family checkers.

Every subcommand reads a family from a JSON file (the rolle subcommand
alternatively takes a parameter-free curve file with --functional), runs
one check or a bundle of them, and emits a report to stdout (or ``--out``)
as JSON or indented text.  Exit codes follow one convention across
subcommands:

* 0: the run was decisive (Verified or Refuted both count);
* 2: the check came back Inconclusive or a section had to be skipped;
* 1: bad input or an internal failure, reported on stderr.

Reports are deterministic: JSON output sorts its keys, rationals are
rendered as ``p/q`` strings, and generic symbols are numbered from g1 in
every run, giving the same bytes in one process or many and in any
thread.  ``--basepoint generic`` is one generic point, drawn once and
shared by every section of the report.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from pathlib import Path

from . import __version__
from .algebra import ParseError, Poly, fresh_symbol, parse_poly, symbol_run
from .family import (
    CoefficientSizeError,
    FamilyValidationError,
    check_coefficient_size,
    load_equations,
    load_family,
    verify_implicit_equations,
)
from .limits import MAX_DEPTH, Verdict, whitney_check
from .modifications import (
    NonPolynomialChartError,
    NoUnitChartError,
    blowup_singular_locus,
    check_factorization,
    nash_modification,
)
from .projection import strong_equisingularity_check
from .rolle import ConstantMapError, load_curve, rolle_for_curve, rolle_for_map
from .zariski import equivalence_crosscheck, zariski_check

REPORT_VERSION = 2

EXIT_DECISIVE = 0
EXIT_ERROR = 1
EXIT_INCONCLUSIVE = 2

_SECTION_ERRORS = (
    NoUnitChartError,
    NonPolynomialChartError,
    FamilyValidationError,
)

_MODIFICATIONS = {"blowup": blowup_singular_locus, "nash": nash_modification}


def _parse_basepoint(text: str):
    if text == "origin":
        return 0
    if text == "generic":
        return fresh_symbol()
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(
            f"basepoint must be 'origin', 'generic', or a rational, got {text!r}")


def _parse_depth(text: str) -> int:
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(
            f"depth must be a nonnegative integer, got {text!r}")
    # compared by length first: a long string of digits is not converted
    digits = text.lstrip("0") or "0"
    if len(digits) > len(str(MAX_DEPTH)) or int(digits) > MAX_DEPTH:
        raise argparse.ArgumentTypeError(
            f"depth must be at most {MAX_DEPTH}, got {text!r}")
    return int(digits)


def _parse_rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"expected a rational number, got {text!r}")


def _parse_functional(text: str) -> list[Fraction]:
    try:
        coeffs = [Fraction(part.strip()) for part in text.split(",")]
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(
            f"expected comma-separated rationals, got {text!r}")
    try:
        check_coefficient_size(Poly(("t",), {(k,): c for k, c in enumerate(coeffs)}),
                               "the functional")
    except CoefficientSizeError as exc:
        raise argparse.ArgumentTypeError(str(exc))
    return coeffs


def _verdict_exit(verdict: Verdict) -> int:
    return EXIT_INCONCLUSIVE if verdict is Verdict.INCONCLUSIVE else EXIT_DECISIVE


# -- subcommand bodies: each returns (sections, exit_code) ------------------

def _cmd_whitney(args, family):
    res = whitney_check(family, args.basepoint, max_depth=args.depth)
    return {"whitney": res.to_json()}, _verdict_exit(res.verdict)


def _cmd_zariski(args, family):
    res = zariski_check(family, args.basepoint)
    return {"zariski": res.to_json()}, _verdict_exit(res.verdict)


def _cmd_crosscheck(args, family):
    res = equivalence_crosscheck(family, args.basepoint, max_depth=args.depth)
    code = EXIT_INCONCLUSIVE if res.agree is None else EXIT_DECISIVE
    return {"crosscheck": res.to_json()}, code


def _cmd_strong(args, family):
    res = strong_equisingularity_check(
        family, args.basepoint, tuple(args.special_a))
    return {"strong": res.to_json()}, _verdict_exit(res.verdict)


def _cmd_char_exponents(args, family):
    sequences = strong_equisingularity_check(
        family, args.basepoint, tuple(args.special_a)).sequences
    confirmed = all(seq.confirmed for _, seq in sequences)
    payload = {label: seq.to_json() for label, seq in sequences}
    code = EXIT_DECISIVE if confirmed else EXIT_INCONCLUSIVE
    return {"char_exponents": payload}, code


def _modification_section(family, build, depth):
    """One modification rechecked upstairs, or a ``skipped`` section when
    the family has no chart for it."""
    try:
        mod = build(family)
        fact = check_factorization(family, mod.family)
        reg = whitney_check(mod.family, 0, max_depth=depth)
    except _SECTION_ERRORS as exc:
        return {"skipped": str(exc)}, EXIT_INCONCLUSIVE
    section = {
        "construction": mod.to_json(),
        "factorization": fact.to_json(),
        "whitney": reg.to_json(),
    }
    code = EXIT_DECISIVE
    if fact.status != "verified" or reg.verdict is Verdict.INCONCLUSIVE:
        code = EXIT_INCONCLUSIVE
    return section, code


def _cmd_modification(args, family):
    section, code = _modification_section(
        family.centered(args.basepoint)[0], _MODIFICATIONS[args.command],
        args.depth)
    return {args.command: section}, code


def _rolle_exit(cert) -> int:
    if cert.witness_needed and not cert.separation_ok:
        return EXIT_INCONCLUSIVE
    return EXIT_DECISIVE


def _cmd_rolle(args, family):
    rho = parse_poly(args.rho, family.ambient)
    check_coefficient_size(rho, "--rho")
    cert = rolle_for_map(family, rho, at=args.at)
    return {"rolle": cert.to_json()}, _rolle_exit(cert)


def _run_rolle_curve(args):
    """Curve-file variant: entries in t only, functional by coefficients."""
    name, entries = load_curve(args.family)
    cert = rolle_for_curve(entries, args.functional)
    subject = {"curve": {
        "name": name,
        "entries": [e.grammar_str() for e in entries],
    }}
    return subject, {"rolle": cert.to_json()}, _rolle_exit(cert)


def _cmd_verify_equations(args, family):
    equations = load_equations(args.equations, family)
    checks = verify_implicit_equations(family, equations)
    section = {
        "checks": [
            {"equation": c.source, "vanishes": c.holds, "residual": c.residual}
            for c in checks
        ],
        "all_vanish": all(c.holds for c in checks),
    }
    return {"equations": section}, EXIT_DECISIVE


def _cmd_full_report(args, family):
    sections: dict = {}
    code = EXIT_DECISIVE

    cc = equivalence_crosscheck(family, args.basepoint, max_depth=args.depth)
    sections["whitney"] = cc.whitney.to_json()
    sections["zariski"] = cc.zariski.to_json()
    sections["crosscheck_agree"] = cc.agree
    if cc.agree is None:
        code = EXIT_INCONCLUSIVE

    strong = strong_equisingularity_check(
        family, args.basepoint, tuple(args.special_a))
    sections["strong"] = strong.to_json()
    if strong.verdict is Verdict.INCONCLUSIVE:
        code = EXIT_INCONCLUSIVE

    centered = family.centered(args.basepoint)[0]
    for key, build in _MODIFICATIONS.items():
        section, sec_code = _modification_section(centered, build, args.depth)
        sections[key] = section
        code = max(code, sec_code)

    if args.equations:
        eq_section, _ = _cmd_verify_equations(args, family)
        sections.update(eq_section)
    if args.rho:
        rolle_section, rolle_code = _cmd_rolle(args, family)
        sections.update(rolle_section)
        code = max(code, rolle_code)
    return sections, code


# -- report assembly ---------------------------------------------------------

def _render_text(value, indent: int = 0) -> list[str]:
    pad = "  " * indent
    lines: list[str] = []
    if isinstance(value, dict):
        for k, v in value.items():
            if isinstance(v, (dict, list)) and v:
                lines.append(f"{pad}{k}:")
                lines.extend(_render_text(v, indent + 1))
            else:
                lines.append(f"{pad}{k}: {_atom_text(v)}")
    elif isinstance(value, list):
        for item in value:
            if isinstance(item, (dict, list)) and item:
                lines.append(f"{pad}-")
                lines.extend(_render_text(item, indent + 1))
            else:
                lines.append(f"{pad}- {_atom_text(item)}")
    else:
        lines.append(f"{pad}{_atom_text(value)}")
    return lines


def _atom_text(v) -> str:
    if v is None:
        return "null"
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (dict, list)):
        return "{}" if isinstance(v, dict) else "[]"
    return str(v)


def _emit(report: dict, args) -> None:
    if args.format == "json":
        text = json.dumps(report, sort_keys=True, indent=2)
    else:
        text = "\n".join(_render_text(report))
    if args.out:
        Path(args.out).write_text(text + "\n")
    else:
        print(text)


def _add_common(sp, *, depth=False, basepoint=True, special=False):
    sp.add_argument("family", help="path to a family JSON file")
    if basepoint:
        sp.add_argument(
            "--basepoint", type=_parse_basepoint, default="origin",
            metavar="POINT",
            help="axis point to center on: origin, generic, or a rational")
    if depth:
        sp.add_argument(
            "--depth", type=_parse_depth, default=4, metavar="N",
            help="maximum arc refinement depth (default 4)")
    if special:
        sp.add_argument(
            "--special-a", type=_parse_rational, action="append", default=[],
            metavar="VALUE", dest="special_a",
            help="additional parameter value to compare (repeatable)")
    sp.add_argument("--format", choices=("json", "text"), default="json",
                    help="report format (default json)")
    sp.add_argument("--out", metavar="FILE",
                    help="write the report to a file instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="equising",
        description="Equisingularity checks for one-parameter families of "
                    "parametrized space curves.")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser(
        "check-whitney",
        help="decide both regularity conditions along arcs")
    _add_common(sp, depth=True)
    sp.set_defaults(handler=_cmd_whitney)

    sp = sub.add_parser(
        "check-zariski",
        help="generic-projection discriminant test plus equimultiplicity")
    _add_common(sp)
    sp.set_defaults(handler=_cmd_zariski)

    sp = sub.add_parser(
        "crosscheck",
        help="run both tests and compare their verdicts")
    _add_common(sp, depth=True)
    sp.set_defaults(handler=_cmd_crosscheck)

    sp = sub.add_parser(
        "strong",
        help="compare characteristic exponents across fibers")
    _add_common(sp, special=True)
    sp.set_defaults(handler=_cmd_strong)

    sp = sub.add_parser(
        "char-exponents",
        help="characteristic exponents of chosen fibers")
    _add_common(sp, special=True)
    sp.set_defaults(handler=_cmd_char_exponents)

    for name, text in (
            ("blowup", "blow up the singular axis and recheck the strict "
                       "transform"),
            ("nash", "Nash modification of the family and recheck")):
        sp = sub.add_parser(name, help=text)
        _add_common(sp, depth=True)
        sp.set_defaults(handler=_cmd_modification)

    sp = sub.add_parser(
        "rolle",
        help="critical-point separation certificate for a map on a fiber")
    _add_common(sp, basepoint=False)
    sp.add_argument("--rho", metavar="EXPR",
                    help="polynomial in the ambient coordinates (family file)")
    sp.add_argument("--functional", type=_parse_functional, metavar="C1,C2,..",
                    help="rational coefficients of a linear functional "
                         "(parameter-free curve file)")
    sp.add_argument("--at", type=_parse_rational, default=Fraction(0),
                    metavar="VALUE", help="parameter value of the fiber")
    sp.set_defaults(handler=_cmd_rolle)

    sp = sub.add_parser(
        "verify-equations",
        help="check that implicit equations vanish on the family")
    _add_common(sp, basepoint=False)
    sp.add_argument("--equations", required=True, metavar="FILE",
                    help="JSON file with an 'equations' list")
    sp.set_defaults(handler=_cmd_verify_equations)

    sp = sub.add_parser(
        "full-report",
        help="every applicable check in one report")
    _add_common(sp, depth=True, special=True)
    sp.add_argument("--equations", metavar="FILE",
                    help="also verify implicit equations from this file")
    sp.add_argument("--rho", metavar="EXPR",
                    help="also certify this map on the base point fiber")
    sp.add_argument("--at", type=_parse_rational, default=Fraction(0),
                    metavar="VALUE", help="fiber for the map certificate")
    sp.set_defaults(handler=_cmd_full_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    with symbol_run():
        code, report, args = _run(argv)
    try:
        if report is not None:
            _emit(report, args)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed the pipe early (as `| head` does): point stdout
        # at devnull so the flush at exit fails no more, and keep the code
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


def _run(argv: list[str] | None) -> tuple[int, dict | None, argparse.Namespace | None]:
    """Exit code, report and parsed arguments; no report after an error."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on usage errors, which would collide with
        # the Inconclusive code; keep 0 for --help/--version only
        return (EXIT_ERROR if exc.code else EXIT_DECISIVE), None, None
    if args.command == "rolle" and bool(args.rho) == bool(args.functional):
        print("error: rolle takes exactly one of --rho (family file) or "
              "--functional (curve file)", file=sys.stderr)
        return EXIT_ERROR, None, None
    try:
        if args.command == "rolle" and args.functional:
            subject, sections, code = _run_rolle_curve(args)
        else:
            family = load_family(args.family)
            sections, code = args.handler(args, family)
            subject = {"family": {
                "name": family.name,
                "entries": family.entry_strings(),
                "ambient": list(family.ambient),
            }}
    except (FamilyValidationError, ParseError, ConstantMapError, OSError,
            UnicodeDecodeError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR, None, None
    report = {
        "report_version": REPORT_VERSION,
        "command": args.command,
        "input": Path(args.family).name,
    }
    report.update(subject)
    report.update(sections)
    return code, report, args


if __name__ == "__main__":
    sys.exit(main())
