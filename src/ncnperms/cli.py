"""Command-line front end: count, seq, series, growth, ratio, verify, export.

Every numeric result is printed as an exact decimal string (never scientific
notation) and carries a provenance tag naming the route that produced it:
BRUTE_FORCE enumeration, the RECURRENCE tables, the SERIES solver, or a
CLOSED_FORM.

Exit codes: 0 success, 1 verification mismatch, 2 usage error, 3 resource
cap exceeded, 4 I/O failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from pathlib import Path
from typing import Iterable, Sequence

from . import formats
from .core import Discipline, ResourceLimitError, ValidationError
from .enumeration import (
    ENUMERATION_CAP,
    Constraint,
    CountQuery,
    count_avoiders,
)
from .growth import growth_rate, ratio
from .patterns import Pattern
from .recurrences import FAMILIES, SequenceTable, family_table
from .series import builtin_equation, solve_algebraic
from .verify import Level, run_verification

TABLE_CAP = 1000
OUTPUT_DIR_ENV = "NCNPERMS_OUTPUT_DIR"

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3
EXIT_IO = 4


class Provenance(Enum):
    BRUTE_FORCE = "BRUTE_FORCE"
    RECURRENCE = "RECURRENCE"
    SERIES = "SERIES"
    CLOSED_FORM = "CLOSED_FORM"


@dataclass(frozen=True)
class Result:
    value: str
    provenance: Provenance | None = None
    label: str = ""
    error_bound: str = ""
    detail: str = ""


@dataclass(frozen=True)
class OutputRecord:
    command: str
    parameters: dict
    results: tuple[Result, ...]
    table: SequenceTable | None = None  # what `seq` emits in a non-plain format

    def to_json(self) -> str:
        return json.dumps(
            {
                "command": self.command,
                "parameters": self.parameters,
                "results": [
                    {
                        "label": r.label,
                        "value": r.value,
                        "error_bound": r.error_bound,
                        "provenance": r.provenance.value if r.provenance else None,
                    }
                    for r in self.results
                ],
            }
        )


def _discipline(args: argparse.Namespace) -> Discipline:
    return Discipline.NON_NESTING if args.non_nesting else Discipline.NON_CROSSING


def cmd_count(args: argparse.Namespace) -> OutputRecord:
    patterns = frozenset(Pattern.parse(text) for text in args.avoid or ())
    if args.first_is_1 and args.last_is_n:
        constraint = Constraint.BOTH
    elif args.first_is_1:
        constraint = Constraint.FIRST_IS_1
    elif args.last_is_n:
        constraint = Constraint.LAST_IS_N
    else:
        constraint = Constraint.NONE
    discipline = _discipline(args)
    cap = args.n if args.force else args.cap
    query = CountQuery(args.n, discipline, patterns, constraint)
    value = count_avoiders(query, cap=cap)
    return OutputRecord(
        "count",
        {
            "discipline": discipline.value,
            "avoid": sorted(str(p) for p in patterns),
            "constraint": constraint.value,
            "n": args.n,
        },
        (Result(str(value), Provenance.BRUTE_FORCE),),
    )


def _check_table_cap(limit: int, force: bool) -> None:
    if limit > TABLE_CAP and not force:
        raise ResourceLimitError(
            f"limit {limit} exceeds the default cap {TABLE_CAP}; "
            "pass --force to acknowledge the runtime"
        )


def _check_printable(values: Iterable[int]) -> None:
    """Refuse, before anything is printed or written, a value with more
    digits than Python's int-to-string limit allows."""
    str_limit = sys.get_int_max_str_digits()  # 0 means Python sets no limit
    if str_limit and max(map(abs, values), default=0) >= 10**str_limit:
        raise ValidationError(
            f"a value has more than {str_limit} digits, Python's int-to-string "
            "limit (sys.get_int_max_str_digits()); lower -N"
        )


def _table_provenance(family: str) -> Provenance:
    return Provenance.CLOSED_FORM if family.startswith("q122") else Provenance.RECURRENCE


def cmd_seq(args: argparse.Namespace) -> OutputRecord:
    _check_table_cap(args.limit, args.force)
    table = family_table(args.family, args.limit)
    _check_printable(table.values)
    provenance = _table_provenance(args.family)
    results = tuple(
        Result(str(v), provenance, label=str(n)) for n, v in table.items()
    )
    return OutputRecord(
        "seq",
        {"family": args.family, "limit": args.limit, "format": args.format},
        results,
        table,
    )


def cmd_series(args: argparse.Namespace) -> OutputRecord:
    _check_table_cap(args.limit, args.force)
    which = Discipline(args.which)
    solved = solve_algebraic(builtin_equation(which), 1, args.limit)
    _check_printable(x for c in solved.coefficients for x in (c.numerator, c.denominator))
    results = tuple(
        Result(text, Provenance.SERIES, label=str(n))
        for n, text in enumerate(solved.coefficient_strings())
    )
    return OutputRecord(
        "series", {"which": which.value, "limit": args.limit}, results
    )


def cmd_growth(args: argparse.Namespace) -> OutputRecord:
    which = Discipline(args.which)
    try:
        tolerance = Fraction(args.tolerance)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValidationError(f"bad tolerance {args.tolerance!r}") from exc
    approx = growth_rate(which, tolerance)
    return OutputRecord(
        "growth",
        {"which": which.value, "tolerance": args.tolerance, "notes": list(approx.notes)},
        (
            Result(
                approx.value,
                Provenance.CLOSED_FORM,
                label="growth-rate",
                error_bound=approx.error_bound,
            ),
        ),
    )


def cmd_ratio(args: argparse.Namespace) -> OutputRecord:
    _check_table_cap(args.n, args.force)
    table = family_table(args.family, args.n)
    approx = ratio(table, args.n, args.places)
    return OutputRecord(
        "ratio",
        {"family": args.family, "n": args.n, "places": args.places},
        (
            Result(
                approx.value,
                Provenance.RECURRENCE,
                label=f"{args.family}[{args.n}]/{args.family}[{args.n - 1}]",
                error_bound=approx.error_bound,
            ),
        ),
    )


def cmd_verify(args: argparse.Namespace) -> OutputRecord:
    level = Level(args.level)
    checks = run_verification(level)
    results = tuple(
        Result("pass" if c.passed else "fail", None, label=c.name, detail=c.detail)
        for c in checks
    )
    return OutputRecord("verify", {"level": level.value}, results)


def _resolve_output_path(args: argparse.Namespace) -> Path:
    extension = formats.EXTENSIONS[args.format]
    default_name = f"{args.family.replace(',', '_')}_N{args.limit}.{extension}"
    base = Path(os.environ.get(OUTPUT_DIR_ENV, "."))
    if args.output is None:
        return base / default_name
    path = Path(args.output)
    return path if path.is_absolute() else base / path


def cmd_export(args: argparse.Namespace) -> OutputRecord:
    _check_table_cap(args.limit, args.force)
    table = family_table(args.family, args.limit)
    _check_printable(table.values)
    text = formats.EMITTERS[args.format](table)
    path = _resolve_output_path(args)
    path.write_text(text)
    return OutputRecord(
        "export",
        {
            "family": args.family,
            "limit": args.limit,
            "format": args.format,
            "path": str(path),
        },
        (Result(str(path), _table_provenance(args.family), label="path"),),
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ncnperms",
        description=(
            "Count pattern-avoiding non-crossing and non-nesting words of "
            "{1,1,...,n,n} by brute force, convolution recurrences, or an "
            "implicit-equation series solver, and analyze their growth."
        ),
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--json", action="store_true", help="print the full output record as JSON"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_count = sub.add_parser(
        "count", parents=[common], help="brute-force count of avoiding words"
    )
    group = p_count.add_mutually_exclusive_group(required=True)
    group.add_argument("--non-nesting", action="store_true")
    group.add_argument("--non-crossing", action="store_true")
    p_count.add_argument(
        "--avoid", action="append", metavar="PATTERN", help="pattern digits, repeatable"
    )
    p_count.add_argument("--first-is-1", action="store_true")
    p_count.add_argument("--last-is-n", action="store_true")
    p_count.add_argument("-n", type=int, required=True, metavar="N")
    p_count.add_argument("--cap", type=int, default=ENUMERATION_CAP)
    p_count.add_argument("--force", action="store_true", help="lift the enumeration cap")
    p_count.set_defaults(handler=cmd_count)

    p_seq = sub.add_parser(
        "seq", parents=[common], help="sequence table from the scalable routes"
    )
    p_seq.add_argument("family", metavar="FAMILY", help=f"one of {', '.join(FAMILIES)}")
    p_seq.add_argument("-N", "--limit", type=int, required=True, metavar="N")
    p_seq.add_argument(
        "--format", choices=("plain", "bfile", "csv", "json"), default="plain"
    )
    p_seq.add_argument("--force", action="store_true")
    p_seq.set_defaults(handler=cmd_seq)

    p_series = sub.add_parser(
        "series", parents=[common], help="coefficients from the implicit equation"
    )
    p_series.add_argument("which", choices=[d.value for d in Discipline])
    p_series.add_argument("-N", "--limit", type=int, required=True, metavar="N")
    p_series.add_argument("--force", action="store_true")
    p_series.set_defaults(handler=cmd_series)

    p_growth = sub.add_parser(
        "growth", parents=[common], help="growth rate from the radicand root"
    )
    p_growth.add_argument("which", choices=[d.value for d in Discipline])
    p_growth.add_argument("--tolerance", default="1/100000", help="rational, e.g. 1/100000")
    p_growth.set_defaults(handler=cmd_growth)

    p_ratio = sub.add_parser(
        "ratio", parents=[common], help="consecutive-term ratio of a family"
    )
    p_ratio.add_argument("family", metavar="FAMILY")
    p_ratio.add_argument("n", type=int)
    p_ratio.add_argument("--places", type=int, default=5)
    p_ratio.add_argument("--force", action="store_true")
    p_ratio.set_defaults(handler=cmd_ratio)

    p_verify = sub.add_parser(
        "verify", parents=[common], help="run the cross-validation suite"
    )
    p_verify.add_argument(
        "--level", choices=[lv.value for lv in Level], default=Level.QUICK.value
    )
    p_verify.set_defaults(handler=cmd_verify)

    p_export = sub.add_parser(
        "export", parents=[common], help="write a sequence table to a file"
    )
    p_export.add_argument("family", metavar="FAMILY")
    p_export.add_argument("-N", "--limit", type=int, required=True, metavar="N")
    p_export.add_argument("--format", choices=("bfile", "csv", "json"), default="bfile")
    p_export.add_argument(
        "-o",
        "--output",
        default=None,
        help=f"output path; relative paths resolve against ${OUTPUT_DIR_ENV} or the "
        "working directory",
    )
    p_export.add_argument("--force", action="store_true")
    p_export.set_defaults(handler=cmd_export)
    return parser


def _print_record(record: OutputRecord, as_json: bool) -> None:
    if as_json:
        print(record.to_json())
        return
    if record.command in ("count", "growth", "ratio"):
        print(record.results[0].value)
    elif record.command in ("seq", "series"):
        if record.command == "seq" and record.parameters["format"] != "plain":
            sys.stdout.write(formats.EMITTERS[record.parameters["format"]](record.table))
        else:
            print(" ".join(r.value for r in record.results))
    elif record.command == "verify":
        for r in record.results:
            if r.value == "pass":
                print(f"PASS: {r.label}")
            else:
                print(f"FAIL: {r.label} ({r.detail})")
    elif record.command == "export":
        print(f"wrote {record.results[0].value}")


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        record = args.handler(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ResourceLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        if args.command == "count":
            print("hint: use `ncnperms seq` for large indices", file=sys.stderr)
        return EXIT_RESOURCE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    _print_record(record, args.json)
    if record.command == "verify":
        failed = next((r for r in record.results if r.value == "fail"), None)
        if failed is not None:
            print(f"first failure: {failed.label}: {failed.detail}", file=sys.stderr)
            return EXIT_VERIFY_FAILED
    return EXIT_OK


def entry_point() -> None:
    sys.exit(main())
