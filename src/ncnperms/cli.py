"""Command-line front end: count, seq, series, growth, ratio, verify.

Every numeric result is printed as an exact decimal string (never scientific
notation) and carries a provenance tag naming the route that produced it:
BRUTE_FORCE enumeration, the RECURRENCE tables, the SERIES solver, or a
CLOSED_FORM.

Exit codes: 0 success, 1 verification mismatch, 2 usage error, 3 resource
cap exceeded, 4 stdout could not be written.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys
from enum import Enum
from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence

from . import formats
from .core import Constraint, Discipline, ResourceLimitError, ValidationError
from .enumeration import ENUMERATION_CAP, count_by_constraint
from .growth import MAX_GROWTH_PLACES, growth_rate, ratio
from .patterns import Pattern
from .recurrences import FAMILIES, SequenceTable, family_table
from .series import builtin_equation, solve_algebraic
from .verify import Level, run_verification

TABLE_CAP = 1000

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


class Result(NamedTuple):
    value: str
    provenance: Provenance | None = None
    label: str = ""
    error_bound: str = ""
    detail: str = ""


class OutputRecord(NamedTuple):
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
                        "detail": r.detail,
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
    cap = args.n if args.force else ENUMERATION_CAP
    value = count_by_constraint(args.n, discipline, patterns, cap)[constraint]
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
    """Refuse, before anything is printed, a value with more digits than
    Python's int-to-string limit allows."""
    str_limit = sys.get_int_max_str_digits()  # 0 means Python sets no limit
    if str_limit and max(map(abs, values), default=0) >= 10**str_limit:
        raise ValidationError(
            f"a value has more than {str_limit} digits, Python's int-to-string "
            "limit (sys.get_int_max_str_digits()); lower -N"
        )


def _table_provenance(family: str) -> Provenance:
    """The route that builds ``family``'s table, as its ``FAMILIES`` row names it."""
    closed = FAMILIES[family].closed_form is not None
    return Provenance.CLOSED_FORM if closed else Provenance.RECURRENCE


def cmd_seq(args: argparse.Namespace) -> OutputRecord:
    _check_table_cap(args.limit, args.force)
    table = family_table(args.family, args.limit)
    _check_printable(table.values)
    provenance = _table_provenance(args.family)
    # A non-plain format prints the emitter's text without --json, so the
    # per-value results are built only where they are printed: each value is
    # converted to a decimal string once.
    results = ()
    if args.format == "plain" or args.json:
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


def _check_tolerance_exponent(text: str) -> None:
    """Refuse a decimal exponent too large to be worth building a Fraction
    for, which takes time growing with the exponent.

    A mantissa of d <= len(text) digits times 10**e lies between 10**(e - d)
    and 10**(e + d), so once |e| exceeds MAX_GROWTH_PLACES + len(text) the
    value is certainly outside [10**-MAX_GROWTH_PLACES, 1].
    """
    exponent = re.search(r"[eE][-+]?(\d+(?:_\d+)*)\s*\Z", text)
    if exponent is None:
        return
    magnitude = exponent[1].replace("_", "").lstrip("0") or "0"
    bound = MAX_GROWTH_PLACES + len(text)
    if len(magnitude) > len(str(bound)) or int(magnitude) > bound:
        raise ValidationError(
            f"tolerance exponent exceeds {bound} in magnitude, which puts the "
            f"tolerance outside [10^-{MAX_GROWTH_PLACES}, 1]"
        )


def cmd_growth(args: argparse.Namespace) -> OutputRecord:
    which = Discipline(args.which)
    # Fraction alone also accepts fullwidth and other non-ASCII digits
    if not args.tolerance.isascii():
        raise ValidationError(f"bad tolerance {args.tolerance!r}")
    _check_tolerance_exponent(args.tolerance)
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
                _table_provenance(args.family),
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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process; parsing leaves it unchanged."""
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
    p_ratio.add_argument("family", metavar="FAMILY", help=f"one of {', '.join(FAMILIES)}")
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

    return parser


def _print_record(record: OutputRecord, as_json: bool) -> None:
    if as_json:
        text = record.to_json() + "\n"
    elif record.command in ("count", "growth", "ratio"):
        text = record.results[0].value + "\n"
    elif record.command == "seq" and record.parameters["format"] != "plain":
        text = formats.EMITTERS[record.parameters["format"]](record.table)
    elif record.command in ("seq", "series"):
        text = " ".join(r.value for r in record.results) + "\n"
    else:  # verify
        text = "".join(
            f"PASS: {r.label}\n" if r.value == "pass" else f"FAIL: {r.label} ({r.detail})\n"
            for r in record.results
        )
    out = sys.stdout
    binary = getattr(out, "buffer", None)
    if binary is None:  # an in-memory text stream such as io.StringIO
        out.write(text)
        return
    # Under PYTHONUNBUFFERED the binary layer is the raw file, which may take
    # only part of a write, and the text layer drops the rest without an
    # error; so write the bytes here until all are taken or a write raises.
    out.flush()
    data = memoryview(text.encode(out.encoding, out.errors))
    while data:
        data = data[binary.write(data) :]


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        record = args.handler(args)
        _print_record(record, args.json)
        sys.stdout.flush()  # a closed pipe or a full disk fails here, not at exit
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
    if record.command == "verify":
        failed = next((r for r in record.results if r.value == "fail"), None)
        if failed is not None:
            print(f"first failure: {failed.label}: {failed.detail}", file=sys.stderr)
            return EXIT_VERIFY_FAILED
    return EXIT_OK


def entry_point() -> None:
    code = main()
    if code == EXIT_IO:
        # stdout is unwritable: send the interpreter's final flush to devnull
        # so it adds no second error (see the SIGPIPE note in the signal docs)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.exit(code)
