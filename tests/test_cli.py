import argparse
import ast
import errno
import json
import os
import shlex
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from ncnperms.cli import (
    EXIT_IO,
    EXIT_OK,
    EXIT_RESOURCE,
    EXIT_USAGE,
    EXIT_VERIFY_FAILED,
    build_parser,
    main,
)
from ncnperms.formats import EMITTERS, to_bfile
from ncnperms.recurrences import FAMILIES, family_table
from ncnperms.verify import CheckResult

from conftest import decoded

ROOT = Path(__file__).resolve().parents[1]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_count_examples(capsys):
    code, out, _ = run(capsys, "count", "--non-nesting", "--avoid", "231", "-n", "2")
    assert code == EXIT_OK and out.strip() == "4"
    code, out, _ = run(capsys, "count", "--non-crossing", "--avoid", "122", "-n", "3")
    assert code == EXIT_OK and out.strip() == "5"
    code, out, _ = run(capsys, "count", "--non-nesting", "-n", "3")
    assert code == EXIT_OK and out.strip() == "30"


def test_count_with_constraints(capsys):
    code, out, _ = run(
        capsys,
        "count", "--non-nesting", "--avoid", "231", "--first-is-1", "--last-is-n", "-n", "2",
    )
    assert code == EXIT_OK and out.strip() == "2"


def test_count_cap_exceeded(capsys):
    code, _, err = run(capsys, "count", "--non-nesting", "--avoid", "231", "-n", "8")
    assert code == EXIT_RESOURCE
    assert "seq" in err


def test_count_at_the_default_cap(capsys):
    code, out, _ = run(capsys, "count", "--non-crossing", "--avoid", "231", "-n", "7")
    assert code == EXIT_OK and out.strip() == "22617"


def test_count_cap_is_not_an_option(capsys):
    # --force lifts the cap; a value for it is a usage error
    with pytest.raises(SystemExit) as info:
        main(["count", "--non-nesting", "-n", "0", "--cap", "8"])
    assert info.value.code == EXIT_USAGE
    assert "unrecognized arguments: --cap 8" in capsys.readouterr().err


def test_count_requires_discipline(capsys):
    with pytest.raises(SystemExit) as info:
        main(["count", "-n", "2"])
    assert info.value.code == EXIT_USAGE
    capsys.readouterr()


def test_seq_examples(capsys):
    code, out, _ = run(capsys, "seq", "p231", "-N", "10")
    assert code == EXIT_OK
    assert out.strip() == "1 1 4 17 77 367 1815 9233 48014 254123 1364491"
    code, out, _ = run(capsys, "seq", "pbar231", "-N", "9")
    assert out.strip() == "1 1 4 19 102 590 3588 22617 146460 968520"
    code, out, _ = run(capsys, "seq", "q122,213", "-N", "5")
    assert out.strip() == "1 2 3 5 8"


def test_seq_unknown_family(capsys):
    # a name outside FAMILIES gets one error line, also when it looks like
    # a 122 pairing or differs from a family only in case
    for family in ("z999", "q122,212", "q122,", "Q231"):
        code, out, err = run(capsys, "seq", family, "-N", "5")
        assert code == EXIT_USAGE and out == ""
        assert err.startswith(f"error: unknown sequence family {family!r}; known: ")
        assert err.count("\n") == 1


def test_seq_closed_form_needs_positive_limit(capsys):
    code, _, err = run(capsys, "seq", "q122", "-N", "0")
    assert code == EXIT_USAGE
    assert "index 1" in err


def test_count_seq_and_series_agree(capsys):
    # three independent routes, one number
    _, count_out, _ = run(capsys, "count", "--non-nesting", "--avoid", "231", "-n", "4")
    _, seq_out, _ = run(capsys, "seq", "p231", "-N", "4")
    _, series_out, _ = run(capsys, "series", "non-nesting", "-N", "4")
    assert count_out.strip() == seq_out.split()[-1] == series_out.split()[-1] == "77"


def test_seq_table_cap(capsys):
    code, _, err = run(capsys, "seq", "p231", "-N", "1001")
    assert code == EXIT_RESOURCE
    assert "--force" in err


def test_seq_alternate_formats(capsys):
    code, out, _ = run(capsys, "seq", "p231", "-N", "2", "--format", "bfile")
    assert out == "0 1\n1 1\n2 4\n"
    code, out, _ = run(capsys, "seq", "pbar231", "-N", "3", "--format", "csv")
    assert out == "n,value\n0,1\n1,1\n2,4\n3,19\n"
    code, out, _ = run(capsys, "seq", "q231", "-N", "1", "--format", "json")
    assert json.loads(out) == {"name": "q231", "offset": 0, "values": ["0", "1"]}
    code, out, _ = run(capsys, "seq", "p231", "-N", "3", "--format", "csv", "--json")
    record = json.loads(out)
    assert code == EXIT_OK and record["parameters"]["format"] == "csv"
    assert [(r["label"], r["value"]) for r in record["results"]] == [
        ("0", "1"), ("1", "1"), ("2", "4"), ("3", "17"),
    ]


def test_parser_is_built_once_and_reused(capsys):
    def outcome(argv):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse rejects a command line this way
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    commands = [
        ("count", "--non-nesting", "--avoid", "231", "-n", "3"),
        ("count", "-n", "2"),
        ("count", "--non-crossing", "--avoid", "12", "--first-is-1", "-n", "3", "--json"),
        ("seq", "p231", "-N", "4", "--format", "csv"),
        ("seq", "p231", "-N", "4"),
    ]
    assert build_parser() is build_parser()
    in_a_row = [outcome(argv) for argv in commands]
    fresh = []
    for argv in commands:
        build_parser.cache_clear()
        fresh.append(outcome(argv))
    assert in_a_row == fresh
    assert in_a_row[1][0] == EXIT_USAGE and in_a_row[1][2].startswith("usage:")


def test_series_examples(capsys):
    code, out, _ = run(capsys, "series", "non-nesting", "-N", "5")
    assert code == EXIT_OK and out.strip() == "1 1 4 17 77 367"
    code, out, _ = run(capsys, "series", "non-crossing", "-N", "5")
    assert out.strip() == "1 1 4 19 102 590"


def test_growth_example(capsys):
    code, out, _ = run(capsys, "growth", "non-crossing")
    assert code == EXIT_OK and out.strip() == "7.81774"
    code, out, _ = run(capsys, "growth", "non-nesting")
    assert abs(float(out) - 6.1801) < 1e-3


def test_growth_rejects_tolerance_beyond_rendered_places(capsys):
    code, out, err = run(capsys, "growth", "non-crossing", "--tolerance", "1e-70")
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def _assert_usage_error(code, out, err):
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("which,tolerance", [("non-nesting", "10"), ("non-crossing", "61")])
def test_growth_rejects_tolerance_above_one(capsys, which, tolerance):
    _assert_usage_error(*run(capsys, "growth", which, "--tolerance", tolerance))


@pytest.mark.parametrize("tolerance", ["1e-10000000", "1E+1_0000000"])
def test_growth_rejects_huge_exponent_before_building_it(capsys, tolerance):
    start = time.perf_counter()
    result = run(capsys, "growth", "non-nesting", "--tolerance", tolerance)
    assert time.perf_counter() - start < 0.5
    _assert_usage_error(*result)


def test_growth_exponent_within_bound_reaches_the_range_check(capsys):
    # 100e-62 is 10^-60, the finest tolerance; 1e-61 is one step finer
    code, out, _ = run(capsys, "growth", "non-nesting", "--tolerance", "100e-62")
    assert code == EXIT_OK and len(out.strip().split(".")[1]) == 60
    code, out, err = run(capsys, "growth", "non-nesting", "--tolerance", "1e-61")
    _assert_usage_error(code, out, err)
    assert "finer than 10^-60" in err


@pytest.mark.parametrize("tolerance", ["1", "1/2", "1/10"])
def test_growth_coarse_tolerances_print_a_rate(capsys, tolerance):
    for which, target in (("non-nesting", "6.1801"), ("non-crossing", "7.8177")):
        code, out, _ = run(capsys, "growth", which, "--tolerance", tolerance)
        assert code == EXIT_OK
        assert abs(Fraction(out.strip()) - Fraction(target)) <= Fraction(tolerance), out


@pytest.mark.parametrize("tolerance", ["\uff11/\uff11\uff10", "1/\u0661\u0660", "1e-\uff15"])
def test_growth_rejects_non_ascii_tolerance(capsys, tolerance):
    # fullwidth and Arabic-Indic digits, which Fraction alone would accept
    _assert_usage_error(*run(capsys, "growth", "non-nesting", "--tolerance", tolerance))


def test_ratio_examples(capsys):
    code, out, _ = run(capsys, "ratio", "pbar231", "600", "--places", "5")
    assert code == EXIT_OK and out.strip() == "7.79822"
    code, out, _ = run(capsys, "ratio", "p231", "250", "--places", "3")
    assert out.strip() == "6.143"


def test_ratio_rejects_places_beyond_int_string_limit(capsys):
    limit = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(4300)
        code, out, err = run(capsys, "ratio", "p231", "5", "--places", "4300")
        assert code == EXIT_USAGE and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        # the whole digit, 4298 places and a possible carry fit in 4300 digits
        code, out, _ = run(capsys, "ratio", "p231", "5", "--places", "4298")
        assert code == EXIT_OK and out.startswith("4.766233766")
        sys.set_int_max_str_digits(0)  # no limit
        code, out, _ = run(capsys, "ratio", "p231", "5", "--places", "5000")
        assert code == EXIT_OK and len(out.strip()) == 5002
    finally:
        sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize(
    "argv",
    [
        ("seq", "p231", "-N", "815"),  # p231[815], pbar231[723]: first past 640 digits
        ("seq", "p231", "-N", "815", "--format", "json"),
        ("seq", "pbar231", "-N", "723", "--json"),
        ("series", "non-crossing", "-N", "723"),
        ("seq", "p231", "-N", "815", "--format", "bfile"),
        ("seq", "pbar231", "-N", "723", "--format", "csv"),
    ],
)
def test_values_past_int_string_limit_are_usage_errors(capsys, argv):
    limit = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(640)
        code, out, err = run(capsys, *argv)
        assert code == EXIT_USAGE and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1 and "640" in err
        code, _, _ = run(capsys, *argv[:3], str(int(argv[3]) - 1))  # one lower fits
        assert code == EXIT_OK
    finally:
        sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize(
    "argv",
    [
        ("count", "--non-nesting", "--avoid", "\u00b2", "-n", "2"),
        ("count", "--non-nesting", "--avoid", "\uff12\uff11\uff13", "-n", "2"),
        ("seq", "q122,\u00b2", "-N", "3"),
        ("seq", "q122,\uff12\uff11\uff13", "-N", "3"),
    ],
)
def test_non_ascii_digit_patterns_are_usage_errors(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == EXIT_USAGE and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_verify_quick(capsys):
    code, out, _ = run(capsys, "verify", "--level", "quick")
    assert code == EXIT_OK
    assert "FAIL" not in out
    assert out.count("PASS") >= 8


def test_verify_reports_failures(capsys, monkeypatch):
    def fake_run(level):
        return [
            CheckResult("demo check", False, "n=1, family=p231, expected 1, got 2")
        ]

    monkeypatch.setattr("ncnperms.cli.run_verification", fake_run)
    code, out, err = run(capsys, "verify")
    assert code == EXIT_VERIFY_FAILED
    assert "FAIL: demo check" in out
    assert "expected 1, got 2" in err
    code, out, _ = run(capsys, "verify", "--json")
    assert code == EXIT_VERIFY_FAILED
    (result,) = json.loads(out)["results"]
    assert result["value"] == "fail"
    assert result["detail"] == "n=1, family=p231, expected 1, got 2"


def test_json_record(capsys):
    code, out, _ = run(capsys, "count", "--non-nesting", "--avoid", "231", "-n", "2", "--json")
    record = json.loads(out)
    assert record["command"] == "count"
    assert record["parameters"]["n"] == 2
    assert record["results"][0]["value"] == "4"
    assert record["results"][0]["provenance"] == "BRUTE_FORCE"


@pytest.mark.parametrize("family", FAMILIES)
def test_provenance_names_the_family_route(capsys, family):
    # CLOSED_FORM exactly when the family's row holds a closed form; the
    # later terms of q122,321 are 0, so its ratio is taken at n = 2
    expected = "RECURRENCE" if FAMILIES[family].closed_form is None else "CLOSED_FORM"
    n = "2" if family == "q122,321" else "4"
    for argv in (("seq", family, "-N", "4", "--json"), ("ratio", family, n, "--json")):
        code, out, _ = run(capsys, *argv)
        assert code == EXIT_OK
        assert {r["provenance"] for r in json.loads(out)["results"]} == {expected}


@pytest.mark.parametrize("family", FAMILIES)
def test_seq_formats_round_trip_every_family(capsys, family):
    table = family_table(family, 10)
    for fmt, emit in EMITTERS.items():
        code, out, _ = run(capsys, "seq", family, "-N", "10", "--format", fmt)
        assert code == EXIT_OK and out == emit(table)
        name = family if fmt == "json" else None
        assert decoded(fmt, out) == (name, list(table.items())), fmt


def test_export_is_not_a_command(capsys):
    with pytest.raises(SystemExit) as info:
        main(["export", "p231", "-N", "2"])
    assert info.value.code == EXIT_USAGE
    assert "invalid choice: 'export'" in capsys.readouterr().err
    (commands,) = (
        action.choices
        for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    assert list(commands) == ["count", "seq", "series", "growth", "ratio", "verify"]


def _checkout_env():
    """The environment of a child process that imports this checkout's sources,
    with Python's default buffered stdout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(ROOT / "src"), env.get("PYTHONPATH"))))
    env.pop("PYTHONUNBUFFERED", None)
    return env


def _start_cli(argv, stdout, unbuffered):
    """The console script's code path, ``entry_point``, in a child process,
    with the default buffered stdout or with PYTHONUNBUFFERED=1, where the
    binary layer under stdout is the raw file and may take only part of a
    write."""
    env = _checkout_env()
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return subprocess.Popen(
        [sys.executable, "-c", "from ncnperms.cli import entry_point; entry_point()", *argv],
        stdout=stdout,
        stderr=subprocess.PIPE,
        env=env,
    )


def _assert_stdout_error(proc, code):
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == EXIT_IO
    # one line, and no "Traceback" or "Exception ignored" from the final flush
    assert err.decode() == f"error: [Errno {code}] {os.strerror(code)}\n"


def test_closed_stdout_pipe_exits_4_with_one_error_line():
    for unbuffered in (False, True):
        # the reader takes the first 4 KB of about 400 KB of b-file, then closes
        read_end, write_end = os.pipe()
        argv = ("seq", "p231", "-N", "1000", "--format", "bfile")
        proc = _start_cli(argv, write_end, unbuffered)
        os.close(write_end)
        with open(read_end, "rb") as pipe:
            head = pipe.read(4096)
        assert head.decode() == to_bfile(family_table("p231", 1000))[:4096]
        _assert_stdout_error(proc, errno.EPIPE)
        # a pipe closed before the first write
        read_end, write_end = os.pipe()
        os.close(read_end)
        proc = _start_cli(("verify",), write_end, unbuffered)
        os.close(write_end)
        _assert_stdout_error(proc, errno.EPIPE)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_full_disk_on_stdout_exits_4_with_one_error_line():
    for unbuffered in (False, True):
        with open("/dev/full", "wb") as full:
            proc = _start_cli(("seq", "p231", "-N", "10"), full, unbuffered)
        _assert_stdout_error(proc, errno.ENOSPC)


def test_python_dash_m_runs_the_cli():
    def run_module(*argv):
        return subprocess.run(
            [sys.executable, "-m", "ncnperms", *argv],
            capture_output=True,
            text=True,
            env=_checkout_env(),
            timeout=60,
        )

    done = run_module("seq", "p231", "-N", "5")
    assert (done.returncode, done.stdout, done.stderr) == (EXIT_OK, "1 1 4 17 77 367\n", "")
    done = run_module("seq", "nosuch", "-N", "5")
    assert (done.returncode, done.stdout) == (EXIT_USAGE, "")
    assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1


def test_readme_cli_examples(capsys):
    # each `ncnperms ...` line of the README's CLI block exits 0; a trailing
    # "# ... -> value" comment is its exact stdout
    readme = (ROOT / "README.md").read_text()
    block = readme.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [line for line in block.splitlines() if line.startswith("ncnperms ")]
    assert len(lines) >= 10
    for line in lines:
        command, _, comment = line.partition("#")
        code, out, err = run(capsys, *shlex.split(command)[1:])
        assert code == EXIT_OK, (line, err)
        if "->" in comment:
            assert out.strip() == comment.split("->", 1)[1].strip(), line


def test_readme_library_example():
    # the README's Library block runs as written; each expression statement
    # with a trailing "# value" comment evaluates to an object of that repr
    readme = (ROOT / "README.md").read_text()
    block = readme.split("\n## Library\n", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    lines = block.splitlines()
    namespace: dict = {}
    checked = 0
    for statement in ast.parse(block).body:
        source = ast.get_source_segment(block, statement)
        if not isinstance(statement, ast.Expr):
            exec(source, namespace)
            continue
        result = eval(source, namespace)
        comment = lines[statement.end_lineno - 1][statement.end_col_offset :].strip()
        if comment.startswith("#"):
            assert repr(result) == comment[1:].strip(), source
            checked += 1
    assert checked >= 4
