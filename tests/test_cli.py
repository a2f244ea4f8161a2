import json
import sys

import pytest

from ncnperms.cli import (
    EXIT_IO,
    EXIT_OK,
    EXIT_RESOURCE,
    EXIT_USAGE,
    EXIT_VERIFY_FAILED,
    main,
)
from ncnperms.formats import parse_bfile, parse_csv, parse_json
from ncnperms.recurrences import family_table
from ncnperms.verify import CheckResult


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
    code, _, err = run(capsys, "seq", "z999", "-N", "5")
    assert code == EXIT_USAGE
    assert "unknown sequence family" in err


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
        ("export", "p231", "-N", "815"),
        ("export", "pbar231", "-N", "723", "--format", "csv"),
    ],
)
def test_values_past_int_string_limit_are_usage_errors(capsys, tmp_path, monkeypatch, argv):
    monkeypatch.setenv("NCNPERMS_OUTPUT_DIR", str(tmp_path))
    limit = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(640)
        code, out, err = run(capsys, *argv)
        assert code == EXIT_USAGE and out == "" and list(tmp_path.iterdir()) == []
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


def test_json_record(capsys):
    code, out, _ = run(capsys, "count", "--non-nesting", "--avoid", "231", "-n", "2", "--json")
    record = json.loads(out)
    assert record["command"] == "count"
    assert record["parameters"]["n"] == 2
    assert record["results"][0]["value"] == "4"
    assert record["results"][0]["provenance"] == "BRUTE_FORCE"


def test_export_bfile(capsys, tmp_path):
    target = tmp_path / "p231.txt"
    code, out, _ = run(capsys, "export", "p231", "-N", "2", "-o", str(target))
    assert code == EXIT_OK
    assert target.read_text() == "0 1\n1 1\n2 4\n"
    assert str(target) in out


def test_export_round_trip(capsys, tmp_path):
    for fmt, parser in (("bfile", parse_bfile), ("csv", parse_csv), ("json", parse_json)):
        target = tmp_path / f"q231.{fmt}"
        code, _, _ = run(capsys, "export", "q231", "-N", "10", "--format", fmt, "-o", str(target))
        assert code == EXIT_OK
        if fmt == "json":
            parsed = parser(target.read_text())
        else:
            parsed = parser(target.read_text(), name="q231")
        assert parsed == family_table("q231", 10)


def test_export_default_path_uses_env_dir(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("NCNPERMS_OUTPUT_DIR", str(tmp_path))
    code, out, _ = run(capsys, "export", "q122,213", "-N", "5", "--format", "csv")
    assert code == EXIT_OK
    written = tmp_path / "q122_213_N5.csv"
    assert written.exists()
    assert parse_csv(written.read_text(), name="q122,213") == family_table("q122,213", 5)


def test_export_io_failure(capsys, tmp_path):
    missing = tmp_path / "no" / "such" / "dir" / "out.txt"
    code, _, err = run(capsys, "export", "p231", "-N", "2", "-o", str(missing))
    assert code == EXIT_IO
    assert "error" in err
