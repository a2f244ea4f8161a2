import json

import pytest

from ncnperms.core import ValidationError
from ncnperms.formats import (
    parse_bfile,
    parse_csv,
    parse_json,
    to_bfile,
    to_csv,
    to_json,
)
from ncnperms.recurrences import FAMILIES, SequenceTable, family_table


def test_bfile_exact_form():
    assert to_bfile(family_table("p231", 2)) == "0 1\n1 1\n2 4\n"


def test_csv_exact_form():
    assert to_csv(family_table("pbar231", 3)) == "n,value\n0,1\n1,1\n2,4\n3,19\n"


def test_json_exact_form():
    obj = json.loads(to_json(family_table("q231", 1)))
    assert obj == {"name": "q231", "offset": 0, "values": ["0", "1"]}


def test_json_offset_for_closed_forms():
    obj = json.loads(to_json(family_table("q122,213", 5)))
    assert obj == {"name": "q122,213", "offset": 1, "values": ["1", "2", "3", "5", "8"]}


@pytest.mark.parametrize("family", FAMILIES)
def test_round_trips_every_family(family):
    table = family_table(family, 20)
    assert parse_bfile(to_bfile(table), name=family) == table
    assert parse_csv(to_csv(table), name=family) == table
    assert parse_json(to_json(table)) == table


def test_round_trip_preserves_offset():
    table = SequenceTable("demo", (7, 8, 9), first_index=3)
    assert parse_bfile(to_bfile(table), name="demo").first_index == 3
    assert parse_csv(to_csv(table), name="demo").first_index == 3
    assert parse_json(to_json(table)).first_index == 3


def test_bfile_parse_errors():
    with pytest.raises(ValidationError):
        parse_bfile("")
    with pytest.raises(ValidationError):
        parse_bfile("0 1 2\n")
    with pytest.raises(ValidationError):
        parse_bfile("0 1\n2 4\n")  # gap in indices
    # ASCII digits only, and a bad field names its line
    for bad in ("0 \uff11", "0 1_0", "0 x", "0 -1", "\u00b2 1", "0 1.5", "0 " + "1" * 5000):
        with pytest.raises(ValidationError, match="line 2"):
            parse_bfile(f"0 1\n{bad}\n")


def test_csv_parse_errors():
    with pytest.raises(ValidationError):
        parse_csv("value\n0,1\n")
    with pytest.raises(ValidationError):
        parse_csv("n,value\n")
    for bad in ("0,\uff11", "0,1_0", "0,abc", "0", "0,1,2", "\uff10,1"):
        with pytest.raises(ValidationError, match="line 3"):
            parse_csv(f"n,value\n0,1\n{bad}\n")


def test_json_parse_errors():
    with pytest.raises(ValidationError):
        parse_json("{not json")
    with pytest.raises(ValidationError):
        parse_json('{"name": "x"}')
    cases = ((["\uff11"], 0), (["1_0"], 0), ([1.5], 0), ("12", 0), (["1"], "x"))
    for values, offset in cases:
        text = json.dumps({"name": "x", "offset": offset, "values": values})
        with pytest.raises(ValidationError, match="JSON"):
            parse_json(text)
