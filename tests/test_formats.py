import json

import pytest

from ncnperms.formats import EMITTERS, to_bfile, to_csv, to_json
from ncnperms.recurrences import FAMILIES, SequenceTable, family_table

from conftest import decoded


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


@pytest.mark.parametrize(
    "table",
    [*(family_table(family, 20) for family in FAMILIES), SequenceTable("demo", (7, 8, 9), 3)],
    ids=lambda table: table.name,
)
def test_round_trips_every_family(table):
    for fmt, emit in EMITTERS.items():
        name = table.name if fmt == "json" else None
        assert decoded(fmt, emit(table)) == (name, list(table.items())), fmt
