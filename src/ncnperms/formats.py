"""Serialization of sequence tables: b-file, CSV, and JSON.

The package only writes tables; nothing in it reads one back.  The b-file
form is the plain-text sequence exchange format: one "index value" pair per
line, newline-terminated, no header.  All values are written as exact
decimal integer strings regardless of size.
"""

from __future__ import annotations

import json

from .recurrences import SequenceTable


def to_bfile(table: SequenceTable) -> str:
    return "".join(f"{n} {v}\n" for n, v in table.items())


def to_csv(table: SequenceTable) -> str:
    return "n,value\n" + "".join(f"{n},{v}\n" for n, v in table.items())


def to_json(table: SequenceTable) -> str:
    obj = {
        "name": table.name,
        "offset": table.first_index,
        "values": [str(v) for v in table.values],
    }
    return json.dumps(obj, indent=None, separators=(",", ":")) + "\n"


EMITTERS = {"bfile": to_bfile, "csv": to_csv, "json": to_json}
