"""Serialization of sequence tables: b-file, CSV, and JSON.

The b-file form is the plain-text sequence exchange format: one "index value"
pair per line, newline-terminated, no header.  All values are written as
exact decimal integer strings regardless of size.
"""

from __future__ import annotations

import json

from .core import ValidationError
from .recurrences import SequenceTable


def _read_count(field: object, where: str) -> int:
    """A non-negative integer written in ASCII digits (a JSON int counts as
    its digits); anything else raises ValidationError naming ``where``."""
    text = str(field) if type(field) is int else field
    if not (isinstance(text, str) and text.isascii() and text.isdigit()):
        raise ValidationError(f"{where}: {field!r} is not a decimal integer")
    try:
        return int(text)
    except ValueError as exc:  # more digits than sys.get_int_max_str_digits()
        raise ValidationError(f"{where}: {exc}") from exc


def _numbered_lines(text: str) -> list[tuple[int, str]]:
    """Non-blank lines, stripped, with their 1-based line numbers."""
    lines = enumerate(text.splitlines(), start=1)
    return [(k, line.strip()) for k, line in lines if line.strip()]


def _parse_rows(
    rows: list[tuple[int, str]], sep: str | None, name: str, source: str
) -> SequenceTable:
    indices: list[int] = []
    values: list[int] = []
    for lineno, line in rows:
        where = f"{source} line {lineno}"
        parts = line.split(sep)
        if len(parts) != 2:
            raise ValidationError(f"{where} is not 'n{sep or ' '}value': {line!r}")
        indices.append(_read_count(parts[0], where))
        values.append(_read_count(parts[1], where))
    if not values:
        raise ValidationError(f"{source} holds no entries")
    first = indices[0]
    if indices != list(range(first, first + len(indices))):
        raise ValidationError(f"{source} indices must be consecutive")
    return SequenceTable(name, tuple(values), first_index=first)


def to_bfile(table: SequenceTable) -> str:
    return "".join(f"{n} {v}\n" for n, v in table.items())


def parse_bfile(text: str, name: str = "") -> SequenceTable:
    return _parse_rows(_numbered_lines(text), None, name, "b-file")


def to_csv(table: SequenceTable) -> str:
    return "n,value\n" + "".join(f"{n},{v}\n" for n, v in table.items())


def parse_csv(text: str, name: str = "") -> SequenceTable:
    rows = _numbered_lines(text)
    if not rows or rows[0][1] != "n,value":
        raise ValidationError("CSV must start with the header 'n,value'")
    return _parse_rows(rows[1:], ",", name, "CSV")


def to_json(table: SequenceTable) -> str:
    obj = {
        "name": table.name,
        "offset": table.first_index,
        "values": [str(v) for v in table.values],
    }
    return json.dumps(obj, indent=None, separators=(",", ":")) + "\n"


def parse_json(text: str) -> SequenceTable:
    try:
        obj = json.loads(text)
    except ValueError as exc:  # malformed, or an int past the digit limit
        raise ValidationError(f"bad JSON table: {exc}") from exc
    try:
        name, values, offset = str(obj["name"]), obj["values"], obj["offset"]
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"JSON table missing field: {exc}") from exc
    if not isinstance(values, list):
        raise ValidationError("JSON values must be a list")
    return SequenceTable(
        name,
        tuple(_read_count(v, f"JSON values[{k}]") for k, v in enumerate(values)),
        first_index=_read_count(offset, "JSON offset"),
    )


EMITTERS = {"bfile": to_bfile, "csv": to_csv, "json": to_json}
EXTENSIONS = {"bfile": "txt", "csv": "csv", "json": "json"}
