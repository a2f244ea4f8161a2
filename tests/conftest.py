from __future__ import annotations

import json
from typing import Iterator


def all_words(n: int) -> Iterator[tuple[int, ...]]:
    """Every permutation of the multiset {1,1,...,n,n}, as entry tuples."""
    remaining = [2] * (n + 1)
    entries: list[int] = []
    total = 2 * n

    def emit() -> Iterator[tuple[int, ...]]:
        if len(entries) == total:
            yield tuple(entries)
            return
        for lab in range(1, n + 1):
            if remaining[lab]:
                remaining[lab] -= 1
                entries.append(lab)
                yield from emit()
                entries.pop()
                remaining[lab] += 1

    return emit()


def arc_pairs(entries: tuple[int, ...]) -> tuple[tuple[int, int], ...]:
    """The (opener, closer) positions of each label of a word, sorted by
    opener: the word's shape, read back from its entries."""
    where: dict[int, list[int]] = {}
    for pos, lab in enumerate(entries, start=1):
        where.setdefault(lab, []).append(pos)
    return tuple(sorted((first, second) for first, second in where.values()))


def arcs_cross(p: tuple[int, int], q: tuple[int, int]) -> bool:
    (a, b), (c, d) = p, q
    return a < c < b < d or c < a < d < b


def arcs_nest(p: tuple[int, int], q: tuple[int, int]) -> bool:
    (a, b), (c, d) = p, q
    return a < c < d < b or c < a < b < d


def decoded(fmt: str, text: str) -> tuple[str | None, list[tuple[int, int]]]:
    """The name and the (index, value) rows of a table emitted as b-file,
    CSV or JSON text, read back with ``str.split`` and ``int`` or with
    ``json.loads``.  The b-file and CSV forms carry no name, so it is None
    there, and a CSV must open with its "n,value" header."""
    if fmt == "json":
        obj = json.loads(text)
        return obj["name"], list(enumerate(map(int, obj["values"]), obj["offset"]))
    lines = text.splitlines()
    if fmt == "csv":
        assert lines.pop(0) == "n,value"
    sep = "," if fmt == "csv" else None
    return None, [tuple(map(int, line.split(sep))) for line in lines]
