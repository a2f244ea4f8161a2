"""Exhaustive generation of Dyck words, matchings, and labeled words.

This module is the brute-force counting route: produce every word of a
discipline, filter, count.  It exists to cross-validate the recurrence and
series routes, so it stays deliberately simple -- shapes come from Dyck
words, labels from plain permutations, and nothing is pruned.

Word streams are deterministic: the same call always yields the same
sequence in the same order.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import permutations
from typing import Hashable, Iterable, Iterator, Mapping

from .core import (
    Discipline,
    DyckWord,
    ResourceLimitError,
    Step,
    ValidationError,
    Word,
    pair_steps,
    shape_words,
)
from .patterns import Pattern, contains

ENUMERATION_CAP = 7


class EnumerationCapError(ResourceLimitError):
    """Brute force refused: the requested size exceeds the enumeration cap.

    Callers wanting larger indices should use the recurrences module.
    """


class Constraint(Enum):
    """Positional restriction applied on top of pattern avoidance."""

    NONE = "none"
    FIRST_IS_1 = "first-is-1"
    LAST_IS_N = "last-is-n"
    BOTH = "first-is-1-and-last-is-n"


@dataclass(frozen=True)
class CountQuery:
    semilength: int
    discipline: Discipline
    forbidden: frozenset[Pattern] = frozenset()
    constraint: Constraint = Constraint.NONE

    def __post_init__(self) -> None:
        object.__setattr__(self, "forbidden", frozenset(self.forbidden))
        if self.semilength < 0:
            raise ValidationError("semilength must be non-negative")


def dyck_words(n: int) -> Iterator[DyckWord]:
    """All Dyck words of semilength n, in lexicographic order (OPEN < CLOSE).

    >>> sum(1 for _ in dyck_words(3))
    5
    """
    if n < 0:
        raise ValidationError("semilength must be non-negative")
    steps: list[Step] = []

    def emit(opens: int, closes: int) -> Iterator[DyckWord]:
        if opens == n and closes == n:
            yield DyckWord(tuple(steps))
            return
        if opens < n:
            steps.append(Step.OPEN)
            yield from emit(opens + 1, closes)
            steps.pop()
        if closes < opens:
            steps.append(Step.CLOSE)
            yield from emit(opens, closes + 1)
            steps.pop()

    yield from emit(0, 0)


def labeled_words(n: int, discipline: Discipline) -> Iterator[Word]:
    """Every non-crossing (or non-nesting) word of semilength n, exactly once.

    Each Dyck word fixes an unlabeled matching through the discipline's
    pairing rule; running through all n! labelings of its arcs then yields
    the n! * C(n) words of the family.
    """
    labelings = list(permutations(range(1, n + 1)))
    for dyck in dyck_words(n):
        yield from shape_words(pair_steps(dyck, discipline), labelings)


def count_by_constraint(
    n: int,
    discipline: Discipline,
    forbidden: Iterable[Pattern] | Mapping[Hashable, Iterable[Pattern]] = (),
    cap: int = ENUMERATION_CAP,
) -> dict:
    """Counts of pattern-avoiding words under all four positional constraints,
    from a single enumeration pass.

    ``forbidden`` is one set of patterns, giving ``{constraint: count}``, or a
    mapping from keys to several sets, giving ``{key: {constraint: count}}``
    for every set from the same pass.  Each pattern is tested at most once
    per word, and a set stops at its first contained pattern.
    """
    if n > cap:
        raise EnumerationCapError(
            f"semilength {n} exceeds the enumeration cap {cap}; "
            "use the recurrence tables instead"
        )
    several = isinstance(forbidden, Mapping)
    families = {
        key: tuple(family)
        for key, family in (forbidden.items() if several else [(None, forbidden)])
    }
    patterns = list(dict.fromkeys(p for family in families.values() for p in family))
    members = [[patterns.index(p) for p in family] for family in families.values()]
    # tallies[f][2 * first_is_1 + last_is_n]: avoiders of family f by endpoints
    tallies = [[0] * 4 for _ in members]
    for word in labeled_words(n, discipline):
        entries = word.entries
        cell = 2 * (bool(entries) and entries[0] == 1) + (bool(entries) and entries[-1] == n)
        found: list[bool | None] = [None] * len(patterns)
        for family, tally in zip(members, tallies):
            for i in family:
                if found[i] is None:
                    found[i] = contains(word, patterns[i])
                if found[i]:
                    break
            else:
                tally[cell] += 1
    totals = {
        key: {
            Constraint.NONE: sum(tally),
            Constraint.FIRST_IS_1: tally[2] + tally[3],
            Constraint.LAST_IS_N: tally[1] + tally[3],
            Constraint.BOTH: tally[3],
        }
        for key, tally in zip(families, tallies)
    }
    return totals if several else totals[None]


def count_avoiders(query: CountQuery, cap: int = ENUMERATION_CAP) -> int:
    """Exact number of words matching the query, by exhaustive enumeration.

    Raises EnumerationCapError beyond the cap (default 7): the word count
    grows like n! * C(n), so enumeration stops being an oracle around there.
    """
    totals = count_by_constraint(query.semilength, query.discipline, query.forbidden, cap)
    return totals[query.constraint]
