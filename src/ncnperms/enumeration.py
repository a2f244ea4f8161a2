"""Exhaustive generation of Dyck words, matchings, and labeled words, and
the brute-force counts built on them.

This module is the brute-force counting route.  It exists to cross-validate
the recurrence and series routes, so it takes no shortcut through the
structure of avoiders: shapes come from Dyck words, and every one of a
shape's n! labelings is decided.  :func:`count_by_constraint` decides them
all at once, as bitsets over the labelings of one shape (bit i for the i-th
labeling in ``permutations`` order), and builds no word.
:func:`labeled_words` produces every word one at a time; with
``patterns.contains`` it is the deliberately independent per-word route that
the structure checks in ``verify`` and the tests use.

Word streams are deterministic: the same call always yields the same
sequence in the same order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cache, reduce
from itertools import permutations
from operator import or_
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
from .patterns import Pattern, occurrence_arcs

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


@cache
def _labeling_masks(n: int) -> tuple[tuple, tuple]:
    """Bitsets over the n! labelings of n arcs, bit i standing for the i-th
    labeling in ``permutations(range(1, n + 1))`` order: ``less[a][b]`` marks
    the labelings in which arc a's label is below arc b's, ``has[k][v]``
    those in which arc k has label v.
    """
    # digit_if[v] turns byte v into ASCII "1" and every other byte into "0"
    digit_if = [bytes(49 if c == v else 48 for c in range(256)) for v in range(n + 1)]
    has = []
    for k in range(n):
        # column k of the labelings, reversed so that the i-th labeling lands
        # on bit i of int(..., 2)
        column = bytes(labels[k] for labels in permutations(range(1, n + 1)))[::-1]
        has.append(tuple(int(column.translate(digit_if[v]), 2) for v in range(n + 1)))
    increasing = [(v, w) for v in range(1, n + 1) for w in range(v + 1, n + 1)]
    less = tuple(
        tuple(reduce(or_, (has[a][v] & has[b][w] for v, w in increasing), 0) for b in range(n))
        for a in range(n)
    )
    return less, tuple(has)


def count_by_constraint(
    n: int,
    discipline: Discipline,
    forbidden: Iterable[Pattern] | Mapping[Hashable, Iterable[Pattern]] = (),
    cap: int = ENUMERATION_CAP,
) -> dict:
    """Counts of pattern-avoiding words under all four positional constraints,
    deciding all n! labelings of one shape at once.

    ``forbidden`` is one set of patterns, giving ``{constraint: count}``, or a
    mapping from keys to several sets, giving ``{key: {constraint: count}}``
    for every set.  Per shape, each pattern's "contains" bitset is the OR,
    over its :func:`occurrence_arcs`, of the labelings rising along the arcs;
    a set's avoiders are the labelings outside all its patterns' bitsets.
    """
    if n < 0:
        raise ValidationError("semilength must be non-negative")
    if cap < 0:
        raise ValidationError(f"enumeration cap must be non-negative, got {cap}")
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
    totals = {key: dict.fromkeys(Constraint, 0) for key in families}
    less, has = _labeling_masks(n)
    everything = (1 << math.factorial(n)) - 1
    first = has[0][1] if n else 0  # arc 0 opens at position 1
    for dyck in dyck_words(n):
        pairs = pair_steps(dyck, discipline)
        # the arc closing at position 2n holds the last entry
        last = next((has[k][n] for k, (_, closer) in enumerate(pairs) if closer == 2 * n), 0)
        within = {
            Constraint.NONE: everything,
            Constraint.FIRST_IS_1: first,
            Constraint.LAST_IS_N: last,
            Constraint.BOTH: first & last,
        }
        contained = [0] * len(patterns)
        for i, pattern in enumerate(patterns):
            for arcs in occurrence_arcs(pattern, pairs):
                rising = everything
                for a, b in zip(arcs, arcs[1:]):
                    rising &= less[a][b]
                contained[i] |= rising
        for key, family in zip(families, members):
            avoiding = everything & ~reduce(or_, (contained[i] for i in family), 0)
            for constraint, mask in within.items():
                totals[key][constraint] += (avoiding & mask).bit_count()
    return totals if several else totals[None]


def count_avoiders(query: CountQuery, cap: int = ENUMERATION_CAP) -> int:
    """Exact number of words matching the query, by exhaustive enumeration.

    Raises EnumerationCapError beyond the cap (default 7).  Each of the C(n)
    shapes ANDs and ORs n!-bit integers once per arc map of each pattern, so
    the cost grows about tenfold per step in n: well under a second at
    n = 7, a few seconds at n = 8.
    """
    totals = count_by_constraint(query.semilength, query.discipline, query.forbidden, cap)
    return totals[query.constraint]
