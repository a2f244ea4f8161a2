"""Exhaustive generation of shapes and labeled words, and the brute-force
counts built on them.

This module is the brute-force counting route.  It exists to cross-validate
the recurrence and series routes, so it takes no shortcut through the
structure of avoiders: :func:`shapes` yields every matching the discipline
allows, and every one of a shape's n! labelings is decided.
:func:`count_by_constraint` decides them all at once, as bitsets over the
labelings of one shape (bit i for the i-th labeling in ``permutations``
order), and builds no word.  :func:`labeled_words` produces every word one
at a time; with ``patterns.contains`` it is the deliberately independent
per-word route that the structure checks in ``verify`` and the tests use.

Shape and word streams are deterministic: the same call always yields the
same sequence in the same order.
"""

from __future__ import annotations

import math
from functools import cache, reduce
from itertools import permutations
from operator import or_
from typing import Hashable, Iterable, Iterator, Mapping

from .core import Constraint, Discipline, ResourceLimitError, ValidationError, Word
from .patterns import Pattern, occurrence_arcs

ENUMERATION_CAP = 7


class EnumerationCapError(ResourceLimitError):
    """Brute force refused: the requested size exceeds the enumeration cap.

    Callers wanting larger indices should use the recurrences module.
    """


Shape = tuple[tuple[int, int], ...]


def shapes(n: int, discipline: Discipline) -> Iterator[Shape]:
    """Every matching of [2n] the discipline allows, each as its (opener,
    closer) position pairs sorted by opener.

    The walk reads one Dyck word per shape, in lexicographic order (OPEN <
    CLOSE), and pairs each CLOSE step as it goes: with the latest unmatched
    opener under NON_CROSSING (stack order) or the earliest under
    NON_NESTING (queue order).

    >>> list(shapes(2, Discipline.NON_CROSSING))
    [((1, 4), (2, 3)), ((1, 2), (3, 4))]
    >>> list(shapes(2, Discipline.NON_NESTING))
    [((1, 3), (2, 4)), ((1, 2), (3, 4))]
    """
    if n < 0:
        raise ValidationError("semilength must be non-negative")
    latest = discipline is Discipline.NON_CROSSING
    pairs: list[tuple[int, int]] = []

    def walk(pos: int, opens: int, pending: tuple[int, ...]) -> Iterator[Shape]:
        if pos > 2 * n:
            yield tuple(sorted(pairs))
            return
        if opens < n:
            yield from walk(pos + 1, opens + 1, pending + (pos,))
        if pending:
            if latest:
                opener, rest = pending[-1], pending[:-1]
            else:
                opener, rest = pending[0], pending[1:]
            pairs.append((opener, pos))
            yield from walk(pos + 1, opens, rest)
            pairs.pop()

    return walk(1, 0, ())


def labeled_words(n: int, discipline: Discipline) -> Iterator[Word]:
    """Every non-crossing (or non-nesting) word of semilength n, exactly once.

    Each of the C(n) shapes is labeled in all n! ways, the k-th label going
    to both ends of the k-th arc, which yields the n! * C(n) words of the
    family.
    """
    labelings = list(permutations(range(1, n + 1)))
    for pairs in shapes(n, discipline):
        entries = [0] * (2 * n)
        for labels in labelings:
            for (a, b), lab in zip(pairs, labels):
                entries[a - 1] = entries[b - 1] = lab
            yield Word(tuple(entries))


@cache
def _equality_class(pattern: Pattern) -> tuple[Pattern, tuple[int, ...]]:
    """The pattern's letters renumbered in order of first occurrence, which
    fits exactly the same arcs, and for each of the pattern's own letters
    1, 2, ..., m the index of its arc in the class's :func:`occurrence_arcs`
    tuples.

    >>> _equality_class(Pattern.parse("231"))
    (Pattern(letters=(1, 2, 3)), (2, 0, 1))
    >>> _equality_class(Pattern.parse("221"))
    (Pattern(letters=(1, 1, 2)), (1, 0))
    """
    renumber = {letter: i for i, letter in enumerate(dict.fromkeys(pattern.letters))}
    cls = Pattern(tuple(renumber[letter] + 1 for letter in pattern.letters))
    return cls, tuple(renumber[letter] for letter in range(1, len(renumber) + 1))


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
    for every set.  A pattern's equality class, its letters renumbered in
    order of first occurrence (231, 132, ..., 321 all give 123), fits
    exactly the same arcs, so per shape :func:`occurrence_arcs` runs once
    per class.  Each pattern's "contains" bitset is then the OR, over the
    class's arc tuples read in the pattern's own letter order, of the
    labelings rising along the arcs; a set's avoiders are the labelings
    outside all its patterns' bitsets.

    Raises EnumerationCapError beyond ``cap`` (default 7).  Each of the C(n)
    shapes ANDs and ORs n!-bit integers once per arc map of each pattern, so
    the cost grows about tenfold per step in n: all 12 length-3 patterns
    take about 0.25 s per discipline at n = 7 and 3 s at n = 8 on a
    2-vCPU machine with Python 3.11.
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
    # each pattern as the index of its class and the (j, k) index pairs into
    # the class's arc tuples whose labels must rise, one pair per step from
    # letter i to i+1
    equality = [_equality_class(pattern) for pattern in patterns]
    classes = list(dict.fromkeys(cls for cls, _ in equality))
    plans = [(classes.index(cls), tuple(zip(order, order[1:]))) for cls, order in equality]
    totals = {key: dict.fromkeys(Constraint, 0) for key in families}
    less, has = _labeling_masks(n)
    everything = (1 << math.factorial(n)) - 1
    first = has[0][1] if n else 0  # arc 0 opens at position 1
    for pairs in shapes(n, discipline):
        # the arc closing at position 2n holds the last entry
        last = next((has[k][n] for k, (_, closer) in enumerate(pairs) if closer == 2 * n), 0)
        within = {
            Constraint.NONE: everything,
            Constraint.FIRST_IS_1: first,
            Constraint.LAST_IS_N: last,
            Constraint.BOTH: first & last,
        }
        fits = [list(occurrence_arcs(cls, pairs)) for cls in classes]
        contained = [0] * len(patterns)
        for i, (c, steps) in enumerate(plans):
            for arcs in fits[c]:
                rising = everything
                for j, k in steps:
                    rising &= less[arcs[j]][arcs[k]]
                contained[i] |= rising
        for counts, family in zip(totals.values(), members):
            avoiding = everything & ~reduce(or_, (contained[i] for i in family), 0)
            for constraint, mask in within.items():
                counts[constraint] += (avoiding & mask).bit_count()
    return totals if several else totals[None]
