"""Cross-validation: every number this package produces is computed at least
two independent ways, and this module runs the comparisons.

Routes compared: brute-force enumeration, the recurrence tables (convolution
systems continued by P-recursive recurrences), the implicit-equation series
solver, and the closed forms, each table built by ``family_table`` as ``seq``
prints it.  On top of the value comparisons there are structural checks on
the enumerated words themselves: what may happen inside the window spanned
by the largest label, on the 231-avoiders that ``avoiding_words`` reads off
the oracle's bitsets, and which labelings of a non-crossing matching avoid
122, by the per-word route (every word, searched by ``patterns.contains``)
against the closed form of one avoider per shape.

Every check runs in the calling process, in a fixed order.
"""

from __future__ import annotations

import math
from enum import Enum
from itertools import groupby
from typing import Iterable, Mapping, NamedTuple

from .core import Constraint, Discipline, Word
from .enumeration import avoiding_words, count_by_constraint, labeled_words
from .patterns import contains
from .recurrences import (
    FAMILIES,
    NONCROSSING_231,
    NONNESTING_231,
    PATTERN_122,
    PATTERN_231,
    SequenceTable,
    catalan,
    family_table,
    qbar_via_compositions,
    right_sides,
)
from .series import builtin_equation, residual, solve_algebraic


class Level(Enum):
    QUICK = "quick"
    FULL = "full"


class CheckResult(NamedTuple):
    name: str
    passed: bool
    detail: str = ""


# ---------------------------------------------------------------------------
# Structural checks on single words
# ---------------------------------------------------------------------------


def _window_scan(word: Word) -> tuple[list[int], list[int], tuple, tuple]:
    """For the window strictly between the two positions of the largest
    label: the labels of arcs that open before it and close inside it, the
    labels of arcs that open inside it and close after it, and the entries
    left and right of the window.
    """
    n, entries = word.semilength, word.entries
    if n == 0:
        return [], [], (), ()
    i = entries.index(n) + 1
    j = entries.index(n, i) + 1
    closing: list[int] = []
    opening: list[int] = []
    seen: dict[int, int] = {}
    for pos, lab in enumerate(entries, start=1):
        if lab in seen:
            if seen[lab] < i < pos < j:
                closing.append(lab)
            elif i < seen[lab] < j < pos:
                opening.append(lab)
        else:
            seen[lab] = pos
    return closing, opening, entries[: i - 1], entries[j:]


def window_traffic_ok(word: Word) -> bool:
    """At most one arc closes and at most one opens strictly between the two
    positions of the largest label.  Holds for every 231-avoiding
    non-nesting word.
    """
    closing, opening, _, _ = _window_scan(word)
    return len(closing) <= 1 and len(opening) <= 1


def window_extremes_ok(word: Word) -> bool:
    """An arc closing strictly inside the largest-label window carries the
    largest label seen before the window; one opening inside carries the
    smallest label seen after it.  Holds for every 231-avoiding non-nesting
    word.
    """
    closing, opening, left, right = _window_scan(word)
    return all(lab == max(left) for lab in closing) and all(
        lab == min(right) for lab in opening
    )


def decreasing_labeling_is_unique_122_avoider(n: int) -> bool:
    """For every non-crossing matching shape of semilength n, exactly one of
    the n! labelings avoids 122, and it labels arcs in decreasing opener
    order (first-opened arc gets n).

    Each shape has exactly one such labeling, so this holds iff there are
    catalan(n) 122-avoiders and in each one the labels first appear in the
    order n, n-1, ..., 1.
    """
    decreasing = list(range(n, 0, -1))
    avoiders = 0
    for word in labeled_words(n, Discipline.NON_CROSSING):
        if contains(word, PATTERN_122):
            continue
        avoiders += 1
        if list(dict.fromkeys(word.entries)) != decreasing:
            return False
    return avoiders == catalan(n)


# ---------------------------------------------------------------------------
# The verification run
# ---------------------------------------------------------------------------


def _first_mismatch(
    rows: Iterable[tuple[str, object, object]], values: bool = True
) -> str:
    """Detail for the first (label, expected, got) row whose values differ,
    or "" when all agree.  Rows are pulled lazily, so a check stops working
    at its first mismatch; ``values=False`` reports the label alone.  A row
    that reads past the end of a table fails the check with the table's
    IndexError, which names the family and the first missing index.
    """
    try:
        for label, expected, got in rows:
            if expected != got:
                return f"{label}, expected {expected}, got {got}" if values else label
    except IndexError as exc:
        return str(exc)
    return ""


def _check(name: str, failure: str) -> CheckResult:
    return CheckResult(name, not failure, failure)


def run_verification(
    level: Level = Level.QUICK, tables: Mapping[str, SequenceTable] = {}
) -> list[CheckResult]:
    """Run every cross-check at the given level and report one result each.

    Every family of ``FAMILIES`` is built by ``family_table`` and compared
    with the brute-force oracle: the 231 tables of each discipline in one
    check each, the 122 closed forms in a third.  ``tables`` replaces the
    built table of any family by name; passing tables in lets tests confirm
    that corrupt data is caught.
    """
    max_n = 4 if level is Level.QUICK else 6
    order = 20 if level is Level.QUICK else 60
    built = {n: family_table(n, max_n if f.closed_form else order) for n, f in FAMILIES.items()}
    tables = built | dict(tables)

    # One enumeration pass per discipline and size feeds every oracle check:
    # all words, keyed (), and each distinct pattern set of the discipline.
    counted = {}
    for disc in Discipline:
        sets = {(): ()} | {f.avoid: f.avoid for f in FAMILIES.values() if f.discipline is disc}
        counted[disc] = [count_by_constraint(n, disc, sets, cap=max_n) for n in range(max_n + 1)]

    # Unfiltered counts are n! * C(n) for both disciplines.
    results = [
        _check(
            f"baseline count n!*C(n), {disc.value}, n<={max_n}",
            _first_mismatch(
                (f"n={n}", math.factorial(n) * catalan(n), by_set[()][Constraint.NONE])
                for n, by_set in enumerate(counted[disc])
            ),
        )
        for disc in Discipline
    ]

    # Brute force vs every family's table, one check per discipline's 231
    # tables and one for the 122 closed forms, n-major within a check.
    def oracle_check(name: str) -> str:
        f = FAMILIES[name]
        if f.closed_form is None:
            return f"oracle vs {f.discipline.value} {f.avoid[0]} tables, n<={max_n}"
        return f"oracle vs {f.avoid[0]} closed forms, n<={max_n}"

    def oracle(name: str, n: int) -> int:
        f = FAMILIES[name]
        return counted[f.discipline][n][f.avoid][f.constraint]

    for check, group in groupby(FAMILIES, oracle_check):
        names = list(group)
        failure = _first_mismatch(
            (f"n={n}, family={name}", tables[name][n], oracle(name, n))
            for n in range(max_n + 1)
            for name in names
            if n >= tables[name].first_index
        )
        results.append(_check(check, failure))

    # Series solver vs the recurrence tables.
    for disc, table in (
        (Discipline.NON_NESTING, tables["p231"]),
        (Discipline.NON_CROSSING, tables["pbar231"]),
    ):
        solved = solve_algebraic(builtin_equation(disc), 1, order)
        failure = _first_mismatch(
            (f"n={n}, family={table.name}", table[n], solved[n]) for n in range(order + 1)
        )
        results.append(_check(f"series solver vs {table.name}, order {order}", failure))
        res = residual(builtin_equation(disc), solved)
        results.append(
            _check(
                f"residual of solved series is zero, {disc.value}, order {order}",
                "" if res.is_zero() else f"residual {res.render()}",
            )
        )

    # Both declared systems' equations on the six tables, to x^order.  Each
    # side at n reads its tables below n only, so a table that ends early
    # fails at its first missing index before any side reads past it.
    declared = [name for system in (NONNESTING_231, NONCROSSING_231) for name in system]
    values = {name: tables[name].values for name in declared}
    failure = _first_mismatch(
        (f"n={n}, equation={name}", tables[name][n], side)
        for system in (NONNESTING_231, NONCROSSING_231)
        for n, name, side in right_sides(system, values, order)
    )
    results.append(_check(f"tail-difference identities, order {order}", failure))

    # Composition sum route for first=1 non-crossing counts.
    comp_limit = 8 if level is Level.QUICK else 12
    comp = qbar_via_compositions(comp_limit)
    failure = _first_mismatch(
        (f"n={n}", tables["qbar231"][n], comp[n]) for n in range(comp_limit + 1)
    )
    results.append(_check(f"composition sum vs qbar231, n<={comp_limit}", failure))

    if level is Level.FULL:
        # Structure of 231-avoiding non-nesting words around the max label.
        window_rows = (
            (f"{kind} violation at {word}", True, holds(word))
            for n in range(6)
            for word in avoiding_words(n, Discipline.NON_NESTING, (PATTERN_231,))
            for kind, holds in (("traffic", window_traffic_ok),
                                ("extremes", window_extremes_ok))
        )
        failure = _first_mismatch(window_rows, values=False)
        results.append(_check("max-label window structure, n<=5", failure))

        unique_rows = (
            (f"bijection fails at n={n}", True, decreasing_labeling_is_unique_122_avoider(n))
            for n in range(6)
        )
        results.append(
            _check(
                "unique 122-avoiding labeling per matching, n<=5",
                _first_mismatch(unique_rows, values=False),
            )
        )
    return results
