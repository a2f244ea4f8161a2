"""Cross-validation: every number this package produces is computed at least
two independent ways, and this module runs the comparisons.

Routes compared: brute-force enumeration, the recurrence tables (convolution
systems continued by P-recursive recurrences), the implicit-equation series
solver, and the closed forms.  On top of the value
comparisons there are structural checks on the enumerated words themselves
(what may happen inside the window spanned by the largest label, and which
labelings of a non-crossing matching avoid 122).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable

from .core import Discipline, Word
from .enumeration import Constraint, count_by_constraint, labeled_words
from .patterns import Pattern, contains
from .recurrences import (
    PAIRABLE_WITH_122,
    NonCrossing231System,
    NonNesting231System,
    catalan,
    closed_form_122,
    nonnesting_231_system,
    noncrossing_231_system,
    qbar_via_compositions,
)
from .series import builtin_equation, residual, solve_algebraic

PATTERN_231 = Pattern((2, 3, 1))
PATTERN_122 = Pattern((1, 2, 2))
SECOND_PATTERNS_122 = {key: Pattern.parse(key) for key in PAIRABLE_WITH_122}
#: The 122 family and its refinements, keyed as in ``closed_form_122`` names.
FAMILIES_122 = {
    "122": (PATTERN_122,),
    **{f"122,{key}": (PATTERN_122, sigma) for key, sigma in SECOND_PATTERNS_122.items()},
}


class Level(Enum):
    QUICK = "quick"
    FULL = "full"


@dataclass(frozen=True)
class CheckResult:
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


def count_122_family(n: int) -> dict[str, int]:
    """Counts of non-crossing words avoiding 122, and avoiding 122 plus each
    single second pattern of length 3, from one enumeration pass.
    """
    counted = count_by_constraint(n, Discipline.NON_CROSSING, FAMILIES_122)
    return {key: counts[Constraint.NONE] for key, counts in counted.items()}


# ---------------------------------------------------------------------------
# The verification run
# ---------------------------------------------------------------------------


def _first_mismatch(
    rows: Iterable[tuple[str, object, object]], values: bool = True
) -> str:
    """Detail for the first (label, expected, got) row whose values differ,
    or "" when all agree.  Rows are pulled lazily, so a check stops working
    at its first mismatch; ``values=False`` reports the label alone.
    """
    for label, expected, got in rows:
        if expected != got:
            return f"{label}, expected {expected}, got {got}" if values else label
    return ""


def run_verification(
    level: Level = Level.QUICK,
    nonnesting: NonNesting231System | None = None,
    noncrossing: NonCrossing231System | None = None,
) -> list[CheckResult]:
    """Run every cross-check at the given level and report one result each.

    ``nonnesting`` / ``noncrossing`` default to freshly computed systems;
    passing tables in lets tests confirm that corrupt data is caught.
    """
    max_n = 4 if level is Level.QUICK else 6
    order = 20 if level is Level.QUICK else 60
    nn = nonnesting if nonnesting is not None else nonnesting_231_system(order)
    nc = noncrossing if noncrossing is not None else noncrossing_231_system(order)
    results: list[CheckResult] = []

    def record(name: str, failure: str) -> None:
        results.append(CheckResult(name, not failure, failure))

    # One enumeration pass per discipline and size feeds every oracle check:
    # all words, the 231-avoiders, and (non-crossing) the 122 families.
    counted = {
        disc: [
            count_by_constraint(
                n,
                disc,
                {"all": (), "231": (PATTERN_231,)}
                | (FAMILIES_122 if disc is Discipline.NON_CROSSING else {}),
                cap=max_n,
            )
            for n in range(max_n + 1)
        ]
        for disc in Discipline
    }

    # Unfiltered counts are n! * C(n) for both disciplines.
    for disc in Discipline:
        failure = _first_mismatch(
            (
                f"n={n}",
                math.factorial(n) * catalan(n),
                counted[disc][n]["all"][Constraint.NONE],
            )
            for n in range(max_n + 1)
        )
        record(f"baseline count n!*C(n), {disc.value}, n<={max_n}", failure)

    # Brute force vs the recurrence tables: all four constraints for
    # non-nesting, the two that exist for non-crossing.
    for disc, tables in (
        (
            Discipline.NON_NESTING,
            {
                Constraint.NONE: nn.unconstrained,
                Constraint.FIRST_IS_1: nn.first_is_1,
                Constraint.LAST_IS_N: nn.last_is_n,
                Constraint.BOTH: nn.both,
            },
        ),
        (
            Discipline.NON_CROSSING,
            {Constraint.NONE: nc.unconstrained, Constraint.FIRST_IS_1: nc.first_is_1},
        ),
    ):
        failure = _first_mismatch(
            (f"n={n}, family={table.name}", table[n], counted[disc][n]["231"][constraint])
            for n in range(max_n + 1)
            for constraint, table in tables.items()
        )
        record(f"oracle vs {disc.value} 231 tables, n<={max_n}", failure)

    # Brute force vs the library's 122 closed forms.
    closed = {"122": closed_form_122(None, max_n)}
    for key, sigma in SECOND_PATTERNS_122.items():
        closed[f"122,{key}"] = closed_form_122(sigma, max_n)
    failure = _first_mismatch(
        (
            f"n={n}, family=q{key}",
            closed[key][n],
            counted[Discipline.NON_CROSSING][n][key][Constraint.NONE],
        )
        for n in range(1, max_n + 1)
        for key in FAMILIES_122
    )
    record(f"oracle vs 122 closed forms, n<={max_n}", failure)

    # Series solver vs the recurrence tables.
    for disc, table in (
        (Discipline.NON_NESTING, nn.unconstrained),
        (Discipline.NON_CROSSING, nc.unconstrained),
    ):
        solved = solve_algebraic(builtin_equation(disc), 1, order)
        failure = _first_mismatch(
            (f"n={n}, family={table.name}", table[n], solved[n]) for n in range(order + 1)
        )
        record(f"series solver vs {table.name}, order {order}", failure)
        res = residual(builtin_equation(disc), solved)
        record(
            f"residual of solved series is zero, {disc.value}, order {order}",
            "" if res.is_zero() else f"residual {res.render()}",
        )

    # Tail identities: differencing the constrained tables recovers the
    # unconstrained ones (last entry n strips to index n-1).
    def tail_rows():
        for n in range(1, min(order, nn.unconstrained.last_index) + 1):
            yield (
                f"r231[{n}] - r231[{n - 1}] != p231[{n - 1}]",
                nn.unconstrained[n - 1],
                nn.last_is_n[n] - nn.last_is_n[n - 1],
            )
            yield (
                f"rprime231[{n}] - rprime231[{n - 1}] != q231[{n - 1}]",
                nn.first_is_1[n - 1] + (1 if n == 1 else 0),
                nn.both[n] - nn.both[n - 1],
            )

    failure = _first_mismatch(tail_rows(), values=False)
    record(f"tail-difference identities, order {order}", failure)

    # Composition sum route for first=1 non-crossing counts.
    comp_limit = 8 if level is Level.QUICK else 12
    comp = qbar_via_compositions(comp_limit)
    failure = _first_mismatch(
        (f"n={n}", nc.first_is_1[n], comp[n]) for n in range(comp_limit + 1)
    )
    record(f"composition sum vs qbar231, n<={comp_limit}", failure)

    if level is Level.FULL:
        # Structure of 231-avoiding non-nesting words around the max label.
        window_rows = (
            (f"{kind} violation at {word}", True, holds(word))
            for n in range(6)
            for word in labeled_words(n, Discipline.NON_NESTING)
            if not contains(word, PATTERN_231)
            for kind, holds in (("traffic", window_traffic_ok),
                                ("extremes", window_extremes_ok))
        )
        failure = _first_mismatch(window_rows, values=False)
        record("max-label window structure, n<=5", failure)

        unique_rows = (
            (f"bijection fails at n={n}", True, decreasing_labeling_is_unique_122_avoider(n))
            for n in range(6)
        )
        failure = _first_mismatch(unique_rows, values=False)
        record("unique 122-avoiding labeling per matching, n<=5", failure)

    return results


def first_failure(results: list[CheckResult]) -> CheckResult | None:
    for result in results:
        if not result.passed:
            return result
    return None
