"""Cross-validation: every number this package produces is computed at least
two independent ways, and this module runs the comparisons.

Routes compared: brute-force enumeration, the recurrence tables (convolution
systems continued by P-recursive recurrences), the implicit-equation series
solver, and the closed forms, each table built by ``family_table`` as ``seq``
prints it.  On top of the value comparisons there are structural checks on
the enumerated words themselves (what may happen inside the window spanned
by the largest label, and which labelings of a non-crossing matching avoid
122).

At the full level on a machine with a second usable CPU, the run splits
into two processes: a worker made with ``os.fork`` computes the brute-force
counts and the 122-bijection check while the calling process builds the
tables and runs the other checks.  The quick level, a single CPU, a process
with more than one thread or a platform without ``os.fork`` runs everything
in one process.  There is no option for this; the results, their order and
the printed output are identical either way.
"""

from __future__ import annotations

import functools
import marshal
import math
import os
import sys
from contextlib import contextmanager, nullcontext
from enum import Enum
from itertools import groupby
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple

from .core import Constraint, Discipline, Word
from .enumeration import count_by_constraint, labeled_words
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


def _usable_cpus() -> int:
    """How many CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _fork_pays(level: Level) -> bool:
    """Whether the brute-force half of a run goes to a forked worker: only
    at the full level (the quick level's checks cost less than a fork), only
    where ``os.fork`` exists and a second CPU is free to run it, and only
    while this process has a single thread, which a fork copies safely.
    """
    threading = sys.modules.get("threading")  # not imported just to ask
    return (
        level is Level.FULL
        and hasattr(os, "fork")
        and (threading is None or threading.active_count() == 1)
        and _usable_cpus() > 1
    )


@contextmanager
def _forked(task: Callable[[], object]) -> Iterator[Callable[[], object]]:
    """Run ``task()`` in a forked worker while the with-block runs, and yield
    a function that waits for its result.

    The result travels back through a pipe with ``marshal``, so it must be
    built of plain values.  The worker leaves only through ``os._exit``: it
    flushes no stdio buffer copied from the caller and never returns into
    the caller's frames.  An exception in the worker reaches the caller as
    a RuntimeError carrying the worker's traceback.  Leaving the block
    reaps the worker, after killing it if the block raised.  If the fork
    fails, the yielded function runs ``task()`` in this process.
    """
    read_end, write_end = os.pipe()
    try:
        pid = os.fork()
    except OSError:  # no process to spare: the task runs here when asked
        os.close(read_end)
        os.close(write_end)
        yield task
        return
    if pid == 0:
        try:
            os.close(read_end)
            try:
                reply = [True, task()]
            except Exception:
                import traceback

                reply = [False, traceback.format_exc()]
            with open(write_end, "wb") as pipe:
                marshal.dump(reply, pipe)
        finally:
            os._exit(0)
    os.close(write_end)

    def result() -> object:
        try:
            done, value = marshal.load(pipe)
        except EOFError:
            raise RuntimeError("verification worker ended without a result") from None
        if not done:
            raise RuntimeError(f"verification worker failed:\n{value}")
        return value

    try:
        with open(read_end, "rb") as pipe:
            yield result
    except BaseException:
        import signal  # only this path needs it, and importing it costs start-up time

        os.kill(pid, signal.SIGKILL)
        raise
    finally:
        os.waitpid(pid, 0)


def _brute_force(level: Level, max_n: int) -> list:
    """The half of a run that only enumerates, as plain values that
    ``marshal`` can carry back from a worker: brute-force counts for
    n = 0..max_n, keyed by discipline value (all words) and by family name
    (the family's avoiders), and at the full level the failure detail of the
    122-bijection check (None at the quick level).
    """
    counts = {}
    # One enumeration pass per discipline and size feeds every oracle check:
    # all words, keyed (), and each distinct pattern set of the discipline.
    for disc in Discipline:
        sets = {(): ()} | {f.avoid: f.avoid for f in FAMILIES.values() if f.discipline is disc}
        counted = [count_by_constraint(n, disc, sets, cap=max_n) for n in range(max_n + 1)]
        counts[disc.value] = [by_set[()][Constraint.NONE] for by_set in counted]
        for name, f in FAMILIES.items():
            if f.discipline is disc:
                counts[name] = [by_set[f.avoid][f.constraint] for by_set in counted]
    if level is Level.QUICK:
        return [counts, None]
    unique_rows = (
        (f"bijection fails at n={n}", True, decreasing_labeling_is_unique_122_avoider(n))
        for n in range(6)
    )
    return [counts, _first_mismatch(unique_rows, values=False)]


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

    When ``_fork_pays`` says so, the oracle counts and the 122-bijection
    check run in a forked worker while this process builds the tables and
    runs every other check; otherwise the same code runs here.  The results
    and their order are the same either way.
    """
    max_n = 4 if level is Level.QUICK else 6
    order = 20 if level is Level.QUICK else 60
    worker = _forked if _fork_pays(level) else nullcontext
    with worker(functools.partial(_brute_force, level, max_n)) as brute_force:
        built = {
            n: family_table(n, max_n if f.closed_form else order) for n, f in FAMILIES.items()
        }
        tables = built | dict(tables)
        later = _table_checks(level, tables, order)
        counts, bijection = brute_force()

    # Unfiltered counts are n! * C(n) for both disciplines.
    results = [
        _check(
            f"baseline count n!*C(n), {disc.value}, n<={max_n}",
            _first_mismatch(
                (f"n={n}", math.factorial(n) * catalan(n), counts[disc.value][n])
                for n in range(max_n + 1)
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

    for check, group in groupby(FAMILIES, oracle_check):
        names = list(group)
        failure = _first_mismatch(
            (f"n={n}, family={name}", tables[name][n], counts[name][n])
            for n in range(max_n + 1)
            for name in names
            if n >= tables[name].first_index
        )
        results.append(_check(check, failure))

    results += later
    if bijection is not None:
        results.append(_check("unique 122-avoiding labeling per matching, n<=5", bijection))
    return results


def _table_checks(
    level: Level, tables: Mapping[str, SequenceTable], order: int
) -> list[CheckResult]:
    """The checks that need no brute-force count: series, equations and
    compositions against the tables, and at the full level the per-word
    window structure."""
    results = []

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
            for word in labeled_words(n, Discipline.NON_NESTING)
            if not contains(word, PATTERN_231)
            for kind, holds in (("traffic", window_traffic_ok),
                                ("extremes", window_extremes_ok))
        )
        failure = _first_mismatch(window_rows, values=False)
        results.append(_check("max-label window structure, n<=5", failure))
    return results
