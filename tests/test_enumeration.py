import math

import pytest

from ncnperms.core import Discipline, ValidationError
from ncnperms.enumeration import (
    Constraint,
    CountQuery,
    EnumerationCapError,
    count_avoiders,
    count_by_constraint,
    dyck_words,
    labeled_words,
)
from ncnperms.patterns import Pattern, avoids_all
from ncnperms.recurrences import catalan

P231 = frozenset({Pattern.parse("231")})


@pytest.mark.parametrize("n,count", [(0, 1), (1, 1), (2, 2), (3, 5), (4, 14), (6, 132)])
def test_dyck_word_counts(n, count):
    assert sum(1 for _ in dyck_words(n)) == count


def test_dyck_words_lexicographic_and_deterministic():
    first = [str(d) for d in dyck_words(4)]
    second = [str(d) for d in dyck_words(4)]
    assert first == second
    steps = [tuple(d.steps) for d in dyck_words(4)]
    assert steps == sorted(steps)
    assert first[0] == "(((())))"  # all OPENs first is lexicographically least


def test_dyck_words_rejects_negative():
    with pytest.raises(ValidationError):
        list(dyck_words(-1))


def test_labeled_words_small():
    for disc in Discipline:
        assert [str(w) for w in labeled_words(1, disc)] == ["1,1"]
    non_nesting = {str(w) for w in labeled_words(2, Discipline.NON_NESTING)}
    assert non_nesting == {"1,1,2,2", "2,2,1,1", "1,2,1,2", "2,1,2,1"}
    non_crossing = {str(w) for w in labeled_words(2, Discipline.NON_CROSSING)}
    assert non_crossing == {"1,1,2,2", "2,2,1,1", "1,2,2,1", "2,1,1,2"}


@pytest.mark.parametrize("discipline", list(Discipline))
def test_labeled_words_count_and_distinct(discipline):
    for n in range(6):
        words = [w.entries for w in labeled_words(n, discipline)]
        assert len(words) == math.factorial(n) * catalan(n)
        assert len(set(words)) == len(words)


def test_labeled_words_deterministic():
    a = list(labeled_words(3, Discipline.NON_NESTING))
    b = list(labeled_words(3, Discipline.NON_NESTING))
    assert a == b


def test_count_avoiders_published_examples():
    assert count_avoiders(CountQuery(2, Discipline.NON_NESTING, P231)) == 4
    assert count_avoiders(CountQuery(3, Discipline.NON_CROSSING, P231)) == 19
    assert (
        count_avoiders(CountQuery(4, Discipline.NON_CROSSING, frozenset({Pattern.parse("122")})))
        == 14
    )
    assert (
        count_avoiders(CountQuery(1, Discipline.NON_NESTING, P231, Constraint.LAST_IS_N)) == 1
    )
    assert (
        count_avoiders(CountQuery(2, Discipline.NON_NESTING, P231, Constraint.FIRST_IS_1)) == 2
    )


def test_count_avoiders_empty_word_constraints():
    # the empty word is the single unconstrained object of size 0, but it has
    # no first or last entry to pin
    for disc in Discipline:
        counts = count_by_constraint(0, disc, P231)
        assert counts[Constraint.NONE] == 1
        assert counts[Constraint.FIRST_IS_1] == 0
        assert counts[Constraint.LAST_IS_N] == 0
        assert counts[Constraint.BOTH] == 0


def _per_word_counts(words, patterns, n):
    """The four constraint counts by the per-word route: one Word and one
    containment search per word."""
    counts = dict.fromkeys(Constraint, 0)
    for word in words:
        if avoids_all(word, patterns):
            first = bool(word.entries) and word.entries[0] == 1
            last = bool(word.entries) and word.entries[-1] == n
            counts[Constraint.NONE] += 1
            counts[Constraint.FIRST_IS_1] += first
            counts[Constraint.LAST_IS_N] += last
            counts[Constraint.BOTH] += first and last
    return counts


#: every pattern of the subsequence-definition test in test_patterns, plus
#: patterns with a single letter, a letter used three times, and length 4
CROSS_CHECKED = (
    "231 132 213 312 123 321 122 212 1212 2121 1221 2112 1 11 111 121 3412".split()
)


@pytest.mark.parametrize("discipline", list(Discipline))
def test_bitset_counts_match_per_word_route(discipline):
    for n in range(6):
        words = list(labeled_words(n, discipline))
        for text in CROSS_CHECKED:
            pattern = Pattern.parse(text)
            expected = _per_word_counts(words, (pattern,), n)
            assert count_by_constraint(n, discipline, (pattern,)) == expected, (n, text)


@pytest.mark.parametrize("discipline", list(Discipline))
def test_several_pattern_sets_from_one_pass(discipline):
    # sets share patterns, so a bitset reused across sets must not leak
    p = {text: Pattern.parse(text) for text in ("231", "122", "321", "1221", "121")}
    families = {
        "all": (),
        "231": (p["231"],),
        "122": (p["122"],),
        "122,231": (p["122"], p["231"]),
        "321,231,1221": (p["321"], p["231"], p["1221"]),
        "121,122": (p["121"], p["122"]),
    }
    for n in range(6):
        words = list(labeled_words(n, discipline))
        counted = count_by_constraint(n, discipline, families)
        assert list(counted) == list(families)
        for key, patterns in families.items():
            assert counted[key] == count_by_constraint(n, discipline, iter(patterns))
            assert counted[key] == _per_word_counts(words, patterns, n), (n, key)


def test_count_avoiders_baseline_is_factorial_times_catalan():
    for disc in Discipline:
        for n in range(5):
            query = CountQuery(n, disc)
            assert count_avoiders(query) == math.factorial(n) * catalan(n)


def test_enumeration_cap():
    with pytest.raises(EnumerationCapError):
        count_avoiders(CountQuery(8, Discipline.NON_NESTING, P231))
    with pytest.raises(EnumerationCapError):
        count_avoiders(CountQuery(5, Discipline.NON_NESTING, P231), cap=4)
    assert count_avoiders(CountQuery(5, Discipline.NON_NESTING, P231), cap=5) == 367
    with pytest.raises(ValidationError):
        count_avoiders(CountQuery(0, Discipline.NON_NESTING, P231), cap=-1)


def test_count_query_validation():
    with pytest.raises(ValidationError):
        CountQuery(-1, Discipline.NON_NESTING)
    with pytest.raises(ValidationError):
        count_by_constraint(-1, Discipline.NON_NESTING)
