import math
from itertools import combinations

import pytest

from ncnperms.core import Discipline, ValidationError
from ncnperms.enumeration import (
    Constraint,
    EnumerationCapError,
    count_by_constraint,
    labeled_words,
    shapes,
)
from ncnperms.patterns import Pattern, avoids_all
from ncnperms.recurrences import catalan

from conftest import arcs_cross, arcs_nest

P231 = frozenset({Pattern.parse("231")})


@pytest.mark.parametrize("n,count", [(0, 1), (1, 1), (2, 2), (3, 5), (4, 14), (6, 132)])
def test_dyck_word_counts(n, count):
    # one shape per Dyck word, in either discipline
    for disc in Discipline:
        assert sum(1 for _ in shapes(n, disc)) == count


def _dyck_word(pairs) -> str:
    """The step sequence a shape was read from: "(" at each opener."""
    openers = {opener for opener, _ in pairs}
    return "".join("(" if pos in openers else ")" for pos in range(1, 2 * len(pairs) + 1))


def test_dyck_words_lexicographic_and_deterministic():
    first = [_dyck_word(pairs) for pairs in shapes(4, Discipline.NON_CROSSING)]
    second = [_dyck_word(pairs) for pairs in shapes(4, Discipline.NON_CROSSING)]
    assert first == second
    # "(" sorts before ")", so string order is step order with OPEN < CLOSE
    assert first == sorted(set(first))
    assert first[0] == "(((())))"  # all OPENs first is lexicographically least
    assert [_dyck_word(pairs) for pairs in shapes(4, Discipline.NON_NESTING)] == first


def test_dyck_words_rejects_negative():
    for disc in Discipline:
        with pytest.raises(ValidationError):
            list(shapes(-1, disc))
        with pytest.raises(ValidationError):
            list(labeled_words(-1, disc))


@pytest.mark.parametrize("discipline", list(Discipline))
def test_shapes_are_the_matchings_of_the_discipline(discipline):
    # each kind has C(n) matchings, so C(n) distinct valid shapes are all of them
    forbidden = arcs_cross if discipline is Discipline.NON_CROSSING else arcs_nest
    for n in range(7):
        found = list(shapes(n, discipline))
        assert len(found) == len(set(found)) == catalan(n)
        for pairs in found:
            assert isinstance(pairs, tuple)
            assert [opener for opener, _ in pairs] == sorted(opener for opener, _ in pairs)
            assert all(opener < closer for opener, closer in pairs)
            assert sorted(pos for pair in pairs for pos in pair) == list(range(1, 2 * n + 1))
            assert not any(forbidden(p, q) for p, q in combinations(pairs, 2)), pairs


def test_shapes_by_hand_at_n3():
    # Dyck words ((())), (()()), (())(), ()(()), ()()() in this order; a
    # CLOSE pairs with the latest open arc (non-crossing) or the earliest
    assert list(shapes(3, Discipline.NON_CROSSING)) == [
        ((1, 6), (2, 5), (3, 4)),
        ((1, 6), (2, 3), (4, 5)),
        ((1, 4), (2, 3), (5, 6)),
        ((1, 2), (3, 6), (4, 5)),
        ((1, 2), (3, 4), (5, 6)),
    ]
    assert list(shapes(3, Discipline.NON_NESTING)) == [
        ((1, 4), (2, 5), (3, 6)),
        ((1, 3), (2, 5), (4, 6)),
        ((1, 3), (2, 4), (5, 6)),
        ((1, 2), (3, 5), (4, 6)),
        ((1, 2), (3, 4), (5, 6)),
    ]


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
    none, first, last = Constraint.NONE, Constraint.FIRST_IS_1, Constraint.LAST_IS_N
    assert count_by_constraint(2, Discipline.NON_NESTING, P231)[none] == 4
    assert count_by_constraint(3, Discipline.NON_CROSSING, P231)[none] == 19
    p122 = frozenset({Pattern.parse("122")})
    assert count_by_constraint(4, Discipline.NON_CROSSING, p122)[none] == 14
    assert count_by_constraint(1, Discipline.NON_NESTING, P231)[last] == 1
    assert count_by_constraint(2, Discipline.NON_NESTING, P231)[first] == 2


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
def test_patterns_sharing_a_class_in_one_call(discipline):
    # 123..321, 1212/2121 and 1221/2112 each fit the same arcs, so one call
    # searches each class once and reads every pattern's letters off it
    families = {text: (Pattern.parse(text),) for text in CROSS_CHECKED}
    for n in range(6):
        words = list(labeled_words(n, discipline))
        counted = count_by_constraint(n, discipline, families)
        for text, patterns in families.items():
            assert counted[text] == _per_word_counts(words, patterns, n), (n, text)


#: ROADMAP item 7's census at n = 7: avoiders of each length-3 pattern, one
#: (non-crossing, non-nesting) pair per reverse/complement orbit
CENSUS_AT_7 = {
    "132 213 231 312": (22617, 9233),
    "123 321": (15975, 10729),
    "112 211 122 221": (catalan(7), catalan(7)),
    "121 212": (math.prod(range(1, 14, 2)), math.factorial(7)),
}


def test_length3_census_at_n7():
    families = {
        text: (Pattern.parse(text),) for orbit in CENSUS_AT_7 for text in orbit.split()
    }
    assert len(families) == 12
    for disc, column in ((Discipline.NON_CROSSING, 0), (Discipline.NON_NESTING, 1)):
        counted = count_by_constraint(7, disc, families)
        for orbit, counts in CENSUS_AT_7.items():
            for text in orbit.split():
                assert counted[text][Constraint.NONE] == counts[column], (disc, text)


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
            counts = count_by_constraint(n, disc)
            assert counts[Constraint.NONE] == math.factorial(n) * catalan(n)


def test_enumeration_cap():
    with pytest.raises(EnumerationCapError):
        count_by_constraint(8, Discipline.NON_NESTING, P231)
    with pytest.raises(EnumerationCapError):
        count_by_constraint(5, Discipline.NON_NESTING, P231, cap=4)
    assert count_by_constraint(5, Discipline.NON_NESTING, P231, cap=5)[Constraint.NONE] == 367
    with pytest.raises(ValidationError):
        count_by_constraint(0, Discipline.NON_NESTING, P231, cap=-1)


def test_count_query_validation():
    # a negative semilength is reported before a negative cap
    with pytest.raises(ValidationError, match="semilength must be non-negative"):
        count_by_constraint(-1, Discipline.NON_NESTING)
    with pytest.raises(ValidationError, match="semilength must be non-negative"):
        count_by_constraint(-1, Discipline.NON_NESTING, cap=-1)
