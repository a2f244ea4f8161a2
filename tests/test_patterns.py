from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from ncnperms.core import Discipline, ValidationError, Word
from ncnperms.enumeration import Constraint, count_by_constraint, shapes
from ncnperms.patterns import (
    Pattern,
    avoids_all,
    contains,
    is_non_crossing,
    is_non_nesting,
    occurrence_arcs,
)

from conftest import all_words, arc_pairs, arcs_cross, arcs_nest


def test_pattern_validation():
    assert Pattern.parse("231").letters == (2, 3, 1)
    assert str(Pattern.parse("1212")) == "1212"
    with pytest.raises(ValidationError):
        Pattern.parse("")
    with pytest.raises(ValidationError):
        Pattern.parse("13")  # 2 missing
    with pytest.raises(ValidationError):
        Pattern.parse("102")
    with pytest.raises(ValidationError):
        Pattern.parse("2x1")


@pytest.mark.parametrize("text", ["\u00b2", "\uff12\uff11\uff13", "2\u0663\u0661"])
def test_pattern_parse_accepts_ascii_digits_only(text):
    # superscript two, fullwidth 213, and 2 followed by Arabic-Indic 3 and 1
    with pytest.raises(ValidationError):
        Pattern.parse(text)


def test_contains_examples():
    assert not contains(Word.parse("121632653454"), Pattern.parse("231"))
    assert contains(Word.parse("2121"), Pattern.parse("212"))
    assert not contains(Word.parse("11"), Pattern.parse("12"))
    assert contains(Word.parse("1122"), Pattern.parse("122"))


def test_contains_equality_semantics():
    # equal pattern letters need equal word entries, strict needs strict
    assert contains(Word.parse("1212"), Pattern.parse("121"))
    assert not contains(Word.parse("1122"), Pattern.parse("121"))
    assert contains(Word.parse("1221"), Pattern.parse("122"))
    assert not contains(Word.parse("2211"), Pattern.parse("122"))


def test_avoids_all():
    assert not avoids_all(Word.parse("1221"), {Pattern.parse("1221"), Pattern.parse("2112")})
    assert avoids_all(Word.parse("1122"), {Pattern.parse("1212"), Pattern.parse("2121")})
    assert avoids_all(Word(()), {Pattern.parse("1"), Pattern.parse("21")})


def test_named_families():
    assert is_non_nesting(Word.parse("121632653454"))
    assert not is_non_crossing(Word.parse("1212"))
    assert is_non_crossing(Word.parse("1221"))
    assert is_non_crossing(Word(())) and is_non_nesting(Word(()))


@pytest.mark.parametrize("n", range(6))
def test_pattern_predicates_match_arc_geometry(n):
    for entries in all_words(n):
        word = Word(entries)
        arcs = arc_pairs(entries)
        crossing = any(arcs_cross(p, q) for p, q in combinations(arcs, 2))
        nesting = any(arcs_nest(p, q) for p, q in combinations(arcs, 2))
        assert is_non_crossing(word) == (not crossing), word
        assert is_non_nesting(word) == (not nesting), word


@pytest.mark.parametrize("discipline", list(Discipline))
def test_symmetry_of_length3_avoidance_counts(discipline):
    # 231, 132, 213 and 312 are equivalent under reversal/complement, so
    # their avoidance counts agree within each discipline.
    families = {sigma: (Pattern.parse(sigma),) for sigma in ("231", "132", "213", "312")}
    for n in range(6):
        counted = count_by_constraint(n, discipline, families)
        counts = {sigma: counted[sigma][Constraint.NONE] for sigma in families}
        assert len(set(counts.values())) == 1, (n, counts)


@st.composite
def small_words(draw):
    n = draw(st.integers(min_value=0, max_value=4))
    labels = [lab for lab in range(1, n + 1) for _ in range(2)]
    return Word(tuple(draw(st.permutations(labels))))


@given(small_words(), st.sets(st.sampled_from(["12", "21", "231", "122", "1212"]), max_size=4))
@settings(max_examples=200)
def test_avoidance_is_monotone_in_the_pattern_set(word, texts):
    patterns = {Pattern.parse(t) for t in texts}
    for keep in range(len(patterns) + 1):
        for subset in combinations(patterns, keep):
            if avoids_all(word, patterns):
                assert avoids_all(word, subset)


def _occurs_by_definition(entries, letters) -> bool:
    # some subsequence relates entry-by-entry as the pattern does: equal
    # letters give equal entries, a smaller letter a strictly smaller entry
    pairs = list(combinations(range(len(letters)), 2))
    return any(
        all(
            (letters[a] == letters[b]) == (sub[a] == sub[b])
            and (letters[a] < letters[b]) == (sub[a] < sub[b])
            for a, b in pairs
        )
        for sub in combinations(entries, len(letters))
    )


def test_contains_agrees_with_subsequence_definition():
    # every pattern the package uses, over every word with n <= 4
    texts = "231 132 213 312 123 321 122 212 1212 2121 1221 2112".split()
    words = [entries for n in range(5) for entries in all_words(n)]
    for text in texts:
        pattern = Pattern.parse(text)
        for entries in words:
            expected = _occurs_by_definition(entries, pattern.letters)
            assert contains(Word(entries), pattern) == expected, (text, entries)


def test_contains_backtracks_across_equal_letters():
    # repeated letters and length 5: a dead end after an equal letter must
    # step back to an earlier pattern position, not stop the search
    texts = "1 11 111 121 1211 3412 12312".split()
    words = [entries for n in range(5) for entries in all_words(n)]
    for text in texts:
        pattern = Pattern.parse(text)
        for entries in words:
            expected = _occurs_by_definition(entries, pattern.letters)
            assert contains(Word(entries), pattern) == expected, (text, entries)


def test_occurrence_arcs_by_hand_at_n3():
    # the second shape, read from the Dyck word (()()), pairs as 1..6 / 2..3 /
    # 4..5 under NON_CROSSING, giving the words x y y z z x, and as 1..3 /
    # 2..5 / 4..6 under NON_NESTING, giving x y x z y z, for arc labels x, y,
    # z in opener order
    nc = list(shapes(3, Discipline.NON_CROSSING))[1]
    nn = list(shapes(3, Discipline.NON_NESTING))[1]
    assert nc == ((1, 6), (2, 3), (4, 5))
    assert nn == ((1, 3), (2, 5), (4, 6))
    # 231 reads its letters 2, 3, 1 left to right.  On x y y z z x it fits
    # as y z x (positions 2, 4, 6: letters 1, 2, 3 on arcs x, y, z) and as
    # x y z (positions 1, 2, 4: letters 1, 2, 3 on arcs z, x, y); every other
    # order of the three arcs runs out of positions
    assert list(occurrence_arcs(Pattern.parse("231"), nc)) == [(0, 1, 2), (2, 0, 1)]
    # 1212 needs two crossing arcs, the earlier-opened one taking letter 1:
    # 1..3 crosses 2..5 and 2..5 crosses 4..6
    assert list(occurrence_arcs(Pattern.parse("1212"), nn)) == [(0, 1), (1, 2)]
