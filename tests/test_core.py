import math

import pytest
from hypothesis import given, strategies as st

from ncnperms.core import (
    Arc,
    Discipline,
    DyckWord,
    Matching,
    Step,
    ValidationError,
    Word,
    dyck_to_matching,
    matching_to_word,
    word_to_matching,
)
from ncnperms.enumeration import dyck_words, labeled_words
from ncnperms.patterns import is_non_crossing, is_non_nesting
from ncnperms.recurrences import catalan


def test_word_validation():
    assert Word(()).semilength == 0
    assert Word((1, 1)).semilength == 1
    with pytest.raises(ValidationError):
        Word((1,))
    with pytest.raises(ValidationError):
        Word((1, 2))
    with pytest.raises(ValidationError):
        Word((1, 1, 1, 1))
    with pytest.raises(ValidationError):
        Word((0, 0))
    with pytest.raises(ValidationError):
        Word((1, 1, 3, 3))


@pytest.mark.parametrize(
    "entries",
    [(1, 2, 2), (1, 2, 2, 3), (2, 2), (1, 1, 1, 2), ("1", "1"), (1, "1"), (None, None)],
)
def test_word_rejects_malformed_entries_with_validation_error(entries):
    # ValidationError, never a TypeError from comparing odd entry types
    with pytest.raises(ValidationError):
        Word(entries)


@pytest.mark.parametrize(
    "text", ["\u00b2", "\uff11,\uff12,\uff12,\uff11", "\uff11\uff12\uff12\uff11"]
)
def test_word_parse_accepts_ascii_digits_only(text):
    # superscript two, and fullwidth 1221 in comma and compact form
    with pytest.raises(ValidationError):
        Word.parse(text)


def test_word_parse_both_forms():
    assert Word.parse("1221") == Word((1, 2, 2, 1))
    assert Word.parse("1,2,2,1") == Word((1, 2, 2, 1))
    assert Word.parse(" 1, 2, 2, 1 ") == Word((1, 2, 2, 1))
    assert Word.parse("") == Word(())
    # comma form is required once labels pass 9
    eleven = tuple(range(1, 12)) + tuple(range(1, 12))
    assert Word.parse(",".join(map(str, eleven))) == Word(eleven)
    with pytest.raises(ValidationError):
        Word.parse("12x1")
    with pytest.raises(ValidationError):
        Word.parse("1231")


def test_word_str_emits_comma_form():
    assert str(Word.parse("1221")) == "1,2,2,1"
    assert str(Word(())) == ""
    assert Word.parse(str(Word.parse("121632653454"))) == Word.parse("121632653454")


def test_word_to_matching_simple():
    m = word_to_matching(Word.parse("1221"))
    assert m.arcs == (Arc(1, 4, 1), Arc(2, 3, 2))


def test_word_to_matching_longer_example():
    m = word_to_matching(Word.parse("121632653454"))
    expected = {(1, 3, 1), (2, 6, 2), (4, 7, 6), (5, 9, 3), (8, 11, 5), (10, 12, 4)}
    assert {(a.opener, a.closer, a.label) for a in m.arcs} == expected


def test_word_to_matching_empty():
    assert word_to_matching(Word(())) == Matching(())


def test_matching_to_word():
    assert matching_to_word(Matching((Arc(1, 2, 1),))) == Word.parse("11")
    assert matching_to_word(Matching((Arc(1, 4, 1), Arc(2, 3, 2)))) == Word.parse("1221")
    assert matching_to_word(Matching((Arc(1, 3, 1), Arc(2, 4, 2)))) == Word.parse("1212")


def test_matching_validation():
    with pytest.raises(ValidationError):
        Arc(3, 2, 1)
    with pytest.raises(ValidationError):
        Matching((Arc(1, 2, 1), Arc(2, 3, 2)))  # endpoint 2 reused
    with pytest.raises(ValidationError):
        Matching((Arc(1, 2, 1), Arc(3, 4, 1)))  # label reused


def test_dyck_word_validation():
    DyckWord(())
    DyckWord((Step.OPEN, Step.CLOSE))
    with pytest.raises(ValidationError):
        DyckWord((Step.CLOSE, Step.OPEN))
    with pytest.raises(ValidationError):
        DyckWord((Step.OPEN,))


def test_dyck_to_matching_disciplines():
    nest = DyckWord((Step.OPEN, Step.OPEN, Step.CLOSE, Step.CLOSE))
    assert matching_to_word(
        dyck_to_matching(nest, Discipline.NON_CROSSING, (1, 2))
    ) == Word.parse("1221")
    assert matching_to_word(
        dyck_to_matching(nest, Discipline.NON_NESTING, (1, 2))
    ) == Word.parse("1212")
    flat = DyckWord((Step.OPEN, Step.CLOSE, Step.OPEN, Step.CLOSE))
    for disc in Discipline:
        assert matching_to_word(dyck_to_matching(flat, disc, (1, 2))) == Word.parse("1122")


def test_dyck_to_matching_bad_labeling():
    d = DyckWord((Step.OPEN, Step.CLOSE))
    with pytest.raises(ValidationError):
        dyck_to_matching(d, Discipline.NON_CROSSING, (2,))
    with pytest.raises(ValidationError):
        dyck_to_matching(d, Discipline.NON_CROSSING, (1, 2))


@st.composite
def family_words(draw, max_n: int = 5):
    n = draw(st.integers(min_value=0, max_value=max_n))
    dyck = draw(st.sampled_from(list(dyck_words(n))))
    labeling = draw(st.permutations(list(range(1, n + 1))))
    discipline = draw(st.sampled_from(list(Discipline)))
    return discipline, matching_to_word(dyck_to_matching(dyck, discipline, labeling))


@given(family_words())
def test_word_matching_round_trip(disc_word):
    _, word = disc_word
    assert matching_to_word(word_to_matching(word)) == word
    matching = word_to_matching(word)
    assert word_to_matching(matching_to_word(matching)) == matching


@given(family_words())
def test_discipline_yields_its_family(disc_word):
    discipline, word = disc_word
    if discipline is Discipline.NON_CROSSING:
        assert is_non_crossing(word)
    else:
        assert is_non_nesting(word)


@pytest.mark.parametrize("discipline", list(Discipline))
def test_shape_labeling_map_is_bijective(discipline):
    # (dyck word, labeling) -> word is injective and covers n! * C(n) words
    from itertools import permutations

    # labeled_words yields exactly these words, in the same order
    for n in range(7):
        words = [
            matching_to_word(dyck_to_matching(dyck, discipline, labeling)).entries
            for dyck in dyck_words(n)
            for labeling in permutations(range(1, n + 1))
        ]
        expected = math.factorial(n) * catalan(n)
        assert len(words) == expected
        assert len(set(words)) == expected
        assert [word.entries for word in labeled_words(n, discipline)] == words
