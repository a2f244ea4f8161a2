import math
from itertools import islice, permutations

import pytest

import ncnperms
from ncnperms.core import Discipline, ValidationError, Word
from ncnperms.enumeration import labeled_words, shapes
from ncnperms.patterns import is_non_crossing, is_non_nesting
from ncnperms.recurrences import catalan

from conftest import all_words, arc_pairs


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


def _arcs(word: Word) -> tuple[tuple[int, int, int], ...]:
    """A word's (opener, closer, label) arcs, sorted by opener."""
    return tuple((a, b, word.entries[a - 1]) for a, b in arc_pairs(word.entries))


def _word_at(pairs, labels, discipline: Discipline) -> Word:
    """The word labeled_words yields for a shape and a labeling."""
    n = len(pairs)
    at = list(shapes(n, discipline)).index(pairs) * math.factorial(n)
    at += list(permutations(range(1, n + 1))).index(labels)
    return next(islice(labeled_words(n, discipline), at, None))


def _write(pairs, labels) -> tuple[int, ...]:
    """The k-th label written at both ends of the k-th arc."""
    entries = [0] * (2 * len(pairs))
    for (opener, closer), label in zip(pairs, labels):
        entries[opener - 1] = entries[closer - 1] = label
    return tuple(entries)


def test_word_to_matching_simple():
    word = Word.parse("1221")
    assert _arcs(word) == ((1, 4, 1), (2, 3, 2))
    assert _word_at(((1, 4), (2, 3)), (1, 2), Discipline.NON_CROSSING) == word


def test_word_to_matching_longer_example():
    word = Word.parse("121632653454")
    expected = {(1, 3, 1), (2, 6, 2), (4, 7, 6), (5, 9, 3), (8, 11, 5), (10, 12, 4)}
    assert set(_arcs(word)) == expected
    pairs = ((1, 3), (2, 6), (4, 7), (5, 9), (8, 11), (10, 12))
    assert _word_at(pairs, (1, 2, 6, 3, 5, 4), Discipline.NON_NESTING) == word


def test_word_to_matching_empty():
    assert _arcs(Word(())) == ()
    for disc in Discipline:
        assert list(labeled_words(0, disc)) == [Word(())]


def test_matching_to_word():
    for disc in Discipline:
        assert _word_at(((1, 2),), (1,), disc) == Word.parse("11")
    assert _word_at(((1, 4), (2, 3)), (1, 2), Discipline.NON_CROSSING) == Word.parse("1221")
    assert _word_at(((1, 3), (2, 4)), (1, 2), Discipline.NON_NESTING) == Word.parse("1212")
    # shape by shape, and labeling by labeling in permutations order
    nc = [str(w) for w in labeled_words(2, Discipline.NON_CROSSING)]
    assert nc == ["1,2,2,1", "2,1,1,2", "1,1,2,2", "2,2,1,1"]
    nn = [str(w) for w in labeled_words(2, Discipline.NON_NESTING)]
    assert nn == ["1,2,1,2", "2,1,2,1", "1,1,2,2", "2,2,1,1"]


def test_word_matching_round_trip():
    # labeled_words writes the k-th label at both ends of the k-th arc,
    # shape by shape and labeling by labeling in permutations order; reading
    # each word back gives that shape and labeling
    for discipline in Discipline:
        for n in range(6):
            expected = [
                (pairs, labels)
                for pairs in shapes(n, discipline)
                for labels in permutations(range(1, n + 1))
            ]
            read_back = []
            for word in labeled_words(n, discipline):
                pairs = arc_pairs(word.entries)
                read_back.append((pairs, tuple(word.entries[a - 1] for a, _ in pairs)))
            assert read_back == expected


@pytest.mark.parametrize("discipline", list(Discipline))
def test_shape_labeling_map_is_bijective(discipline):
    # (shape, labeling) -> word is injective and covers n! * C(n) words;
    # labeled_words yields exactly these words, in the same order
    for n in range(7):
        words = [
            _write(pairs, labeling)
            for pairs in shapes(n, discipline)
            for labeling in permutations(range(1, n + 1))
        ]
        expected = math.factorial(n) * catalan(n)
        assert len(words) == expected
        assert len(set(words)) == expected
        assert [word.entries for word in labeled_words(n, discipline)] == words


def test_discipline_yields_its_family():
    # the discipline's words are exactly the words its predicate accepts
    for n in range(5):
        words = [Word(entries) for entries in all_words(n)]
        for discipline, accepts in (
            (Discipline.NON_CROSSING, is_non_crossing),
            (Discipline.NON_NESTING, is_non_nesting),
        ):
            family = {word for word in words if accepts(word)}
            assert set(labeled_words(n, discipline)) == family, (n, discipline)
            assert len(family) == math.factorial(n) * catalan(n)


def test_public_names_resolve_once():
    assert len(ncnperms.__all__) == len(set(ncnperms.__all__))
    for name in ncnperms.__all__:
        assert hasattr(ncnperms, name), name
