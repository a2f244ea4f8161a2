import dataclasses

import pytest

from ncnperms.core import Discipline, Word
from ncnperms.enumeration import labeled_words
from ncnperms.recurrences import (
    NonNesting231System,
    SequenceTable,
    closed_form_122,
    noncrossing_231_system,
    nonnesting_231_system,
)
from ncnperms.verify import (
    Level,
    count_122_family,
    decreasing_labeling_is_unique_122_avoider,
    first_failure,
    run_verification,
    window_extremes_ok,
    window_traffic_ok,
)


def test_quick_verification_passes():
    results = run_verification(Level.QUICK)
    assert results
    assert first_failure(results) is None


def test_full_verification_passes():
    results = run_verification(Level.FULL)
    assert first_failure(results) is None
    names = [r.name for r in results]
    assert any("window structure" in name for name in names)
    assert any("122-avoiding labeling" in name for name in names)


def test_corrupted_table_is_caught():
    good = nonnesting_231_system(20)
    values = list(good.unconstrained.values)
    values[3] += 1
    corrupted = NonNesting231System(
        unconstrained=SequenceTable("p231", tuple(values)),
        first_is_1=good.first_is_1,
        last_is_n=good.last_is_n,
        both=good.both,
    )
    results = run_verification(Level.QUICK, nonnesting=corrupted)
    failed = first_failure(results)
    assert failed is not None
    assert "n=3" in failed.detail and "p231" in failed.detail


def _bump(table: SequenceTable, index: int) -> SequenceTable:
    values = list(table.values)
    values[index - table.first_index] += 1
    return SequenceTable(table.name, tuple(values), first_index=table.first_index)


ORACLE_NN = "oracle vs non-nesting 231 tables, n<=4"
ORACLE_NC = "oracle vs non-crossing 231 tables, n<=4"
TAIL = "tail-difference identities, order 20"


@pytest.mark.parametrize(
    "system, field, failures",
    [
        ("nonnesting", "unconstrained", [
            (ORACLE_NN, "n=3, family=p231, expected 18, got 17"),
            ("series solver vs p231, order 20", "n=3, family=p231, expected 18, got 17"),
            (TAIL, "r231[4] - r231[3] != p231[3]"),
        ]),
        ("nonnesting", "first_is_1", [
            (ORACLE_NN, "n=3, family=q231, expected 10, got 9"),
            (TAIL, "rprime231[4] - rprime231[3] != q231[3]"),
        ]),
        ("nonnesting", "last_is_n", [
            (ORACLE_NN, "n=3, family=r231, expected 7, got 6"),
            (TAIL, "r231[3] - r231[2] != p231[2]"),
        ]),
        ("nonnesting", "both", [
            (ORACLE_NN, "n=3, family=rprime231, expected 5, got 4"),
            (TAIL, "rprime231[3] - rprime231[2] != q231[2]"),
        ]),
        ("noncrossing", "unconstrained", [
            (ORACLE_NC, "n=3, family=pbar231, expected 20, got 19"),
            ("series solver vs pbar231, order 20", "n=3, family=pbar231, expected 20, got 19"),
        ]),
        ("noncrossing", "first_is_1", [
            (ORACLE_NC, "n=3, family=qbar231, expected 8, got 7"),
            ("composition sum vs qbar231, n<=8", "n=3, expected 8, got 7"),
        ]),
    ],
)
def test_each_corrupted_231_table_fails_with_exact_details(system, field, failures):
    build = nonnesting_231_system if system == "nonnesting" else noncrossing_231_system
    good = build(20)
    corrupted = dataclasses.replace(good, **{field: _bump(getattr(good, field), 3)})
    results = run_verification(Level.QUICK, **{system: corrupted})
    assert [(r.name, r.detail) for r in results if not r.passed] == failures


def test_window_traffic_check():
    assert window_traffic_ok(Word.parse("1221"))
    assert window_traffic_ok(Word(()))
    # two arcs close inside the 3-window of 123123
    assert not window_traffic_ok(Word.parse("123123"))


def test_window_extremes_check():
    # 1 closes inside the 3-window while the larger 2 sits to the left
    assert not window_extremes_ok(Word.parse("213132"))
    # 2 opens inside the 3-window while the smaller 1 sits to the right
    assert not window_extremes_ok(Word.parse("323121"))
    assert window_extremes_ok(Word.parse("121323"))


@pytest.mark.parametrize("n, traffic, extremes", [(3, 4, 8), (4, 96, 172), (5, 2016, 3240)])
def test_window_predicate_failure_counts(n, traffic, extremes):
    # over all words, not only 231-avoiders; no arc crosses into the window
    # of a non-crossing word, so both predicates always hold there
    words = list(labeled_words(n, Discipline.NON_NESTING))
    assert sum(not window_traffic_ok(w) for w in words) == traffic
    assert sum(not window_extremes_ok(w) for w in words) == extremes
    for word in labeled_words(n, Discipline.NON_CROSSING):
        assert window_traffic_ok(word) and window_extremes_ok(word)


def test_unique_decreasing_labeling_small():
    for n in range(5):
        assert decreasing_labeling_is_unique_122_avoider(n)


def test_count_122_family_small():
    assert count_122_family(3) == {
        "122": 5,
        "122,132": 5,
        "122,213": 3,
        "122,231": 4,
        "122,123": 4,
        "122,312": 3,
        "122,321": 0,
    }


def test_closed_forms_are_checked_against_the_library(monkeypatch):
    cases = [
        ("213", 3, "n=3, family=q122,213, expected 4, got 3"),
        ("None", 4, "n=4, family=q122, expected 15, got 14"),
        ("321", 3, "n=3, family=q122,321, expected 1, got 0"),
    ]
    for target, n, detail in cases:

        def corrupted(sigma, limit):
            table = closed_form_122(sigma, limit)
            return _bump(table, n) if str(sigma) == target else table

        monkeypatch.setattr("ncnperms.verify.closed_form_122", corrupted, raising=False)
        failures = [r for r in run_verification(Level.QUICK) if not r.passed]
        assert [(r.name, r.detail) for r in failures] == [
            ("oracle vs 122 closed forms, n<=4", detail)
        ]
