import pytest

from ncnperms import verify
from ncnperms.core import Discipline, Word
from ncnperms.enumeration import Constraint, count_by_constraint, labeled_words
from ncnperms.recurrences import FAMILIES, PATTERN_122, SequenceTable, family_table
from ncnperms.verify import (
    Level,
    decreasing_labeling_is_unique_122_avoider,
    run_verification,
    window_extremes_ok,
    window_traffic_ok,
)


def test_quick_verification_passes():
    results = run_verification(Level.QUICK)
    assert results
    assert all(r.passed for r in results)


def test_full_verification_passes():
    results = run_verification(Level.FULL)
    assert all(r.passed for r in results)
    names = [r.name for r in results]
    assert any("window structure" in name for name in names)
    assert any("122-avoiding labeling" in name for name in names)


def _bump(table: SequenceTable, index: int) -> SequenceTable:
    values = list(table.values)
    values[index - table.first_index] += 1
    return SequenceTable(table.name, tuple(values), first_index=table.first_index)


def test_corrupted_table_is_caught():
    corrupted = _bump(family_table("p231", 20), 3)
    results = run_verification(Level.QUICK, tables={"p231": corrupted})
    failed = next(r for r in results if not r.passed)
    assert "n=3" in failed.detail and "p231" in failed.detail


ORACLE_NN = "oracle vs non-nesting 231 tables, n<=4"
ORACLE_NC = "oracle vs non-crossing 231 tables, n<=4"
ORACLE_122 = "oracle vs 122 closed forms, n<=4"
#: The system-equation check; its label predates it and is kept because the
#: benchmark's reference digests pin verify's stdout.
EQUATIONS = "tail-difference identities, order 20"

#: For each family: the index its table is bumped at, and every failed
#: (check, detail) that the bump must cause.
CORRUPTIONS = {
    "p231": (3, [
        (ORACLE_NN, "n=3, family=p231, expected 18, got 17"),
        ("series solver vs p231, order 20", "n=3, family=p231, expected 18, got 17"),
        (EQUATIONS, "n=3, equation=p231, expected 18, got 17"),
    ]),
    "q231": (3, [
        (ORACLE_NN, "n=3, family=q231, expected 10, got 9"),
        (EQUATIONS, "n=3, equation=q231, expected 10, got 9"),
    ]),
    "r231": (3, [
        (ORACLE_NN, "n=3, family=r231, expected 7, got 6"),
        (EQUATIONS, "n=3, equation=r231, expected 7, got 6"),
    ]),
    "rprime231": (3, [
        (ORACLE_NN, "n=3, family=rprime231, expected 5, got 4"),
        (EQUATIONS, "n=3, equation=rprime231, expected 5, got 4"),
    ]),
    "pbar231": (3, [
        (ORACLE_NC, "n=3, family=pbar231, expected 20, got 19"),
        ("series solver vs pbar231, order 20", "n=3, family=pbar231, expected 20, got 19"),
        (EQUATIONS, "n=3, equation=pbar231, expected 20, got 19"),
    ]),
    "qbar231": (3, [
        (ORACLE_NC, "n=3, family=qbar231, expected 8, got 7"),
        (EQUATIONS, "n=3, equation=qbar231, expected 8, got 7"),
        ("composition sum vs qbar231, n<=8", "n=3, expected 8, got 7"),
    ]),
    # q122 at the last index the quick oracle reaches
    "q122": (4, [(ORACLE_122, "n=4, family=q122, expected 15, got 14")]),
    "q122,132": (3, [(ORACLE_122, "n=3, family=q122,132, expected 6, got 5")]),
    "q122,213": (3, [(ORACLE_122, "n=3, family=q122,213, expected 4, got 3")]),
    "q122,231": (3, [(ORACLE_122, "n=3, family=q122,231, expected 5, got 4")]),
    "q122,123": (3, [(ORACLE_122, "n=3, family=q122,123, expected 5, got 4")]),
    "q122,312": (3, [(ORACLE_122, "n=3, family=q122,312, expected 4, got 3")]),
    "q122,321": (3, [(ORACLE_122, "n=3, family=q122,321, expected 1, got 0")]),
}


def test_every_family_has_a_corruption_case():
    # a family added to the registry must come with the checks that catch it
    assert list(CORRUPTIONS) == list(FAMILIES)


@pytest.mark.parametrize("family", CORRUPTIONS)
def test_each_corrupted_table_fails_with_exact_details(family):
    index, failures = CORRUPTIONS[family]
    corrupted = _bump(family_table(family, 20), index)
    results = run_verification(Level.QUICK, tables={family: corrupted})
    assert [(r.name, r.detail) for r in results if not r.passed] == failures


@pytest.mark.parametrize("family", ["q231", "qbar231"])
def test_equation_check_catches_unrolled_terms_past_every_other_check(family):
    # index 18 lies past both convolution seeds (14 and 9) and the oracle's
    # n <= 4; only the system equations see q231 or qbar231 there
    table = family_table(family, 20)
    results = run_verification(Level.QUICK, tables={family: _bump(table, 18)})
    assert [(r.name, r.detail) for r in results if not r.passed] == [
        (EQUATIONS, f"n=18, equation={family}, expected {table[18] + 1}, got {table[18]}")
    ]


def test_equation_check_reads_the_tables_family_table_builds(monkeypatch):
    # index 40 lies past both convolution seeds and the oracle's n <= 6; a
    # bump that family_table makes there reaches the full equation check
    def bumped(family, limit):
        table = family_table(family, limit)
        return _bump(table, 40) if family == "rprime231" else table

    monkeypatch.setattr(verify, "family_table", bumped)
    value = family_table("rprime231", 40)[40]
    results = run_verification(Level.FULL)
    assert [(r.name, r.detail) for r in results if not r.passed] == [
        (
            "tail-difference identities, order 60",
            f"n=40, equation=rprime231, expected {value + 1}, got {value}",
        )
    ]


@pytest.mark.parametrize("family", FAMILIES)
def test_table_that_ends_early_fails_the_checks_it_cannot_cover(family):
    # cut to half its quick range: index 10 of 20, or index 2 of the oracle's 4
    closed = FAMILIES[family].closed_form is not None
    table = family_table(family, 4 if closed else 20)
    cut = table.last_index // 2
    short = SequenceTable(family, table.values[: cut + 1 - table.first_index], table.first_index)
    failed = [r for r in run_verification(Level.QUICK, tables={family: short}) if not r.passed]
    assert (ORACLE_122 if closed else EQUATIONS) in [r.name for r in failed]
    missing = f"index {cut + 1} outside table range [{table.first_index}, {cut}] of {family!r}"
    assert [r.detail for r in failed] == [missing] * len(failed)


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
    families = {name: f.avoid for name, f in FAMILIES.items() if f.avoid[0] == PATTERN_122}
    counted = count_by_constraint(3, Discipline.NON_CROSSING, families)
    assert {key: counts[Constraint.NONE] for key, counts in counted.items()} == {
        "q122": 5,
        "q122,132": 5,
        "q122,213": 3,
        "q122,231": 4,
        "q122,123": 4,
        "q122,312": 3,
        "q122,321": 0,
    }
