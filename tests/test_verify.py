from ncnperms.core import Word
from ncnperms.recurrences import (
    NonNesting231System,
    SequenceTable,
    closed_form_122,
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
    def corrupted(sigma, limit):
        table = closed_form_122(sigma, limit)
        if str(sigma) != "213":
            return table
        values = list(table.values)
        values[2] += 1  # index 3
        return SequenceTable(table.name, tuple(values), first_index=table.first_index)

    monkeypatch.setattr("ncnperms.verify.closed_form_122", corrupted, raising=False)
    failed = first_failure(run_verification(Level.QUICK))
    assert failed is not None
    assert failed.name.startswith("oracle vs 122 closed forms")
    assert failed.detail == "n=3, family=q122,213, expected 4, got 3"
