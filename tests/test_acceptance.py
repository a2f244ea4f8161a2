"""End-to-end acceptance checks.

Each test prints one PASS/FAIL line, covers one cross-validation criterion at
its stated tolerance, and enforces the runtime budget it is allowed.
"""

import time
from contextlib import contextmanager
from fractions import Fraction

from ncnperms.core import Discipline
from ncnperms.enumeration import Constraint, count_by_constraint
from ncnperms.formats import to_bfile
from ncnperms.growth import builtin_radicand, growth_rate, minimal_positive_root, ratio
from ncnperms.patterns import Pattern, contains
from ncnperms.recurrences import (
    FAMILIES,
    catalan,
    family_table,
    nonnesting_231_system,
    noncrossing_231_system,
)
from ncnperms.series import builtin_equation, residual, solve_algebraic
from ncnperms.verify import (
    decreasing_labeling_is_unique_122_avoider,
    window_extremes_ok,
    window_traffic_ok,
)
from ncnperms.enumeration import labeled_words

from conftest import decoded

P231 = Pattern.parse("231")
P122 = Pattern.parse("122")
#: The 122 family and its refinements by a second pattern.
FAMILIES_122 = {
    "122": (P122,),
    "122,132": (P122, Pattern.parse("132")),
    "122,213": (P122, Pattern.parse("213")),
    "122,231": (P122, Pattern.parse("231")),
    "122,123": (P122, Pattern.parse("123")),
    "122,312": (P122, Pattern.parse("312")),
    "122,321": (P122, Pattern.parse("321")),
}

P231_HEAD = (1, 1, 4, 17, 77, 367, 1815, 9233, 48014, 254123, 1364491)
PBAR231_HEAD = (1, 1, 4, 19, 102, 590, 3588, 22617, 146460, 968520)


@contextmanager
def criterion(number: int, description: str, budget_seconds: float | None = None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[criterion {number:2d}] FAIL: {description}")
        raise
    elapsed = time.perf_counter() - start
    assert budget_seconds is None or elapsed < budget_seconds, (
        f"criterion {number} took {elapsed:.1f}s, budget {budget_seconds}s"
    )
    print(f"[criterion {number:2d}] PASS: {description} ({elapsed:.2f}s)")


def test_criterion_01_nonnesting_sequence_both_routes():
    with criterion(1, "non-nesting 231 counts, recurrence and series", 1.0):
        assert nonnesting_231_system(10)["p231"].values == P231_HEAD
        solved = solve_algebraic(builtin_equation(Discipline.NON_NESTING), 1, 10)
        assert tuple(c.numerator for c in solved.coefficients) == P231_HEAD
        assert all(c.denominator == 1 for c in solved.coefficients)


def test_criterion_02_noncrossing_sequence_both_routes():
    with criterion(2, "non-crossing 231 counts, recurrence and series", 1.0):
        assert noncrossing_231_system(9)["pbar231"].values == PBAR231_HEAD
        solved = solve_algebraic(builtin_equation(Discipline.NON_CROSSING), 1, 9)
        assert tuple(c.numerator for c in solved.coefficients) == PBAR231_HEAD
        assert all(c.denominator == 1 for c in solved.coefficients)


def test_criterion_03_oracle_equivalence_up_to_6():
    with criterion(3, "brute force matches tables and n!*C(n) for n <= 6", 120.0):
        nn = nonnesting_231_system(6)
        nc = noncrossing_231_system(6)
        import math

        for n in range(7):
            for disc in Discipline:
                baseline = count_by_constraint(n, disc, ())
                assert baseline[Constraint.NONE] == math.factorial(n) * catalan(n)
            counts = count_by_constraint(n, Discipline.NON_NESTING, (P231,))
            assert counts[Constraint.NONE] == nn["p231"][n]
            assert counts[Constraint.FIRST_IS_1] == nn["q231"][n]
            assert counts[Constraint.LAST_IS_N] == nn["r231"][n]
            assert counts[Constraint.BOTH] == nn["rprime231"][n]
            counts = count_by_constraint(n, Discipline.NON_CROSSING, (P231,))
            assert counts[Constraint.NONE] == nc["pbar231"][n]
            assert counts[Constraint.FIRST_IS_1] == nc["qbar231"][n]


def test_criterion_04_closed_forms_up_to_6():
    with criterion(4, "brute force matches the 122 closed forms for n <= 6", 120.0):
        fib = (1, 2, 3, 5, 8, 13)
        for n in range(1, 7):
            counted = count_by_constraint(n, Discipline.NON_CROSSING, FAMILIES_122)
            counts = {key: c[Constraint.NONE] for key, c in counted.items()}
            assert counts["122"] == catalan(n)
            assert counts["122,132"] == catalan(n)
            assert counts["122,213"] == fib[n - 1]
            assert counts["122,231"] == 2 ** (n - 1)
            assert counts["122,123"] == 2 ** (n - 1)
            assert counts["122,312"] == n
            expected_321 = (1, 2)[n - 1] if n <= 2 else 0
            assert counts["122,321"] == expected_321


def test_criterion_05_window_structure_up_to_5():
    with criterion(5, "max-label window structure holds for all avoiders, n <= 5"):
        for n in range(6):
            for word in labeled_words(n, Discipline.NON_NESTING):
                if contains(word, P231):
                    continue
                assert window_traffic_ok(word), word
                assert window_extremes_ok(word), word


def test_criterion_06_residual_zero_to_order_60():
    with criterion(6, "series solutions satisfy their equations to order 60"):
        for disc in Discipline:
            equation = builtin_equation(disc)
            solved = solve_algebraic(equation, 1, 60)
            assert residual(equation, solved).is_zero()
            assert all(c.denominator == 1 for c in solved.coefficients)


def test_criterion_07_growth_roots_and_rates():
    with criterion(7, "radicand roots and growth rates bracket the known values"):
        cases = [
            (Discipline.NON_NESTING, "0.161809", Fraction(1, 10**5), "6.1801"),
            (Discipline.NON_CROSSING, "0.12791", Fraction(1, 10**4), "7.81774"),
        ]
        for disc, root_text, tolerance, rate_text in cases:
            approx = minimal_positive_root(builtin_radicand(disc), tolerance)
            assert approx.high - approx.low <= tolerance
            mid = (approx.low + approx.high) / 2
            assert abs(mid - Fraction(root_text)) <= tolerance
            rate = growth_rate(disc, Fraction(1, 1000))
            rate_mid = (rate.low + rate.high) / 2
            assert abs(rate_mid - Fraction(rate_text)) <= Fraction(1, 1000)


def test_criterion_08_large_index_ratios():
    with criterion(8, "consecutive-term ratios at indices up to 600", 30.0):
        pbar = family_table("pbar231", 600)
        assert ratio(pbar, 300, 5).value == "7.77875"
        assert ratio(pbar, 600, 5).value == "7.79822"
        p = family_table("p231", 250)
        assert ratio(p, 250, 3).value == "6.143"
        assert abs(Fraction(p[250], p[249]) - Fraction("6.143")) <= Fraction(1, 1000)


def test_criterion_09_unique_decreasing_labeling_up_to_6():
    with criterion(9, "exactly one labeling per matching avoids 122, n <= 6"):
        for n in range(7):
            assert decreasing_labeling_is_unique_122_avoider(n)


def test_criterion_10_bfile_round_trip_all_families():
    with criterion(10, "b-file export/parse round trip at N = 50"):
        for family in FAMILIES:
            table = family_table(family, 50)
            assert decoded("bfile", to_bfile(table)) == (None, list(table.items()))


def test_criterion_11_oracle_equivalence_at_7():
    description = "brute force matches the six 231 tables and 122 closed forms at n = 7"
    with criterion(11, description, 10.0):
        n = 7
        nn = count_by_constraint(n, Discipline.NON_NESTING, (P231,))
        nc = count_by_constraint(n, Discipline.NON_CROSSING, {"231": (P231,)} | FAMILIES_122)
        counted = {
            "p231": nn[Constraint.NONE],
            "q231": nn[Constraint.FIRST_IS_1],
            "r231": nn[Constraint.LAST_IS_N],
            "rprime231": nn[Constraint.BOTH],
            "pbar231": nc["231"][Constraint.NONE],
            "qbar231": nc["231"][Constraint.FIRST_IS_1],
        }
        counted |= {f"q{key}": nc[key][Constraint.NONE] for key in FAMILIES_122}
        for family, count in counted.items():
            assert family_table(family, n)[n] == count, family
