import random
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from ncnperms.core import Discipline, ValidationError
from ncnperms.growth import (
    MAX_SCAN_SUBDIVISIONS,
    DecimalApprox,
    IntPolynomial,
    RootNotFoundError,
    _places_for,
    builtin_radicand,
    format_decimal,
    growth_rate,
    minimal_positive_root,
    ratio,
    round_half_even,
)
from ncnperms.recurrences import SequenceTable, family_table

NN_RADICAND = (0, 0, 0, 0, 0, 0, 0, 0, -1, 4, -2, 92, 47, -140, -76, 16, -8)
NC_RADICAND = (0, 0, 0, -108, 621, 432, 10206, 432, 621, -108)


def test_int_polynomial():
    p = IntPolynomial((1, 2, 0))  # trailing zeros drop
    assert p.coefficients == (1, 2)
    assert p.degree == 1
    assert p.evaluate(Fraction(1, 2)) == 2
    assert IntPolynomial((0, 0)).is_zero
    with pytest.raises(ValidationError):
        IntPolynomial(()).degree


def rational_horner(coefficients: tuple[int, ...], x: Fraction) -> Fraction:
    """p(x) by Horner's rule over Fraction, independent of the integer pass."""
    value = Fraction(0)
    for coefficient in reversed(coefficients):
        value = value * x + coefficient
    return value


def test_int_polynomial_evaluate_matches_rational_horner():
    # the integer route scales c_i by b^(d-i) and divides once by b^d
    rng = random.Random(11)
    points = [
        Fraction(3, 8), Fraction(-5, 2**40), Fraction(1, 2**200),  # dyadic
        Fraction(2, 3), Fraction(-7, 10**30), Fraction(355, 113),  # non-dyadic
        Fraction(0), Fraction(1), Fraction(-4), 5,  # integer
    ]
    assert IntPolynomial(()).evaluate(Fraction(2, 3)) == 0
    for degree in range(17):
        coefficients = tuple(rng.randint(-10**6, 10**6) for _ in range(degree)) + (
            rng.choice((-1, 1)) * rng.randint(1, 10**6),
        )
        polynomial = IntPolynomial(coefficients)
        for x in points:
            value = polynomial.evaluate(x)
            assert type(value) is Fraction
            assert value == rational_horner(coefficients, Fraction(x)), (degree, x)


def test_builtin_radicands():
    nn = builtin_radicand(Discipline.NON_NESTING)
    nc = builtin_radicand(Discipline.NON_CROSSING)
    assert nn.coefficients == NN_RADICAND
    assert nc.coefficients == NC_RADICAND
    assert nn.coefficients[12] == 47
    assert nc.coefficients[6] == 10206
    assert nc.evaluate(0) == 0


def test_rounding_half_even():
    assert round_half_even(Fraction(1, 8), 2) == Fraction(12, 100)
    assert round_half_even(Fraction(3, 8), 2) == Fraction(38, 100)
    assert format_decimal(Fraction(1, 8), 2) == "0.12"
    assert format_decimal(Fraction(3, 8), 2) == "0.38"
    assert format_decimal(Fraction(-1, 8), 2) == "-0.12"
    assert format_decimal(Fraction(5), 0) == "5"
    assert format_decimal(Fraction(1, 2), 3) == "0.500"


def test_decimal_approx_brackets_its_interval():
    approx = DecimalApprox(Fraction(1, 3), Fraction(2, 5), places=3)
    value = Fraction(approx.value)
    bound = Fraction(approx.error_bound)
    assert bound > 0
    assert value - bound <= Fraction(1, 3) and Fraction(2, 5) <= value + bound
    with pytest.raises(ValidationError):
        DecimalApprox(Fraction(1), Fraction(0), places=3)


def test_exact_rational_root():
    approx = minimal_positive_root(IntPolynomial((-1, 2)), Fraction(1, 10**9))
    assert approx.low == approx.high == Fraction(1, 2)
    assert approx.value == "0.500000000"


def test_root_excludes_trivial_factor():
    # x * (2x - 1): the zero root is divided out, not reported
    approx = minimal_positive_root(IntPolynomial((0, -1, 2)), Fraction(1, 100))
    assert approx.low == approx.high == Fraction(1, 2)
    assert approx.notes == ("divided out trivial factor x^1",)


@pytest.mark.parametrize(
    "discipline,target,tolerance",
    [
        (Discipline.NON_NESTING, "0.161809", Fraction(1, 10**5)),
        (Discipline.NON_CROSSING, "0.12791", Fraction(1, 10**4)),
    ],
)
def test_builtin_radicand_roots(discipline, target, tolerance):
    approx = minimal_positive_root(builtin_radicand(discipline), tolerance)
    assert approx.high - approx.low <= tolerance
    mid = (approx.low + approx.high) / 2
    assert abs(mid - Fraction(target)) <= tolerance


def test_bracket_endpoints_have_opposite_signs():
    for discipline in Discipline:
        radicand = builtin_radicand(discipline)
        approx = minimal_positive_root(radicand, Fraction(1, 10**6))
        stripped = next(i for i, c in enumerate(radicand.coefficients) if c)
        reduced = IntPolynomial(radicand.coefficients[stripped:])
        v_low = reduced.evaluate(approx.low)
        v_high = reduced.evaluate(approx.high)
        assert v_low != 0 and v_high != 0
        assert (v_low > 0) != (v_high > 0)


def test_halving_tolerance_nests_the_bracket():
    radicand = builtin_radicand(Discipline.NON_NESTING)
    tolerance = Fraction(1, 1000)
    previous = minimal_positive_root(radicand, tolerance)
    for _ in range(8):
        tolerance /= 2
        current = minimal_positive_root(radicand, tolerance)
        assert previous.low <= current.low and current.high <= previous.high
        previous = current


def _fraction_bracket(polynomial, tolerance):
    """The grid scan and bisection on Fractions, the reference for the
    integer bisection: the bracket (low, high), or RootNotFoundError."""
    coefficients = polynomial.coefficients
    reduced = IntPolynomial(coefficients[next(i for i, c in enumerate(coefficients) if c) :])
    positive_at_zero = reduced.coefficients[0] > 0
    subdivisions = 1
    while subdivisions <= MAX_SCAN_SUBDIVISIONS:
        for t in range(1, subdivisions + 1):
            lo, hi = Fraction(t - 1, subdivisions), Fraction(t, subdivisions)
            v = reduced.evaluate(hi)
            if v == 0:
                return hi, hi
            if (v > 0) != positive_at_zero:
                while hi - lo > tolerance:
                    mid = (lo + hi) / 2
                    v = reduced.evaluate(mid)
                    if v == 0:
                        return mid, mid
                    lo, hi = (mid, hi) if (v > 0) == positive_at_zero else (lo, mid)
                return lo, hi
        subdivisions *= 2
    raise RootNotFoundError


def _places_by_fractions(tolerance):
    places = 1
    while Fraction(1, 10**places) > tolerance:
        places += 1
    return places


@pytest.mark.parametrize("places", range(1, 61))
@pytest.mark.parametrize("discipline", list(Discipline))
def test_integer_bisection_returns_the_fraction_bracket(discipline, places):
    radicand = builtin_radicand(discipline)
    tolerance = Fraction(1, 10**places)
    approx = minimal_positive_root(radicand, tolerance)
    assert (approx.low, approx.high) == _fraction_bracket(radicand, tolerance)
    assert approx.places == places


@pytest.mark.parametrize(
    "coefficients, root",
    [((-1, 2), Fraction(1, 2)), ((-3, 8), Fraction(3, 8))],  # grid point, bisection midpoint
)
def test_integer_bisection_stops_on_an_exact_root(coefficients, root):
    approx = minimal_positive_root(IntPolynomial(coefficients), Fraction(1, 10**9))
    assert approx.low == approx.high == root
    assert _fraction_bracket(IntPolynomial(coefficients), Fraction(1, 10**9)) == (root, root)


@given(
    st.lists(st.integers(-50, 50), min_size=2, max_size=9).filter(any),
    st.fractions(Fraction(1, 10**40), Fraction(2)),
)
@example([1, 0, 1], Fraction(1, 100))  # x^2 + 1, no root
@example([0, 0, -3, 8], Fraction(1, 10**6))
@example([-1, 3], Fraction(1, 64))  # a tolerance the bracket width can equal
def test_integer_bisection_matches_fractions_on_any_polynomial(coefficients, tolerance):
    polynomial = IntPolynomial(tuple(coefficients))
    try:
        expected = _fraction_bracket(polynomial, tolerance)
    except RootNotFoundError:
        with pytest.raises(RootNotFoundError):
            minimal_positive_root(polynomial, tolerance)
        return
    approx = minimal_positive_root(polynomial, tolerance)
    assert (approx.low, approx.high) == expected
    assert approx.places == _places_by_fractions(tolerance)


def test_places_match_the_fraction_count_over_growth_tolerances():
    tolerances = [Fraction(1, 10**p) for p in range(61)]
    tolerances += [t * Fraction(k, 7) for t in tolerances for k in (6, 8)]
    tolerances += [Fraction(1, 10**p + 1) for p in range(61)]
    tolerances += [Fraction(1, 10**p - 1) for p in range(1, 61)]
    for tolerance in tolerances:
        if Fraction(1, 10**60) <= tolerance <= 1:
            assert _places_for(tolerance) == _places_by_fractions(tolerance), tolerance


def test_root_not_found():
    with pytest.raises(RootNotFoundError):
        minimal_positive_root(IntPolynomial((1, 0, 1)), Fraction(1, 100))  # x^2 + 1
    with pytest.raises(ValidationError):
        minimal_positive_root(IntPolynomial(()), Fraction(1, 100))
    with pytest.raises(ValidationError):
        minimal_positive_root(IntPolynomial((-1, 2)), Fraction(0))


@pytest.mark.parametrize(
    "discipline,target",
    [(Discipline.NON_NESTING, "6.1801"), (Discipline.NON_CROSSING, "7.81774")],
)
def test_growth_rates(discipline, target):
    approx = growth_rate(discipline, Fraction(1, 1000))
    mid = (approx.low + approx.high) / 2
    assert abs(mid - Fraction(target)) <= Fraction(1, 1000)
    assert approx.high - approx.low <= Fraction(1, 1000)


def test_growth_rate_value_rendering():
    assert growth_rate(Discipline.NON_CROSSING).value == "7.81774"


def test_root_value_rendering_at_fine_tolerance():
    approx = minimal_positive_root(
        builtin_radicand(Discipline.NON_NESTING), Fraction(1, 10**6)
    )
    assert approx.value == "0.161809"


@pytest.mark.parametrize(
    "discipline,places,value,bound_units",
    [
        (Discipline.NON_NESTING, 30, "6.180122065548659284625417633749", 86),
        (Discipline.NON_CROSSING, 30, "7.817744675934363226933673178936", 52),
        (
            Discipline.NON_NESTING,
            60,
            "6.180122065548659284625417633748672105581008601732559496938762",
            56,
        ),
        (
            Discipline.NON_CROSSING,
            60,
            "7.817744675934363226933673178935977404168882789528103540114138",
            41,
        ),
    ],
)
def test_growth_rate_digits_at_fine_tolerances(discipline, places, value, bound_units):
    # frozen from the rational Horner evaluation; the bound has places + 2 digits
    approx = growth_rate(discipline, Fraction(1, 10**places))
    assert approx.value == value
    assert approx.error_bound == f"0.{bound_units:0{places + 2}d}"


def test_ratio_small_table():
    table = SequenceTable("demo", (1, 2, 3))
    approx = ratio(table, 2, 3)
    assert approx.value == "1.500"
    assert approx.low == approx.high == Fraction(3, 2)


def test_ratio_validation():
    table = SequenceTable("demo", (0, 1, 2))
    with pytest.raises(ValidationError):
        ratio(table, 1, 3)  # predecessor is zero
    with pytest.raises(ValidationError):
        ratio(table, 3, 3)  # out of range
    with pytest.raises(ValidationError):
        ratio(table, 2, 0)  # no places


def test_ratio_trend_stays_below_growth_rate():
    nc_rate = Fraction(growth_rate(Discipline.NON_CROSSING).value)
    pbar = family_table("pbar231", 600)
    pbar_ratios = [Fraction(pbar[n], pbar[n - 1]) for n in (100, 200, 300, 600)]
    assert all(a < b for a, b in zip(pbar_ratios, pbar_ratios[1:]))
    assert all(r < nc_rate + Fraction(1, 100) for r in pbar_ratios)

    p = family_table("p231", 600)
    p_ratios = [Fraction(p[n], p[n - 1]) for n in (100, 200, 300, 600)]
    assert all(a < b for a, b in zip(p_ratios, p_ratios[1:]))
    assert all(r < Fraction("6.1801") + Fraction(1, 100) for r in p_ratios)
