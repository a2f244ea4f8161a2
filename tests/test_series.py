import random
from fractions import Fraction

import pytest

from ncnperms.core import Discipline, ValidationError
from ncnperms.recurrences import catalan, nonnesting_231_system, noncrossing_231_system
from ncnperms.series import (
    BivariatePolynomial,
    SolverError,
    TruncatedSeries,
    _newton_step,
    _power_table,
    _truncated_product,
    _truncated_quotient,
    _truncated_square,
    builtin_equation,
    residual,
    solve_algebraic,
)

GEOMETRIC = BivariatePolynomial({(0, 1): 1, (0, 0): -1, (1, 1): -1})  # y - 1 - x*y


def series(*coeffs):
    return TruncatedSeries(tuple(Fraction(c) for c in coeffs))


def test_series_validation_and_order():
    assert series(1, 2).order == 1
    with pytest.raises(ValidationError):
        TruncatedSeries(())


def test_render_and_strings():
    s = series(1, 0, Fraction(-4))
    assert s.render() == "1 + 0*x + -4*x^2"
    assert s.coefficient_strings() == ["1", "0", "-4"]
    assert series(Fraction(1, 3)).coefficient_strings() == ["1/3"]


def test_bivariate_polynomial_basics():
    cubic = builtin_equation(Discipline.NON_NESTING)
    quartic = builtin_equation(Discipline.NON_CROSSING)
    assert cubic.evaluate(0, 1) == 0
    assert quartic.evaluate(0, 1) == 0
    assert cubic.derivative_y().evaluate(0, 1) == 1
    assert quartic.derivative_y().evaluate(0, 1) == 1
    assert cubic.y_degree == 3
    assert quartic.y_degree == 4
    with pytest.raises(ValidationError):
        BivariatePolynomial({(-1, 0): 1})


def test_solver_geometric_series():
    assert solve_algebraic(GEOMETRIC, 1, 4) == series(1, 1, 1, 1, 1)


def test_solver_published_expansions():
    cubic = solve_algebraic(builtin_equation(Discipline.NON_NESTING), 1, 10)
    assert [c.numerator for c in cubic.coefficients] == [
        1, 1, 4, 17, 77, 367, 1815, 9233, 48014, 254123, 1364491,
    ]
    quartic = solve_algebraic(builtin_equation(Discipline.NON_CROSSING), 1, 9)
    assert [c.numerator for c in quartic.coefficients] == [
        1, 1, 4, 19, 102, 590, 3588, 22617, 146460, 968520,
    ]


def test_solver_output_is_integral_for_builtins():
    for disc in Discipline:
        solved = solve_algebraic(builtin_equation(disc), 1, 60)
        assert all(c.denominator == 1 for c in solved.coefficients)


def test_residual_zero_for_builtin_solutions():
    for disc in Discipline:
        equation = builtin_equation(disc)
        solved = solve_algebraic(equation, 1, 60)
        assert residual(equation, solved).is_zero()


def test_residual_detects_non_solutions():
    assert residual(GEOMETRIC, series(1, 1)).is_zero()
    quartic = builtin_equation(Discipline.NON_CROSSING)
    res = residual(quartic, series(1, 1, 0))
    assert res == series(0, 0, -4)


def test_solver_agrees_with_recurrences_to_order_600():
    nn = nonnesting_231_system(600)["p231"]
    nc = noncrossing_231_system(600)["pbar231"]
    cubic = solve_algebraic(builtin_equation(Discipline.NON_NESTING), 1, 600)
    quartic = solve_algebraic(builtin_equation(Discipline.NON_CROSSING), 1, 600)
    for n in range(601):
        assert cubic[n] == nn[n]
        assert quartic[n] == nc[n]


def test_solver_rational_root_and_non_unit_slope():
    # 2y - 1 - x*y^2 = 0 has y(0) = 1/2 and dF/dy(0, 1/2) = 2; its root
    # (1 - sqrt(1 - x))/x has the coefficients catalan(n) / 2^(2n + 1)
    halves = BivariatePolynomial({(0, 1): 2, (0, 0): -1, (1, 2): -1})
    expected = tuple(Fraction(catalan(n), 2 ** (2 * n + 1)) for n in range(40))
    for order in range(40):
        solved = solve_algebraic(halves, Fraction(1, 2), order)
        assert solved.coefficients == expected[: order + 1]
    assert all(type(c) is Fraction for c in solved.coefficients)
    assert residual(halves, solved).is_zero()
    # an integral root behind the slope 2 still comes out exact
    doubled = BivariatePolynomial({(0, 1): 2, (0, 0): -2, (1, 1): -2})
    assert solve_algebraic(doubled, 1, 6) == solve_algebraic(GEOMETRIC, 1, 6)


def test_solver_output_starts_at_y0_with_zero_residual():
    for equation in (GEOMETRIC, builtin_equation(Discipline.NON_NESTING)):
        solved = solve_algebraic(equation, 1, 40)
        assert solved.order == 40
        assert solved[0] == 1
        assert residual(equation, solved).is_zero()


def test_solver_agrees_with_recurrences_across_orders():
    # Newton steps to order >> k for k = bit_length - 1, ..., 0: order 0 takes
    # no step, and orders 0 to 130 cover chains of up to eight steps, with
    # each step landing one short of doubling or exactly on it
    nn = nonnesting_231_system(130)["p231"]
    nc = noncrossing_231_system(130)["pbar231"]
    for order in range(131):
        for disc, table in ((Discipline.NON_NESTING, nn), (Discipline.NON_CROSSING, nc)):
            solved = solve_algebraic(builtin_equation(disc), 1, order)
            assert solved.order == order
            assert solved.coefficients == tuple(map(Fraction, table.values[: order + 1]))


def test_newton_step_rejects_a_partial_solution_that_does_not_vanish():
    for disc in Discipline:
        equation = builtin_equation(disc)
        exact = [c.numerator for c in solve_algebraic(equation, 1, 15).coefficients]
        assert _newton_step(equation, exact[:8], 15) == exact
        for k in range(8):
            corrupted = exact[:8]
            corrupted[k] += 1
            with pytest.raises(SolverError, match="does not vanish"):
                _newton_step(equation, corrupted, 15)


def test_solver_steps_down_from_the_target_order(monkeypatch):
    steps = []

    def recording_step(equation, y, target):
        steps.append((len(y) - 1, target))
        return _newton_step(equation, y, target)

    monkeypatch.setattr("ncnperms.series._newton_step", recording_step)
    for disc in Discipline:
        for order in range(131):
            steps.clear()
            assert solve_algebraic(builtin_equation(disc), 1, order).order == order
            targets, halved = [], order  # order, order // 2, ..., 1, rising
            while halved:
                targets.insert(0, halved)
                halved //= 2
            assert [target for _, target in steps] == targets
            assert len(steps) == order.bit_length()
            # each step starts where the one before landed, the last from
            # order // 2 + 1 known coefficients
            assert [known for known, _ in steps] == [0, *targets][:-1]
            assert not order or steps[-1][0] == order // 2


def _product_by_definition(a, b, order):
    """sum of a_i * b_(m-i), for m = 0..order."""
    return [
        sum(a[i] * b[m - i] for i in range(m + 1) if i < len(a) and m - i < len(b))
        for m in range(order + 1)
    ]


def _padded(coeffs, order):
    return (list(coeffs) + [0] * (order + 1))[: order + 1]


def _draw(rng, exact, length):
    """``length`` random signed values of up to 40 digits, as ints or Fractions."""
    numbers = [rng.randint(-(10**40), 10**40) for _ in range(length)]
    return numbers if exact is int else [Fraction(n, rng.randint(1, 97)) for n in numbers]


@pytest.mark.parametrize("exact", [int, Fraction])
def test_products_match_the_definition(exact):
    rng = random.Random(20261018)
    for _ in range(300):
        a, b = _draw(rng, exact, rng.randint(1, 9)), _draw(rng, exact, rng.randint(1, 9))
        order = rng.randint(0, 20)
        assert _truncated_product(a, b, order) == _product_by_definition(a, b, order)
        assert _truncated_square(a, order) == _product_by_definition(a, a, order)
    assert _truncated_product([2, 3], [5], 0) == [10]
    assert _truncated_square([7, 1], 0) == [49]


@pytest.mark.parametrize("exact", [int, Fraction])
def test_quotient_matches_the_definition(exact):
    # q = v / s to ``count`` terms exactly when (q * s) mod x^count is v
    rng = random.Random(20261019)
    for trial in range(300):
        count = rng.randint(0, 20)  # 0 included, and s often shorter than count
        v, s = _draw(rng, exact, count), _draw(rng, exact, rng.randint(1, 9))
        s[0] = exact(rng.choice([1, -1])) if trial % 2 else s[0] or 3  # unit and non-unit s_0
        q = _truncated_quotient(v, s, count)
        assert len(q) == count
        if count:
            assert _product_by_definition(q, s, count - 1) == v
    assert _truncated_quotient([6, 0, 5], [2], 3) == [3, 0, Fraction(5, 2)]
    assert _truncated_quotient([1, 0, 0, 0], [1, -1], 4) == [1, 1, 1, 1]
    assert _truncated_quotient([7], [5, 1], 0) == []


def test_power_table_matches_repeated_products():
    rng = random.Random(6)
    for degree in range(7):
        for length, order in ((1, 0), (1, 4), (3, 5), (6, 11), (9, 4)):
            y = [rng.randint(-50, 50) for _ in range(length)]
            table = _power_table(y, order, degree)
            assert len(table) == degree + 1
            plain = [1]
            for power in table:
                assert len(power) <= order + 1
                assert _padded(power, order) == _padded(plain, order)
                plain = _product_by_definition(plain, y, order)


def test_truncation_consistency():
    equation = builtin_equation(Discipline.NON_NESTING)
    long, short = solve_algebraic(equation, 1, 30), solve_algebraic(equation, 1, 12)
    assert long.coefficients[:13] == short.coefficients


def test_solver_precondition_errors():
    with pytest.raises(SolverError):
        solve_algebraic(GEOMETRIC, 2, 5)  # F(0, 2) = 1 != 0
    double_root = BivariatePolynomial({(0, 2): 1, (0, 1): -2, (0, 0): 1, (1, 0): -1})
    # (y - 1)^2 - x: root at (0, 1) is not simple
    with pytest.raises(SolverError):
        solve_algebraic(double_root, 1, 5)
    with pytest.raises(ValidationError):
        solve_algebraic(GEOMETRIC, 1, -1)


def _random_solvable(rng: random.Random) -> tuple[BivariatePolynomial, int]:
    while True:
        y0 = rng.randint(-2, 2)
        grid = {
            (i, j): rng.randint(-3, 3)
            for i in range(0, 3)
            for j in range(0, 3)
            if rng.random() < 0.7
        }
        poly = BivariatePolynomial(grid)
        slope = poly.derivative_y().evaluate(0, y0)
        if slope == 0:
            continue
        # shift the constant term so the series root starts at y0
        shift = poly.evaluate(0, y0)
        grid[(0, 0)] = grid.get((0, 0), 0) - shift
        candidate = BivariatePolynomial(grid)
        if candidate.evaluate(0, y0) == 0 and candidate.derivative_y().evaluate(0, y0) != 0:
            return candidate, y0


def test_randomized_solutions_have_zero_residual():
    rng = random.Random(20250810)
    for _ in range(20):
        equation, y0 = _random_solvable(rng)
        solved = solve_algebraic(equation, y0, 12)
        assert solved[0] == y0
        assert residual(equation, solved).is_zero()
