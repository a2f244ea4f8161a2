import random
from fractions import Fraction

import pytest

from ncnperms.core import Discipline, ValidationError
from ncnperms.recurrences import catalan, nonnesting_231_system, noncrossing_231_system
from ncnperms.series import (
    BivariatePolynomial,
    SolverError,
    TruncatedSeries,
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
    nn = nonnesting_231_system(600).unconstrained
    nc = noncrossing_231_system(600).unconstrained
    cubic = solve_algebraic(builtin_equation(Discipline.NON_NESTING), 1, 600)
    quartic = solve_algebraic(builtin_equation(Discipline.NON_CROSSING), 1, 600)
    for n in range(601):
        assert cubic[n] == nn[n]
        assert quartic[n] == nc[n]


def test_solver_rational_root_and_non_unit_slope():
    # 2y - 1 - x*y^2 = 0 has y(0) = 1/2 and dF/dy(0, 1/2) = 2; its root
    # (1 - sqrt(1 - x))/x has the coefficients catalan(n) / 2^(2n + 1)
    halves = BivariatePolynomial({(0, 1): 2, (0, 0): -1, (1, 2): -1})
    solved = solve_algebraic(halves, Fraction(1, 2), 30)
    assert solved.coefficients == tuple(
        Fraction(catalan(n), 2 ** (2 * n + 1)) for n in range(31)
    )
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
    # Newton fixes 1, 3, 7, ..., 63 coefficients: order 0 takes no step, 63
    # ends on a full doubling step, and 64, 65 and 80 cut the last one short
    nn = nonnesting_231_system(80).unconstrained
    nc = noncrossing_231_system(80).unconstrained
    for order in (0, 1, 63, 64, 65, 80):
        for disc, table in ((Discipline.NON_NESTING, nn), (Discipline.NON_CROSSING, nc)):
            solved = solve_algebraic(builtin_equation(disc), 1, order)
            assert solved.order == order
            for n in range(order + 1):
                assert solved[n] == table[n]


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
