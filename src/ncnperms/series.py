"""Truncated formal power series over exact rationals, and a solver that
extracts the unique power-series root of an implicit polynomial equation.

Given a polynomial F(x, y) with F(0, y0) = 0 and dF/dy nonzero at (0, y0),
there is exactly one power series y(x) with y(0) = y0 and F(x, y(x)) = 0;
the solver computes its truncation to any order.  Both generating functions
of the 231-avoiding families are defined this way, so their coefficients
can be read off without ever running the convolution recurrences -- an
independent route used for cross-validation.

No floating point enters this module.  The arithmetic is generic over int
and Fraction: it stays in plain integers when y0 is an integer and
dF/dy(0, y0) = +-1 (F has integer coefficients), and a Fraction appears only
where a division really produces one.  Results are Fractions at the API
boundary (``TruncatedSeries``); the residual F(x, y(x)) = 0 is checked exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .core import Discipline, ValidationError

RationalLike = Fraction | int


class SolverError(ValueError):
    """The implicit equation fails a solvability precondition."""


def _narrow(value: Fraction) -> RationalLike:
    return value.numerator if value.denominator == 1 else value


def _truncated_product(
    a: Sequence[RationalLike], b: Sequence[RationalLike], order: int
) -> list[RationalLike]:
    """Cauchy product to x**order: the solver's own, apart from recurrences._conv."""
    return [sum(a[i] * b[m - i] for i in range(m + 1)) for m in range(order + 1)]


@dataclass(frozen=True)
class TruncatedSeries:
    """The solver's result: a power series known exactly up to x**order."""

    coefficients: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        coeffs = tuple(Fraction(c) for c in self.coefficients)
        object.__setattr__(self, "coefficients", coeffs)
        if not coeffs:
            raise ValidationError("a truncated series stores at least order 0")

    @property
    def order(self) -> int:
        return len(self.coefficients) - 1

    def __getitem__(self, n: int) -> Fraction:
        return self.coefficients[n]

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coefficients)

    def render(self) -> str:
        """Human form "c0 + c1*x + ... + cN*x^N", every term shown."""
        parts = [str(self.coefficients[0])]
        for i, c in enumerate(self.coefficients[1:], start=1):
            parts.append(f"{c}*x" if i == 1 else f"{c}*x^{i}")
        return " + ".join(parts)

    def coefficient_strings(self) -> list[str]:
        """Exact decimal strings; non-integers render as "num/den"."""
        return [str(c) for c in self.coefficients]


def _power_table(
    y: list[RationalLike], order: int, degree: int
) -> list[list[RationalLike]]:
    """y^0 .. y^degree, each truncated to coefficients 0..order."""
    y = (y + [0] * (order + 1))[: order + 1]
    powers = [[1] + [0] * order, y][: degree + 1]
    while len(powers) <= degree:
        powers.append(_truncated_product(powers[-1], y, order))
    return powers


@dataclass(frozen=True)
class BivariatePolynomial:
    """An integer polynomial in x and y, stored as (x-degree, y-degree) -> coefficient."""

    coefficients: Mapping[tuple[int, int], int]

    def __post_init__(self) -> None:
        cleaned = {
            (int(i), int(j)): int(c)
            for (i, j), c in dict(self.coefficients).items()
            if c != 0
        }
        if any(i < 0 or j < 0 for i, j in cleaned):
            raise ValidationError("monomial degrees must be non-negative")
        object.__setattr__(self, "coefficients", cleaned)

    @property
    def y_degree(self) -> int:
        return max((j for _, j in self.coefficients), default=0)

    def evaluate(self, x: RationalLike, y: RationalLike) -> Fraction:
        x, y = Fraction(x), Fraction(y)
        return sum(
            (c * x**i * y**j for (i, j), c in self.coefficients.items()),
            Fraction(0),
        )

    def derivative_y(self) -> "BivariatePolynomial":
        return BivariatePolynomial(
            {(i, j - 1): c * j for (i, j), c in self.coefficients.items() if j > 0}
        )

    def compose(
        self,
        y: list[RationalLike],
        order: int,
        powers: list[list[RationalLike]] | None = None,
    ) -> list[RationalLike]:
        """Coefficients 0..order of F(x, y(x)) for y given as a coefficient list.

        ``powers``, from ``_power_table(y, order, d)`` with d >= the y-degree,
        saves rebuilding the powers of y when several polynomials share them.
        """
        if powers is None:
            powers = _power_table(y, order, self.y_degree)
        out = [0] * (order + 1)
        for (i, j), c in self.coefficients.items():
            if i > order:
                continue
            pj = powers[j]
            for m in range(i, order + 1):
                out[m] += c * pj[m - i]
        return out


def residual(equation: BivariatePolynomial, series: TruncatedSeries) -> TruncatedSeries:
    """F(x, y(x)) truncated at the order of ``series``; zero iff it solves F."""
    return TruncatedSeries(
        tuple(equation.compose([_narrow(c) for c in series.coefficients], series.order))
    )


def _check_simple_root(equation: BivariatePolynomial, y0: RationalLike) -> None:
    if equation.evaluate(0, y0) != 0:
        raise SolverError(
            f"F(0, {y0}) = {equation.evaluate(0, y0)} != 0: no series root starts there"
        )
    if equation.derivative_y().evaluate(0, y0) == 0:
        raise SolverError(
            f"dF/dy vanishes at (0, {y0}): the root is not simple, "
            "order-by-order extraction is not forced"
        )


def _reciprocal(f: list[RationalLike], order: int) -> list[RationalLike]:
    inv0 = _narrow(1 / Fraction(f[0]))
    inv = [inv0]
    for m in range(1, order + 1):
        acc = sum(f[i] * inv[m - i] for i in range(1, m + 1))
        inv.append(-inv0 * acc)
    return inv


def _solve_newton(
    equation: BivariatePolynomial, y0: RationalLike, order: int
) -> list[RationalLike]:
    # y <- y - F(y)/F'(y) doubles the number of correct coefficients per step.
    derivative = equation.derivative_y()
    coeffs = [y0]
    correct = 0
    while correct < order:
        correct = min(2 * correct + 1, order)
        powers = _power_table(coeffs, correct, equation.y_degree)
        value = equation.compose(coeffs, correct, powers)
        slope = derivative.compose(coeffs, correct, powers)
        update = _truncated_product(value, _reciprocal(slope, correct), correct)
        coeffs = (coeffs + [0] * (correct + 1 - len(coeffs)))[: correct + 1]
        coeffs = [coeffs[m] - update[m] for m in range(correct + 1)]
    return coeffs


def solve_algebraic(
    equation: BivariatePolynomial, y0: RationalLike, order: int
) -> TruncatedSeries:
    """The unique series y with y(0) = y0 and F(x, y(x)) = 0 mod x**(order+1).

    Preconditions (checked): F(0, y0) = 0 and dF/dy(0, y0) != 0.  Newton
    iteration with order doubling computes the root.  The preconditions make
    the output its own certificate: a series with y(0) = y0 and a zero
    ``residual`` to order N is the only solution to order N.
    """
    if order < 0:
        raise ValidationError("order must be non-negative")
    y0 = _narrow(Fraction(y0))
    _check_simple_root(equation, y0)
    return TruncatedSeries(tuple(_solve_newton(equation, y0, order)))


def builtin_equation(which: Discipline) -> BivariatePolynomial:
    """The implicit equation pinning down the 231-avoider generating function.

    Non-nesting (cubic in y):

        x^3 y^3 - (x^3 + 3x^2 + x) y^2 + (2x^2 - x + 1) y + (x - 1) = 0

    Non-crossing (quartic in y):

        x^2 y^4 - (x^2 + x) y^3 - x y^2 + (x + 1) y - 1 = 0

    Both have a simple series root at (0, 1), matching the single empty word
    of semilength 0.
    """
    if which is Discipline.NON_NESTING:
        return BivariatePolynomial(
            {
                (3, 3): 1,
                (3, 2): -1,
                (2, 2): -3,
                (1, 2): -1,
                (2, 1): 2,
                (1, 1): -1,
                (0, 1): 1,
                (1, 0): 1,
                (0, 0): -1,
            }
        )
    if which is Discipline.NON_CROSSING:
        return BivariatePolynomial(
            {
                (2, 4): 1,
                (2, 3): -1,
                (1, 3): -1,
                (1, 2): -1,
                (1, 1): 1,
                (0, 1): 1,
                (0, 0): -1,
            }
        )
    raise ValidationError(f"unknown discipline {which!r}")
