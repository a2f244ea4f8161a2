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

Newton iteration (Brent & Kung, J. ACM 1978) turns y, exact to x**p, into
y - F(y)/F_y(y), exact to x**t for any t <= 2p+1.  The solver steps down from
the target: it lands on order // 2**k for k = K, ..., 1, 0 (K + 1 the bit
length of the order), so its last step starts from order // 2 + 1 known
coefficients rather than overshooting from 2**K.  Each step does only the
work that step needs, and forms every coefficient of a product or quotient
as one C-level ``sum(map(operator.mul, ...))`` over the indices where both
factors have entries:

- the powers of y are built from a y of p+1 entries, not padded to the
  target order; an even power squares the half power, forming each cross
  term a_i*a_j (i < j) once and doubling it, and an odd power multiplies the
  power below by y;
- F(y) must vanish to x**p.  The step checks that, and never assumes it.
  The update F(y)/F_y(y) then starts at x**(p+1), so F_y(y) is needed only
  to t - p - 1, and one online series division of the non-zero part of F(y)
  by F_y(y) gives the update, with no reciprocal of F_y formed first.

Kronecker substitution (packing a series into one big integer) was measured
and not taken: CPython multiplies big integers by Karatsuba at best, and the
coefficients' widely varying sizes make the padding costly.
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul
from typing import Mapping, Sequence

from .core import Discipline, Immutable, ValidationError

RationalLike = Fraction | int


class SolverError(ValueError):
    """The implicit equation fails a solvability precondition, or a Newton
    step is handed a partial solution that does not solve it."""


def _narrow(value: Fraction) -> RationalLike:
    return value.numerator if value.denominator == 1 else value


def _truncated_product(
    a: Sequence[RationalLike], b: Sequence[RationalLike], order: int
) -> list[RationalLike]:
    """Coefficients 0..order of a * b.  The solver's own product, kept apart
    from the products of the recurrence tables' reference route."""
    last_a, last_b = len(a) - 1, len(b) - 1
    rev_b = b[::-1]  # b[m - i] is rev_b[last_b - m + i]
    out: list[RationalLike] = [0] * (order + 1)
    for m in range(min(order, last_a + last_b) + 1):
        i0, i1 = max(0, m - last_b), min(m, last_a)
        start = last_b - m
        out[m] = sum(map(mul, a[i0 : i1 + 1], rev_b[start + i0 : start + i1 + 1]))
    return out


def _truncated_square(a: Sequence[RationalLike], order: int) -> list[RationalLike]:
    """Coefficients 0..order of a*a, each cross term a_i*a_j (i < j) formed once."""
    last = len(a) - 1
    rev_a = a[::-1]  # a[m - i] is rev_a[last - m + i]
    out: list[RationalLike] = [0] * (order + 1)
    for m in range(min(order, 2 * last) + 1):
        i0, i1 = max(0, m - last), (m - 1) // 2
        start = last - m
        total = 2 * sum(map(mul, a[i0 : i1 + 1], rev_a[start + i0 : start + i1 + 1]))
        if m % 2 == 0:
            total += a[m // 2] * a[m // 2]
        out[m] = total
    return out


class TruncatedSeries(Immutable):
    """The solver's result: a power series known exactly up to x**order."""

    coefficients: tuple[Fraction, ...]
    __slots__ = ("coefficients",)

    def __init__(self, coefficients: Sequence[RationalLike]) -> None:
        coeffs = tuple(Fraction(c) for c in coefficients)
        if not coeffs:
            raise ValidationError("a truncated series stores at least order 0")
        object.__setattr__(self, "coefficients", coeffs)

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
    """y^0 .. y^degree, truncated to x**order; a list may stop short of
    order + 1 entries where the power's support does (y^0 is [1])."""
    y = y[: order + 1]
    powers = [[1], y][: degree + 1]
    for k in range(2, degree + 1):
        if k % 2 == 0:
            powers.append(_truncated_square(powers[k // 2], order))
        else:
            powers.append(_truncated_product(powers[k - 1], y, order))
    return powers


class BivariatePolynomial(Immutable):
    """An integer polynomial in x and y, stored as (x-degree, y-degree) -> coefficient."""

    coefficients: Mapping[tuple[int, int], int]
    __slots__ = ("coefficients",)

    def __init__(self, coefficients: Mapping[tuple[int, int], int]) -> None:
        cleaned = {
            (int(i), int(j)): int(c)
            for (i, j), c in dict(coefficients).items()
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

        ``powers``, from ``_power_table(y, n, d)`` with n >= order and d >= the
        y-degree, saves rebuilding the powers of y when several polynomials
        share them.
        """
        if powers is None:
            powers = _power_table(y, order, self.y_degree)
        out = [0] * (order + 1)
        for (i, j), c in self.coefficients.items():
            if i > order:
                continue
            for m, v in enumerate(powers[j][: order + 1 - i], start=i):
                out[m] += c * v
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


def _truncated_quotient(
    v: Sequence[RationalLike], s: Sequence[RationalLike], count: int
) -> list[RationalLike]:
    """The first ``count`` coefficients q of v / s, for s_0 != 0 and v of at
    least ``count`` entries: q_m = (v_m - sum over k >= 1 of s_k q_(m-k)) / s_0."""
    inv0 = _narrow(1 / Fraction(s[0]))
    last = len(s) - 1
    rev_s = s[::-1]  # s[k] is rev_s[last - k]
    q: list[RationalLike] = []
    for m in range(count):
        k = min(m, last)
        q.append((v[m] - sum(map(mul, rev_s[last - k : last], q[m - k :]))) * inv0)
    return q


def _newton_step(
    equation: BivariatePolynomial, y: list[RationalLike], order: int
) -> list[RationalLike]:
    """y, exact to x**prev (prev = len(y) - 1), extended to x**min(2*prev + 1, order).

    Raises SolverError if F(x, y(x)) does not vanish to x**prev.
    """
    prev = len(y) - 1
    correct = min(2 * prev + 1, order)
    powers = _power_table(y, correct, equation.y_degree)
    value = equation.compose(y, correct, powers)
    if any(value[: prev + 1]):
        raise SolverError(
            f"F(x, y(x)) does not vanish to x^{prev}: the partial solution is wrong"
        )
    half = correct - prev - 1
    slope = equation.derivative_y().compose(y, half, powers)
    return y + [-u for u in _truncated_quotient(value[prev + 1 :], slope, half + 1)]


def solve_algebraic(
    equation: BivariatePolynomial, y0: RationalLike, order: int
) -> TruncatedSeries:
    """The unique series y with y(0) = y0 and F(x, y(x)) = 0 mod x**(order+1).

    Preconditions (checked): F(0, y0) = 0 and dF/dy(0, y0) != 0.  Newton
    iteration steps to order // 2**k for k = order.bit_length() - 1, ..., 0.
    The preconditions make the output its own certificate: a series with
    y(0) = y0 and a zero ``residual`` to order N is the only solution to
    order N.
    """
    if order < 0:
        raise ValidationError("order must be non-negative")
    y0 = _narrow(Fraction(y0))
    _check_simple_root(equation, y0)
    coeffs = [y0]
    for target in reversed([order >> k for k in range(order.bit_length())]):
        coeffs = _newton_step(equation, coeffs, target)
    return TruncatedSeries(tuple(coeffs))


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
