"""Growth-rate analysis: exact root brackets and high-precision term ratios.

Solving the implicit equations in closed form puts a square root over a
fixed integer polynomial (the radicand); the smallest positive root of that
polynomial is the dominant singularity, and its reciprocal the exponential
growth rate of the counting sequence.  Everything here evaluates the
polynomial at exact rational points, so a returned bracket is a certificate:
the endpoints really do have opposite signs.  Floating point appears nowhere;
decimals are rendered from exact data at the very end.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction

from .core import Discipline, ValidationError
from .recurrences import SequenceTable, horner

MAX_SCAN_SUBDIVISIONS = 40
MAX_GROWTH_PLACES = 60  # growth_rate refuses a tolerance finer than 10**-60

RationalLike = Fraction | int


class RootNotFoundError(ArithmeticError):
    """The sign scan exhausted its depth without finding a crossing."""


@dataclass(frozen=True)
class IntPolynomial:
    """An integer polynomial, constant term first; trailing zeros dropped."""

    coefficients: tuple[int, ...]

    def __post_init__(self) -> None:
        coeffs = tuple(int(c) for c in self.coefficients)
        while coeffs and coeffs[-1] == 0:
            coeffs = coeffs[:-1]
        object.__setattr__(self, "coefficients", coeffs)

    @property
    def is_zero(self) -> bool:
        return not self.coefficients

    @property
    def degree(self) -> int:
        if self.is_zero:
            raise ValidationError("the zero polynomial has no degree")
        return len(self.coefficients) - 1

    def evaluate(self, x: RationalLike) -> Fraction:
        return Fraction(horner(self.coefficients, x))


@dataclass(frozen=True)
class DecimalApprox:
    """An exact bracket [low, high] around a quantity, rendered as decimals.

    ``value`` is the midpoint rounded half-even to ``places`` digits;
    ``error_bound`` is a decimal upper bound on the distance from ``value``
    to anything in the bracket, so value +/- error_bound always covers the
    true quantity.
    """

    low: Fraction
    high: Fraction
    places: int
    notes: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.low > self.high:
            raise ValidationError("bracket endpoints out of order")
        if self.places < 1:
            raise ValidationError("need at least one decimal place")

    @property
    def width(self) -> Fraction:
        return self.high - self.low

    @property
    def value(self) -> str:
        mid = (self.low + self.high) / 2
        return format_decimal(mid, self.places)

    @property
    def error_bound(self) -> str:
        rounded = round_half_even((self.low + self.high) / 2, self.places)
        err = max(self.high - rounded, rounded - self.low, Fraction(0))
        scale = 10 ** (self.places + 2)
        units = max(1, math.ceil(err * scale))  # round up; never claim too little
        return format_decimal(Fraction(units, scale), self.places + 2)


def round_half_even(value: Fraction, places: int) -> Fraction:
    """Exactly round to ``places`` decimal digits, ties to even."""
    scale = 10**places
    num = value.numerator * scale
    den = value.denominator
    q, r = divmod(num, den)
    if 2 * r > den or (2 * r == den and q % 2):
        q += 1
    return Fraction(q, scale)


def format_decimal(value: Fraction, places: int) -> str:
    """Fixed-point decimal string of ``value`` rounded half-even."""
    scaled = round_half_even(value, places) * 10**places
    n = scaled.numerator  # denominator is 1 by construction
    sign = "-" if n < 0 else ""
    digits = str(abs(n)).rjust(places + 1, "0")
    if not places:
        return f"{sign}{digits}"
    return f"{sign}{digits[:-places]}.{digits[-places:]}"


def _places_for(tolerance: Fraction) -> int:
    places = 1
    while Fraction(1, 10**places) > tolerance:
        places += 1
    return places


def builtin_radicand(which: Discipline) -> IntPolynomial:
    """The polynomial under the square root in the closed-form solution of
    the corresponding implicit equation.  The reciprocal of its smallest
    positive root is the growth rate of the counting sequence.
    """
    if which is Discipline.NON_NESTING:
        return IntPolynomial(
            (0, 0, 0, 0, 0, 0, 0, 0, -1, 4, -2, 92, 47, -140, -76, 16, -8)
        )
    if which is Discipline.NON_CROSSING:
        return IntPolynomial((0, 0, 0, -108, 621, 432, 10206, 432, 621, -108))
    raise ValidationError(f"unknown discipline {which!r}")


def minimal_positive_root(
    polynomial: IntPolynomial,
    tolerance: RationalLike,
    max_subdivisions: int = MAX_SCAN_SUBDIVISIONS,
) -> DecimalApprox:
    """Bracket the smallest positive real root in (0, 1] to within tolerance.

    Any x**k factor is divided out first (recorded in the result notes), so
    the trivial root at 0 is excluded.  The scan walks left to right over
    uniform grids of doubling size until it sees a sign change (then bisects)
    or the grid exceeds ``max_subdivisions`` intervals (then fails); signs
    come from exact rational evaluation, so the bracket is certified.  If a
    grid point evaluates to zero exactly, that point is the root and the
    bracket collapses onto it.
    """
    tolerance = Fraction(tolerance)
    if tolerance <= 0:
        raise ValidationError("tolerance must be positive")
    if polynomial.is_zero:
        raise ValidationError("cannot search roots of the zero polynomial")
    stripped = 0
    coeffs = polynomial.coefficients
    while coeffs[0] == 0:
        coeffs = coeffs[1:]
        stripped += 1
    reduced = IntPolynomial(coeffs)
    notes = (f"divided out trivial factor x^{stripped}",) if stripped else ()
    places = _places_for(tolerance)

    sign_at_zero = 1 if reduced.coefficients[0] > 0 else -1
    subdivisions = 1
    while subdivisions <= max_subdivisions:
        bracket = None
        prev_x = Fraction(0)
        for t in range(1, subdivisions + 1):
            x = Fraction(t, subdivisions)
            v = reduced.evaluate(x)
            if v == 0:
                return DecimalApprox(x, x, places, notes)
            if (1 if v > 0 else -1) != sign_at_zero:
                bracket = (prev_x, x)
                break
            prev_x = x
        if bracket is not None:
            lo, hi = bracket
            while hi - lo > tolerance:
                mid = (lo + hi) / 2
                v = reduced.evaluate(mid)
                if v == 0:
                    return DecimalApprox(mid, mid, places, notes)
                if (1 if v > 0 else -1) == sign_at_zero:
                    lo = mid
                else:
                    hi = mid
            return DecimalApprox(lo, hi, places, notes)
        subdivisions *= 2
    raise RootNotFoundError(
        f"no sign change on (0, 1] scanning grids of up to {subdivisions // 2} subdivisions"
    )


def reciprocal_bracket(approx: DecimalApprox, places: int) -> DecimalApprox:
    """Bracket of 1/x for x in the given bracket; needs a positive bracket."""
    if approx.low <= 0:
        raise RootNotFoundError("bracket touches 0; cannot take a reciprocal")
    return DecimalApprox(1 / approx.high, 1 / approx.low, places, approx.notes)


def growth_rate(
    which: Discipline, tolerance: RationalLike = Fraction(1, 10**5)
) -> DecimalApprox:
    """Reciprocal of the smallest positive radicand root, bracketed to within
    ``tolerance``.
    """
    tolerance = Fraction(tolerance)
    if tolerance <= 0:
        raise ValidationError("tolerance must be positive")
    if tolerance < Fraction(1, 10**MAX_GROWTH_PLACES):
        raise ValidationError(
            f"tolerance is finer than 10^-{MAX_GROWTH_PLACES}; growth rates are "
            f"rendered to at most {MAX_GROWTH_PLACES} decimal places"
        )
    radicand = builtin_radicand(which)
    coarse = minimal_positive_root(radicand, Fraction(1, 1000))
    if coarse.low == 0:
        raise RootNotFoundError("root bracket touches 0; cannot take a reciprocal")
    # |d(1/x)| = dx / x^2, so this root tolerance propagates to the rate.
    root_tolerance = tolerance * coarse.low * coarse.low
    fine = minimal_positive_root(radicand, root_tolerance)
    return reciprocal_bracket(fine, _places_for(tolerance))


def ratio(table: SequenceTable, n: int, decimal_places: int) -> DecimalApprox:
    """table[n] / table[n-1] as an exactly-rounded decimal."""
    if decimal_places < 1:
        raise ValidationError("need at least one decimal place")
    if not table.first_index + 1 <= n <= table.last_index:
        raise ValidationError(
            f"ratio needs indices {n - 1} and {n} inside "
            f"[{table.first_index}, {table.last_index}] of {table.name!r}"
        )
    if table[n - 1] <= 0:
        raise ValidationError(f"{table.name}[{n - 1}] is not positive")
    exact = Fraction(table[n], table[n - 1])
    # the whole part, the places and a digit that rounding may carry in
    digits = len(str(exact.numerator // exact.denominator)) + decimal_places + 1
    str_limit = sys.get_int_max_str_digits()  # 0 means Python sets no limit
    if str_limit and digits > str_limit:
        raise ValidationError(
            f"{decimal_places} places need up to {digits} digits, beyond Python's "
            f"int-to-string limit of {str_limit} (sys.get_int_max_str_digits())"
        )
    return DecimalApprox(exact, exact, decimal_places)
