"""Growth-rate analysis: exact root brackets and high-precision term ratios.

Solving the implicit equations in closed form puts a square root over a
fixed integer polynomial (the radicand); the smallest positive root of that
polynomial is the dominant singularity, and its reciprocal the exponential
growth rate of the counting sequence.  Everything here evaluates the
polynomial at exact rational points, so a returned bracket is a certificate:
the endpoints really do have opposite signs.  The bisection keeps each point
as an integer over a power of two and takes its sign from the integer
b^d p(a/b) of ``recurrences.horner``, the package's one Horner pass, which
``IntPolynomial.evaluate`` divides by b^d.  So the bisection visits the
points a ``Fraction`` bisection would and returns the same certified
bracket.  Floating point appears nowhere; decimals are rendered from exact
data at the very end.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction

from .core import Discipline, Immutable, ValidationError
from .recurrences import SequenceTable, horner

MAX_SCAN_SUBDIVISIONS = 40
MAX_GROWTH_PLACES = 60  # growth_rate refuses a tolerance finer than 10**-60

RationalLike = Fraction | int


class RootNotFoundError(ArithmeticError):
    """The sign scan exhausted its depth without finding a crossing."""


class IntPolynomial(Immutable):
    """An integer polynomial, constant term first; trailing zeros dropped."""

    coefficients: tuple[int, ...]
    __slots__ = ("coefficients",)

    def __init__(self, coefficients: tuple[int, ...]) -> None:
        coeffs = tuple(int(c) for c in coefficients)
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
        """The value at x = a/b: the integer b^d p(a/b) from
        ``recurrences.horner``, then a single division by b^d."""
        if self.is_zero:
            return Fraction(0)
        x = Fraction(x)
        value = horner(self.coefficients, x.numerator, x.denominator)
        return Fraction(value, x.denominator**self.degree)


class DecimalApprox(Immutable):
    """An exact bracket [low, high] around a quantity, rendered as decimals.

    ``value`` is the midpoint rounded half-even to ``places`` digits;
    ``error_bound`` is a decimal upper bound on the distance from ``value``
    to anything in the bracket, so value +/- error_bound always covers the
    true quantity.
    """

    low: Fraction
    high: Fraction
    places: int
    notes: tuple[str, ...]
    __slots__ = ("low", "high", "places", "notes")

    def __init__(
        self, low: Fraction, high: Fraction, places: int, notes: tuple[str, ...] = ()
    ) -> None:
        if low > high:
            raise ValidationError("bracket endpoints out of order")
        if places < 1:
            raise ValidationError("need at least one decimal place")
        object.__setattr__(self, "low", low)
        object.__setattr__(self, "high", high)
        object.__setattr__(self, "places", places)
        object.__setattr__(self, "notes", notes)

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
    """The smallest p >= 1 with 10^-p <= tolerance."""
    places, scaled = 1, tolerance.numerator * 10
    while scaled < tolerance.denominator:
        places, scaled = places + 1, scaled * 10
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
    polynomial: IntPolynomial, tolerance: RationalLike
) -> DecimalApprox:
    """Bracket the smallest positive real root in (0, 1] to within tolerance.

    Any x**k factor is divided out first (recorded in the result notes), so
    the trivial root at 0 is excluded.  The scan walks left to right over
    uniform grids of doubling size until it sees a sign change (then bisects)
    or the grid exceeds MAX_SCAN_SUBDIVISIONS intervals (then fails); signs
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

    positive_at_zero = reduced.coefficients[0] > 0
    subdivisions = 1
    while subdivisions <= MAX_SCAN_SUBDIVISIONS:
        for t in range(1, subdivisions + 1):
            x = Fraction(t, subdivisions)
            v = reduced.evaluate(x)
            if v == 0:
                return DecimalApprox(x, x, places, notes)
            if (v > 0) != positive_at_zero:
                # bisect [low/scale, (low + 1)/scale], scale a power of two
                low, scale = t - 1, subdivisions
                while tolerance.numerator * scale < tolerance.denominator:
                    mid, scale = 2 * low + 1, 2 * scale
                    v = horner(reduced.coefficients, mid, scale)
                    if v == 0:
                        root = Fraction(mid, scale)
                        return DecimalApprox(root, root, places, notes)
                    low = mid if (v > 0) == positive_at_zero else mid - 1
                return DecimalApprox(Fraction(low, scale), Fraction(low + 1, scale), places, notes)
        subdivisions *= 2
    raise RootNotFoundError(
        f"no sign change on (0, 1] scanning grids of up to {subdivisions // 2} subdivisions"
    )


def growth_rate(
    which: Discipline, tolerance: RationalLike = Fraction(1, 10**5)
) -> DecimalApprox:
    """Reciprocal of the smallest positive radicand root, bracketed to within
    ``tolerance``, which must lie in [10**-MAX_GROWTH_PLACES, 1].
    """
    tolerance = Fraction(tolerance)
    if tolerance <= 0:
        raise ValidationError("tolerance must be positive")
    # A tolerance of at most 1 keeps the fine bracket off 0: it holds the
    # root and is narrower than coarse.low**2, which is below the root.
    if tolerance > 1:
        raise ValidationError("tolerance must be at most 1")
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
    return DecimalApprox(1 / fine.high, 1 / fine.low, _places_for(tolerance), fine.notes)


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
