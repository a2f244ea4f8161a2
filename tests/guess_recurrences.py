"""Re-derive the P-recursive recurrences stored in ``recurrences.P_RECURSIVE``.

For a sequence a and a shape (order r, degree d) the unknowns are the
integers c[k][j] of

    sum_{k=0..r} sum_{j=0..d} c[k][j] * n^j * a(n + k) = 0,

and every index n = 0, 1, ... gives one linear equation.  ``guess`` takes
SURPLUS more equations than a 1-dimensional kernel needs, finds the kernel
modulo 61-bit primes, combines the residues by the Chinese remainder theorem
and reads them back as rationals by rational reconstruction, adding primes
until the reconstruction stops changing.  Clearing denominators and
normalising to gcd 1, with a positive leading coefficient of c_r, gives the
integer recurrence, which is then checked exactly on every equation.  The
sequences themselves are extracted from the declared convolution systems
``recurrences.NONNESTING_231`` and ``NONCROSSING_231`` by the one extraction
``recurrences._extracted``, the reference route.

A longer recurrence can have far smaller coefficients.  qbar231 has one of
shape (10, 4) with 34-digit coefficients and one of shape (15, 3) under
10^10, which is stored: it unrolls no slower, and its c_0 is zero, being an
order-14 recurrence that fails at n = 0, shifted by one index.

Run as a script, it prints the table to store:

    PYTHONPATH=src python tests/guess_recurrences.py
"""

from __future__ import annotations

import math
from fractions import Fraction

from ncnperms.recurrences import NONCROSSING_231, NONNESTING_231, _extracted

#: (order, degree) of the recurrence guessed for each family.
SHAPES = {
    "p231": (14, 2),
    "q231": (15, 2),
    "pbar231": (10, 4),
    "qbar231": (15, 3),
}

SURPLUS = 12  # equations beyond the rank a 1-dimensional kernel needs


def _is_prime(n: int) -> bool:
    """Miller-Rabin with the first twelve prime bases: exact below 3.3e24."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if n < 2:
        return False
    for b in bases:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in bases:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def primes_below_2_61():
    """The primes below 2^61, largest first (the first is 2^61 - 1)."""
    candidate = 2**61 - 1
    while True:
        if _is_prime(candidate):
            yield candidate
        candidate -= 2


def equations(values, order: int, degree: int, count: int) -> list[list[int]]:
    """Rows n = 0..count-1; the entry for c[k][j] is n^j * a(n + k), at
    column k * (degree + 1) + j."""
    return [
        [n**j * values[n + k] for k in range(order + 1) for j in range(degree + 1)]
        for n in range(count)
    ]


def kernel_mod(rows: list[list[int]], prime: int) -> dict[int, list[int]]:
    """A basis of the right kernel of ``rows`` modulo ``prime``: for each free
    column of the reduced row echelon form, the vector that is 1 there."""
    matrix = [[entry % prime for entry in row] for row in rows]
    width = len(matrix[0])
    pivots: list[int] = []
    rank = 0
    for column in range(width):
        pivot = next((i for i in range(rank, len(matrix)) if matrix[i][column]), None)
        if pivot is None:
            continue
        matrix[rank], matrix[pivot] = matrix[pivot], matrix[rank]
        inverse = pow(matrix[rank][column], -1, prime)
        matrix[rank] = [entry * inverse % prime for entry in matrix[rank]]
        for i in range(len(matrix)):
            factor = matrix[i][column]
            if i != rank and factor:
                matrix[i] = [
                    (a - factor * b) % prime for a, b in zip(matrix[i], matrix[rank])
                ]
        pivots.append(column)
        rank += 1
    basis = {}
    for free in (c for c in range(width) if c not in pivots):
        vector = [0] * width
        vector[free] = 1
        for row, column in enumerate(pivots):
            vector[column] = -matrix[row][free] % prime
        basis[free] = vector
    return basis


def rational_reconstruction(residue: int, modulus: int) -> Fraction | None:
    """The fraction a/b = residue mod ``modulus`` with |a|, b <= sqrt(modulus/2),
    or None when there is none."""
    bound = math.isqrt(modulus // 2)
    r0, r1 = modulus, residue % modulus
    s0, s1 = 0, 1
    while r1 > bound:
        quotient = r0 // r1
        r0, r1 = r1, r0 - quotient * r1
        s0, s1 = s1, s0 - quotient * s1
    if s1 == 0 or abs(s1) > bound or math.gcd(r1, abs(s1)) != 1:
        return None
    return Fraction(r1, s1)


def _normalise(rationals: list[Fraction], order: int, degree: int):
    scale = math.lcm(*(q.denominator for q in rationals))
    integers = [int(q * scale) for q in rationals]
    divisor = math.gcd(*integers)
    leading = next(c for c in reversed(integers[order * (degree + 1) :]) if c)
    sign = 1 if leading > 0 else -1
    integers = [sign * c // divisor for c in integers]
    return tuple(
        tuple(integers[k * (degree + 1) : (k + 1) * (degree + 1)])
        for k in range(order + 1)
    )


def guess(values, order: int, degree: int) -> tuple[tuple[int, ...], ...]:
    """The integer recurrence of shape (order, degree) satisfied by ``values``,
    as c[k][j]; ValueError unless the kernel is 1-dimensional and the result
    holds exactly on every equation used."""
    unknowns = (order + 1) * (degree + 1)
    rows = equations(values, order, degree, unknowns - 1 + SURPLUS)
    modulus, residues, free, previous = 1, [0] * unknowns, None, None
    for prime in primes_below_2_61():
        basis = kernel_mod(rows, prime)
        if not basis:
            raise ValueError("no recurrence of this shape")
        column, vector = next(iter(basis.items()))
        if len(basis) > 1 or (free is not None and column != free):
            if free is None:
                raise ValueError(f"kernel of dimension {len(basis)}, not 1")
            continue  # an unlucky prime: its rank dropped
        free = column
        residues = [
            r + modulus * ((v - r) * pow(modulus, -1, prime) % prime)
            for r, v in zip(residues, vector)
        ]
        modulus *= prime
        current = [rational_reconstruction(r, modulus) for r in residues]
        if None not in current and current == previous:
            break
        previous = current
    recurrence = _normalise(current, order, degree)
    flat = [c for poly in recurrence for c in poly]
    if any(sum(a * b for a, b in zip(row, flat)) for row in rows):
        raise ValueError("reconstructed recurrence fails an equation")
    return recurrence


def reference_tables() -> dict[str, tuple[int, ...]]:
    """Each family of SHAPES extracted from its declared system, as long as
    its equations need."""
    needed = max((r + 1) * (d + 1) - 1 + SURPLUS + r for r, d in SHAPES.values())
    tables = _extracted(NONNESTING_231, needed) | _extracted(NONCROSSING_231, needed)
    return {family: tables[family].values for family in SHAPES}


def derive_all() -> dict[str, tuple[tuple[int, ...], ...]]:
    """Guess every family in SHAPES from the reference tables."""
    tables = reference_tables()
    return {family: guess(tables[family], *shape) for family, shape in SHAPES.items()}


def _format(poly: tuple[int, ...]) -> str:
    line = f"        {poly},"
    if len(line) <= 88:
        return line
    return "\n".join(["        ("] + [f"            {c}," for c in poly] + ["        ),"])


if __name__ == "__main__":
    print("P_RECURSIVE: dict[str, tuple[tuple[int, ...], ...]] = {")
    for family, recurrence in derive_all().items():
        print(f'    "{family}": (')
        for poly in recurrence:
            print(_format(poly))
        print("    ),")
    print("}")
