"""Exact big-integer sequences for 231-avoiding and 122-avoiding families.

Splitting a 231-avoiding word at the two positions of its largest label
decomposes it into smaller words of the same kind, which turns the counts
into closed convolution systems.  Coefficients are extracted jointly in
increasing index order; every product on a right-hand side only involves
earlier indices, so each step is forced.  All arithmetic is exact integer
arithmetic -- the tables remain correct for indices in the hundreds, where
entries run to hundreds of digits.

Table conventions: a sequence whose definition requires a first or last
entry (the "starts with 1" / "ends with n" variants) has value 0 at index 0;
the unconstrained counts have value 1 there, the empty word.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

from .core import ResourceLimitError, ValidationError
from .patterns import Pattern

#: CLI/table names of every sequence family this module can build.
FAMILIES = (
    "p231",
    "q231",
    "r231",
    "rprime231",
    "pbar231",
    "qbar231",
    "q122",
    "q122,132",
    "q122,213",
    "q122,231",
    "q122,123",
    "q122,312",
    "q122,321",
)

PAIRABLE_WITH_122 = ("132", "213", "231", "123", "312", "321")

COMPOSITION_CAP = 20


@dataclass(frozen=True)
class SequenceTable:
    """A named finite integer sequence, indexed first_index..last_index."""

    name: str
    values: tuple[int, ...]
    first_index: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", tuple(self.values))
        if not self.values:
            raise ValidationError("sequence table must hold at least one value")
        if self.first_index < 0:
            raise ValidationError("first_index must be non-negative")
        if any(v < 0 for v in self.values):
            raise ValidationError("counting sequences are non-negative")

    @property
    def last_index(self) -> int:
        return self.first_index + len(self.values) - 1

    def __getitem__(self, n: int) -> int:
        if not self.first_index <= n <= self.last_index:
            raise IndexError(
                f"index {n} outside table range "
                f"[{self.first_index}, {self.last_index}] of {self.name!r}"
            )
        return self.values[n - self.first_index]

    def items(self) -> Iterator[tuple[int, int]]:
        for offset, value in enumerate(self.values):
            yield self.first_index + offset, value


@dataclass(frozen=True)
class NonNesting231System:
    """The four joint tables counting 231-avoiding non-nesting words:
    unconstrained, first entry 1, last entry n, and both at once.
    """

    unconstrained: SequenceTable  # p231
    first_is_1: SequenceTable  # q231
    last_is_n: SequenceTable  # r231
    both: SequenceTable  # rprime231


@dataclass(frozen=True)
class NonCrossing231System:
    """The two joint tables counting 231-avoiding non-crossing words."""

    unconstrained: SequenceTable  # pbar231
    first_is_1: SequenceTable  # qbar231


def catalan(n: int) -> int:
    """C(2n, n) / (n + 1), the number of matchings of either discipline."""
    if n < 0:
        raise ValidationError("catalan numbers need n >= 0")
    return math.comb(2 * n, n) // (n + 1)


def fibonacci(n: int) -> int:
    """Fibonacci numbers with F(1) = F(2) = 1."""
    if n < 1:
        raise ValidationError("fibonacci convention starts at n = 1")
    a, b = 1, 1
    for _ in range(n - 1):
        a, b = b, a + b
    return a


def _conv(a: list[int], b: list[int], m: int) -> int:
    """Coefficient m of the product of two coefficient lists."""
    return sum(a[i] * b[m - i] for i in range(m + 1))


def nonnesting_231_system(limit: int) -> NonNesting231System:
    """Tables to index ``limit`` for 231-avoiding non-nesting words.

    The counts satisfy, with p/q/r/r' the four generating functions
    (unconstrained, first=1, last=n, both):

        p  = 2x r q + x p q + x r p + x p^2 + 1
        q  = 2x r' q + x q^2 + x r' p + x q p + x
        r  = x p + x r
        r' = x q + x r' + x

    Every right-hand term carries a factor x, so coefficient ``n`` of each
    series only needs indices below ``n``; per index the evaluation order
    q, r', p, r respects the remaining dependencies.
    """
    if limit < 0:
        raise ValidationError("table limit must be non-negative")
    size = limit + 1
    p = [0] * size
    q = [0] * size
    r = [0] * size
    rp = [0] * size
    p[0] = 1
    for n in range(1, size):
        m = n - 1
        q[n] = (
            2 * _conv(rp, q, m)
            + _conv(q, q, m)
            + _conv(rp, p, m)
            + _conv(q, p, m)
            + (1 if n == 1 else 0)
        )
        rp[n] = q[n - 1] + rp[n - 1] + (1 if n == 1 else 0)
        p[n] = (
            2 * _conv(r, q, m)
            + _conv(p, q, m)
            + _conv(r, p, m)
            + _conv(p, p, m)
        )
        r[n] = p[n - 1] + r[n - 1]
    return NonNesting231System(
        unconstrained=SequenceTable("p231", tuple(p)),
        first_is_1=SequenceTable("q231", tuple(q)),
        last_is_n=SequenceTable("r231", tuple(r)),
        both=SequenceTable("rprime231", tuple(rp)),
    )


def noncrossing_231_system(limit: int) -> NonCrossing231System:
    """Tables to index ``limit`` for 231-avoiding non-crossing words.

    With p/q the unconstrained and first=1 generating functions:

        p = x p^2 (p - 1) + p q + 1
        q = x p + x p q        (equivalently q = x p / (1 - x p))

    The p q term carries no factor x, but its only index-n contribution is
    p(0) * q(n), so computing q(n) first keeps the extraction forced.
    """
    if limit < 0:
        raise ValidationError("table limit must be non-negative")
    size = limit + 1
    p = [0] * size
    q = [0] * size
    square = [0] * size  # running coefficients of p^2
    p[0] = 1
    square[0] = 1
    for n in range(1, size):
        m = n - 1
        q[n] = p[n - 1] + _conv(p, q, m)
        cube_m = sum(square[i] * p[m - i] for i in range(m + 1))
        pq_n = sum(p[i] * q[n - i] for i in range(n))  # i = n term has q[0] = 0
        p[n] = cube_m - square[m] + pq_n
        square[n] = _conv(p, p, n)
    return NonCrossing231System(
        unconstrained=SequenceTable("pbar231", tuple(p)),
        first_is_1=SequenceTable("qbar231", tuple(q)),
    )


def _compositions(n: int) -> Iterator[tuple[int, ...]]:
    if n == 0:
        yield ()
        return
    for head in range(1, n + 1):
        for rest in _compositions(n - head):
            yield (head, *rest)


def qbar_via_compositions(limit: int, cap: int = COMPOSITION_CAP) -> SequenceTable:
    """The first=1 non-crossing 231-avoiding counts, summed directly over
    compositions: the count at n is the sum over compositions (x1,...,xk)
    of n of the products p(x1-1) * ... * p(xk-1) of unconstrained counts.

    Exponential in ``limit`` (2^(n-1) compositions), hence capped; this is
    an independent route used to cross-check the convolution tables.
    """
    if limit > cap:
        raise ResourceLimitError(
            f"composition sum is exponential; limit {limit} exceeds cap {cap}"
        )
    p = noncrossing_231_system(max(limit, 1)).unconstrained
    values = [0] * (limit + 1)
    for n in range(1, limit + 1):
        total = 0
        for comp in _compositions(n):
            prod = 1
            for part in comp:
                prod *= p[part - 1]
            total += prod
        values[n] = total
    return SequenceTable("qbar231", tuple(values))


def closed_form_122(sigma: Pattern | None, limit: int) -> SequenceTable:
    """Counts of 122-avoiding non-crossing words, optionally also avoiding a
    second pattern sigma, for indices 1..limit.

    Exactly one labeling of each non-crossing matching avoids 122 (label the
    arcs in decreasing order of opener), which pins every case to a closed
    form: C(n) alone or with sigma=132, Fibonacci F(n+1) with 213, 2^(n-1)
    with 231 or 123, n with 312, and with 321 the values 1, 2, then 0 from
    n = 3 on (the forced labeling descends, so a 321 appears).
    """
    if limit < 1:
        raise ValidationError("closed forms are tabulated from index 1")
    if sigma is None:
        name = "q122"
        values = [catalan(n) for n in range(1, limit + 1)]
    else:
        key = str(sigma)
        if key not in PAIRABLE_WITH_122:
            raise ValidationError(
                f"no closed form for 122 with {key}; supported: {PAIRABLE_WITH_122}"
            )
        name = f"q122,{key}"
        if key == "132":
            values = [catalan(n) for n in range(1, limit + 1)]
        elif key == "213":
            values = [fibonacci(n + 1) for n in range(1, limit + 1)]
        elif key in ("231", "123"):
            values = [2 ** (n - 1) for n in range(1, limit + 1)]
        elif key == "312":
            values = list(range(1, limit + 1))
        else:  # 321
            values = [1, 2][:limit] + [0] * (limit - 2)
    return SequenceTable(name, tuple(values), first_index=1)


def family_table(family: str, limit: int) -> SequenceTable:
    """Build the table for a named sequence family up to index ``limit``.

    Families: p231, q231, r231, rprime231 (non-nesting), pbar231, qbar231
    (non-crossing), and q122 optionally paired as "q122,SIGMA".
    """
    if family in ("p231", "q231", "r231", "rprime231"):
        system = nonnesting_231_system(limit)
        return {
            "p231": system.unconstrained,
            "q231": system.first_is_1,
            "r231": system.last_is_n,
            "rprime231": system.both,
        }[family]
    if family in ("pbar231", "qbar231"):
        system = noncrossing_231_system(limit)
        return system.unconstrained if family == "pbar231" else system.first_is_1
    if family == "q122":
        return closed_form_122(None, limit)
    if family.startswith("q122,"):
        return closed_form_122(Pattern.parse(family.split(",", 1)[1]), limit)
    raise ValidationError(f"unknown sequence family {family!r}; known: {FAMILIES}")
