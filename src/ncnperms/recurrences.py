"""Exact big-integer sequences for 231-avoiding and 122-avoiding families.

Splitting a 231-avoiding word at the two positions of its largest label
decomposes it into smaller words of the same kind, which turns the counts
into closed convolution systems, declared once as data in ``NONNESTING_231``
and ``NONCROSSING_231``, where every term that reads a table carries x^k
with k >= 1, so ``_extracted`` reads the coefficients off jointly in
increasing index order, each from lower indices only.  Index n costs O(n)
big-integer products, so a table to N costs O(N^2) of them.

The generating functions are algebraic, hence D-finite (Stanley 1980), so
every table also satisfies a linear recurrence with polynomial coefficients,
sum_k c_k(n) a(n + k) = 0, of order r <= 15.  The public systems take only
the first r terms from the convolution system and continue p, q, pbar and
qbar by those recurrences (``P_RECURSIVE``).  Each c_k(n) is read off a
stream of running sums over its forward differences, so a term of a
degree-d recurrence costs d additions per coefficient, one C-level dot
product of the r coefficients with the last r terms, and one exact
division; r and r' continue from their own declared equations.
``_continued`` does both for the systems, which share one body
(``_system_tables``) and return their tables keyed by family name, and for
``family_table``, which reads the same seed through its system but unrolls
only the recurrences its family reads.  Up to the seed limit a system is
its one extraction, so the seed costs ``family_table`` a single pass.
The recurrences were found by guessing over the convolution tables, modular
linear algebra plus rational reconstruction in the style of Kauers & Paule,
*The Concrete Tetrahedron*, ch. 7; ``tests/guess_recurrences.py`` re-derives
them, and the tests check the unrolled tables against the extraction to
index 1000 and against the series solver.  qbar231's has order 15 and
degree 3, with coefficients under 10^10; one of order 10 and degree 4
needs 34 digits and unrolls no faster.  The extraction stays as the
reference route.  All arithmetic is exact integer arithmetic; a division
that does not come out even raises ArithmeticError.

``FAMILIES`` is the registry of every table this module builds: for each
CLI name, the discipline, the avoided patterns and the positional constraint
that the family counts, and its closed form where it has one.  The closed
form, or its absence, is the one record of the route that builds the table;
``family_table``, the CLI's provenance tags and ``verify`` all read it there.
``verify`` builds each registered family through ``family_table`` and
compares it with the brute-force oracle.

Table conventions: a sequence whose definition requires a first or last
entry (the "starts with 1" / "ends with n" variants) has value 0 at index 0;
the unconstrained counts have value 1 there, the empty word.
"""

from __future__ import annotations

import math
from itertools import accumulate, combinations, pairwise, repeat
from operator import mul
from typing import Callable, Iterator, Mapping, NamedTuple, Sequence

from .core import Constraint, Discipline, Immutable, ResourceLimitError, ValidationError
from .patterns import Pattern

PATTERN_231 = Pattern((2, 3, 1))
PATTERN_122 = Pattern((1, 2, 2))


class Family(NamedTuple):
    """What a sequence family counts: the words of ``discipline`` that avoid
    every pattern of ``avoid`` and satisfy ``constraint``.  Its table is built
    from ``closed_form``, the n-th term for n >= 1, when that is set, and
    otherwise from its 231 system (``_continued``): the seed and its stored
    recurrence, or for r231 and rprime231 their own declared equations."""

    discipline: Discipline
    avoid: tuple[Pattern, ...]
    constraint: Constraint = Constraint.NONE
    closed_form: Callable[[int], int] | None = None


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


_NN, _NC = Discipline.NON_NESTING, Discipline.NON_CROSSING

#: Every sequence family this module can build, by CLI/table name.
FAMILIES: dict[str, Family] = {
    "p231": Family(_NN, (PATTERN_231,)),
    "q231": Family(_NN, (PATTERN_231,), Constraint.FIRST_IS_1),
    "r231": Family(_NN, (PATTERN_231,), Constraint.LAST_IS_N),
    "rprime231": Family(_NN, (PATTERN_231,), Constraint.BOTH),
    "pbar231": Family(_NC, (PATTERN_231,)),
    "qbar231": Family(_NC, (PATTERN_231,), Constraint.FIRST_IS_1),
    # Exactly one labeling of each non-crossing matching avoids 122 (label
    # the arcs in decreasing order of opener), which pins every 122 family to
    # a closed form: C(n) alone or with sigma = 132, Fibonacci F(n+1) with
    # 213, 2^(n-1) with 231 or 123, n with 312, and with 321 the values 1, 2,
    # then 0 from n = 3 on (the forced labeling descends, so a 321 appears).
    "q122": Family(_NC, (PATTERN_122,), closed_form=catalan),
    **{
        f"q122,{sigma}": Family(_NC, (PATTERN_122, Pattern.parse(sigma)), closed_form=term)
        for sigma, term in (
            ("132", catalan),
            ("213", lambda n: fibonacci(n + 1)),
            ("231", lambda n: 2 ** (n - 1)),
            ("123", lambda n: 2 ** (n - 1)),
            ("312", lambda n: n),
            ("321", lambda n: n if n < 3 else 0),
        )
    },
}

COMPOSITION_CAP = 20


class SequenceTable(Immutable):
    """A named finite integer sequence, indexed first_index..last_index."""

    name: str
    values: tuple[int, ...]
    first_index: int
    __slots__ = ("name", "values", "first_index")

    def __init__(self, name: str, values: tuple[int, ...], first_index: int = 0) -> None:
        values = tuple(values)
        if not values:
            raise ValidationError("sequence table must hold at least one value")
        if first_index < 0:
            raise ValidationError("first_index must be non-negative")
        if any(v < 0 for v in values):
            raise ValidationError("counting sequences are non-negative")
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "first_index", first_index)

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


#: A convolution system: each table's generating function is the sum of the
#: terms under its name, a term (c, k, factors) being c * x^k times the
#: product of the named series (() is the series 1).  Every term that reads a
#: table carries x^k with k >= 1, so coefficient n of each right-hand side
#: reads only indices below n.
System = dict[str, tuple[tuple[int, int, tuple[str, ...]], ...]]

#: The 231-avoiding non-nesting system: p231, q231, r231 and rprime231 count
#: the unconstrained, first=1, last=n and both-constrained words.
NONNESTING_231: System = {
    "p231": ((2, 1, ("r231", "q231")), (1, 1, ("p231", "q231")),
             (1, 1, ("r231", "p231")), (1, 1, ("p231", "p231")), (1, 0, ())),
    "q231": ((2, 1, ("rprime231", "q231")), (1, 1, ("q231", "q231")),
             (1, 1, ("rprime231", "p231")), (1, 1, ("q231", "p231")), (1, 1, ())),
    "r231": ((1, 1, ("p231",)), (1, 1, ("r231",))),
    "rprime231": ((1, 1, ("q231",)), (1, 1, ("rprime231",)), (1, 1, ())),
}

#: The 231-avoiding non-crossing system: pbar231 and qbar231 count the
#: unconstrained and first=1 words.  The decomposition gives
#: pbar = x pbar^2 (pbar - 1) + pbar qbar + 1, and qbar = x pbar (1 + qbar)
#: turns its x^0 term into pbar qbar = x pbar^2 + x pbar^2 qbar, so pbar is
#: declared as 1 + x pbar^3 + x pbar^2 qbar.
NONCROSSING_231: System = {
    "pbar231": ((1, 1, ("pbar231",) * 3), (1, 1, ("pbar231", "pbar231", "qbar231")), (1, 0, ())),
    "qbar231": ((1, 1, ("pbar231",)), (1, 1, ("pbar231", "qbar231"))),
}


def right_sides(
    system: System, values: dict[str, Sequence[int]], limit: int
) -> Iterator[tuple[int, str, int]]:
    """(n, name, coefficient n of name's right-hand side) for n = 0..limit,
    evaluated on the coefficient lists ``values``, which may hold tables
    that the system reads but does not declare.

    Every term that reads a table must carry x^k with k >= 1, or
    ValidationError names the first table whose equation breaks this.  Each
    index yields its tables in declaration order, then extends each product,
    its last factor times the product of the others, so the run costs
    O(limit^2) products.  A caller that stores each value in ``values``
    before pulling the next one extracts the system."""
    for name, terms in system.items():
        if any(k == 0 and factors for _, k, factors in terms):
            raise ValidationError(f"extraction of {name} is not forced: an x^0 term reads a table")
    sides = {name: [(c, k, tuple(sorted(f))) for c, k, f in system[name]] for name in system}
    products: dict[tuple[str, ...], Sequence[int]] = {(): [1] + [0] * limit}
    products |= {(name,): values[name] for name in values}
    for key in (key for terms in sides.values() for _, _, key in terms):
        for j in range(2, len(key) + 1):
            products.setdefault(key[:j], [0] * (limit + 1))
    chained = [key for key in products if len(key) > 1]
    operands = {name: [(c, k, products[key]) for c, k, key in terms] for name, terms in sides.items()}
    for n in range(limit + 1):
        for name, side in operands.items():
            yield n, name, sum(c * product[n - k] for c, k, product in side if k <= n)
        for key in chained:
            head, last = products[key[:-1]], products[key[-1:]]
            products[key][n] = sum(map(mul, head[: n + 1], last[n::-1]))


def _extracted(
    system: System, limit: int, given: Mapping[str, SequenceTable] = {}
) -> dict[str, SequenceTable]:
    """Tables to index ``limit`` extracted from ``system``, keyed by name in
    declaration order.  ``given`` holds, to at least ``limit``, the tables
    the equations read but do not declare; without it this is the reference
    route."""
    if limit < 0:
        raise ValidationError("table limit must be non-negative")
    values = {name: t.values for name, t in given.items()}
    values |= {name: [0] * (limit + 1) for name in system}
    for n, name, value in right_sides(system, values, limit):
        values[name][n] = value
    return {name: SequenceTable(name, tuple(values[name])) for name in system}


#: Linear recurrences with polynomial coefficients: entry c[k][j] of a family
#: is the coefficient of n^j * a(n + k) in sum_k c_k(n) a(n + k) = 0.  Each
#: holds on the whole table from n = 0; tests/guess_recurrences.py re-derives
#: them from the convolution tables and prints this table.  qbar231's c_0 is
#: zero: it is an order-14 recurrence, shifted by one index because it fails
#: at n = 0.
P_RECURSIVE: dict[str, tuple[tuple[int, ...], ...]] = {
    "p231": (
        (0, -64, -64),
        (768, 1088, 320),
        (-2688, -3200, -800),
        (10176, 4144, 400),
        (105792, 48528, 5472),
        (112656, 39872, 3488),
        (13224, -5460, -1068),
        (-127368, -34150, -2266),
        (-274560, -57633, -3003),
        (-4176, -2192, -176),
        (144852, 24801, 1059),
        (-23442, -3664, -142),
        (10152, 1553, 59),
        (-3210, -454, -16),
        (240, 31, 1),
    ),
    "q231": (
        (0, 224, 112),
        (1584, 2120, 424),
        (4752, 4536, 840),
        (77832, 45932, 6508),
        (403320, 179342, 19522),
        (588288, 213225, 18933),
        (-284742, -83709, -6270),
        (-1390455, -362238, -23451),
        (-859416, -203698, -11840),
        (445782, 80921, 3721),
        (605856, 107645, 4780),
        (127839, 22028, 937),
        (-14700, -1800, -54),
        (-150, -40, -2),
        (-3840, -528, -18),
        (510, 64, 2),
    ),
    "pbar231": (
        (0, 282274, 801890, 429752, -89864),
        (-9577764, -28913800, -28186301, -9266471, -416206),
        (-342698046, -221739437, 33002595, 40546439, 5723769),
        (5595012864, 3992208012, 954022328, 123902244, 13156768),
        (-1330532664, 4631253688, 3935379900, 1005439709, 83246325),
        (137546787774, 79642503219, 14900180823, 903041262, 0),
        (-304475836314, -160175924045, -31192701453, -2657398591, -83246325),
        (-104831779944, -42066401464, -6417061844, -454995548, -13156768),
        (-35924141376, -16702785326, -2850426402, -211299397, -5723769),
        (-3137932470, -556663407, 24558314, 9046593, 416206),
        (1793775060, 617076606, 78621190, 4383768, 89864),
    ),
    "qbar231": (
        (0, 0, 0, 0),
        (0, -72, -84, -24),
        (-10980, -18042, -8040, -1026),
        (-14544, 1086, 10077, 2373),
        (637056, 580194, 181182, 18384),
        (15175104, 10387942, 2371341, 178763),
        (120742884, 62765338, 10887612, 628202),
        (489027840, 215658512, 31707210, 1551550),
        (1486432416, 559402216, 70066032, 2918708),
        (1400078976, 458289864, 49894002, 1805154),
        (559241316, 165484038, 16356084, 539622),
        (-46036656, -8562230, -438819, -3739),
        (-1871520, -797146, -92910, -3284),
        (-17640000, -4197830, -331995, -8725),
        (1801500, 409450, 30840, 770),
        (77952, 15816, 1068, 24),
    ),
}


def horner(coefficients: Sequence[int], a: int, b: int) -> int:
    """b^d p(a/b) for the polynomial p with ``coefficients`` (constant first,
    d = len(coefficients) - 1): the sum of c_i a^i b^(d-i), by one Horner
    pass at a whose coefficients pick up a power of b each step.  With
    b = 1 it is p(a); for b > 0 it has the sign of p(a/b)."""
    value, power = 0, 1
    for coefficient in reversed(coefficients):
        value = value * a + coefficient * power
        power *= b
    return value


def _stream(poly: Sequence[int], start: int) -> Iterator[int]:
    """The values of the polynomial ``poly`` at start, start + 1, ..., without
    end.  Its forward differences at ``start`` come from d + 1 Horner values,
    and d nested running sums over the constant d-th difference rebuild the
    values: d exact integer additions per term, all at C level."""
    heads = []
    row = [horner(poly, start + i, 1) for i in range(len(poly))]
    while row:
        heads.append(row[0])
        row = [b - a for a, b in pairwise(row)]
    values = repeat(heads.pop())
    for head in reversed(heads):
        values = accumulate(values, initial=head)
    return values


def _unrolled(seed: SequenceTable, limit: int) -> SequenceTable:
    """``seed`` continued to index ``limit`` by its stored recurrence.

    Each coefficient polynomial is read off its own stream (``_stream``), so
    a new term costs one C-level dot product of the r coefficients with the
    last r terms, and one exact division by the leading polynomial; a zero
    divisor or a remainder raises ArithmeticError, never a truncated value.
    A seed that already reaches ``limit`` is returned as it is.
    """
    family = seed.name
    recurrence = P_RECURSIVE[family]
    order = len(recurrence) - 1
    start = len(seed.values)
    if start > limit:
        return seed
    values = list(seed.values)
    *lower, leading = (_stream(poly, start - order) for poly in recurrence)
    for index, divisor, coefficients in zip(range(start, limit + 1), leading, zip(*lower)):
        if divisor == 0:
            raise ArithmeticError(
                f"{family}: leading coefficient of the recurrence vanishes "
                f"at index {index}"
            )
        total = sum(map(mul, coefficients, values[index - order : index]))
        quotient, remainder = divmod(-total, divisor)
        if remainder:
            raise ArithmeticError(
                f"{family}: recurrence leaves a remainder at index {index}"
            )
        values.append(quotient)
    return SequenceTable(family, tuple(values))


def _seed_limit(system: System) -> int:
    """The last index the convolution seed of ``system`` supplies: the
    largest order among its stored recurrences, less one, so every
    recurrence starts from a full window."""
    return max(len(P_RECURSIVE[name]) - 2 for name in system if name in P_RECURSIVE)


def _continued(
    system: System, seed: dict[str, SequenceTable], names: Sequence[str], limit: int
) -> dict[str, SequenceTable]:
    """The tables ``names`` of ``system`` to index ``limit``, keyed in that
    order.  A table with a stored recurrence continues its ``seed`` by it;
    any other is extracted from its own equation, given the unrolled tables
    that equation reads.  Each recurrence is unrolled at most once, and
    with nothing to extract no extraction runs."""
    extracted = [name for name in names if name not in P_RECURSIVE]
    reads = {f for name in extracted for _, _, factors in system[name] for f in factors}
    needed = (reads | set(names)) & P_RECURSIVE.keys()
    tables = {name: _unrolled(seed[name], limit) for name in needed}
    if extracted:
        tables |= _extracted({name: system[name] for name in extracted}, limit, tables)
    return {name: tables[name] for name in names}


def _system_tables(system: System, limit: int) -> dict[str, SequenceTable]:
    """Every table of ``system`` to index ``limit``, keyed in declaration
    order.  Up to the seed limit that is the convolution seed itself, from
    one extraction; past it, ``_continued`` carries the seed on."""
    cut = _seed_limit(system)
    seed = _extracted(system, min(limit, cut))
    return seed if limit <= cut else _continued(system, seed, list(system), limit)


def nonnesting_231_system(limit: int) -> dict[str, SequenceTable]:
    """The tables p231, q231, r231 and rprime231 to index ``limit``, counting
    231-avoiding non-nesting words, by name.

    The convolution system supplies the first terms, p and q continue by
    their stored recurrences, and r and r' by their own equations.
    """
    return _system_tables(NONNESTING_231, limit)


def noncrossing_231_system(limit: int) -> dict[str, SequenceTable]:
    """The tables pbar231 and qbar231 to index ``limit``, counting
    231-avoiding non-crossing words, by name: the convolution system
    supplies the first terms, and both tables continue by their stored
    recurrences."""
    return _system_tables(NONCROSSING_231, limit)


def qbar_via_compositions(limit: int) -> SequenceTable:
    """The first=1 non-crossing 231-avoiding counts, summed directly over
    compositions: the count at n is the sum over compositions (x1,...,xk)
    of n of the products p(x1-1) * ... * p(xk-1) of unconstrained counts.
    Each composition is enumerated as its k - 1 cut points in 1..n-1.

    Exponential in ``limit`` (2^(n-1) compositions), hence capped; this is
    an independent route used to cross-check the convolution tables.
    """
    if limit > COMPOSITION_CAP:
        raise ResourceLimitError(
            f"composition sum is exponential; limit {limit} exceeds cap {COMPOSITION_CAP}"
        )
    p = noncrossing_231_system(max(limit, 1))["pbar231"].values
    values = (
        sum(
            math.prod(p[end - start - 1] for start, end in pairwise((0, *cuts, n)))
            for k in range(n)
            for cuts in combinations(range(1, n), k)
        )
        for n in range(limit + 1)
    )
    return SequenceTable("qbar231", tuple(values))


def family_table(family: str, limit: int) -> SequenceTable:
    """Build the table for a family of ``FAMILIES`` up to index ``limit`` by
    the route its row names: its closed form from index 1, or else its 231
    system's seed and stored recurrence, or for r231 and rprime231 their own
    declared equations.  Any other name raises ValidationError.
    """
    if family not in FAMILIES:
        raise ValidationError(f"unknown sequence family {family!r}; known: {tuple(FAMILIES)}")
    term = FAMILIES[family].closed_form
    if term is None:
        # the seed comes from the system at the handover limit, where the
        # system unrolls nothing and the convolution route supplies every term
        if FAMILIES[family].discipline is _NC:
            system, build = NONCROSSING_231, noncrossing_231_system
        else:
            system, build = NONNESTING_231, nonnesting_231_system
        seed = build(min(limit, _seed_limit(system)))
        return _continued(system, seed, [family], limit)[family]
    if limit < 1:
        raise ValidationError("closed forms are tabulated from index 1")
    return SequenceTable(family, tuple(map(term, range(1, limit + 1))), first_index=1)
