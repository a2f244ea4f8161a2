"""Exact big-integer sequences for 231-avoiding and 122-avoiding families.

Splitting a 231-avoiding word at the two positions of its largest label
decomposes it into smaller words of the same kind, which turns the counts
into closed convolution systems.  Coefficients are extracted jointly in
increasing index order; every product on a right-hand side only involves
earlier indices, so each step is forced.  Index n costs O(n) big-integer
products, so a table to N costs O(N^2) of them.

The generating functions are algebraic, hence D-finite (Stanley 1980), so
every table also satisfies a linear recurrence with polynomial coefficients,
sum_k c_k(n) a(n + k) = 0, of order r <= 15.  The public systems take only
the first r terms from the convolution system and continue p, q, pbar and
qbar by those recurrences (``P_RECURSIVE``): about r big-by-small products
and one exact division per term.  The recurrences were found by guessing
over the convolution tables, modular linear algebra plus rational
reconstruction in the style of Kauers & Paule, *The Concrete Tetrahedron*,
ch. 7; ``tests/guess_recurrences.py`` re-derives them, and the tests check
the unrolled tables against the convolution systems to index 1000 and
against the series solver.  The convolution systems stay as the reference
route.  All arithmetic is exact integer arithmetic; a division that does not
come out even raises ArithmeticError.

Table conventions: a sequence whose definition requires a first or last
entry (the "starts with 1" / "ends with n" variants) has value 0 at index 0;
the unconstrained counts have value 1 there, the empty word.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

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
    """Coefficient m of a product: the reference route's own, apart from the solver's."""
    return sum(a[i] * b[m - i] for i in range(m + 1))


def _nonnesting_convolution(limit: int) -> NonNesting231System:
    """Tables to index ``limit`` for 231-avoiding non-nesting words, by the
    convolution system alone: the reference route.

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


def _noncrossing_convolution(limit: int) -> NonCrossing231System:
    """Tables to index ``limit`` for 231-avoiding non-crossing words, by the
    convolution system alone: the reference route.

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
        # the i = n term of p q is p[n] * q[0] = 0, so p[n] is not needed yet
        p[n] = _conv(square, p, m) - square[m] + _conv(p, q, n)
        square[n] = _conv(p, p, n)
    return NonCrossing231System(
        unconstrained=SequenceTable("pbar231", tuple(p)),
        first_is_1=SequenceTable("qbar231", tuple(q)),
    )


#: Linear recurrences with polynomial coefficients: entry c[k][j] of a family
#: is the coefficient of n^j * a(n + k) in sum_k c_k(n) a(n + k) = 0.  Each
#: holds on the whole table from n = 0; tests/guess_recurrences.py re-derives
#: them from the convolution tables and prints this table.
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
        (
            0,
            63764333428869598177106112,
            127528666857739196354212224,
            -63764333428869598177106112,
            -127528666857739196354212224,
        ),
        (
            0,
            76755949640159724275824839228,
            89866327089580592924620241522,
            31096102685751518848291473042,
            3680251527005272898758202308,
        ),
        (
            -443315059590271801903392734700,
            -829013479619865377035088334356,
            -601435524804415148077881863889,
            -174779621573215397461257194548,
            -16264411635695333718022404075,
        ),
        (
            -1757845224011869761625147618896,
            -1854035115410737705841846475394,
            -679519273571078620513376985989,
            -65700226196639185929036171110,
            4897553834962847563274233901,
        ),
        (
            -69689380237917642721803702160656,
            -73296097446046736703112790149494,
            -28662498915088094556854619936257,
            -4899259163788726411214361878694,
            -308045921068477644508196291443,
        ),
        (
            -231971376462295160963699372284272,
            -155315606890027158483489289346230,
            -36157339515090141961362186759505,
            -3198955796344614854991650604506,
            -66278153385232379272655546567,
        ),
        (
            -1366249422738806403352080634618176,
            -804229432055911285307455382075482,
            -174089604663699489290559291977315,
            -16354709245789436573796427704638,
            -559894519660567408500546677053,
        ),
        (
            -1281208682528446636068385131539016,
            -643268291439128408934180513027630,
            -119853245646874871367511060302839,
            -9786465126567912714901986467490,
            -294190342220074225268909124505,
        ),
        (
            -172990610638793127718541565492600,
            -89874798114812282628742317409258,
            -17140709944915686128154503611443,
            -1425530297544807170669625836450,
            -43697097053271035966740090449,
        ),
        (
            -78928614939706879462036314378840,
            -34580574875471038408213556253014,
            -5654556777772058359783826833573,
            -408971952643878405039692878576,
            -11039340868167607368140944337,
        ),
        (
            21773936871565734755795232208212,
            9414730807652352476087354713038,
            1519996013042793163356626884584,
            108592052656491898744254767802,
            2896291682277364042320668844,
        ),
    ),
}


def _initial_terms(*families: str) -> int:
    """How many leading terms the convolution system supplies: the largest
    order among ``families``."""
    return max(len(P_RECURSIVE[family]) for family in families) - 1


def horner(poly: Sequence[int], x: int | Fraction) -> int | Fraction:
    """The polynomial with coefficients ``poly`` (constant first) at x."""
    value = 0
    for coefficient in reversed(poly):
        value = value * x + coefficient
    return value


def _unroll(family: str, values: list[int], limit: int) -> None:
    """Extend ``values`` in place to index ``limit`` by the stored recurrence.

    Each new term costs one exact division by the leading polynomial; a zero
    divisor or a remainder raises ArithmeticError, never a truncated value.
    """
    recurrence = P_RECURSIVE[family]
    order = len(recurrence) - 1
    *lower, leading = recurrence
    for index in range(len(values), limit + 1):
        n = index - order
        divisor = horner(leading, n)
        if divisor == 0:
            raise ArithmeticError(
                f"{family}: leading coefficient of the recurrence vanishes "
                f"at index {index}"
            )
        total = sum(horner(poly, n) * values[n + k] for k, poly in enumerate(lower))
        quotient, remainder = divmod(-total, divisor)
        if remainder:
            raise ArithmeticError(
                f"{family}: recurrence leaves a remainder at index {index}"
            )
        values.append(quotient)


def nonnesting_231_system(limit: int) -> NonNesting231System:
    """Tables to index ``limit`` for 231-avoiding non-nesting words.

    The convolution system supplies the first terms, p and q continue by
    their stored recurrences, and r, r' by their prefix sums
    r(n) = p(n-1) + r(n-1), r'(n) = q(n-1) + r'(n-1).
    """
    if limit < 0:
        raise ValidationError("table limit must be non-negative")
    seed = _nonnesting_convolution(min(limit, _initial_terms("p231", "q231") - 1))
    p, q, r, rp = (
        list(table.values)
        for table in (seed.unconstrained, seed.first_is_1, seed.last_is_n, seed.both)
    )
    _unroll("p231", p, limit)
    _unroll("q231", q, limit)
    for n in range(len(r), limit + 1):
        r.append(p[n - 1] + r[n - 1])
        rp.append(q[n - 1] + rp[n - 1])
    return NonNesting231System(
        unconstrained=SequenceTable("p231", tuple(p)),
        first_is_1=SequenceTable("q231", tuple(q)),
        last_is_n=SequenceTable("r231", tuple(r)),
        both=SequenceTable("rprime231", tuple(rp)),
    )


def noncrossing_231_system(limit: int) -> NonCrossing231System:
    """Tables to index ``limit`` for 231-avoiding non-crossing words: the
    convolution system supplies the first terms, and both tables continue
    by their stored recurrences."""
    if limit < 0:
        raise ValidationError("table limit must be non-negative")
    seed = _noncrossing_convolution(min(limit, _initial_terms("pbar231", "qbar231") - 1))
    p, q = list(seed.unconstrained.values), list(seed.first_is_1.values)
    _unroll("pbar231", p, limit)
    _unroll("qbar231", q, limit)
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
