import math
from itertools import islice

import pytest
from hypothesis import example, given, strategies as st

import guess_recurrences
from ncnperms import recurrences
from ncnperms.core import Discipline, ResourceLimitError, ValidationError
from ncnperms.enumeration import Constraint, count_by_constraint
from ncnperms.patterns import Pattern
from ncnperms.recurrences import (
    FAMILIES,
    NONCROSSING_231,
    NONNESTING_231,
    P_RECURSIVE,
    SequenceTable,
    _extracted,
    _seed_limit,
    _stream,
    catalan,
    family_table,
    fibonacci,
    horner,
    nonnesting_231_system,
    noncrossing_231_system,
    qbar_via_compositions,
    right_sides,
)

# published expansions
P231_HEAD = (1, 1, 4, 17, 77, 367, 1815, 9233, 48014, 254123, 1364491)
PBAR231_HEAD = (1, 1, 4, 19, 102, 590, 3588, 22617, 146460, 968520)

# frozen from the brute-force oracle (count_by_constraint over n <= 5,
# extended by the tail-difference identities)
Q231_HEAD = (0, 1, 2, 9, 37, 169, 805, 3983)
R231_HEAD = (0, 1, 2, 6, 23, 100, 467, 2282)
RPRIME231_HEAD = (0, 1, 2, 4, 13, 50, 219, 1024)
QBAR231_HEAD = (0, 1, 2, 7, 32, 168, 958, 5769)


def test_sequence_table_basics():
    t = SequenceTable("demo", (1, 2, 3))
    assert t[0] == 1 and t[2] == 3
    assert t.last_index == 2
    assert list(t.items()) == [(0, 1), (1, 2), (2, 3)]
    shifted = SequenceTable("demo", (5, 6), first_index=1)
    assert shifted[1] == 5 and shifted.last_index == 2
    with pytest.raises(IndexError):
        shifted[0]
    with pytest.raises(IndexError):
        t[3]
    with pytest.raises(ValidationError):
        SequenceTable("demo", ())
    with pytest.raises(ValidationError):
        SequenceTable("demo", (1, -1))


def test_nonnesting_system_matches_published_expansion():
    system = nonnesting_231_system(10)
    assert system["p231"].values == P231_HEAD
    assert system["p231"].name == "p231"


def test_nonnesting_system_constrained_tables():
    system = nonnesting_231_system(7)
    assert system["q231"].values == Q231_HEAD
    assert system["r231"].values == R231_HEAD
    assert system["rprime231"].values == RPRIME231_HEAD


def test_noncrossing_system_matches_published_expansion():
    system = noncrossing_231_system(9)
    assert system["pbar231"].values == PBAR231_HEAD
    assert system["qbar231"].values[:8] == QBAR231_HEAD


def test_base_cases():
    system = nonnesting_231_system(2)
    assert system["r231"][2] == 2  # p(1) + r(1)
    assert system["q231"][2] == 2
    assert system["rprime231"][2] == 2  # q(1) + rprime(1)
    assert noncrossing_231_system(2)["qbar231"].values == (0, 1, 2)


def _all_tables(limit):
    return nonnesting_231_system(limit) | noncrossing_231_system(limit)


def _all_references(limit):
    return _extracted(NONNESTING_231, limit) | _extracted(NONCROSSING_231, limit)


def test_systems_key_every_table_by_its_name():
    tables = _all_tables(3)
    assert list(tables) == ["p231", "q231", "r231", "rprime231", "pbar231", "qbar231"]
    assert all(table.name == name for name, table in tables.items())


def test_recurrences_match_convolution_to_certified_range():
    # TABLE_CAP = 1000 is the range this certifies
    assert _all_tables(1000) == _all_references(1000)


def test_recurrences_match_convolution_across_the_handover():
    largest_order = max(len(recurrence) for recurrence in P_RECURSIVE.values()) - 1
    for limit in range(largest_order + 3):
        assert _all_tables(limit) == _all_references(limit), limit


@pytest.mark.parametrize("system", [NONCROSSING_231, NONNESTING_231])
def test_right_sides_yield_each_index_in_declaration_order(system):
    values = {name: [0, 0, 0] for name in system}
    yielded = [(n, name) for n, name, _ in right_sides(system, values, 2)]
    assert yielded == [(n, name) for n in range(3) for name in system]


def _convolved(a, b):
    return [sum(a[i] * b[n - i] for i in range(n + 1)) for n in range(len(a))]


def test_noncrossing_tables_satisfy_the_decomposition_form():
    # the decomposition's own form, pbar = x pbar^2 (pbar - 1) + pbar qbar + 1,
    # which NONCROSSING_231 declares after substituting qbar = x pbar (1 + qbar)
    tables = _extracted(NONCROSSING_231, 60)
    p, q = tables["pbar231"].values, tables["qbar231"].values
    p2 = _convolved(p, p)
    x_term = [0] + [a - b for a, b in zip(_convolved(p2, p), p2)][:-1]
    one = [1] + [0] * 60
    assert [a + b + c for a, b, c in zip(x_term, _convolved(p, q), one)] == list(p)


def test_extraction_rejects_a_negative_limit():
    with pytest.raises(ValidationError, match="non-negative"):
        _extracted(NONNESTING_231, -1)


#: A table the systems below may read without declaring it.
_ONES = {"g": SequenceTable("g", (1, 1, 1, 1))}


@pytest.mark.parametrize(
    "system, unforced",
    [
        # a = a^2 + 1: a(n) enters its own coefficient n through 2 a(0) a(n)
        ({"a": ((1, 0, ("a", "a")), (1, 0, ()))}, "a"),
        # a(n) needs b(n) and b(n) needs a(n)
        ({"a": ((1, 0, ("b",)), (1, 0, ())), "b": ((1, 1, ()), (1, 0, ("a",)))}, "a"),
        # b = b a + 1 with a(0) = 1, the p q shape without q(0) = 0
        ({"a": ((1, 0, ()),), "b": ((1, 0, ("b", "a")), (1, 0, ()))}, "b"),
        # b = b g + 1 with g(0) = 1 given, not declared
        ({"b": ((1, 0, ("b", "g")), (1, 0, ()))}, "b"),
        # the non-crossing decomposition's own form, whose x^0 term pbar qbar
        # NONCROSSING_231 rewrites with qbar = x pbar (1 + qbar)
        (
            {
                "pbar231": ((1, 1, ("pbar231",) * 3), (-1, 1, ("pbar231",) * 2),
                            (1, 0, ("pbar231", "qbar231")), (1, 0, ())),
                "qbar231": ((1, 1, ("pbar231",)), (1, 1, ("pbar231", "qbar231"))),
            },
            "pbar231",
        ),
    ],
)
def test_an_unforced_extraction_raises_naming_the_table(system, unforced):
    with pytest.raises(ValidationError, match=f"extraction of {unforced} is not forced"):
        _extracted(system, 3, _ONES)


def test_extraction_reads_given_tables():
    # a = x b + x a, with b given: a(n) = b(n-1) + a(n-1), the prefix sums of b
    system = {"a": ((1, 1, ("b",)), (1, 1, ("a",)))}
    given = {"b": SequenceTable("b", (1, 2, 3, 4, 5, 6))}
    assert _extracted(system, 5, given) == {"a": SequenceTable("a", (0, 1, 3, 6, 10, 15))}


_SYSTEMS = {
    "p231": nonnesting_231_system,
    "q231": nonnesting_231_system,
    "r231": nonnesting_231_system,
    "rprime231": nonnesting_231_system,
    "pbar231": noncrossing_231_system,
    "qbar231": noncrossing_231_system,
}


@pytest.mark.parametrize("family", sorted(_SYSTEMS))
def test_family_table_builds_one_family_as_the_system_does(family):
    # family_table unrolls only the recurrence its family needs; every limit
    # across the handover (index 14 for either system) and the certified
    # limit agree
    system = _SYSTEMS[family]
    for limit in [*range(18), 1000]:
        assert family_table(family, limit) == system(limit)[family], limit


#: Extraction passes behind family_table(family, 1000): one for the seed,
#: and one more for a table that continues by its own equation.
_EXTRACTIONS = {"p231": 1, "q231": 1, "r231": 2, "rprime231": 2, "pbar231": 1, "qbar231": 1}


@pytest.mark.parametrize("family", sorted(_SYSTEMS))
def test_family_table_extracts_the_seed_once(monkeypatch, family):
    calls = []

    def counted(*args):
        calls.append(args)
        return _extracted(*args)

    monkeypatch.setattr(recurrences, "_extracted", counted)
    family_table(family, 1000)
    assert len(calls) == _EXTRACTIONS[family]
    # up to its seed limit a system is one extraction
    calls.clear()
    system = NONCROSSING_231 if family in NONCROSSING_231 else NONNESTING_231
    _SYSTEMS[family](_seed_limit(system))
    assert len(calls) == 1


def _bump_recurrence(monkeypatch, family):
    # adds 1 to the constant of c_1, so the first unrolled term, at shift s,
    # gains a(s + 1) and the exact division by c_r(s) leaves a remainder
    c = P_RECURSIVE[family]
    monkeypatch.setitem(P_RECURSIVE, family, (c[0], (c[1][0] + 1,) + c[1][1:]) + c[2:])


@pytest.mark.parametrize(
    "broken,untouched,dependent",
    [
        ("q231", ("p231", "r231"), ("q231", "rprime231")),
        ("qbar231", ("pbar231",), ("qbar231",)),
        ("p231", ("q231", "rprime231"), ("p231", "r231")),
    ],
)
def test_family_table_never_unrolls_a_recurrence_it_does_not_print(
    monkeypatch, broken, untouched, dependent
):
    expected = {family: family_table(family, 100) for family in untouched}
    _bump_recurrence(monkeypatch, broken)
    for family in untouched:
        assert family_table(family, 100) == expected[family]
    for family in dependent:
        with pytest.raises(ArithmeticError, match=f"{broken}.*remainder"):
            family_table(family, 100)


def test_unroll_raises_on_a_remainder(monkeypatch):
    # p231 has order 14, so index 15 is its first unrolled term (shift n = 1,
    # divisor c_14(1) = 272); adding 1 to c_0's constant adds a(1) = 1 to a
    # sum that the divisor divided exactly
    c = P_RECURSIVE["p231"]
    monkeypatch.setitem(P_RECURSIVE, "p231", ((c[0][0] + 1,) + c[0][1:],) + c[1:])
    with pytest.raises(ArithmeticError, match="p231.*remainder at index 15"):
        nonnesting_231_system(20)
    assert nonnesting_231_system(14) == _extracted(NONNESTING_231, 14)


def _first_unrolled(family):
    """The first index a non-crossing table unrolls, past the seed, and the
    shift n of the recurrence that yields it."""
    index = _seed_limit(NONCROSSING_231) + 1
    return index, index - (len(P_RECURSIVE[family]) - 1)


def test_unroll_raises_on_a_vanishing_leading_coefficient(monkeypatch):
    # a leading polynomial n - s vanishes at the first unrolled shift s
    index, shift = _first_unrolled("qbar231")
    c = P_RECURSIVE["qbar231"]
    monkeypatch.setitem(P_RECURSIVE, "qbar231", c[:-1] + ((-shift, 1),))
    with pytest.raises(ArithmeticError, match=f"qbar231.*vanishes at index {index}$"):
        noncrossing_231_system(index + 5)


def test_unroll_raises_at_a_leading_root_past_the_first_unrolled_term(monkeypatch):
    # multiplying every polynomial by (n - s - 5), s the first unrolled
    # shift, keeps the recurrence true, so every division before shift s + 5
    # is exact; shift s + 5 is 5 indices past the first unrolled one
    index, shift = _first_unrolled("qbar231")
    root = shift + 5
    shifted = tuple(
        tuple(a - root * b for a, b in zip((0, *poly), (*poly, 0)))
        for poly in P_RECURSIVE["qbar231"]
    )
    monkeypatch.setitem(P_RECURSIVE, "qbar231", shifted)
    with pytest.raises(
        ArithmeticError,
        match=f"^qbar231: leading coefficient of the recurrence vanishes at index {index + 5}$",
    ):
        noncrossing_231_system(index + 10)


def test_unroll_raises_at_a_remainder_past_the_first_unrolled_term(monkeypatch):
    # adding n - s to c_0 adds nothing at the first unrolled shift s, and
    # (n - s) a(n) = a(s + 1) at shift s + 1, one index later, which the
    # leading coefficient there does not divide
    index, shift = _first_unrolled("pbar231")
    c = P_RECURSIVE["pbar231"]
    bumped = (c[0][0] - shift, c[0][1] + 1, *c[0][2:])
    monkeypatch.setitem(P_RECURSIVE, "pbar231", (bumped,) + c[1:])
    with pytest.raises(
        ArithmeticError, match=f"^pbar231: recurrence leaves a remainder at index {index + 1}$"
    ):
        noncrossing_231_system(index + 5)


def test_every_stored_polynomial_streams_its_horner_values():
    for family, recurrence in P_RECURSIVE.items():
        for poly in recurrence:
            streamed = list(islice(_stream(poly, 0), 2001))
            assert streamed == [horner(poly, n, 1) for n in range(2001)], family


@given(
    st.lists(st.integers(-(10**40), 10**40), min_size=1, max_size=7),
    st.integers(-100, 3000),
    st.integers(0, 40),
)
@example([7], 0, 0)
@example([-3, 0, 2], 5, 1)
def test_stream_matches_horner(poly, start, count):
    # degree 0 to 6, from any start; the stream yields what Horner gives
    streamed = list(islice(_stream(poly, start), count))
    assert streamed == [horner(poly, start + i, 1) for i in range(count)]


def test_stored_recurrences_are_rederived_from_the_convolution_tables():
    assert guess_recurrences.derive_all() == P_RECURSIVE
    for family, (order, degree) in guess_recurrences.SHAPES.items():
        recurrence = P_RECURSIVE[family]
        assert (len(recurrence) - 1, len(recurrence[0]) - 1) == (order, degree)
        assert math.gcd(*(c for poly in recurrence for c in poly)) == 1
        # positive coefficients: the leading polynomial has no root n >= 0
        assert all(c > 0 for c in recurrence[-1])
    tables = guess_recurrences.reference_tables()
    prime = next(guess_recurrences.primes_below_2_61())
    for family, (order, degree) in guess_recurrences.SHAPES.items():
        count = (order + 1) * (degree + 1) - 1 + guess_recurrences.SURPLUS
        rows = guess_recurrences.equations(tables[family], order, degree, count)
        assert len(guess_recurrences.kernel_mod(rows, prime)) == 1


def test_tail_difference_identities():
    # stripping a final max entry: r(n) - r(n-1) = p(n-1), and with the
    # first entry pinned, rprime(n) - rprime(n-1) = q(n-1) for n >= 2
    system = nonnesting_231_system(60)
    p, q, r, rprime = (system[name] for name in ("p231", "q231", "r231", "rprime231"))
    for n in range(1, 61):
        assert r[n] - r[n - 1] == p[n - 1]
    for n in range(2, 61):
        assert rprime[n] - rprime[n - 1] == q[n - 1]
    assert rprime[1] == 1


def test_tables_are_nonnegative_and_increasing_eventually():
    values = nonnesting_231_system(100)["p231"].values
    assert all(v >= 0 for v in values)
    assert all(a < b for a, b in zip(values[1:], values[2:]))


@pytest.mark.parametrize(
    "n,expected", [(0, 0), (1, 1), (2, 2), (3, 7)]
)
def test_qbar_via_compositions_small(n, expected):
    table = qbar_via_compositions(3)
    assert table[n] == expected


def test_qbar_via_compositions_agrees_with_convolution():
    by_composition = qbar_via_compositions(12)
    by_convolution = noncrossing_231_system(12)["qbar231"]
    assert by_composition.values == by_convolution.values


def test_qbar_via_compositions_cap():
    with pytest.raises(ResourceLimitError):
        qbar_via_compositions(21)


def test_oracle_equivalence_all_families_small_n():
    nn = nonnesting_231_system(4)
    nc = noncrossing_231_system(4)
    forbidden = (Pattern.parse("231"),)
    for n in range(5):
        counts = count_by_constraint(n, Discipline.NON_NESTING, forbidden)
        assert counts[Constraint.NONE] == nn["p231"][n]
        assert counts[Constraint.FIRST_IS_1] == nn["q231"][n]
        assert counts[Constraint.LAST_IS_N] == nn["r231"][n]
        assert counts[Constraint.BOTH] == nn["rprime231"][n]
        counts = count_by_constraint(n, Discipline.NON_CROSSING, forbidden)
        assert counts[Constraint.NONE] == nc["pbar231"][n]
        assert counts[Constraint.FIRST_IS_1] == nc["qbar231"][n]


def test_catalan():
    assert [catalan(n) for n in range(7)] == [1, 1, 2, 5, 14, 42, 132]
    assert catalan(10) == 16796
    import math

    for n in range(20):
        assert catalan(n) * (n + 1) == math.comb(2 * n, n)
    with pytest.raises(ValidationError):
        catalan(-1)


def test_fibonacci():
    assert [fibonacci(n) for n in range(1, 7)] == [1, 1, 2, 3, 5, 8]
    for n in range(3, 30):
        assert fibonacci(n) == fibonacci(n - 1) + fibonacci(n - 2)
    with pytest.raises(ValidationError):
        fibonacci(0)


def test_closed_form_122_values():
    assert family_table("q122", 5).values == (1, 2, 5, 14, 42)
    assert family_table("q122,132", 5).values == (1, 2, 5, 14, 42)
    assert family_table("q122,213", 5).values == (1, 2, 3, 5, 8)
    assert family_table("q122,231", 5).values == (1, 2, 4, 8, 16)
    assert family_table("q122,123", 5).values == (1, 2, 4, 8, 16)
    assert family_table("q122,312", 5).values == (1, 2, 3, 4, 5)
    assert family_table("q122,321", 5).values == (1, 2, 0, 0, 0)
    assert family_table("q122,321", 1).values == (1,)


def test_closed_form_122_starts_at_index_one():
    table = family_table("q122", 3)
    assert table.first_index == 1
    assert table[3] == 5
    with pytest.raises(IndexError):
        table[0]


def test_closed_form_122_rejects_unsupported_sigma():
    with pytest.raises(ValidationError):
        family_table("q122,212", 5)
    with pytest.raises(ValidationError):
        family_table("q122", 0)


def test_every_family_has_exactly_one_route():
    # a family is built by its closed form or, lacking one, by a 231 system
    by_system = nonnesting_231_system(0) | noncrossing_231_system(0)
    assert {n for n, f in FAMILIES.items() if f.closed_form is None} == by_system.keys()


def test_family_table_every_family():
    for family in FAMILIES:
        table = family_table(family, 10)
        assert table.name == family
        assert table.last_index == 10
    with pytest.raises(ValidationError):
        family_table("nope", 5)


def test_family_table_matches_systems():
    assert family_table("p231", 10).values == P231_HEAD
    assert family_table("q231", 7).values == Q231_HEAD
    assert family_table("pbar231", 9).values == PBAR231_HEAD
    assert family_table("q122,213", 5).values == (1, 2, 3, 5, 8)
