"""The contract every value type keeps, and what importing the CLI costs."""

import copy
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from ncnperms.cli import OutputRecord, Provenance, Result
from ncnperms.core import Constraint, Discipline, ValidationError, Word
from ncnperms.growth import DecimalApprox, IntPolynomial
from ncnperms.patterns import Pattern
from ncnperms.recurrences import Family, SequenceTable, catalan
from ncnperms.series import BivariatePolynomial, TruncatedSeries
from ncnperms.verify import CheckResult

SRC = Path(__file__).resolve().parent.parent / "src"

# type, positional arguments, its repr, hashable, invalid argument tuples
VALUES = [
    (Word, ((1, 2, 2, 1),), "Word(entries=(1, 2, 2, 1))", True,
     [((1,),), ((1, 2),), ((0, 0),), ((1, "1"),)]),
    (Pattern, ((2, 3, 1),), "Pattern(letters=(2, 3, 1))", True,
     [((),), ((1, 3),)]),
    (SequenceTable, ("p231", (1, 1, 2), 0),
     "SequenceTable(name='p231', values=(1, 1, 2), first_index=0)", True,
     [("t", ()), ("t", (1,), -1), ("t", (1, -2))]),
    (TruncatedSeries, ((1, 2),),
     "TruncatedSeries(coefficients=(Fraction(1, 1), Fraction(2, 1)))", True,
     [((),)]),
    (BivariatePolynomial, ({(0, 1): 2},), "BivariatePolynomial(coefficients={(0, 1): 2})",
     False, [({(-1, 0): 1},)]),
    (IntPolynomial, ((1, 2, 0),), "IntPolynomial(coefficients=(1, 2))", True, []),
    (DecimalApprox, (Fraction(1, 3), Fraction(1, 2), 2, ("n",)),
     "DecimalApprox(low=Fraction(1, 3), high=Fraction(1, 2), places=2, notes=('n',))", True,
     [(Fraction(1), Fraction(0), 2), (Fraction(0), Fraction(1), 0)]),
    (Family, (Discipline.NON_CROSSING, (Pattern((1, 2, 2)),), Constraint.NONE, catalan),
     "Family(discipline=<Discipline.NON_CROSSING: 'non-crossing'>, "
     "avoid=(Pattern(letters=(1, 2, 2)),), constraint=<Constraint.NONE: 'none'>, "
     f"closed_form={catalan!r})", True, []),
    (CheckResult, ("demo", True, ""), "CheckResult(name='demo', passed=True, detail='')",
     True, []),
    (Result, ("5", Provenance.SERIES, "3"),
     "Result(value='5', provenance=<Provenance.SERIES: 'SERIES'>, label='3', "
     "error_bound='', detail='')", True, []),
    (OutputRecord, ("seq", {"n": 3}, (Result("5"),)),
     "OutputRecord(command='seq', parameters={'n': 3}, "
     "results=(Result(value='5', provenance=None, label='', error_bound='', detail=''),), "
     "table=None)", False, []),
]


@pytest.mark.parametrize(
    "cls, args, text, hashable, invalid", VALUES, ids=[row[0].__name__ for row in VALUES]
)
def test_value_type_contract(cls, args, text, hashable, invalid):
    value = cls(*args)
    twin = cls(*copy.deepcopy(args))
    assert value == twin and value is not twin
    if hashable:
        assert hash(value) == hash(twin)
    else:
        with pytest.raises(TypeError):
            hash(value)

    field = text[len(cls.__name__) + 1 :].split("=", 1)[0]
    with pytest.raises(AttributeError):
        setattr(value, field, getattr(value, field))
    with pytest.raises(AttributeError):
        delattr(value, field)
    assert value == twin

    assert repr(value) == text
    assert pickle.loads(pickle.dumps(value)) == value
    assert copy.copy(value) == value

    for bad in invalid:
        with pytest.raises(ValidationError):
            cls(*bad)


# each value built from a list, a generator or a dict holding a zero, its
# twin built from tuples, and whether the type is hashable
NORMALISED = [
    (Word([1, 2, 2, 1]), Word((1, 2, 2, 1)), True),
    (Pattern(c for c in (2, 3, 1)), Pattern((2, 3, 1)), True),
    (SequenceTable("p231", [1, 1, 2], 0), SequenceTable("p231", (1, 1, 2), 0), True),
    (TruncatedSeries(c for c in (1, Fraction(1, 2))), TruncatedSeries((1, Fraction(1, 2))), True),
    (IntPolynomial([1, 2, 0]), IntPolynomial((1, 2)), True),
    (BivariatePolynomial({(0, 1): 2, (1, 0): 0}), BivariatePolynomial({(0, 1): 2}), False),
]


@pytest.mark.parametrize(
    "value, twin, hashable", NORMALISED, ids=[type(row[0]).__name__ for row in NORMALISED]
)
def test_arguments_are_normalised_before_they_are_stored(value, twin, hashable):
    assert value == twin
    assert repr(value) == repr(twin)  # a list would print as [...], not (...)
    if hashable:
        assert hash(value) == hash(twin)
    else:
        for unhashable in (value, twin):
            with pytest.raises(TypeError):
                hash(unhashable)


def test_cli_parser_builds_without_dataclasses_or_inspect():
    # inspect alone is about 7 ms of every CLI start, ast/dis/tokenize included
    probe = (
        f"import sys; sys.path.insert(0, {str(SRC)!r}); "
        "from ncnperms import cli; cli.build_parser(); "
        "print(sorted({'dataclasses', 'inspect', 'graphlib'} & set(sys.modules)))"
    )
    out = subprocess.run(
        [sys.executable, "-S", "-c", probe], capture_output=True, text=True, check=True
    ).stdout
    assert out.strip() == "[]"
