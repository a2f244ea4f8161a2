"""Words over {1,1,...,n,n} and the two disciplines that pair their arcs.

A word of semilength n is an arrangement of the multiset {1,1,...,n,n}.
Drawing an arc between the two positions that hold the same label turns the
word into a labeled perfect matching of [2n].  Its shape, the matching
without labels, is held everywhere as the tuple of (opener, closer)
position pairs sorted by opener; ``enumeration.shapes`` generates them.

Positions are 1-based throughout the public interface.
"""

from __future__ import annotations

from enum import Enum
from functools import cache


class ValidationError(ValueError):
    """A value violates its structural invariants."""


class ResourceLimitError(RuntimeError):
    """A request exceeds a configured work cap; use a scalable route instead."""


class Discipline(Enum):
    """How a closing step picks which open arc to close.

    NON_CROSSING closes the most recently opened arc (stack order), so no
    two arcs of the result ever cross.  NON_NESTING closes the oldest open
    arc (queue order), so no arc of the result sits strictly inside another.
    """

    NON_CROSSING = "non-crossing"
    NON_NESTING = "non-nesting"


class Constraint(Enum):
    """Positional restriction applied on top of pattern avoidance."""

    NONE = "none"
    FIRST_IS_1 = "first-is-1"
    LAST_IS_N = "last-is-n"
    BOTH = "first-is-1-and-last-is-n"


class Immutable:
    """Base of the validated value types.  A subclass names its fields, in
    order, as its ``__slots__``; its ``__init__`` validates and normalises
    its arguments, then stores each field once with ``object.__setattr__``.

    Equality, hashing, pickling, copying and the ``Name(field=value, ...)``
    repr derive from the fields; assigning or deleting one raises
    ``AttributeError``.
    """

    __slots__ = ()

    def _astuple(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._astuple() == other._astuple()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._astuple())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self) -> tuple:
        return type(self), self._astuple()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


@cache
def _doubled_labels(n: int) -> list[int]:
    """[1, 1, 2, 2, ..., n, n]: a word's entries in sorted order."""
    return [lab for lab in range(1, n + 1) for _ in range(2)]


class Word(Immutable):
    """A permutation of the multiset {1,1,...,n,n} as a flat label sequence.

    >>> Word((1, 2, 2, 1)).semilength
    2
    >>> str(Word((1, 2, 2, 1)))
    '1,2,2,1'
    """

    entries: tuple[int, ...]
    __slots__ = ("entries",)

    # validation stays a method of its own: perfbench traces it as core.word
    def __init__(self, entries: tuple[int, ...]) -> None:
        self.__post_init__(entries)

    def __post_init__(self, entries: tuple[int, ...]) -> None:
        entries = tuple(entries)
        if len(entries) % 2:
            raise ValidationError(f"word length must be even, got {len(entries)}")
        n = len(entries) // 2
        try:
            valid = sorted(entries) == _doubled_labels(n)
        except TypeError:  # entries that do not order against each other
            valid = False
        if not valid:
            raise ValidationError(
                f"word entries must use each label 1..{n} exactly twice, got {entries}"
            )
        object.__setattr__(self, "entries", entries)

    @property
    def semilength(self) -> int:
        return len(self.entries) // 2

    def __str__(self) -> str:
        return ",".join(str(e) for e in self.entries)

    @classmethod
    def parse(cls, text: str) -> "Word":
        """Parse either the comma form ("1,2,2,1") or, when every label is a
        single digit, the compact digit form ("1221").

        >>> Word.parse("1221") == Word.parse("1,2,2,1")
        True
        """
        text = text.strip()
        if not text:
            return cls(())
        # str.isdigit and int() alone also accept superscripts and fullwidth digits
        if not text.isascii():
            raise ValidationError(f"cannot parse word text {text!r}")
        if "," in text:
            try:
                entries = tuple(int(tok) for tok in text.split(","))
            except ValueError as exc:
                raise ValidationError(f"cannot parse word text {text!r}") from exc
        elif text.isdigit():
            entries = tuple(int(ch) for ch in text)
        else:
            raise ValidationError(f"cannot parse word text {text!r}")
        return cls(entries)
