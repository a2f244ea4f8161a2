"""Words over {1,1,...,n,n} and the two disciplines that pair their arcs.

A word of semilength n is an arrangement of the multiset {1,1,...,n,n}.
Drawing an arc between the two positions that hold the same label turns the
word into a labeled perfect matching of [2n].  Its shape, the matching
without labels, is held everywhere as the tuple of (opener, closer)
position pairs sorted by opener; ``enumeration.shapes`` generates them.

Positions are 1-based throughout the public interface.
"""

from __future__ import annotations

from dataclasses import dataclass
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


@cache
def _doubled_labels(n: int) -> list[int]:
    """[1, 1, 2, 2, ..., n, n]: a word's entries in sorted order."""
    return [lab for lab in range(1, n + 1) for _ in range(2)]


@dataclass(frozen=True)
class Word:
    """A permutation of the multiset {1,1,...,n,n} as a flat label sequence.

    >>> Word((1, 2, 2, 1)).semilength
    2
    >>> str(Word((1, 2, 2, 1)))
    '1,2,2,1'
    """

    entries: tuple[int, ...]

    def __post_init__(self) -> None:
        entries = tuple(self.entries)
        object.__setattr__(self, "entries", entries)
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
