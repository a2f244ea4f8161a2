"""Pattern containment and avoidance for multiset words.

A pattern such as 231 or 1212 occurs in a word if some subsequence of the
word relates entry-by-entry exactly as the pattern does: equal pattern
letters must match equal word entries, and strictly smaller pattern letters
must match strictly smaller entries.  Crossing, nesting, and the 212 pattern
get named predicates because they define the word families studied here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .core import ValidationError, Word

_UNBOUNDED = float("inf")


@dataclass(frozen=True)
class Pattern:
    """A word over {1,...,m} with letters possibly repeated.

    >>> Pattern.parse("231").letters
    (2, 3, 1)
    """

    letters: tuple[int, ...]

    def __post_init__(self) -> None:
        letters = tuple(self.letters)
        object.__setattr__(self, "letters", letters)
        if not letters:
            raise ValidationError("pattern must have at least one letter")
        m = max(letters)
        if set(letters) != set(range(1, m + 1)):
            raise ValidationError(
                f"pattern letters must be exactly 1..{m} (contiguous), got {letters}"
            )

    def __str__(self) -> str:
        return "".join(str(c) for c in self.letters)

    @classmethod
    def parse(cls, text: str) -> "Pattern":
        # str.isdigit alone also accepts superscripts and fullwidth digits
        if not (text.isascii() and text.isdigit()):
            raise ValidationError(f"cannot parse pattern text {text!r}")
        return cls(tuple(int(ch) for ch in text))


CROSSING = frozenset({Pattern((1, 2, 1, 2)), Pattern((2, 1, 2, 1))})
NESTING = frozenset({Pattern((1, 2, 2, 1)), Pattern((2, 1, 1, 2))})
STIRLING_FORBIDDEN = frozenset({Pattern((2, 1, 2))})


def contains(word: Word, pattern: Pattern) -> bool:
    """True iff the word has a subsequence order-and-equality isomorphic to
    the pattern.

    Backtracking over candidate positions, pruning candidates whose value is
    inconsistent with the pattern letters already placed.  This is a complete
    search, exact for every pattern length.

    >>> contains(Word.parse("2121"), Pattern.parse("212"))
    True
    >>> contains(Word.parse("11"), Pattern.parse("12"))
    False
    """
    w = word.entries
    p = pattern.letters
    t = len(p)
    if t > len(w):
        return False
    value_of: dict[int, int] = {}

    def search(k: int, start: int) -> bool:
        if k == t:
            return True
        letter = p[k]
        bound = value_of.get(letter)
        if bound is None:
            lower = max((v for let, v in value_of.items() if let < letter), default=0)
            upper = min(
                (v for let, v in value_of.items() if let > letter), default=_UNBOUNDED
            )
        last = len(w) - (t - k)
        for pos in range(start, last + 1):
            v = w[pos]
            if bound is not None:
                if v != bound:
                    continue
                if search(k + 1, pos + 1):
                    return True
            else:
                if not lower < v < upper:
                    continue
                value_of[letter] = v
                if search(k + 1, pos + 1):
                    return True
                del value_of[letter]
        return False

    return search(0, 0)


def avoids_all(word: Word, patterns: Iterable[Pattern]) -> bool:
    """True iff the word contains none of the given patterns."""
    return not any(contains(word, p) for p in patterns)


def is_non_crossing(word: Word) -> bool:
    """No two arcs cross: the word avoids 1212 and 2121."""
    return avoids_all(word, CROSSING)


def is_non_nesting(word: Word) -> bool:
    """No arc sits strictly inside another: the word avoids 1221 and 2112."""
    return avoids_all(word, NESTING)


def is_stirling(word: Word) -> bool:
    """The word avoids 212."""
    return avoids_all(word, STIRLING_FORBIDDEN)
