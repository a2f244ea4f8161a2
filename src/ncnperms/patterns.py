"""Pattern containment and avoidance for multiset words.

A pattern such as 231 or 1212 occurs in a word if some subsequence of the
word relates entry-by-entry exactly as the pattern does: equal pattern
letters must match equal word entries, and strictly smaller pattern letters
must match strictly smaller entries.  Crossing and nesting get named
predicates because they define the word families studied here.
"""

from __future__ import annotations

from functools import cache
from itertools import permutations
from typing import Iterable, Iterator, Sequence

from .core import Immutable, ValidationError, Word


class Pattern(Immutable):
    """A word over {1,...,m} with letters possibly repeated.

    >>> Pattern.parse("231").letters
    (2, 3, 1)
    """

    letters: tuple[int, ...]
    __slots__ = ("letters",)

    def __init__(self, letters: tuple[int, ...]) -> None:
        letters = tuple(letters)
        if not letters:
            raise ValidationError("pattern must have at least one letter")
        m = max(letters)
        if set(letters) != set(range(1, m + 1)):
            raise ValidationError(
                f"pattern letters must be exactly 1..{m} (contiguous), got {letters}"
            )
        object.__setattr__(self, "letters", letters)

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


@cache
def _bound_positions(letters: tuple[int, ...]) -> tuple[tuple[int, int, int], ...]:
    """For each pattern position k, the earlier positions whose matched
    entries bound the entry at k: (equal letter, nearest smaller letter,
    nearest larger letter), each -1 when there is none.

    Every index points at the first occurrence of its letter, so only
    first occurrences need their matched entry recorded.

    >>> _bound_positions((2, 3, 1))
    ((-1, -1, -1), (-1, 0, -1), (-1, -1, 0))
    """
    plan = []
    for k, letter in enumerate(letters):
        before = letters[:k]
        smaller = [let for let in before if let < letter]
        larger = [let for let in before if let > letter]
        plan.append(
            (
                before.index(letter) if letter in before else -1,
                before.index(max(smaller)) if smaller else -1,
                before.index(min(larger)) if larger else -1,
            )
        )
    return tuple(plan)


def contains(word: Word, pattern: Pattern) -> bool:
    """True iff the word has a subsequence order-and-equality isomorphic to
    the pattern.

    Backtracking over candidate positions, pruning candidates whose value is
    inconsistent with the entries matched so far; which earlier entries bound
    each pattern position is worked out once per pattern.  There is no
    recursion: an array keeps, for each pattern position before the current
    one, its bounds and the rest of its scan over word positions.  The
    current position takes its next consistent entry; when none is left, the
    search steps back one position and resumes that position's scan.  This
    is a complete search, exact for every pattern length.

    >>> contains(Word.parse("2121"), Pattern.parse("212"))
    True
    >>> contains(Word.parse("11"), Pattern.parse("12"))
    False
    """
    w = word.entries
    plan = _bound_positions(pattern.letters)
    t = len(plan)
    if t > len(w):
        return False
    slack = len(w) - t
    top = len(w)  # labels run 1..n, so every entry is below 2n
    matched = [0] * t  # entry matched at each pattern position
    saved: list = [None] * t  # (lower, upper, scan) of each position before k
    k, lower, upper, scan = 0, 0, top, iter(range(slack + 1))
    while True:
        for pos in scan:
            v = w[pos]
            if lower < v < upper:
                matched[k] = v
                if k + 1 == t:
                    return True
                saved[k] = lower, upper, scan
                k += 1
                equal, lo, hi = plan[k]
                if equal >= 0:  # entries are integers: v equals b iff b - 1 < v < b + 1
                    lower = matched[equal] - 1
                    upper = lower + 2
                else:
                    lower = matched[lo] if lo >= 0 else 0
                    upper = matched[hi] if hi >= 0 else top
                scan = iter(range(pos + 1, slack + k + 1))
                break
        else:
            if not k:
                return False
            k -= 1
            lower, upper, scan = saved[k]


def occurrence_arcs(
    pattern: Pattern, pairs: Sequence[tuple[int, int]]
) -> Iterator[tuple[int, ...]]:
    """Each injective map from the pattern's letters to the arcs of a shape
    under which the pattern fits the arcs' endpoints left to right, as the
    tuple of arc indices (into ``pairs``) for letters 1, 2, ..., m.

    ``pairs`` holds each arc's (opener, closer) positions.  Equal letters
    fall on the two ends of one arc.  Each letter takes the earliest endpoint
    of its arc after the previous letter's, which finds a fit whenever one
    exists.  A labeled word of this shape then contains the pattern exactly
    when its labels rise along one of the yielded tuples.

    >>> list(occurrence_arcs(Pattern.parse("12"), [(1, 2), (3, 4)]))
    [(0, 1)]
    >>> list(occurrence_arcs(Pattern.parse("121"), [(1, 3), (2, 4)]))
    [(0, 1), (1, 0)]
    """
    letters = pattern.letters
    for arcs in permutations(range(len(pairs)), max(letters)):
        at = 0  # position of the previous letter; 0 once a letter finds no room
        for x in letters:
            opener, closer = pairs[arcs[x - 1]]
            at = opener if opener > at else closer if closer > at else 0
            if not at:
                break
        else:
            yield arcs


def avoids_all(word: Word, patterns: Iterable[Pattern]) -> bool:
    """True iff the word contains none of the given patterns."""
    return not any(contains(word, p) for p in patterns)


def is_non_crossing(word: Word) -> bool:
    """No two arcs cross: the word avoids 1212 and 2121."""
    return avoids_all(word, CROSSING)


def is_non_nesting(word: Word) -> bool:
    """No arc sits strictly inside another: the word avoids 1221 and 2112."""
    return avoids_all(word, NESTING)
