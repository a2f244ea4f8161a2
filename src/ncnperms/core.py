"""Words over {1,1,...,n,n}, labeled matchings, and Dyck words.

A word of semilength n is an arrangement of the multiset {1,1,...,n,n}.
Drawing an arc between the two positions that hold the same label turns the
word into a labeled perfect matching of [2n]; the two views carry exactly
the same information and all conversions here are lossless.

Positions are 1-based throughout the public interface.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum, IntEnum
from functools import cache
from typing import Iterable, Iterator, Sequence


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


class Step(IntEnum):
    OPEN = 0
    CLOSE = 1


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


@dataclass(frozen=True)
class Arc:
    """One arc of a matching: the two positions of a label, opener first."""

    opener: int
    closer: int
    label: int

    def __post_init__(self) -> None:
        if not (1 <= self.opener < self.closer):
            raise ValidationError(
                f"arc must satisfy 1 <= opener < closer, got ({self.opener}, {self.closer})"
            )
        if self.label < 1:
            raise ValidationError(f"arc label must be positive, got {self.label}")


@dataclass(frozen=True)
class Matching:
    """A labeled perfect matching of [2n]: n arcs using every position once
    and every label in 1..n once.  Arcs are stored sorted by opener.
    """

    arcs: tuple[Arc, ...]

    def __post_init__(self) -> None:
        arcs = tuple(sorted(self.arcs, key=lambda a: a.opener))
        object.__setattr__(self, "arcs", arcs)
        n = len(arcs)
        endpoints = sorted(p for a in arcs for p in (a.opener, a.closer))
        if endpoints != list(range(1, 2 * n + 1)):
            raise ValidationError(
                f"arc endpoints must cover 1..{2 * n} exactly once, got {endpoints}"
            )
        if sorted(a.label for a in arcs) != list(range(1, n + 1)):
            raise ValidationError("arc labels must be a permutation of 1..n")

    @property
    def semilength(self) -> int:
        return len(self.arcs)


@dataclass(frozen=True)
class DyckWord:
    """A balanced sequence of OPEN/CLOSE steps, every prefix OPEN-heavy.

    >>> str(DyckWord((Step.OPEN, Step.CLOSE)))
    '()'
    """

    steps: tuple[Step, ...]

    def __post_init__(self) -> None:
        steps = tuple(Step(s) for s in self.steps)
        object.__setattr__(self, "steps", steps)
        depth = 0
        for s in steps:
            depth += 1 if s is Step.OPEN else -1
            if depth < 0:
                raise ValidationError("prefix has more CLOSE than OPEN steps")
        if depth != 0:
            raise ValidationError("unbalanced step sequence")

    @property
    def semilength(self) -> int:
        return len(self.steps) // 2

    def __str__(self) -> str:
        return "".join("(" if s is Step.OPEN else ")" for s in self.steps)


def word_to_matching(word: Word) -> Matching:
    """Arc diagram of a word: one arc per label, at its two positions.

    >>> word_to_matching(Word.parse("1221")).arcs
    (Arc(opener=1, closer=4, label=1), Arc(opener=2, closer=3, label=2))
    """
    where: dict[int, list[int]] = {}
    for pos, lab in enumerate(word.entries, start=1):
        where.setdefault(lab, []).append(pos)
    return Matching(tuple(Arc(ps[0], ps[1], lab) for lab, ps in where.items()))


def matching_to_word(matching: Matching) -> Word:
    """Inverse of :func:`word_to_matching`: write each label at both of its
    arc endpoints.
    """
    pairs = [(arc.opener, arc.closer) for arc in matching.arcs]
    return next(shape_words(pairs, [[arc.label for arc in matching.arcs]]))


def shape_words(
    pairs: Sequence[tuple[int, int]], labelings: Iterable[Sequence[int]]
) -> Iterator[Word]:
    """One word per labeling of a shape: the k-th label goes to both
    positions of the k-th (opener, closer) pair, and the pairs cover 1..2n.
    """
    entries = [0] * (2 * len(pairs))
    for labels in labelings:
        for (a, b), lab in zip(pairs, labels):
            entries[a - 1] = entries[b - 1] = lab
        yield Word(tuple(entries))


def dyck_to_matching(
    dyck: DyckWord, discipline: Discipline, labeling: Sequence[int]
) -> Matching:
    """Pair the steps of a Dyck word into arcs and label them.

    Under NON_CROSSING each CLOSE step pairs with the most recently opened
    unmatched OPEN; under NON_NESTING it pairs with the earliest one.  The
    k-th arc in opener order receives ``labeling[k-1]``, so a Dyck word plus
    a permutation of 1..n determines the word uniquely.

    >>> d = DyckWord((Step.OPEN, Step.OPEN, Step.CLOSE, Step.CLOSE))
    >>> str(matching_to_word(dyck_to_matching(d, Discipline.NON_CROSSING, (1, 2))))
    '1,2,2,1'
    >>> str(matching_to_word(dyck_to_matching(d, Discipline.NON_NESTING, (1, 2))))
    '1,2,1,2'
    """
    n = dyck.semilength
    labels = tuple(labeling)
    if sorted(labels) != list(range(1, n + 1)):
        raise ValidationError(f"labeling must be a permutation of 1..{n}, got {labels}")
    pairs = pair_steps(dyck, discipline)
    return Matching(tuple(Arc(a, b, lab) for (a, b), lab in zip(pairs, labels)))


def pair_steps(dyck: DyckWord, discipline: Discipline) -> list[tuple[int, int]]:
    """(opener, closer) position pairs of a Dyck word, sorted by opener."""
    open_positions: list[int] = []
    pairs: list[tuple[int, int]] = []
    for pos, step in enumerate(dyck.steps, start=1):
        if step is Step.OPEN:
            open_positions.append(pos)
        elif discipline is Discipline.NON_CROSSING:
            pairs.append((open_positions.pop(), pos))
        else:
            pairs.append((open_positions.pop(0), pos))
    pairs.sort()
    return pairs
