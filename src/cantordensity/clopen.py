"""Clopen subsets of Cantor space with exact rational measure.

A clopen set is a finite union of basic cylinders. The constructor
keeps any binary words in canonical form: the unique minimal antichain
covering the set, where no word extends another and no two sibling words
are both present (siblings merge into their parent). Two clopen sets are
equal exactly when they hold the same points, and the dataclass equality
on the canonical form coincides with that.

The whole algebra runs on one recursion scheme: split a set into its
two halves below letter 0 and letter 1, work on the halves, graft the
results back together. Every operation is exact; measures are
Fractions with power-of-two denominators.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce

from .words import Word

_FULL_WORDS: tuple[Word, ...] = ((),)


@dataclass(frozen=True)
class ClopenSet:
    words: tuple[Word, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "words", _normalize(tuple(self.words)))

    @staticmethod
    def from_words(generators: tuple[Word, ...] | list[Word]) -> "ClopenSet":
        """Build the set covered by arbitrary cylinder words, canonicalized."""
        return ClopenSet(tuple(generators))

    @staticmethod
    def empty() -> "ClopenSet":
        return _canonical(())

    @staticmethod
    def full() -> "ClopenSet":
        return _canonical(_FULL_WORDS)

    @staticmethod
    def cylinder(word: Word) -> "ClopenSet":
        return _canonical((tuple(word),))

    def is_empty(self) -> bool:
        return not self.words

    def is_full(self) -> bool:
        return self.words == _FULL_WORDS

    @property
    def depth(self) -> int:
        """Length of the longest word in the canonical antichain."""
        return max((len(w) for w in self.words), default=0)

    def measure(self) -> Fraction:
        return sum((Fraction(1, 1 << len(w)) for w in self.words), Fraction(0))

    def halves(self) -> tuple["ClopenSet", "ClopenSet"]:
        """The localizations below letter 0 and letter 1.

        The tails of a canonical antichain are canonical again, so the
        halves need no renormalizing.
        """
        if self.is_full():
            return self, self
        left = []
        right = []
        for w in self.words:
            (left if w[0] == 0 else right).append(w[1:])
        return _canonical(tuple(left)), _canonical(tuple(right))

    def union(self, other: "ClopenSet") -> "ClopenSet":
        return ClopenSet.from_words(self.words + other.words)

    def complement(self) -> "ClopenSet":
        if self.is_empty():
            return ClopenSet.full()
        if self.is_full():
            return ClopenSet.empty()
        left, right = self.halves()
        return _graft(left.complement(), right.complement())

    def intersect(self, other: "ClopenSet") -> "ClopenSet":
        if self.is_empty() or other.is_full():
            return self
        if self.is_full() or other.is_empty():
            return other
        a0, a1 = self.halves()
        b0, b1 = other.halves()
        return _graft(a0.intersect(b0), a1.intersect(b1))

    def difference(self, other: "ClopenSet") -> "ClopenSet":
        return self.intersect(other.complement())

    def includes(self, other: "ClopenSet") -> bool:
        return self.intersect(other) == other

    def take_submass(self, amount: Fraction) -> "ClopenSet":
        """Lexicographically first clopen subset with exact measure ``amount``.

        The amount must be dyadic and at most the measure; greed runs
        left to right, always keeping as much of the 0-side as fits.
        The recursion never materializes cylinder lists, so fine
        dyadics are cheap even inside coarse sets.
        """
        if amount < 0 or amount > self.measure():
            raise ValueError(f"no subset of measure {amount} in a set of measure {self.measure()}")
        if (amount.denominator & (amount.denominator - 1)) != 0:
            raise ValueError(f"subset mass must be dyadic: {amount}")
        return self._take(amount)

    def _take(self, amount: Fraction) -> "ClopenSet":
        if amount == 0:
            return ClopenSet.empty()
        if amount == self.measure():
            return self
        left, right = self.halves()
        left_cap = left.measure() / 2
        from_left = min(amount, left_cap)
        from_right = amount - from_left
        return _graft(left._take(from_left * 2), right._take(from_right * 2))

    def __str__(self) -> str:
        if self.is_full():
            return "{<>}"
        inner = ", ".join("".join(map(str, w)) for w in self.words)
        return "{" + inner + "}"


def _canonical(words: tuple[Word, ...]) -> ClopenSet:
    """A set from words already in canonical form, without renormalizing."""
    clopen = object.__new__(ClopenSet)
    object.__setattr__(clopen, "words", words)
    return clopen


def _graft(left: ClopenSet, right: ClopenSet) -> ClopenSet:
    if left.is_full() and right.is_full():
        return ClopenSet.full()
    words = tuple((0,) + w for w in left.words) + tuple((1,) + w for w in right.words)
    return _canonical(words)


def _normalize(generators: tuple[Word, ...]) -> tuple[Word, ...]:
    """The minimal antichain covering the cylinders of binary words.

    In sorted order a word extending a kept word comes right after it,
    so one pass drops the covered words; sibling pairs then merge on a
    stack, each merge possibly completing a pair one level up.
    """
    kept: list[Word] = []
    for w in sorted(generators):
        if kept and w[: len(kept[-1])] == kept[-1]:
            continue
        kept.append(w)
        while len(kept) >= 2:
            last = kept[-1]
            if last[-1] != 1 or kept[-2] != last[:-1] + (0,):
                break
            del kept[-2:]
            kept.append(last[:-1])
    return tuple(kept)


def union_all(parts: list[ClopenSet]) -> ClopenSet:
    return reduce(ClopenSet.union, parts, ClopenSet.empty())


def subset_of_measure(container: ClopenSet, amount: Fraction) -> ClopenSet:
    """Lex-first clopen subset of ``container`` with exact dyadic measure.

    Strict about the range: the amount must sit strictly between zero
    and the container's measure, so the result is a proper nonempty
    subset.
    """
    if not (0 < amount < container.measure()):
        raise ValueError(
            f"need 0 < amount < {container.measure()}, got {amount}"
        )
    return container.take_submass(amount)
