"""Clopen subsets of Cantor space with exact rational measure.

A clopen set is a finite union of basic cylinders. The constructor
keeps any binary words in canonical form: the unique minimal antichain
covering the set, where no word extends another and no two sibling words
are both present (siblings merge into their parent). Two clopen sets are
equal exactly when they hold the same points, and the dataclass equality
on the canonical form coincides with that. Words sort alike as binary
tuples and as "01" strings, so one loop, ``canonical_antichain``,
canonicalizes either. A clopen document's strings stay strings: their
antichain is the sorted table that ``oracles.ClopenOracle`` walks views
of, and no document builds a ``ClopenSet``.

The antichain is sorted, which for an antichain is the left-to-right
order of the cylinders. Every operation is one pass in that order that
builds its result sorted and canonical, with nothing renormalized and
no recursion; a measure counts cells of the deepest word's size.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce

from .words import Word


@dataclass(frozen=True)
class ClopenSet:
    words: tuple[Word, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "words", tuple(canonical_antichain(self.words)))

    @staticmethod
    def from_words(generators: tuple[Word, ...] | list[Word]) -> "ClopenSet":
        """Build the set covered by arbitrary cylinder words, canonicalized."""
        return ClopenSet(generators)

    @staticmethod
    def empty() -> "ClopenSet":
        return _canonical(())

    @staticmethod
    def full() -> "ClopenSet":
        return _canonical(((),))

    @staticmethod
    def cylinder(word: Word) -> "ClopenSet":
        return _canonical((tuple(word),))

    @property
    def depth(self) -> int:
        """Length of the longest word in the canonical antichain."""
        return max((len(w) for w in self.words), default=0)

    def measure(self) -> Fraction:
        depth = self.depth
        return Fraction(sum(1 << (depth - len(w)) for w in self.words), 1 << depth)

    def union(self, other: "ClopenSet") -> "ClopenSet":
        return ClopenSet.from_words(self.words + other.words)

    def complement(self) -> "ClopenSet":
        """The gaps between neighbouring cylinders, left to right: past
        their first difference, the right siblings of the left word's 0s,
        deepest first, then the left siblings of the right word's 1s."""
        words = self.words
        if not words:
            return ClopenSet.full()
        gaps: list[Word] = []
        # The empty word on either side stands for an end: the gap reaches up to the root.
        for w, x in zip(((),) + words, words + ((),)):
            past = next((i for i, (p, q) in enumerate(zip(w, x)) if p != q), -1) + 1
            gaps += [w[:i] + (1,) for i in range(len(w) - 1, past - 1, -1) if not w[i]]
            gaps += [x[:i] + (0,) for i in range(past, len(x)) if x[i]]
        return _canonical(tuple(gaps))

    def intersect(self, other: "ClopenSet") -> "ClopenSet":
        """The longer word of each comparable pair, in order: a word of self
        if a word of other covers it, else the words of other extending it."""
        words = other.words
        out: list[Word] = []
        for u in self.words:
            k = bisect_right(words, u)
            if k and u[: len(words[k - 1])] == words[k - 1]:
                out.append(u)
            else:  # the words extending u sort between u and u + (2,)
                out += words[k : bisect_left(words, u + (2,), k)]
        return _canonical(tuple(out))

    def difference(self, other: "ClopenSet") -> "ClopenSet":
        return self.intersect(other.complement())

    def includes(self, other: "ClopenSet") -> bool:
        return self.intersect(other) == other

    def take_submass(self, amount: Fraction) -> "ClopenSet":
        """Lexicographically first clopen subset with exact measure ``amount``.

        The amount must be dyadic and at most the measure. Left to right,
        each cylinder that fits in the rest is taken whole; the first that
        does not gives its segment [0, rest), one word per 1 bit of rest.
        """
        measure = self.measure()
        if amount < 0 or amount > measure:
            raise ValueError(f"no subset of measure {amount} in a set of measure {measure}")
        if (amount.denominator & (amount.denominator - 1)) != 0:
            raise ValueError(f"subset mass must be dyadic: {amount}")
        exponent = amount.denominator.bit_length() - 1
        depth = max(self.depth, exponent)
        # The rest counts cells of the finer depth; w's cylinder holds 2^span.
        rest = amount.numerator << (depth - exponent)
        taken: list[Word] = []
        for w in self.words:
            span = depth - len(w)
            if rest < 1 << span:
                bits = tuple(map(int, format(rest, "b").zfill(span)))
                taken += [w + bits[:i] + (0,) for i, bit in enumerate(bits) if bit]
                break
            taken.append(w)
            rest -= 1 << span
        return _canonical(tuple(taken))


def _canonical(words: tuple[Word, ...]) -> ClopenSet:
    """A set from words already in canonical form, without renormalizing."""
    clopen = object.__new__(ClopenSet)
    object.__setattr__(clopen, "words", words)
    return clopen


def canonical_antichain(generators: tuple | list) -> list:
    """The minimal antichain covering the cylinders of binary words, given
    as tuples or as "01" strings. In sorted order a word extending a kept
    word comes right after it, and a right sibling right after its left
    one; their merge may complete a pair one level up."""
    kept: list = []
    for w in sorted(generators):
        if kept and w[: len(kept[-1])] == kept[-1]:
            continue
        while kept and len(kept[-1]) == len(w) and kept[-1][:-1] == w[:-1]:
            kept.pop()
            w = w[:-1]
        kept.append(w)
    return kept


def union_all(parts: list[ClopenSet]) -> ClopenSet:
    return reduce(ClopenSet.union, parts, ClopenSet.empty())


def subset_of_measure(container: ClopenSet, amount: Fraction) -> ClopenSet:
    """Lex-first clopen subset of ``container`` with exact dyadic measure,
    which must lie strictly between zero and the container's measure so
    that the result is a proper nonempty subset."""
    if not (0 < amount < container.measure()):
        raise ValueError(f"need 0 < amount < {container.measure()}, got {amount}")
    return container.take_submass(amount)
