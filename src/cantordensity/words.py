"""Finite words and the combinators the rest of the package is built from.

A word is a tuple of small non-negative ints. Binary words (entries in
{0, 1}) name basic clopen cylinders of Cantor space; words with arbitrary
natural-number entries are nodes of the Baire tree and get translated to
binary words through the run-length codec below.

The codec: a natural-number word ``(a0, a1, ..., ak)`` becomes the binary
word ``0^a0 1 0^a1 1 ... 0^ak 1``. Every binary word ending in 1 (and the
empty word) decodes uniquely; ``bits_to_runs`` is the left inverse.
Pair trees split words letter by letter (``deinterleave``), as interleaved
points merge them; stretched points repeat letter i i+1 times (``stretch``).
"""

from __future__ import annotations

from math import isqrt

Word = tuple[int, ...]
# Maps the ASCII digits of an encoded digit string to their values.
DIGIT_VALUES = bytes.maketrans(b"0123456789", bytes(range(10)))


def split_trailing_zeros(word: Word) -> tuple[Word, int]:
    """Split ``word`` as ``head + (0,) * count`` with head empty or ending in 1."""
    count = 0
    while count < len(word) and word[-1 - count] == 0:
        count += 1
    return word[: len(word) - count], count


def runs_to_bits(runs: Word) -> Word:
    """Encode a natural-number word as a binary word, one ``0^a 1`` block per entry."""
    out: list[int] = []
    for entry in runs:
        if entry < 0:
            raise ValueError("run lengths must be non-negative")
        out.extend([0] * entry)
        out.append(1)
    return tuple(out)


def bits_to_runs(bits: Word) -> Word:
    """Decode a binary word ending in 1 (or empty) back to run lengths.

    Raises ValueError off the codec's range, i.e. when the word has a
    trailing zero or a letter outside {0, 1}.
    """
    if not all(letter in (0, 1) for letter in bits):
        raise ValueError("codec range is binary words")
    if bits and bits[-1] != 1:
        raise ValueError("codec range is words ending in 1")
    runs: list[int] = []
    zeros = 0
    for letter in bits:
        if letter == 0:
            zeros += 1
        else:
            runs.append(zeros)
            zeros = 0
    return tuple(runs)


def decode_head(bits: Word) -> Word:
    """Decode the largest prefix of ``bits`` that the codec can produce.

    Trailing zeros are dropped first, so this is total on binary words;
    it agrees with ``bits_to_runs`` on the codec's range.
    """
    head, _ = split_trailing_zeros(bits)
    return bits_to_runs(head)


def deinterleave(word: Word) -> tuple[Word, Word]:
    return word[0::2], word[1::2]


def triangular(order: int) -> int:
    """1 + 2 + ... + order."""
    if order < 0:
        raise ValueError("order must be non-negative")
    return order * (order + 1) // 2


def order_at_depth(depth: int) -> int:
    """Largest ``k`` with ``triangular(k) <= depth``: the k with
    (2k + 1)^2 <= 8 depth + 1 < (2k + 3)^2."""
    if depth < 0:
        raise ValueError("depth must be non-negative")
    return (isqrt(8 * depth + 1) - 1) // 2


def stretch(word: Word) -> Word:
    """Repeat the i-th letter i+1 times; the result has triangular(len) letters."""
    out: list[int] = []
    for i, letter in enumerate(word):
        out.extend([letter] * (i + 1))
    return tuple(out)


def is_prefix(shorter: Word, longer: Word) -> bool:
    return longer[: len(shorter)] == shorter
