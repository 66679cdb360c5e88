"""Points of Cantor space presented with decidable tails.

Two presentations: an eventually periodic letter stream, and the
stretched image of such a stream (the i-th letter repeated i+1 times).
Both answer ``prefix`` exactly at every length, read their letters from
position 0 as runs of equal ones (``runs``) without building a prefix,
and expose enough structure for the oracles to certify tail behavior;
only the plain stream answers ``at``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, cycle, groupby
from math import lcm
from typing import Iterator

from .words import Word, order_at_depth, stretch, triangular

MAX_WOVEN = 1 << 20


@dataclass(frozen=True)
class Branch:
    """The point head + cycle + cycle + ... (cycle non-empty)."""

    head: Word
    cycle: Word

    def __post_init__(self) -> None:
        if not self.cycle:
            raise ValueError("cycle must be non-empty")

    def at(self, n: int) -> int:
        if n < len(self.head):
            return self.head[n]
        return self.cycle[(n - len(self.head)) % len(self.cycle)]

    def prefix(self, n: int) -> Word:
        head, cycle = self.head, self.cycle
        if n <= len(head):
            return head[:n]
        laps, rest = divmod(n - len(head), len(cycle))
        return head + cycle * laps + cycle[:rest]

    def runs(self) -> Iterator[tuple[int, int | None]]:
        """The maximal runs of equal letters from position 0 on, as
        (letter, count); once the branch is constant for good, the last
        count is None."""
        tail = self.constant_tail()
        letters = chain(self.head, cycle(self.cycle)) if tail is None else self.head[:tail[1]]
        for letter, group in groupby(letters):
            yield letter, len(list(group))
        if tail is not None:
            yield tail[0], None

    def constant_tail(self) -> tuple[int, int] | None:
        """(letter, start) when the branch is that letter from start on."""
        first = self.cycle[0]
        if any(letter != first for letter in self.cycle):
            return None
        start = len(self.head)
        while start > 0 and self.head[start - 1] == first:
            start -= 1
        return first, start

    def drop(self, count: int) -> "Branch":
        """The branch with its first ``count`` letters removed."""
        if count <= len(self.head):
            return Branch(self.head[count:], self.cycle)
        shift = (count - len(self.head)) % len(self.cycle)
        return Branch((), self.cycle[shift:] + self.cycle[:shift])


@dataclass(frozen=True)
class StretchedBranch:
    """The stretched image of a base stream: letter i repeated i+1 times."""

    base: Branch

    def prefix(self, n: int) -> Word:
        # Blocks 0 .. order_at_depth(n) cover positions 0 .. n.
        return stretch(self.base.prefix(order_at_depth(n) + 1))[:n]

    def runs(self) -> Iterator[tuple[int, int | None]]:
        """The maximal runs of equal letters from position 0 on, as
        (letter, count): a run of m base letters from base position k on
        spans positions triangular(k) to triangular(k + m) - 1, and the
        last count is None from triangular(k) on when the base is constant
        from k on."""
        k = 0
        for letter, count in self.base.runs():
            if count is None:
                yield letter, None
                return
            yield letter, triangular(k + count) - triangular(k)
            k += count


def interleave_branches(x: Branch, y: Branch) -> Branch:
    """The stream alternating the two inputs, ``x`` on even positions.

    Eventually periodic again: past both heads one combined period
    covers the lcm of the two cycle lengths. A woven head and cycle of
    over ``MAX_WOVEN`` letters is refused before any prefix is built.
    """
    m = max(len(x.head), len(y.head))
    n = m + lcm(len(x.cycle), len(y.cycle))
    if 2 * n > MAX_WOVEN:
        raise ValueError(f"interleaved stream too long: {2 * n} letters of head and cycle, "
                         f"over {MAX_WOVEN}")
    woven = tuple(chain.from_iterable(zip(x.prefix(n), y.prefix(n))))
    return Branch(woven[:2 * m], woven[2 * m:])


def as_stretched(point: "Branch | StretchedBranch") -> Branch | None:
    """The base stream when the point is a stretched image, else None.

    A stretched point is constant on each block triangular(k) <= n <
    triangular(k+1); with a non-constant cycle some block straddles two
    letters, so only a point that is c^ω from ``start`` on unstretches.
    It does exactly when the blocks that begin before ``start`` are the
    stretch of their first letters, and its base is those letters, then c^ω.
    """
    if isinstance(point, StretchedBranch):
        return point.base
    tail = point.constant_tail()
    if tail is None:
        return None
    letter, start = tail
    head = tuple(point.at(triangular(k)) for k in range(start) if triangular(k) < start)
    if stretch(head) != point.prefix(triangular(len(head))):
        return None
    return Branch(head, (letter,))
