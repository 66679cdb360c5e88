"""Reference values for the benchmark's answer checks.

Nothing here imports ``cantordensity``. Every value is recomputed by a
route of its own: cylinder lists are reduced by prefix search instead
of the package's split-and-graft normal form, the lex-first piece of
measure x is read as the set of streams whose binary value is below x,
spongy tails come from a base-4 digit loop, and offspring bounds come
from a depth-first cell walk that tracks block positions and the
binary value of the copy suffix.

Words are tuples of 0/1 letters; points are ``(head, cycle)`` pairs of
words, optionally stretched (letter i repeated i + 1 times).
"""

from __future__ import annotations

from fractions import Fraction

ZERO = Fraction(0)
ONE = Fraction(1)
THIRD = Fraction(1, 3)
TWO_THIRDS = Fraction(2, 3)


def bits(text: str) -> tuple[int, ...]:
    return tuple(int(c) for c in text)


def text(word) -> str:
    return "".join(str(b) for b in word)


# ------------------------------------------------------------------ points


def point_letters(head, cycle, count: int, stretched: bool = False) -> tuple[int, ...]:
    """The first ``count`` letters of head + cycle^w, stretched on request."""
    if not stretched:
        return tuple(
            head[i] if i < len(head) else cycle[(i - len(head)) % len(cycle)]
            for i in range(count)
        )
    out: list[int] = []
    i = 0
    while len(out) < count:
        letter = head[i] if i < len(head) else cycle[(i - len(head)) % len(cycle)]
        out.extend([letter] * (i + 1))
        i += 1
    return tuple(out[:count])


def block_start(k: int) -> int:
    """Position where block k of a stretched stream starts: 1 + ... + k."""
    return k * (k + 1) // 2


def value_of(word) -> Fraction:
    """The binary value 0.w of a finite word."""
    total = 0
    for letter in word:
        total = 2 * total + letter
    return Fraction(total, 1 << len(word))


def stream_value(head, cycle) -> Fraction:
    """The binary value of head + cycle^w, exactly."""
    cycle_value = value_of(cycle) / (1 - Fraction(1, 1 << len(cycle)))
    return value_of(head) + cycle_value / (1 << len(head))


# ------------------------------------------------------------ clopen lists


def reduce_words(words) -> list[tuple[int, ...]]:
    """The prefix-free core of a cylinder list: drop words extending others."""
    kept: set[tuple[int, ...]] = set()
    for word in sorted(set(map(tuple, words)), key=len):
        if not any(word[:j] in kept for j in range(len(word) + 1)):
            kept.add(word)
    return sorted(kept)


def cylinders_measure(reduced) -> Fraction:
    return sum((Fraction(1, 1 << len(w)) for w in reduced), ZERO)


def cylinders_local(reduced, at) -> Fraction:
    """Localized measure at ``at`` of a prefix-free cylinder list."""
    at = tuple(at)
    n = len(at)
    total = ZERO
    for w in reduced:
        if len(w) <= n:
            if at[: len(w)] == w:
                return ONE
        elif w[:n] == at:
            total += Fraction(1, 1 << (len(w) - n))
    return total


def cylinders_meet_measure(a_reduced, b_reduced) -> Fraction:
    """Measure of the intersection: A's cylinders are disjoint, so sum B inside each."""
    return sum(
        (Fraction(1, 1 << len(w)) * cylinders_local(b_reduced, w) for w in a_reduced),
        ZERO,
    )


def covered(container_reduced, words) -> bool:
    """Every cylinder of ``words`` lies inside the container."""
    return all(cylinders_local(container_reduced, w) == ONE for w in words)


# --------------------------------------------- lex-first pieces and dyadics


def below_local(x: Fraction, at) -> Fraction:
    """Localized measure at ``at`` of the streams with binary value below x.

    That set is the lex-first clopen piece of measure x when x is dyadic.
    """
    scaled = (x - value_of(at)) * (1 << len(at))
    return min(ONE, max(ZERO, scaled))


def is_dyadic(q: Fraction) -> bool:
    d = q.denominator
    return d & (d - 1) == 0


def least_dyadic_between(lo: Fraction, hi: Fraction) -> Fraction:
    """The dyadic in (lo, hi) ∩ (0, 1) with least denominator, then least numerator.

    At the least exponent n admitting a numerator, the smallest integer
    above lo * 2^n is odd: an even one would have fit at exponent n - 1.
    """
    lo, hi = max(lo, ZERO), min(hi, ONE)
    n = 1
    while True:
        numerator = (lo.numerator << n) // lo.denominator + 1
        candidate = Fraction(numerator, 1 << n)
        if candidate < hi:
            return candidate
        n += 1


# ------------------------------------------------------------ spongy sets


class Spongy:
    """The graft series behind 0^n 1^n with pieces f(n), by a base-4 digit loop."""

    def __init__(self, rate: Fraction):
        if not ZERO <= rate <= THIRD:
            raise ValueError(rate)
        self.rate = rate
        self.digits: list[int] = [0]
        self.remainders: list[Fraction] = [rate]
        self.h: int | None = None
        if rate != THIRD:
            while self.h is None:
                self._grow()
                if self.digits[-1] == 0:
                    self.h = len(self.digits) - 1

    def _grow(self) -> None:
        scaled = 4 * self.remainders[-1]
        digit = scaled.numerator // scaled.denominator
        self.digits.append(digit)
        self.remainders.append(scaled - digit)

    def _remainder(self, j: int) -> Fraction:
        while len(self.remainders) <= j:
            self._grow()
        return self.remainders[j]

    def _digit(self, j: int) -> int:
        while len(self.digits) <= j:
            self._grow()
        return self.digits[j]

    def piece(self, n: int) -> Fraction:
        if self.h is None or n < self.h:
            return ONE
        return Fraction(self._digit(n + 1), 4)

    def tail(self, m: int) -> Fraction:
        """Sum over n >= m of f(n) 4^-n."""
        if self.h is None:
            return Fraction(4, 3) / 4**m
        if m >= self.h:
            return self._remainder(m) / 4**m
        head = sum((Fraction(1, 4**n) for n in range(m, self.h)), ZERO)
        return head + self._remainder(self.h) / 4**self.h

    def local(self, at) -> Fraction:
        at = tuple(at)
        z = 0
        while z < len(at) and at[z] == 0:
            z += 1
        if z == len(at):
            return self.tail(max(z, 1)) * (1 << z)
        if z == 0:
            return ZERO
        rest = at[z + 1:]
        if any(b != 1 for b in rest[: z - 1]):
            return ZERO
        if len(rest) <= z - 1:
            return self.piece(z) * Fraction(1 << len(at), 4**z)
        return below_local(self.piece(z), rest[z - 1:])


# ------------------------------------------------------------ exact specs


def exact_local(doc: dict, at) -> Fraction | None:
    """The localized measure of an exact set spec, or None where not derived here.

    Covers clopen lists, dualistic sets (fully up to measure 1/3; beyond
    it the total and the cylinders behind 0^n 1^n), countable-range sets
    whose values are dyadic or at most 1/3, compose and complement.
    """
    at = tuple(at)
    kind = doc["kind"]
    if kind == "clopen":
        return cylinders_local(reduce_words(bits(w) for w in doc["words"]), at)
    if kind == "dualistic":
        r = Fraction(doc["measure"])
        if not at:
            return r
        if r <= THIRD:
            return Spongy(r).local(at)
        z = 0
        while z < len(at) and at[z] == 0:
            z += 1
        if z and at[z: 2 * z] == (1,) * z:
            # Only the spongy remainder lives behind 0^n 1^n.
            chunk = least_dyadic_between(r - THIRD, min(r, TWO_THIRDS))
            return Spongy(r - chunk).local(at)
        return None
    if kind == "countable-range":
        values = [Fraction(v) for v in doc["values"]]
        inside = ZERO
        for n, value in enumerate(values, start=1):
            graft = (0,) * n + (1,) * n
            if at[: len(graft)] == graft:
                return _spine_local(value, at[len(graft):])
            if graft[: len(at)] == at:
                inside += value / (1 << (len(graft) - len(at)))
        return inside
    if kind == "compose":
        total = ZERO
        for part in doc["parts"]:
            graft = bits(part["prefix"])
            if at[: len(graft)] == graft:
                value = exact_local(part["set"], at[len(graft):])
                break
            if graft[: len(at)] == at:
                inner = exact_local(part["set"], ())
                if inner is None:
                    return None
                total += inner / (1 << (len(graft) - len(at)))
        else:
            value = total
        if value is None:
            return None
        return ONE - value if doc.get("complemented") else value
    if kind == "complement":
        inner = exact_local(doc["of"], at)
        return None if inner is None else ONE - inner
    return None


def _spine_local(value: Fraction, at) -> Fraction | None:
    z = 0
    while z < len(at) and at[z] == 0:
        z += 1
    if z == len(at):
        return value
    rest = at[z + 1:]
    if is_dyadic(value):
        return below_local(value, rest)
    if value <= THIRD:
        return Spongy(value).local(rest)
    return None


# --------------------------------------------------------- offspring sets


class CellWalker:
    """Block arithmetic of an offspring set, cell by cell.

    Block k reads k + 1 letters at a tree node of length k. A constant
    block steps to the child (out of the set when the child is not in
    the tree); the first mixed block flags the node, and the stream
    after it is in exactly when its binary value is below the node's
    label. States are tuples; "in" and "out" are decided cells.
    """

    def __init__(self, member, label):
        self.member = member
        self.label = label

    def start(self):
        return ("block", (), 0, None, False)

    def step(self, state, letter: int):
        if state[0] == "block":
            _, node, taken, first, mixed = state
            if taken == 0:
                first = letter
            mixed = mixed or letter != first
            taken += 1
            if taken < len(node) + 1:
                return ("block", node, taken, first, mixed)
            if mixed:
                return ("copy", self.label(node), ZERO, ONE)
            child = node + (first,)
            if not self.member(child):
                return "out"
            return ("block", child, 0, None, False)
        _, label, lo, width = state
        width = width / 2
        lo = lo + letter * width
        if lo + width <= label:
            return "in"
        if lo >= label:
            return "out"
        return ("copy", label, lo, width)

    def walk(self, word):
        state = self.start()
        for letter in word:
            if state in ("in", "out"):
                return state
            state = self.step(state, letter)
        return state

    def bounds(self, word, horizon: int) -> tuple[Fraction, Fraction]:
        """Mass bounds inside the cylinder of ``word`` from all cells at the horizon."""
        rest = max(horizon, len(word)) - len(word)
        inside, unknown = self._count(self.walk(word), rest)
        return Fraction(inside, 1 << rest), Fraction(inside + unknown, 1 << rest)

    def _count(self, state, rest: int) -> tuple[int, int]:
        if state == "in":
            return 1 << rest, 0
        if state == "out":
            return 0, 0
        if rest == 0:
            return 0, 1
        a_in, a_unknown = self._count(self.step(state, 0), rest - 1)
        b_in, b_unknown = self._count(self.step(state, 1), rest - 1)
        return a_in + b_in, a_unknown + b_unknown


def tree_member(nodes: set, policies: dict):
    """Membership in a tree of explicit nodes with zeros/full/periodic leaves."""

    def member(word) -> bool:
        word = tuple(word)
        if word in nodes:
            return True
        cut = len(word)
        while word[:cut] not in nodes:
            cut -= 1
        leaf = word[:cut]
        policy = policies.get(leaf)
        if policy is None:
            return False
        suffix = word[cut:]
        if policy == "zeros":
            return not any(suffix)
        if policy == "full":
            return True
        cycle = policy
        return all(b == cycle[i % len(cycle)] for i, b in enumerate(suffix))

    return member


def full_member(word) -> bool:
    return True


def parity_label(node) -> Fraction:
    """Second reduction: near 1 on an even count of 1s, near 0 on odd."""
    scale = Fraction(1, 1 << (len(node) + 1))
    return ONE - scale if sum(node) % 2 == 0 else scale


def alternation_label(presented):
    """First reduction: the pair around the least dyadic at the 1-ending head,
    lower member on an even run of trailing zeros, upper on odd."""

    def label(node) -> Fraction:
        node = tuple(node)
        cut = len(node)
        while cut and node[cut - 1] == 0:
            cut -= 1
        head, zeros = node[:cut], len(node) - cut
        middle = least_dyadic_between(*presented(head))
        offset = Fraction(1, 1 << (len(head) + 2))
        below, above = middle - offset, middle + offset
        if below <= 0:
            below = middle / 2
        if above >= 1:
            above = (1 + middle) / 2
        return below if zeros % 2 == 0 else above

    return label


def constant_presented(c: Fraction):
    def presented(head):
        half = Fraction(1, 1 << (len(head) + 1))
        return c - half, c + half

    return presented


def interval_presented(a: Fraction, b: Fraction):
    """The affine image a + (b - a) * 0.x of a binary stream, widened by slack."""

    def presented(head):
        base = a + (b - a) * value_of(head)
        hull = (b - a) / (1 << len(head))
        slack = (1 - (b - a)) / (1 << (len(head) + 2))
        return base - slack, base + hull + slack

    return presented
