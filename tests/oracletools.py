"""Independent brute-force oracles used by the test suite.

Everything here recomputes values through a different route than the
package: explicit digit loops, cylinder enumeration, structural tree
walks. Shared helpers live in this module so the acceptance tests and
the unit tests freeze against the same independent code.
"""

import functools
import itertools
from fractions import Fraction

from cantordensity.approx import (
    AffineImagePresentation,
    ConstantPresentation,
    InjectivePresentation,
    ReparamPresentation,
)
from cantordensity.branches import Branch
from cantordensity.clopen import ClopenSet
from cantordensity.dualistic import second_family_words
from cantordensity.dyadics import RatInterval, format_fraction
from cantordensity.oracles import DEFAULT_WINDOW
from cantordensity.reductions import (
    InterleavedAdjustedLabels,
    OnesParityLabels,
    TailAlternationLabels,
)
from cantordensity.trees import materialize
from cantordensity.words import (
    bits_to_runs,
    decode_head,
    deinterleave,
    runs_to_bits,
    split_trailing_zeros,
)

F = Fraction
THIRD = F(1, 3)


def spongy_series_measure(rate: Fraction) -> Fraction:
    """Sum the defining series of the graft family with rate <= 1/3.

    Runs its own greedy base-4 digit loop on the rate: digits are 1 up
    to the first 0 at position h, the pieces from h on carry the shifted
    digit tail, whose exact value is the loop's remainder state. The
    closed pieces sum to (geometric head) + remainder/4^h.
    """
    if not (0 <= rate <= THIRD):
        raise ValueError(rate)
    if rate == THIRD:
        return THIRD
    x = rate
    h = 0
    while True:
        h += 1
        scaled = 4 * x
        digit = int(scaled)
        x = scaled - digit
        if digit == 0:
            break
        assert digit == 1, "values below 1/3 start with base-4 digits 1...10"
    head = (F(1) - F(1, 4 ** (h - 1))) / 3
    return head + x / 4**h


def spongy_digit_pieces(rate: Fraction, count: int) -> list[Fraction]:
    """First piece measures of the graft family, by an independent loop."""
    if rate == THIRD:
        return [F(1)] * count
    digits = []
    x = rate
    for _ in range(count + 1):
        scaled = 4 * x
        d = int(scaled)
        digits.append(d)
        x = scaled - d
    h = digits.index(0) + 1
    out = []
    for n in range(1, count + 1):
        out.append(F(1) if n < h else F(digits[n], 4))
    return out


@functools.lru_cache(maxsize=None)
def _spongy_tables(rate: Fraction, count: int):
    """The first piece measures and the partial sums of their series:
    heads[j] = sum over n <= j of f(n) 4^-n."""
    pieces = spongy_digit_pieces(rate, count)
    heads = list(itertools.accumulate((f / 4**n for n, f in enumerate(pieces, 1)), initial=F(0)))
    return pieces, heads


def spongy_local_measure(rate: Fraction, word) -> Fraction:
    """Localized measure at a word of the graft family with rate <= 1/3.

    Reads the defining union of 0^n 1^n ^ piece(f(n)) directly: along
    0^L the grafts from n = max(L, 1) on remain, whose mass is the
    series minus its first terms; past 0^n 1 only the graft at 0^n 1^n
    can meet the cylinder. Piece measures come from
    ``spongy_digit_pieces``, at least 32 beyond the word, enough for
    rates whose first zero digit comes within that many places.
    """
    word = tuple(word)
    n = 0
    while n < len(word) and word[n] == 0:
        n += 1
    # Rounded up so that the words along one point share a few counts.
    pieces, heads = _spongy_tables(rate, (n // 32 + 2) * 32)
    if n == len(word):
        return (spongy_series_measure(rate) - heads[max(n, 1) - 1]) * 2**n
    graft = (0,) * n + (1,) * n
    if n == 0 or word[: 2 * n] != graft[: len(word)]:
        return F(0)
    if len(word) <= 2 * n:
        return pieces[n - 1] / 2 ** (2 * n - len(word))
    rest = word[2 * n:]
    piece = piece_of_measure(pieces[n - 1])
    return cylinder_local_measure(piece.words, rest, max(len(rest), piece.depth))



def base4_digit_reference(rate: Fraction, j: int) -> int:
    """The j-th base-4 digit of a rate in [0, 1), by Fraction scaling."""
    scaled = rate * 4**j
    return int(scaled) - 4 * int(scaled / 4)


def spongy_tail_sum_reference(rate: Fraction, m: int) -> Fraction:
    """Sum over n >= m of f(n) 4^-n for the graft family of a rate below
    1/3, by Fraction arithmetic: the first zero digit h is found with
    ``base4_digit_reference``, the tail past max(m, h) is the rate minus
    its truncation there, and the pieces of digit 1 before h add a
    geometric head."""
    h = 1
    while base4_digit_reference(rate, h):
        h += 1
    start = max(m, h)
    tail = rate - F(int(rate * 4**start), 4**start)
    if m < h:
        tail += (F(4, 4**m) - F(4, 4**h)) / 3
    return tail


def second_family_chunk_reference(d: Fraction) -> ClopenSet:
    """The dualistic chunk of measure d by rebuilding the complementary
    family at lengths 3, 5, 7, ... until its measure exceeds d, then
    taking the first submass d."""
    length = 3
    while True:
        superset = ClopenSet.from_words(second_family_words(length))
        if superset.measure() > d:
            return superset.take_submass(d)
        length += 2


def grafted_union_bounds_reference(oracle, budget: int) -> RatInterval:
    """``measure_bounds`` of a grafted union by Fraction sums: each part
    adds its bounds scaled by 2^-len(graft), two normalized Fractions per
    part. Nested grafted unions are summed the same way."""
    lo = hi = F(0)
    for graft, part in oracle.parts:
        if type(part) is type(oracle):
            bounds = grafted_union_bounds_reference(part, budget - len(graft))
        else:
            bounds = part.measure_bounds(budget - len(graft))
        lo += F(bounds.lo.numerator, bounds.lo.denominator << len(graft))
        hi += F(bounds.hi.numerator, bounds.hi.denominator << len(graft))
    return RatInterval(lo, hi)

def antichain_measure(words) -> Fraction:
    """Sum of cylinder masses; valid when the words are incomparable."""
    return sum((F(1, 2 ** len(w)) for w in words), F(0))


def points_at_depth(depth: int):
    """All binary words of the given length, as tuples."""
    for code in range(1 << depth):
        yield tuple((code >> (depth - 1 - i)) & 1 for i in range(depth))


def parse_word(text: str):
    """Turn a string of digits such as ``"0110"`` into a word.

    The empty string is the empty word. Digits beyond 1 are accepted so
    the same parser serves Baire-tree nodes written with single-digit
    entries; multi-digit entries must be built as tuples directly.
    """
    if not text.isdigit() and text != "":
        raise ValueError(f"not a word: {text!r}")
    return tuple(int(ch) for ch in text)


def mixed_blocks(order: int):
    """All binary words of length order+1 containing both letters, in lex order.

    Empty for order 0: length-1 words are single letters.
    """
    if order < 0:
        raise ValueError("order must be non-negative")
    if order == 0:
        return ()
    return tuple(block for block in points_at_depth(order + 1) if 0 in block and 1 in block)


@functools.lru_cache(maxsize=None)
def piece_of_measure(amount: Fraction) -> ClopenSet:
    """The lexicographically first clopen set of a dyadic measure in [0, 1].

    Built as cylinders by the clopen layer's greedy submass: measure 1/2
    is the cylinder of (0,), measure 3/4 is {(0,), (1,0)}, measure 1/4
    is {(0,0)}. The reference the package's segment oracle is checked
    against.
    """
    if not (0 <= amount <= 1):
        raise ValueError(f"measure out of range: {amount}")
    return ClopenSet.full().take_submass(amount)


def cylinder_local_measure(words, at, depth: int) -> Fraction:
    """Localized measure of a cylinder union by leaf counting at a depth.

    Enumerates every extension of ``at`` to the given total depth and
    counts those with a prefix in ``words``. Exact whenever depth
    reaches past the longest word.
    """
    assert depth >= max((len(w) for w in words), default=0)
    at = tuple(at)
    rest = depth - len(at)
    hits = 0
    for tail in points_at_depth(rest):
        full = at + tail
        if any(full[: len(w)] == tuple(w) for w in words):
            hits += 1
    return F(hits, 1 << rest)


def interleave_closure(pairs, depth: int):
    """The downward closure of the interleavings of a pair tree,
    materialized to twice ``depth`` and closed with zero-tails: a word
    lives when its letter pairs (even slot, odd slot) spell a node of
    ``pairs``, an odd-length one when some odd letter completes it."""

    def alive(word) -> bool:
        evens, odds = word[0::2], word[1::2]
        partners = [odds] if len(word) % 2 == 0 else [odds + (0,), odds + (1,)]
        return any(pairs.member(tuple(2 * e + o for e, o in zip(evens, tail)))
                   for tail in partners)

    return materialize(alive, 2, 2 * depth)


def unstretch_by_block_scan(point):
    """The base stream of an eventually periodic point that is a stretched
    image, else None, by reading block k, the letters n with
    triangular(k) <= n < triangular(k + 1), one letter at a time up to
    the start of the constant tail: each block must be constant, and a
    block cut by the tail's start must carry the tail's letter."""
    tail = point.constant_tail()
    if tail is None:
        return None
    letter, start = tail
    base_letters = []
    k = 0
    while k * (k + 1) // 2 < start:
        begin, end = k * (k + 1) // 2, (k + 1) * (k + 2) // 2
        block = [point.at(n) for n in range(begin, min(end, start))]
        if any(b != block[0] for b in block):
            return None
        if end > start and block[0] != letter:
            return None
        base_letters.append(block[0])
        k += 1
    return Branch(tuple(base_letters), (letter,))


# ----- traces one depth at a time -----------------------------------------


def bounds_along_by_depths(oracle, point, start, stop, window):
    """Bounds at the prefixes of the point of lengths ``start`` to
    ``stop - 1``: one ``child`` step per letter of ``point.prefix(stop -
    1)``, and from depth ``start`` on one fresh ``measure_bounds`` per
    depth, with no run of the point read as a whole."""
    if start >= stop:
        return
    letters = point.prefix(stop - 1)
    oracle = oracle.localize(letters[:start])
    yield oracle.measure_bounds(window)
    for letter in letters[start:]:
        oracle = oracle.child(letter)
        yield oracle.measure_bounds(window)


def bound_runs_by_depths(oracle, point, start, stop, window=DEFAULT_WINDOW):
    """``MeasureOracle.bound_runs`` with one (bounds, 1) pair per depth,
    from ``bounds_along_by_depths``: the drop-in the parity tests patch in."""
    return ((bounds, 1) for bounds in bounds_along_by_depths(oracle, point, start, stop, window))


def trace_lines_by_depths(bounds):
    """The JSON text of each record {"n", "lo", "hi"}, one line per
    interval, formatting one body per run of one interval object."""
    last = body = None
    for n, interval in enumerate(bounds):
        if interval is not last:
            last = interval
            body = f'"lo": "{format_fraction(interval.lo)}", "hi": "{format_fraction(interval.hi)}"}}'
        yield f'{{"n": {n}, {body}'


def trace_output_by_depths(oracle, point, steps, window):
    """What ``trace --steps steps --budget window`` prints, one line and
    one flush at a time: (stdout, the error's message or None)."""
    printed = []
    bounds = bounds_along_by_depths(oracle, point, 0, steps, window)
    try:
        for line in trace_lines_by_depths(bounds):
            printed.append(line + "\n")
    except (ValueError, RuntimeError) as err:
        return "".join(printed), str(err)
    return "".join(printed), None


def value_of_bits(bits) -> Fraction:
    return sum((F(b, 1 << (n + 1)) for n, b in enumerate(bits)), F(0))


def _offspring_cell(member, label_of, w) -> str:
    """Classify one cell of an offspring set: 'in', 'out' or 'unknown'.

    Independent of the package's state machine: tracks block boundaries
    by position arithmetic and tests copy membership against the
    left-aligned dyadic interval [0, label) instead of a cylinder
    normal form.
    """
    pos = 0
    node = ()
    order = 0
    while True:
        size = order + 1
        if pos + size > len(w):
            return "unknown"
        block = w[pos : pos + size]
        if all(b == block[0] for b in block):
            node = node + (block[0],)
            if not member(node):
                return "out"
            pos += size
            order += 1
            continue
        rest = w[pos + size :]
        label = label_of(node)
        left = value_of_bits(rest)
        right = left + F(1, 1 << len(rest))
        if right <= label:
            return "in"
        if left >= label:
            return "out"
        return "unknown"


def offspring_cell_bounds(member, label_of, word, depth: int):
    """Mass bounds of an offspring set inside a cylinder, cell by cell."""
    word = tuple(word)
    rest = depth - len(word)
    lo_cells = 0
    hi_cells = 0
    for tail in points_at_depth(rest):
        verdict = _offspring_cell(member, label_of, word + tail)
        if verdict == "in":
            lo_cells += 1
            hi_cells += 1
        elif verdict == "unknown":
            hi_cells += 1
    return F(lo_cells, 1 << rest), F(hi_cells, 1 << rest)


def letterwise_offspring_bounds(oracle, budget: int):
    """``measure_bounds`` of an offspring oracle by a letter-by-letter
    frontier: every open state is stepped one letter at a time with the
    oracle's own ``_step`` and settled with its ``_leaf``, one level of
    state keys at a time, without jumping whole blocks."""
    h = max(budget, 0)
    bounds = oracle._leaf(oracle.state, h)
    if bounds is None:
        lo = slack = 0
        front = {oracle.state[0]: [oracle.state, 1]}
        for g in range(h - 1, -1, -1):
            below = {}
            for state, paths in front.values():
                for letter in (0, 1):
                    child = oracle._step(state, letter)
                    out = oracle._leaf(child, g)
                    if out is not None:
                        lo += paths * out[0]
                        slack += paths * (out[1] - out[0])
                    elif child[0] in below:
                        below[child[0]][1] += paths
                    else:
                        below[child[0]] = [child, paths]
            front = below
        bounds = (lo, lo + slack)
    return RatInterval(F(bounds[0], 1 << h), F(bounds[1], 1 << h))


# ----- presented intervals, least dyadics and labels on Fractions ---------


def presented(presentation, node) -> tuple[Fraction, Fraction]:
    """A presentation's open interval at a node, as two Fractions."""
    lo, hi, scale = presentation.presented_numerators(node)
    return F(lo, scale), F(hi, scale)


def dyadic_value(parts) -> Fraction:
    """The value of a dyadic given as (numerator, exponent)."""
    return F(parts[0], 1 << parts[1])


def presented_interval_reference(presentation, node) -> tuple[Fraction, Fraction]:
    """The presets' and ``ReparamPresentation``'s open intervals by their
    defining Fraction formulas: the image of the cylinder widened by a
    margin, and zero padding until the width drops below the node scale."""
    scale = F(1, 2 ** len(node))
    if isinstance(presentation, ConstantPresentation):
        return presentation.constant - scale / 2, presentation.constant + scale / 2
    if isinstance(presentation, AffineImagePresentation):
        lo, span = presentation.lo_value, presentation.span
        v = sum(F(letter % 2, 2 ** (n + 1)) for n, letter in enumerate(node))
        widen = (1 - span) * scale / 4
        return lo + span * v - widen, lo + span * (v + scale) + widen
    if isinstance(presentation, InjectivePresentation):
        bits = runs_to_bits(tuple(node))
        margin, squeeze = presentation.margin, 1 - 2 * presentation.margin
        v = sum(F(bit, 2 ** (n + 1)) for n, bit in enumerate(bits))
        widen = margin / 2 ** (len(bits) + 1)
        return (margin + squeeze * v - widen,
                margin + squeeze * (v + F(1, 2 ** len(bits))) + widen)
    if isinstance(presentation, ReparamPresentation):
        image = ()
        for depth in range(len(node) + 1):
            start = image = image + tuple(node[depth - 1:depth])
            for _ in range(presentation.max_pad):
                lo, hi = presented_interval_reference(presentation.base, image)
                if hi - lo < F(1, 2 ** depth):
                    break
                image = image + (0,)
            else:
                raise ValueError(f"presented intervals do not shrink below "
                                 f"{F(1, 2 ** depth)} behind node {start}")
        return presented_interval_reference(presentation.base, image)
    raise TypeError(f"no reference formula for {presentation!r}")


def random_preset(rng):
    """A constant, interval or injective preset with seeded parameters."""
    kind = rng.randrange(3)
    q = rng.randrange(3, 200)
    if kind == 0:
        return ConstantPresentation(F(rng.randrange(1, q), q))
    if kind == 1:
        a, b = sorted(rng.sample(range(1, q), 2))
        return AffineImagePresentation(F(a, q), F(b, q))
    return InjectivePresentation(F(rng.randrange(1, (q + 1) // 2), q))


def _nudged_pair_reference(middle: Fraction, depth: int) -> tuple[Fraction, Fraction]:
    """A dyadic middle moved down and up by 2^-(depth+2), folded into (0;1)."""
    offset = F(1, 2 ** (depth + 2))
    return fold_into_unit(middle - offset, middle), fold_into_unit(middle + offset, middle)


def _canonical_reference(presentation, node) -> Fraction:
    return least_dyadic_reference(*presented_interval_reference(presentation, node))


def _adjusted_label_reference(presentation, node) -> Fraction:
    if not node:
        return _canonical_reference(presentation, node)
    return _adjusted_reference(*presented_interval_reference(presentation, node), node)


def label_reference(labels, node) -> Fraction:
    """The label of one of the three reductions' label maps at a node, on
    Fractions: ones parity, the tail-alternation pair, or the interleaved
    adjusted value and its pair."""
    node = tuple(node)
    if isinstance(labels, OnesParityLabels):
        scale = F(1, 2 ** (len(node) + 1))
        return 1 - scale if node.count(1) % 2 == 0 else scale
    if isinstance(labels, TailAlternationLabels):
        head, zeros = split_trailing_zeros(node)
        below, above = _nudged_pair_reference(_canonical_reference(labels.presentation, head),
                                              len(head))
        return below if zeros % 2 == 0 else above
    if isinstance(labels, InterleavedAdjustedLabels):
        if len(node) % 2 == 0:
            tree_half, codec_half = deinterleave(node)
            run_node = decode_head(codec_half[: tree_half.count(1)])
            below, above = _nudged_pair_reference(
                _adjusted_label_reference(labels.presentation, run_node), len(run_node))
            _, zeros = split_trailing_zeros(tree_half)
            return above if zeros % 2 == 0 else below
        tree_half, codec_half = deinterleave(node[:-1])
        run_node = bits_to_runs(codec_half[: tree_half.count(1)] + (1,))
        return _adjusted_label_reference(labels.presentation, run_node)
    raise TypeError(f"no reference labels for {labels!r}")


# ----- the third reduction's construction checks, by enumeration ---------


def least_dyadic_reference(lo: Fraction, hi: Fraction) -> Fraction:
    """Rank-least dyadic strictly inside (lo, hi) clipped to (0, 1): the
    first midpoint met when bisecting [0, 1] toward the interval."""
    a, b, c, d = lo.numerator, lo.denominator, hi.numerator, hi.denominator
    if a < 0:
        a, b = 0, 1
    if c > d:
        c, d = 1, 1
    if a * d >= c * b:
        raise ValueError(f"no dyadic in empty interval ({F(a, b)}, {F(c, d)})")
    # The midpoint m / 2^n of the current cell [(m - 1) / 2^n, (m + 1) / 2^n].
    m, n = 1, 1
    while True:
        if m * b <= a << n:
            m, n = 2 * m + 1, n + 1
        elif m * d >= c << n:
            m, n = 2 * m - 1, n + 1
        else:
            return F(m, 1 << n)


# 2^-k for the node scales of the explored window.
_SCALES = [F(1, 1 << k) for k in range(8)]


def fold_into_unit(value: Fraction, anchor: Fraction) -> Fraction:
    """Pull a value poking out of (0;1) back to the midpoint between its
    anchor and the boundary it crossed: the nudge rule's fold, on
    Fractions."""
    if value >= 1:
        return (1 + anchor) / 2
    if value <= 0:
        return anchor / 2
    return value


def _adjusted_reference(lo: Fraction, hi: Fraction, node) -> Fraction:
    base = least_dyadic_reference(lo, hi)
    offset = _SCALES[len(node) + 1]
    return fold_into_unit(base + offset if node[-1] % 2 == 0 else base - offset, base)


def third_reduction_check_reference(presentation) -> str | None:
    """The ValueError text the third reduction's construction checks
    raise for a presentation, or None when it passes.

    Enumerates every word over the letters 0-3 up to length 3, in the
    package's order: first each presented interval against the node
    scale, then the spread of the adjusted values at the node's four
    children against a quarter of that scale.
    """
    nodes = [()]
    for length in range(1, 4):
        nodes.extend(itertools.product(range(4), repeat=length))
    intervals = {}

    def interval(node):
        if node not in intervals:
            intervals[node] = presented(presentation, node)
        return intervals[node]

    try:
        for node in nodes:
            lo, hi = interval(node)
            if hi - lo > _SCALES[len(node)]:
                raise ValueError(
                    f"presented interval at {node} is wider than its node scale: ({lo}; {hi})"
                )
        for node in nodes:
            children = [_adjusted_reference(*interval(node + (k,)), node + (k,)) for k in range(4)]
            spread = max(children) - min(children)
            if spread < _SCALES[len(node) + 2]:
                raise ValueError(
                    f"adjusted labels below {node} spread only {spread}; "
                    "the alternation cancels for this presentation"
                )
    except ValueError as err:
        return str(err)
    return None


def certified_oscillation_reference(bounds):
    """The best interleaved (delta, low, high) of a trace, by trying the
    pairs of the 40 least upper ends and 40 greatest lower ends that
    could beat the best so far."""
    los = sorted({b.hi for b in bounds})[:40]
    his = sorted({b.lo for b in bounds}, reverse=True)[:40]
    best = None
    for low in los:
        for high in his:
            if high <= low:
                continue
            if best is not None and high - low <= best[0]:
                continue
            marks = []
            for b in bounds:
                mark = "L" if b.hi <= low else "H" if b.lo >= high else None
                if mark is not None and (not marks or marks[-1] != mark):
                    marks.append(mark)
            if len(marks) >= 5:
                best = (high - low, low, high)
    return best


# ----- the clopen algebra by halves-and-graft recursion -------------------


def _reference_halves(c: ClopenSet) -> tuple[ClopenSet, ClopenSet]:
    if c.is_full():
        return c, c
    return tuple(ClopenSet.from_words([w[1:] for w in c.words if w[0] == letter])
                 for letter in (0, 1))


def _reference_graft(left: ClopenSet, right: ClopenSet) -> ClopenSet:
    return ClopenSet.from_words([(0,) + w for w in left.words] + [(1,) + w for w in right.words])


def reference_complement(c: ClopenSet) -> ClopenSet:
    """The complement, by complementing the two halves and grafting them back."""
    if c.is_empty():
        return ClopenSet.full()
    if c.is_full():
        return ClopenSet.empty()
    left, right = _reference_halves(c)
    return _reference_graft(reference_complement(left), reference_complement(right))


def reference_intersect(a: ClopenSet, b: ClopenSet) -> ClopenSet:
    """The intersection, half by half."""
    if a.is_empty() or b.is_full():
        return a
    if a.is_full() or b.is_empty():
        return b
    a0, a1 = _reference_halves(a)
    b0, b1 = _reference_halves(b)
    return _reference_graft(reference_intersect(a0, b0), reference_intersect(a1, b1))


def reference_take_submass(c: ClopenSet, amount: Fraction) -> ClopenSet:
    """The lexicographically first subset of a dyadic measure: as much of
    the 0-half as fits, the rest from the 1-half, recursively. Raises
    the package's ValueError texts."""
    measure = antichain_measure(c.words)
    if amount < 0 or amount > measure:
        raise ValueError(f"no subset of measure {amount} in a set of measure {measure}")
    if (amount.denominator & (amount.denominator - 1)) != 0:
        raise ValueError(f"subset mass must be dyadic: {amount}")
    return _reference_take(c, amount)


def _reference_take(c: ClopenSet, amount: Fraction) -> ClopenSet:
    if amount == 0:
        return ClopenSet.empty()
    if amount == antichain_measure(c.words):
        return c
    left, right = _reference_halves(c)
    from_left = min(amount, antichain_measure(left.words) / 2)
    return _reference_graft(_reference_take(left, from_left * 2),
                            _reference_take(right, (amount - from_left) * 2))


def normalize_reference(generators) -> tuple:
    """The minimal antichain of binary word tuples by the stack merge:
    covered words dropped in sorted order, each kept word pushed, then
    the top two popped into their parent while they are a 0/1 sibling pair."""
    kept = []
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
