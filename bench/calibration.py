"""The calibration loop: benchmark code that never calls the program.

It does the kind of work the program does (rational sums, short tuples
and dictionary updates), so a host slowed by a busy neighbour stretches
the loop and the program alike.
"""

from fractions import Fraction
from time import perf_counter

CALIBRATION_STEPS = 400


def calibration() -> float:
    """Seconds taken by one pass of the fixed loop."""
    start = perf_counter()
    total = Fraction(0)
    seen: dict = {}
    word: tuple = ()
    for i in range(CALIBRATION_STEPS):
        word = (word + (i & 1,))[-12:]
        seen[word] = seen.get(word, 0) + 1
        total += Fraction(i % 7, 1 << (i % 11))
    return perf_counter() - start
