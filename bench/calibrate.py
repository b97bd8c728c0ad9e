"""A fixed reference kernel that measures how fast the machine runs.

On a shared machine the speed of the same Python work drifts by 20 % and
more within a minute, which would swamp the effect of most changes to
the program.  The benchmark therefore samples this kernel after every
timed call of a pass, and scales the pass's times to a machine on which
one kernel run takes REF_NOMINAL_S:

    reported = measured * REF_NOMINAL_S / r

where r is the pass's kernel time: the mean of the samples on either
side of each call, weighted by the length of the call.  One short
sample is too noisy to scale a single call by; the weighted mean over a
pass is not, and it still follows the drift from pass to pass.

The kernel uses only the standard library, never `hopforder`, so no
change to the program can move it.  It mixes the two kinds of work the
program does: exact rational elimination and permutation composition.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

REF_NOMINAL_S = 0.003
REF_BATCH = 5  # kernel runs per sample; the sample is their median


def _matrix(n, x):
    rows = []
    for _ in range(n):
        row = []
        for _ in range(n):
            x = (x * 1103515245 + 12345) % 2**31
            row.append(Fraction(x % 19 - 9, 1 + x % 7))
        rows.append(row)
    return rows


def _eliminate(rows):
    n = len(rows)
    for c in range(n):
        p = next(i for i in range(c, n) if rows[i][c] != 0)
        rows[c], rows[p] = rows[p], rows[c]
        inv = 1 / rows[c][c]
        rows[c] = [v * inv for v in rows[c]]
        for i in range(n):
            if i != c and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[c])]
    return rows


def _closure(gens):
    """Elements of the permutation group generated by `gens`."""
    elems = {tuple(range(len(gens[0])))}
    frontier = list(elems)
    while frontier:
        nxt = []
        for a in frontier:
            for g in gens:
                c = tuple(g[i] for i in a)
                if c not in elems:
                    elems.add(c)
                    nxt.append(c)
        frontier = nxt
    return elems


_GENS = ((1, 2, 3, 4, 5, 0, 7, 6), (5, 4, 3, 2, 1, 0, 6, 7))


def kernel():
    _eliminate(_matrix(9, 12345))
    for _ in range(2):
        _closure(_GENS)


def reference_seconds() -> float:
    """Median time of REF_BATCH kernel runs."""
    times = []
    for _ in range(REF_BATCH):
        t = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - t)
    return statistics.median(times)


class Reference:
    """Kernel samples around the timed calls of one pass."""

    def __init__(self):
        self.last = reference_seconds()
        self.weighted = 0.0
        self.total = 0.0

    def after_call(self, seconds: float):
        """Sample again after a call that took `seconds`."""
        now = reference_seconds()
        self.weighted += seconds * (self.last + now) / 2
        self.total += seconds
        self.last = now

    def scale(self) -> float:
        """Factor turning the pass's measured times into reference-speed
        times."""
        if self.weighted == 0:
            return REF_NOMINAL_S / self.last
        return REF_NOMINAL_S * self.total / self.weighted
