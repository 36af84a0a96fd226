"""A fixed reference kernel that measures how fast the host is right now.

The benchmark's host speed drifts by tens of percent over seconds to minutes
(a shared guest, with no hardware counters).  The benchmark runs `measure()`
between the timed commands and reports each command's time in units of the
kernel's time measured just before and just after it, so that a host phase
that slows both cancels.  The kernel is plain Python with no dzeta code, so
a change to the program never moves it; its mix (exact `Fraction`
arithmetic, a sparse polynomial product with big-integer coefficients in a
dict, a small `Fraction` elimination, dict churn) resembles the program's.
"""

from __future__ import annotations

import time
from fractions import Fraction


def kernel() -> Fraction:
    total = Fraction(0)
    for i in range(1, 300):
        total += Fraction(1, i * i)
    # sparse bivariate polynomial squared, with ~400-bit coefficients
    poly = {(i % 9, i // 9): (7 ** (150 + i)) * (-1) ** i for i in range(70)}
    square: dict[tuple[int, int], int] = {}
    for (a, b), c in poly.items():
        for (d, e), f in poly.items():
            key = (a + d, b + e)
            square[key] = square.get(key, 0) + c * f
    n = 10
    a = [[Fraction(i * j + 1, i + j + 1) for j in range(n)] for i in range(n)]
    for c in range(n):
        for r in range(c + 1, n):
            f = a[r][c] / a[c][c]
            for j in range(c, n):
                a[r][j] -= f * a[c][j]
    counts: dict[int, int] = {}
    for i in range(40000):
        counts[i % 997] = counts.get(i % 997, 0) + i
    return total + a[n - 1][n - 1] + counts[5] + square[(0, 0)] % 5


def measure(reps: int) -> tuple[float, float]:
    """Wall and CPU seconds of `reps` kernel calls in a row."""
    wall, cpu = time.perf_counter(), time.process_time()
    for _ in range(reps):
        kernel()
    return time.perf_counter() - wall, time.process_time() - cpu
