"""Differential operators in theta = x d/dx, harmonic numbers, the generating
power series for weighted harmonic sums, and the canonical log-series basis
of solutions on the unit disc in the inverse variable.

The operator family is indexed by (k, m) with m in {1, 2}: order k+2 for m=1
and k+3 for m=2.  All series coefficients here are exact rationals; symbolic
constants only enter downstream (moments and boundary evaluation).
"""

from __future__ import annotations

import threading
from fractions import Fraction
from math import comb, factorial, lcm
from typing import NamedTuple


class LevelOutOfRange(ValueError):
    """Requested a mixed-basis coefficient level the family does not have."""


class ChartMismatch(ValueError):
    """Operator and series live in different charts."""


CHART_PHI = "phi"
CHART_INV = "inverse-phi"


def _trim(poly: tuple[int, ...]) -> tuple[int, ...]:
    end = len(poly)
    while end > 0 and not poly[end - 1]:
        end -= 1
    return poly[:end]


# ---------------------------------------------------------------------------
# Harmonic numbers H_{n,t} = sum_{j<=n} j^-t for t >= 1.
#
# The one memo that is not `functools.cache`: H_{n,t} is a running sum indexed
# up to the caller's truncation order (`--trunc`), so a recursive cache would
# be n frames deep and overflow the stack; a prefix table grown under a lock
# fills it iteratively instead.

_harmonic_tables: dict[int, list[Fraction]] = {}
_harmonic_lock = threading.Lock()


def harmonic(n: int, t: int) -> Fraction:
    if t < 1:
        raise ValueError("t must be >= 1")
    if n < 0:
        raise ValueError("n must be >= 0")
    table = _harmonic_tables.get(t, ())
    if n < len(table):
        return table[n]
    with _harmonic_lock:
        table = _harmonic_tables.get(t, [Fraction(0)])
        if n < len(table):
            return table[n]
        grown = list(table)
        for j in range(len(grown), n + 1):
            grown.append(grown[j - 1] + Fraction(1, j ** t))
        _harmonic_tables[t] = grown
        return grown[n]


def operator_order(k: int, m: int) -> int:
    if m not in (1, 2):
        raise ValueError("m must be 1 or 2")
    return k + 2 if m == 1 else k + 3


# ---------------------------------------------------------------------------
# Operators.

class PFOperator(NamedTuple):
    """sum_j p_j(x) theta^j with integer polynomial coefficients.

    `coeffs[j]` is the dense coefficient tuple of p_j, constant term first.
    The chart records whether x is the original variable or its inverse.
    """

    order: int
    chart: str
    coeffs: tuple[tuple[int, ...], ...]

    def flip_chart(self) -> "PFOperator":
        """Rewrite under x -> 1/x, normalized by (-1)^order * x^2.

        Requires every coefficient polynomial to have degree <= 2, which holds
        for the whole family handled here; the map is an involution.
        """
        flipped = []
        for j, poly in enumerate(self.coeffs):
            if len(poly) > 3:
                raise ValueError("chart flip implemented for degree <= 2 only")
            padded = tuple(poly) + (0,) * (3 - len(poly))
            sign = -1 if (self.order + j) % 2 else 1
            flipped.append(_trim(tuple(sign * c for c in reversed(padded))))
        chart = CHART_INV if self.chart == CHART_PHI else CHART_PHI
        return PFOperator(self.order, chart, tuple(flipped))

    def max_coeff_degree(self) -> int:
        deg = 0
        for poly in self.coeffs:
            for d in range(len(poly) - 1, -1, -1):
                if poly[d]:
                    deg = max(deg, d)
                    break
        return deg


def pf_operator(k: int, m: int, chart: str = CHART_PHI) -> PFOperator:
    """The annihilating operator of the (k, m) generating series."""
    if k < 2:
        raise ValueError("k must be >= 2")
    order = operator_order(k, m)
    coeffs = [()] * (order + 1)
    if m == 1:
        coeffs[k + 2] = (1, 2, 1)      # (1+x)^2
        coeffs[k + 1] = (-3, -3)       # -3(1+x)
        coeffs[k] = (2, 1)             # (2+x)
    else:
        coeffs[k + 3] = (1, 2, 1)
        coeffs[k + 2] = (-4, -4)
        coeffs[k + 1] = (5, 3)
        coeffs[k] = (-2, -1)
    op = PFOperator(order, CHART_PHI, tuple(coeffs))
    if chart == CHART_PHI:
        return op
    if chart == CHART_INV:
        return op.flip_chart()
    raise ValueError(f"unknown chart {chart!r}")


# ---------------------------------------------------------------------------
# Series coefficients.

def pi_coefficient(k: int, m: int, n: int) -> Fraction:
    """Coefficient of x^n in the generating series: (-1)^(n-1) H_{n-1,m} / n^k."""
    if n < 2:
        raise ValueError("the series starts at x^2")
    sign = 1 if (n - 1) % 2 == 0 else -1
    return sign * harmonic(n - 1, m) / Fraction(n ** k)


def basis_coefficient(k: int, m: int, level: int, n: int) -> Fraction:
    """Closed-form coefficient of x^n in the series block of the mixed basis
    element whose leading log power is `level`."""
    if n < 1:
        raise ValueError("series coefficients start at n = 1")
    sign = -1 if n % 2 else 1
    if level == k:
        return Fraction(sign * factorial(k), n ** k)
    if level == k + 1 and m == 1:
        return factorial(k + 1) * sign * (-k + n * harmonic(n, 1)) / Fraction(n ** (k + 1))
    if level == k + 1 and m == 2:
        return Fraction(-k * factorial(k + 1) * sign, n ** (k + 1))
    if level == k + 2 and m == 2:
        return factorial(k + 2) * sign * (comb(k + 1, 2) + n * n * harmonic(n, 2)) \
            / Fraction(n ** (k + 2))
    raise LevelOutOfRange(f"no level-{level} series block for (k={k}, m={m})")


class PureAltSeries(NamedTuple):
    """sum_{n>=1} scale * (-1)^n / n^power * x^n."""

    scale: Fraction
    power: int

    def coefficient(self, n: int) -> Fraction:
        sign = -1 if n % 2 else 1
        return self.scale * Fraction(sign, n ** self.power)


class HarmonicTailSeries(NamedTuple):
    """sum_{n>=1} scale * (-1)^n H_{n,t} / (n+1)^power * x^(n+1)."""

    scale: Fraction
    power: int
    t: int

    def coefficient(self, n: int) -> Fraction:
        # coefficient of x^n, n >= 1 (zero at n = 1 since H_0 = 0)
        sign = -1 if (n - 1) % 2 else 1
        return self.scale * sign * harmonic(n - 1, self.t) / Fraction(n ** self.power)


def upper_block_specs(k: int, m: int, i: int) -> tuple[tuple[int, PureAltSeries], ...]:
    """Series blocks attached to log powers d >= 1 of basis element i.

    These all have the pure alternating-power shape, identical in the direct
    and harmonic-recurrence-rewritten presentations of the basis.
    """
    order = operator_order(k, m)
    if not 0 <= i < order:
        raise ValueError(f"basis index {i} out of range for order {order}")
    if i <= k:
        return ()
    if i == k + 1:
        return ((1, PureAltSeries(Fraction((k + 1) * factorial(k)), k)),)
    # i == k + 2, only m == 2
    return (
        (2, PureAltSeries(Fraction(comb(k + 2, 2) * factorial(k)), k)),
        (1, PureAltSeries(Fraction(-(k + 2) * k * factorial(k + 1)), k + 1)),
    )


def bottom_block_rewritten(k: int, m: int, i: int):
    """Log-free series block of basis element i, rewritten through the
    harmonic recurrence so the weighted harmonic tail appears explicitly."""
    order = operator_order(k, m)
    if not 0 <= i < order:
        raise ValueError(f"basis index {i} out of range for order {order}")
    if i < k:
        return ()
    if i == k:
        return (PureAltSeries(Fraction(factorial(k)), k),)
    if i == k + 1 and m == 1:
        return (
            PureAltSeries(Fraction((1 - k) * factorial(k + 1)), k + 1),
            HarmonicTailSeries(Fraction(-factorial(k + 1)), k, 1),
        )
    if i == k + 1 and m == 2:
        return (PureAltSeries(Fraction(-k * factorial(k + 1)), k + 1),)
    # i == k + 2, m == 2
    return (
        PureAltSeries(Fraction(factorial(k + 2) * (comb(k + 1, 2) + 1)), k + 2),
        HarmonicTailSeries(Fraction(-factorial(k + 2)), k, 2),
    )


# ---------------------------------------------------------------------------
# Truncated log series.

class LogSeries(NamedTuple):
    """sum_d blocks[d] * log(x)^d with each block a truncated power series.

    Coefficients `blocks[d][n]` are exact rationals; every block shares one
    truncation order.  `valid_order` marks how far coefficients are trusted:
    operator application reduces it by the coefficient degree.
    """

    chart: str
    blocks: tuple[tuple[Fraction, ...], ...]
    valid_order: int

    @property
    def trunc(self) -> int:
        return len(self.blocks[0]) - 1

    @property
    def log_degree(self) -> int:
        return len(self.blocks) - 1

    @classmethod
    def zero(cls, chart: str, trunc: int, log_degree: int = 0) -> "LogSeries":
        row = (Fraction(0),) * (trunc + 1)
        return cls(chart, tuple(row for _ in range(log_degree + 1)), trunc)

    @classmethod
    def from_blocks(cls, chart, blocks, valid_order=None) -> "LogSeries":
        blocks = tuple(tuple(Fraction(c) for c in b) for b in blocks)
        if valid_order is None:
            valid_order = len(blocks[0]) - 1
        return cls(chart, blocks, valid_order)

    def theta(self) -> "LogSeries":
        """x d/dx; acts as n on x^n and lowers one log power per product rule."""
        nblocks = []
        top = self.log_degree
        for d in range(top + 1):
            row = [n * c for n, c in enumerate(self.blocks[d])]
            if d < top:
                nxt = self.blocks[d + 1]
                row = [c + (d + 1) * nxt[n] for n, c in enumerate(row)]
            nblocks.append(tuple(row))
        while len(nblocks) > 1 and not any(nblocks[-1]):
            nblocks.pop()
        return LogSeries(self.chart, tuple(nblocks), self.valid_order)

    def __add__(self, other: "LogSeries") -> "LogSeries":
        if self.chart != other.chart:
            raise ChartMismatch("cannot add series from different charts")
        if self.trunc != other.trunc:
            raise ValueError("truncation orders differ")
        top = max(self.log_degree, other.log_degree)
        zero_row = (Fraction(0),) * (self.trunc + 1)
        nblocks = []
        for d in range(top + 1):
            a = self.blocks[d] if d <= self.log_degree else zero_row
            b = other.blocks[d] if d <= other.log_degree else zero_row
            nblocks.append(tuple(x + y for x, y in zip(a, b)))
        return LogSeries(self.chart, tuple(nblocks),
                         min(self.valid_order, other.valid_order))

    def is_zero_through(self, order: int) -> bool:
        order = min(order, self.trunc)
        return all(not block[n] for block in self.blocks for n in range(order + 1))

    def coefficient(self, log_power: int, n: int) -> Fraction:
        if log_power > self.log_degree:
            return Fraction(0)
        return self.blocks[log_power][n]


def pi_series(k: int, m: int, trunc: int, chart: str = CHART_PHI) -> LogSeries:
    """The generating series as a truncated power series in the original chart."""
    if chart != CHART_PHI:
        raise ValueError("the generating series lives in the original chart")
    row = [Fraction(0), Fraction(0)]
    row.extend(pi_coefficient(k, m, n) for n in range(2, trunc + 1))
    return LogSeries(CHART_PHI, (tuple(row),), trunc)


def canonical_basis(k: int, m: int, trunc: int, form: str = "direct") -> list[LogSeries]:
    """All solutions of the (k, m) operator on the inverse-variable disc.

    Pure log powers for i < k, then the mixed log-plus-series elements.  The
    `direct` form expands the closed-form block coefficients; `rewritten`
    expands the harmonic-recurrence presentation.  Both expand to the same
    series.
    """
    if trunc < 2:
        raise ValueError("truncation must be >= 2")
    if form not in ("direct", "rewritten"):
        raise ValueError(f"unknown form {form!r}")
    order = operator_order(k, m)
    zero_row = (Fraction(0),) * (trunc + 1)
    one_row = (Fraction(1),) + (Fraction(0),) * trunc
    out = []
    for i in range(order):
        blocks = [zero_row] * i + [one_row]
        if i >= k:
            # series attached to lower log powers
            rows = {d: [Fraction(0)] * (trunc + 1)
                    for d in range(i)}
            for d, spec in upper_block_specs(k, m, i):
                for n in range(1, trunc + 1):
                    rows[d][n] += spec.coefficient(n)
            if form == "direct":
                for n in range(1, trunc + 1):
                    rows[0][n] += basis_coefficient(k, m, i, n)
            else:
                for spec in bottom_block_rewritten(k, m, i):
                    for n in range(1, trunc + 1):
                        rows[0][n] += spec.coefficient(n)
            blocks = [tuple(rows[d]) for d in range(i)] + [one_row]
        out.append(LogSeries(CHART_INV, tuple(blocks), trunc))
    return out


def apply_operator(op: PFOperator, s: LogSeries) -> LogSeries:
    """Exact image of a truncated log series under the operator.

    The work runs on integer rows: every coefficient is scaled once by the
    common denominator of the input, and the image is divided by it at the end.
    """
    if op.chart != s.chart:
        raise ChartMismatch(f"operator chart {op.chart!r} vs series {s.chart!r}")
    trunc = s.trunc
    denom = lcm(*{c.denominator for block in s.blocks for c in block})
    power = [[c.numerator * (denom // c.denominator) for c in block]
             for block in s.blocks]
    acc = [[0] * (trunc + 1)]
    deg = op.max_coeff_degree()
    valid_order = s.valid_order - deg
    for j, poly in enumerate(op.coeffs):
        if j > 0:  # theta: row d becomes n*row_d[n] + (d+1)*row_{d+1}[n]
            power = [[n * c + (d + 1) * x for n, (c, x) in enumerate(zip(row, nxt))]
                     for d, (row, nxt) in enumerate(zip(power, power[1:]))] \
                + [[n * c for n, c in enumerate(power[-1])]]
            while len(power) > 1 and not any(power[-1]):
                power.pop()
        if not any(poly):
            continue
        valid_order = min(valid_order, trunc - deg)
        acc.extend([0] * (trunc + 1) for _ in range(len(power) - len(acc)))
        for row, target in zip(power, acc):
            if not any(row):
                continue
            for e, c in enumerate(poly):
                if c:
                    target[e:] = [a + c * x for a, x in zip(target[e:], row)]
    blocks = tuple(tuple(Fraction(c, denom) for c in row) for row in acc)
    return LogSeries(s.chart, blocks, valid_order)


def recursion_closure_violations(k: int, m: int, trunc: int) -> list[str]:
    """Check that every closed-form coefficient family satisfies its
    three-term recursion exactly through the truncation order."""
    problems = []
    a = {1: Fraction(0)}
    a.update({n: pi_coefficient(k, m, n) for n in range(2, trunc + 1)})
    b = {n: basis_coefficient(k, m, k, n) for n in range(1, trunc + 1)}
    c = {n: basis_coefficient(k, m, k + 1, n) for n in range(1, trunc + 1)}
    d = {n: basis_coefficient(k, m, k + 2, n)
         for n in range(1, trunc + 1)} if m == 2 else None
    for n in range(2, trunc):
        if m == 1:
            checks = [
                ("a", (n - 1) ** (k + 1) * a[n - 1]
                 + n ** k * (2 * n - 1) * a[n] + n * (n + 1) ** k * a[n + 1]),
                ("b", (n - 1) ** k * n * b[n - 1]
                 + n ** k * (2 * n + 1) * b[n] + (n + 1) ** (k + 1) * b[n + 1]),
                ("c", (n + 1) ** (k + 1) * c[n + 1]
                 + n ** k * (2 * n + 1) * c[n] + (n - 1) ** k * n * c[n - 1]
                 + Fraction((-1) ** (n + 1) * k * factorial(k + 1),
                            n * (n - 1))),
            ]
        else:
            quad = n ** k * (2 * n * n + 2 * n + 1)
            checks = [
                ("a", (n - 1) ** (k + 2) * a[n - 1]
                 + n ** k * (2 * n * n - 2 * n + 1) * a[n]
                 + n * n * (n + 1) ** k * a[n + 1]),
                ("b", (n - 1) ** k * n * n * b[n - 1] + quad * b[n]
                 + (n + 1) ** (k + 2) * b[n + 1]),
                ("c", (n + 1) ** (k + 2) * c[n + 1] + quad * c[n]
                 + (n - 1) ** k * n * n * c[n - 1]
                 + Fraction((-1) ** (n + 1) * k * factorial(k + 1),
                            n * (n - 1))),
                ("d", (n + 1) ** (k + 2) * d[n + 1] + quad * d[n]
                 + (n - 1) ** k * n * n * d[n - 1]
                 + Fraction((-1) ** n * k * (k + 1) * factorial(k + 2)
                            * (2 * n * n - 1),
                            2 * n * n * (n - 1) ** 2)),
            ]
        for name, residual in checks:
            if residual:
                problems.append(
                    f"{name}-recursion fails at (k={k}, m={m}, n={n})")
    return problems
