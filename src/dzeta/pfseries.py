"""Differential operators in theta = x d/dx, harmonic numbers, the generating
power series for weighted harmonic sums, and the canonical log-series basis
of solutions on the unit disc in the inverse variable.

The operator family is indexed by (k, m) with m in {1, 2}: order k+2 for m=1
and k+3 for m=2.  All series coefficients here are exact rationals; symbolic
constants only enter downstream (moments and boundary evaluation).

The checks run on small integers.  Operator application scales each column
of a log series (one power of x across its log blocks) by the denominators
of its live rows alone and passes over all-zero rows; the recursion and
forms checks compare cross-multiplied integers.  The basis elements share
one zero row and one unit row per truncation order.
"""

from __future__ import annotations

import threading
from fractions import Fraction
from functools import cache
from itertools import zip_longest
from math import comb, factorial, lcm
from typing import NamedTuple


class LevelOutOfRange(ValueError):
    """Requested a mixed-basis coefficient level the family does not have."""


class ChartMismatch(ValueError):
    """Operator and series live in different charts."""


CHART_PHI = "phi"
CHART_INV = "inverse-phi"

_ZERO = Fraction(0)


@cache
def _zero_row(trunc: int) -> tuple[Fraction, ...]:
    """The zero block at truncation `trunc`, one shared tuple per order."""
    return (_ZERO,) * (trunc + 1)


@cache
def _unit_row(trunc: int) -> tuple[Fraction, ...]:
    """The block of the constant 1 at truncation `trunc`, shared likewise."""
    return (Fraction(1),) + (_ZERO,) * trunc


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
    """Order of the (k, m) operator; every basis, moment and boundary routine
    asks for it first, so this is where k and m are checked."""
    if k < 2:
        raise ValueError("k must be >= 2")
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
        return max([0] + [len(_trim(poly)) - 1 for poly in self.coeffs])


def pf_operator(k: int, m: int, chart: str = CHART_PHI) -> PFOperator:
    """The annihilating operator of the (k, m) generating series."""
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
    h = harmonic(n - 1, m)
    return Fraction(h.numerator if n % 2 else -h.numerator, h.denominator * n ** k)


def basis_coefficient(k: int, m: int, level: int, n: int) -> Fraction:
    """Closed-form coefficient of x^n in the series block of the mixed basis
    element whose leading log power is `level`."""
    if n < 1:
        raise ValueError("series coefficients start at n = 1")
    sign = -1 if n % 2 else 1
    if level == k:
        return Fraction(sign * factorial(k), n ** k)
    if level == k + 1 and m == 1:
        h = harmonic(n, 1)  # (k+1)! (-1)^n (n H_n - k) / n^(k+1)
        return Fraction(sign * factorial(k + 1) * (n * h.numerator - k * h.denominator),
                        h.denominator * n ** (k + 1))
    if level == k + 1 and m == 2:
        return Fraction(-k * factorial(k + 1) * sign, n ** (k + 1))
    if level == k + 2 and m == 2:
        h = harmonic(n, 2)  # (k+2)! (-1)^n (C(k+1, 2) + n^2 H_{n,2}) / n^(k+2)
        num = sign * factorial(k + 2) * (comb(k + 1, 2) * h.denominator + n * n * h.numerator)
        return Fraction(num, h.denominator * n ** (k + 2))
    raise LevelOutOfRange(f"no level-{level} series block for (k={k}, m={m})")


class PureAltSeries(NamedTuple):
    """sum_{n>=1} scale * (-1)^n / n^power * x^n."""

    scale: Fraction
    power: int

    def coefficient(self, n: int) -> Fraction:
        if n < 1:
            raise ValueError("series coefficients start at n = 1")
        num = self.scale.numerator
        return Fraction(-num if n % 2 else num, self.scale.denominator * n ** self.power)


class HarmonicTailSeries(NamedTuple):
    """sum_{n>=1} scale * (-1)^n H_{n,t} / (n+1)^power * x^(n+1)."""

    scale: Fraction
    power: int
    t: int

    def coefficient(self, n: int) -> Fraction:
        if n < 1:
            raise ValueError("series coefficients start at n = 1")
        h = harmonic(n - 1, self.t)  # zero at n = 1, since H_0 = 0
        return Fraction((-1) ** (n - 1) * self.scale.numerator * h.numerator,
                        self.scale.denominator * h.denominator * n ** self.power)


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
    truncation order, and every coefficient through it is exact.  Operator
    images stay exact through that order: coefficient polynomials have only
    nonnegative powers of x and theta acts on one column at a time, so image
    column n reads only columns n - deg .. n of the input.
    """

    chart: str
    blocks: tuple[tuple[Fraction, ...], ...]

    @property
    def trunc(self) -> int:
        if len(lengths := set(map(len, self.blocks))) != 1:
            raise ValueError("a log series needs one or more blocks of one length")
        return lengths.pop() - 1

    @property
    def log_degree(self) -> int:
        return len(self.blocks) - 1

    @classmethod
    def zero(cls, chart: str, trunc: int, log_degree: int = 0) -> "LogSeries":
        return cls(chart, (_zero_row(trunc),) * (log_degree + 1))

    @classmethod
    def from_blocks(cls, chart, blocks) -> "LogSeries":
        return cls(chart, tuple(tuple(Fraction(c) for c in b) for b in blocks))

    def theta(self) -> "LogSeries":
        """x d/dx; acts as n on x^n and lowers one log power per product rule."""
        nblocks = []
        top = self.log_degree
        for d in range(top + 1):
            row = [n * c if c else c for n, c in enumerate(self.blocks[d])]
            if d < top:  # zero entries pass through without Fraction arithmetic
                nxt = self.blocks[d + 1]
                row = [c + (d + 1) * nxt[n] if nxt[n] else c for n, c in enumerate(row)]
            nblocks.append(tuple(row))
        while len(nblocks) > 1 and not any(nblocks[-1]):
            nblocks.pop()
        return LogSeries(self.chart, tuple(nblocks))

    def __add__(self, other: "LogSeries") -> "LogSeries":
        if self.chart != other.chart:
            raise ChartMismatch("cannot add series from different charts")
        if self.trunc != other.trunc:
            raise ValueError("truncation orders differ")
        top = max(self.log_degree, other.log_degree)
        zero_row = _zero_row(self.trunc)
        nblocks = []
        for d in range(top + 1):
            a = self.blocks[d] if d <= self.log_degree else zero_row
            b = other.blocks[d] if d <= other.log_degree else zero_row
            nblocks.append(tuple(x + y for x, y in zip(a, b)))
        return LogSeries(self.chart, tuple(nblocks))

    def is_zero(self) -> bool:
        return all(b is _zero_row(len(b) - 1) or not any(b) for b in self.blocks)

    def coefficient(self, log_power: int, n: int) -> Fraction:
        if log_power > self.log_degree:
            return Fraction(0)
        return self.blocks[log_power][n]


def pi_series(k: int, m: int, trunc: int) -> LogSeries:
    """The generating series as a truncated power series in the original chart."""
    row = [Fraction(0), Fraction(0)]
    row.extend(pi_coefficient(k, m, n) for n in range(2, trunc + 1))
    return LogSeries(CHART_PHI, (tuple(row),))


def canonical_basis(k: int, m: int, trunc: int) -> list[LogSeries]:
    """All solutions of the (k, m) operator on the inverse-variable disc.

    Pure log powers for i < k, then the mixed log-plus-series elements, whose
    log-free blocks expand the closed-form coefficients.
    """
    if trunc < 2:
        raise ValueError("truncation must be >= 2")
    order = operator_order(k, m)
    zero_row, one_row = _zero_row(trunc), _unit_row(trunc)
    out = []
    for i in range(order):
        blocks = [zero_row] * i + [one_row]
        if i >= k:
            # series attached to lower log powers; each block assigned once
            for d, spec in upper_block_specs(k, m, i):
                blocks[d] = _series_row(spec.coefficient, trunc)
            blocks[0] = _series_row(lambda n: basis_coefficient(k, m, i, n), trunc)
        out.append(LogSeries(CHART_INV, tuple(blocks)))
    return out


def _series_row(coefficient, trunc: int) -> tuple[Fraction, ...]:
    """A block with zero constant term and coefficient(n) at x^n, n >= 1."""
    return (_ZERO,) + tuple(coefficient(n) for n in range(1, trunc + 1))


def apply_operator(op: PFOperator, s: LogSeries) -> LogSeries:
    """Exact image of a truncated log series under the operator, through the
    series' own truncation order (see `LogSeries`).

    The work runs on integer rows, one denominator per column: theta never
    mixes columns, so column n is scaled by the lcm D_n of the live rows'
    denominators there.  Rows are cut after their last nonzero entry, and an
    all-zero row is absent (an all-zero image block is the shared zero row).
    Each power x^e of the coefficient polynomials gets its own accumulator in
    that scale; the shift by x^e then moves column n - e onto column n once,
    multiplied by L_n / D_{n-e} with L_n = lcm(D_{n-deg..n}), and the image
    entry at n is the accumulated integer over L_n.
    """
    if op.chart != s.chart:
        raise ChartMismatch(f"operator chart {op.chart!r} vs series {s.chart!r}")
    trunc = s.trunc
    deg = op.max_coeff_degree()
    live = [() if b is _zero_row(trunc) else b[:1] if b is _unit_row(trunc) else _trim(b)
            for b in s.blocks]
    dens = [1] * (trunc + 1)
    for row in live:
        dens[:len(row)] = map(lcm, dens, [c.denominator for c in row])
    power = [[c.numerator * (den // c.denominator) for c, den in zip(row, dens)]
             for row in live]
    acc = [[] for _ in range(deg + 1)]  # acc[e][d]: sum_j p_j[e] * row d of theta^j
    nblocks = 1
    for j, poly in enumerate(op.coeffs):
        if j > 0:  # theta: row d becomes n*row_d[n] + (d+1)*row_{d+1}[n]
            power = [_trim([n * c + (d + 1) * x for n, (c, x)
                            in enumerate(zip_longest(row, nxt, fillvalue=0))]) if nxt
                     else [n * c for n, c in enumerate(row)] if len(row) > 1 else []
                     for d, (row, nxt) in enumerate(zip(power, power[1:] + [[]]))]
            while len(power) > 1 and not power[-1]:
                power.pop()
        if not any(poly):
            continue
        nblocks = max(nblocks, len(power))
        for e, c in enumerate(poly):
            if not c:
                continue
            rows = acc[e]
            rows.extend([] for _ in range(len(power) - len(rows)))
            for d, row in enumerate(power):
                if row:
                    rows[d] = [a + c * x for a, x in zip_longest(rows[d], row, fillvalue=0)]
    # scale[n] = L_n, the lcm of the column denominators the shifts bring to n
    scale = list(map(lcm, *([1] * e + dens[:trunc + 1 - e] for e in range(deg + 1))))
    image = [[0] * (trunc + 1) for _ in range(nblocks)]
    for e, rows in enumerate(acc):
        ratio = [big // den for big, den in zip(scale[e:], dens)]
        for target, row in zip(image, rows):
            target[e:e + len(row)] = [a + r * x for a, r, x in zip(target[e:], ratio, row)]
    blocks = tuple(tuple(Fraction(c, big) if c else _ZERO for c, big in zip(row, scale))
                   if any(row) else _zero_row(trunc) for row in image)
    return LogSeries(s.chart, blocks)


# Three-term recursions of the closed-form coefficient families, for n >= 2:
#     w_-(n) f[n-1] + w_0(n) f[n] + w_+(n) f[n+1] + num(n) / den(n) = 0.
# Families b, c and d are the levels k, k+1 and k+2 of `basis_coefficient`
# (d only for m = 2) and share one set of weights.  `pk[n]` is n^k.

def _pi_weights(pk: list[int], m: int, n: int) -> tuple[int, int, int]:
    return ((n - 1) ** m * pk[n - 1], (n ** m + (n - 1) ** m) * pk[n],
            n ** m * pk[n + 1])


def _basis_weights(pk: list[int], m: int, n: int) -> tuple[int, int, int]:
    return (n ** m * pk[n - 1], (n ** m + (n + 1) ** m) * pk[n],
            (n + 1) ** m * pk[n + 1])


# family -> (weights, inhomogeneous term (num, den) as a function of (k, n),
# or None)
_RECURSIONS = {
    "a": (_pi_weights, None),
    "b": (_basis_weights, None),
    "c": (_basis_weights,
          lambda k, n: ((-1) ** (n + 1) * k * factorial(k + 1), n * (n - 1))),
    "d": (_basis_weights,
          lambda k, n: ((-1) ** n * k * (k + 1) * factorial(k + 2) * (2 * n * n - 1),
                        2 * n * n * (n - 1) ** 2)),
}


def recursion_closure_violations(k: int, m: int, series: LogSeries,
                                 basis: list[LogSeries]) -> list[str]:
    """Check that every closed-form coefficient family satisfies its
    three-term recursion exactly through the truncation order.

    Family a is the row of `series`; b, c and d are the log-free rows of
    basis elements k, k+1 and k+2.  Each residual is tested as an integer:
    f[n-1], f[n] and f[n+1] are cleared by the lcm of their denominators, and
    the inhomogeneous term is cross-multiplied into the sum."""
    families = {"a": series.blocks[0]}
    families.update(zip("bcd", (element.blocks[0] for element in basis[k:])))
    # per family: name, weights, inhomogeneous term, numerators, denominators
    checks = [(name, *_RECURSIONS[name], [c.numerator for c in f],
               [c.denominator for c in f]) for name, f in families.items()]
    trunc = series.trunc
    pk = [n ** k for n in range(trunc + 2)]
    problems = []
    for n in range(2, trunc):
        for name, weights, inhomogeneous, nums, dens in checks:
            lo, mid, hi = dens[n - 1], dens[n], dens[n + 1]
            common = lcm(lo, mid, hi)
            w_lo, w_mid, w_hi = weights(pk, m, n)
            residual = (w_lo * nums[n - 1] * (common // lo)
                        + w_mid * nums[n] * (common // mid)
                        + w_hi * nums[n + 1] * (common // hi))
            if inhomogeneous is not None:
                num, den = inhomogeneous(k, n)
                residual = residual * den + num * common
            if residual:
                problems.append(
                    f"{name}-recursion fails at (k={k}, m={m}, n={n})")
    return problems


def basis_violations(k: int, m: int, trunc: int) -> list[str]:
    """Every check of the (k, m) series and basis on rows built once, in order:
    recursion closure, annihilation of each basis element and of the series
    in every column through `trunc` (the images are exact that far), and at
    most one message if a mixed element's log-free row differs from
    its `bottom_block_rewritten` expansion (both forms take their upper
    blocks from `upper_block_specs`)."""
    op = pf_operator(k, m, CHART_INV)  # ValueError for k < 2 or m not in {1, 2}
    series = pi_series(k, m, trunc)
    basis = canonical_basis(k, m, trunc)
    problems = recursion_closure_violations(k, m, series, basis)
    for i, element in enumerate(basis):
        image = apply_operator(op, element)
        if not image.is_zero():
            problems.append(f"basis ({k},{m}) element {i} not annihilated")
    image = apply_operator(pf_operator(k, m, CHART_PHI), series)
    if not image.is_zero():
        problems.append(f"series ({k},{m}) not annihilated")
    for i in range(k, len(basis)):
        specs, row = bottom_block_rewritten(k, m, i), basis[i].blocks[0]
        for n in range(1, trunc + 1):  # row[n] minus the specs' sum, as num / den
            num, den = row[n].numerator, row[n].denominator
            for t in [spec.coefficient(n) for spec in specs]:
                num, den = num * t.denominator - t.numerator * den, den * t.denominator
            if num:
                break
        if row[0] or num:
            problems.append(f"basis forms disagree for ({k},{m})")
            break
    return problems
