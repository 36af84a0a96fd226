"""Exact Fourier moments on the unit circle.

The circle is parameterized as x = exp(2 pi i t) with t in (-1/2, 1/2], and
log x = 2 pi i t is the single-valued branch used throughout.  Everything in
this module is exact: log-power moments are polynomials in 1/p whose integer
coefficients have a closed form, and the infinite tails appearing in moments
of the basis elements collapse to the shifted double sums S(m, k1, k2).  A
partial-fraction split of each summand turns S into a closed form in
O(k1 + k2) terms: zeta values plus harmonic numbers H_{m,t}.  The same
closed forms give the moments of the top basis elements and of the
generating series at every n = 1..N at once, as integer columns
(`scaled_columns`).  `combine`, the exact layer's one accumulator, sums
weighted ring values per monomial on those integer columns.

Orientation convention: moments of the generating series (which lives in the
original variable, the inverse of the disc variable) are plain coefficient
extraction, so pi_moment returns a bare rational.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from itertools import accumulate
from math import comb, gcd, lcm, perm

from .pfseries import harmonic, operator_order, pi_coefficient, upper_block_specs
from .symfield import ONE_MONO, SymNumber, ZetaMonomial, zeta_value


class DivergentSum(ArithmeticError):
    """The requested infinite sum diverges."""


# ---------------------------------------------------------------------------
# Log-power moments  I_j(p) = integral of x^p log(x)^j dt.
#
# For p != 0, integrating by parts against x^p gives
#   I_j(p) = (-1)^p (pi i)^(j-1) [j odd] / p  -  (j/p) I_(j-1)(p),
# so I_j(p) = (-1)^p * J_j(1/p) for a polynomial J_j whose 1/p^r coefficient
# is c_r P^(j-r), P = pi i.  Unrolled, the recursion leaves the integers
#   c_r = (-1)^(r-1) j!/(j-r+1)!  when j - r is even, else 0  (r >= 1),
# and c_0 = 0.  They also drive the tail reduction in basis_moment.

@functools.cache
def log_moment_poly(j: int) -> tuple[int, ...]:
    """The integers c_r, r = 0..j, of the p != 0 log-power moment J_j."""
    if j < 0:
        raise ValueError("log power must be >= 0")
    return (0,) + tuple((-1) ** (r - 1) * perm(j, r - 1) if (j - r) % 2 == 0
                        else 0 for r in range(1, j + 1))


def log_moment(p: int, j: int) -> SymNumber:
    """Exact value of the circle moment of x^p log(x)^j.

    For p != 0 the value is (-1)^p sum_r c_r P^(j-r) p^(j-r) / p^j with the
    integer coefficients c_r of J_j: one integer numerator per P power over
    the common denominator p^j.
    """
    if j < 0:
        raise ValueError("log power must be >= 0")
    if p == 0:
        if j % 2 == 1:
            return SymNumber.zero()
        return SymNumber.p_power(j, Fraction(1, j + 1))
    coeffs = log_moment_poly(j)
    sign = -1 if p % 2 else 1
    den = p ** j
    return SymNumber({ZetaMonomial(j - r): Fraction(sign * c * p ** (j - r), den)
                      for r, c in enumerate(coeffs) if c})


# ---------------------------------------------------------------------------
# Shifted double sums  S(m, k1, k2) = sum_{n>=1} n^-k1 (n+m)^-k2.

def _partial_fractions(k1: int, k2: int) -> list[tuple[int, int, int]]:
    """The integers (t, a_t, b_t), by descending t, of the split
      n^-k1 (n+m)^-k2 = sum_{t<=k1} A_t n^-t + sum_{t<=k2} B_t (n+m)^-t,
      A_t = a_t / m^(w-t) = (-1)^(k1-t) binom(w-t-1, k2-1) / m^(w-t),
      B_t = b_t / m^(w-t) = (-1)^k1 binom(w-t-1, k1-1) / m^(w-t),
    with w = k1 + k2 and k1, k2 >= 1; a_t = 0 past k1, b_t = 0 past k2, and
    a_1 + b_1 = 0."""
    w = k1 + k2
    return [(t, (-1) ** (k1 - t) * comb(w - t - 1, k2 - 1) if t <= k1 else 0,
             (-1) ** k1 * comb(w - t - 1, k1 - 1) if t <= k2 else 0)
            for t in range(max(k1, k2), 0, -1)]


@functools.cache
def s_sum(m: int, k1: int, k2: int) -> SymNumber:
    """Reduce the shifted double sum to zeta values and harmonic numbers.

    Base cases: S(m, l, 0) = zeta(l) for l >= 2; S(m, 0, l) = zeta(l) - H_{m,l}
    for l >= 2.  For k1, k2 >= 1 the split of `_partial_fractions`, with
    A_1 + B_1 = 0, gives
      S = sum_{t>=2} (A_t + B_t) zeta(t) - sum_{t>=2} B_t H_{m,t} + A_1 H_{m,1}.
    The terms come out by descending t, the rational part last.
    """
    if m < 1:
        raise ValueError("shift m must be >= 1")
    if k1 < 0 or k2 < 0:
        raise ValueError("exponents must be >= 0")
    if k1 + k2 < 2 or (k2 == 0 and k1 < 2) or (k1 == 0 and k2 < 2):
        raise DivergentSum(f"S({m},{k1},{k2}) diverges")
    if k2 == 0:
        return zeta_value(k1)
    if k1 == 0:
        return zeta_value(k2) - SymNumber.from_rational(harmonic(m, k2))
    terms = {}
    rational = Fraction(0)
    for t, a, b in _partial_fractions(k1, k2):
        den = m ** (k1 + k2 - t)
        if t == 1:
            rational += Fraction(a, den) * harmonic(m, 1)
            continue
        if b:
            rational -= Fraction(b, den) * harmonic(m, t)
        if a + b:
            for mono, c in zeta_value(t)._terms.items():
                terms[mono] = c * Fraction(a + b, den)
    if rational:
        terms[ONE_MONO] = rational
    return SymNumber(terms)


# ---------------------------------------------------------------------------
# Moments of the generating series and of the basis elements.

def pi_moment(k: int, m: int, n: int) -> Fraction:
    """Moment of the generating series against x^-n: its x^n coefficient."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if n < 2:
        return Fraction(0)
    return pi_coefficient(k, m, n)


def basis_moment(k: int, m: int, i: int, n: int) -> SymNumber:
    """Exact circle moment of x^n times basis element i.

    The leading log block contributes a log-power moment.  Series blocks tied
    to log^d with d >= 1 have pure alternating-power coefficients, so their
    tails are finitely many s_sum calls (zeta values at n = 0).  The log-free
    series block never contributes: x^(n+q) integrates to zero for n >= 0,
    q >= 1.  The log moment and every tail term, in the order the tails are
    met, are summed by `weighted_sum`.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    specs = upper_block_specs(k, m, i)  # rejects an out-of-range i
    sign = -1 if n % 2 else 1
    tails = ((c * sign * spec.scale, d - r,  # c_r P^(d-r) times the tail
              s_sum(n, spec.power, r) if n >= 1 else zeta_value(spec.power + r))
             for d, spec in specs for r, c in enumerate(log_moment_poly(d)) if c)
    return weighted_sum([(1, 0, log_moment(n, i)), *tails])


# ---------------------------------------------------------------------------
# Integer columns.  A column maps each monomial to (den, [numerator at
# n = 1..N]): one coefficient of a value at every row, over one denominator.
# Every weighted sum of ring values goes through `combine`, so a Fraction is
# built once per monomial of the result, not once per term.

def column_sum(parts):
    """The sum of num/den * values over (den, num, values) parts, as one
    column over the lcm of the dens, reduced; None when every value is
    zero."""
    den = lcm(*[d for d, _, _ in parts])
    acc = None
    for d, num, values in parts:
        f = num * (den // d)
        acc = ([f * y for y in values] if acc is None
               else [x + f * y for x, y in zip(acc, values)])
    if not any(acc):
        return None
    g = gcd(den, *acc)
    return (den // g, [x // g for x in acc]) if g > 1 else (den, acc)


def combine(pairs) -> dict:
    """The integer columns of sum column * value over (column, SymNumber)
    pairs, one per product monomial (`column_sum`), in first-met order."""
    parts: dict = {}
    for col, value in pairs:
        for m1, (den, ints) in col.items():
            for m2, c in value._terms.items():
                parts.setdefault(m1.mul(m2), []).append((den * c.denominator,
                                                         c.numerator, ints))
    return {mono: col for mono, group in parts.items() if (col := column_sum(group))}


def weighted_sum(pairs) -> SymNumber:
    """sum c P^e x over (rational c, exponent e, SymNumber x) triples, each
    c P^e a one-row column of `combine`; zero weights are skipped before any
    column is built.  Terms come in the order their monomials are first met."""
    columns = [({ZetaMonomial(e): (c.denominator, (c.numerator,))}, x)
               for c, e, x in pairs if c]
    return SymNumber({mono: Fraction(ints[0], den)
                      for mono, (den, ints) in combine(columns).items()})


def scaled_columns(k: int, m: int) -> list[dict]:
    """The moments of the basis elements i > k, then of the generating
    series, against x^n for n = 1..order-1, each scaled by (-1)^n n^k, as
    integer columns.

    Scaled, element i's log-power moment is sum_r c_r P^(i-r) n^(k-r), c_r of
    `log_moment_poly(i)`, and each series block (d, scale s, power p) adds
    sum_r c_r s P^(d-r) n^k S(n, p, r), c_r of `log_moment_poly(d)`, with S
    split as in `s_sum`; the series' moment is -H_{n-1,m}.  So every value is
    a sum of terms c n^e H_{n,t} (H_{n,0} = 1).  With L = lcm(1..order-1),
    L^t H_{n,t} is a running integer sum and n^e for e < 0 is L^-e / n^-e
    over L^-e, so no Fraction is built per row.
    """
    order = operator_order(k, m)
    terms = []  # per column: monomial -> [(c, e, t), ...]
    for i in range(k + 1, order):
        col: dict = {}
        for r, c in enumerate(log_moment_poly(i)):
            if c:
                col.setdefault(ZetaMonomial(i - r), []).append((c, k - r, 0))
        for d, spec in upper_block_specs(k, m, i):
            for r, c in enumerate(log_moment_poly(d)):
                if not c:
                    continue  # c_0 = 0, so r >= 1 below
                f = c * spec.scale
                shift = ZetaMonomial(d - r)
                for t, a, b in _partial_fractions(spec.power, r):
                    e = k - (spec.power + r - t)
                    if t == 1:
                        col.setdefault(shift, []).append((f * a, e, 1))
                        continue
                    if b:
                        col.setdefault(shift, []).append((-f * b, e, t))
                    if a + b:
                        for mono, z in zeta_value(t)._terms.items():
                            col.setdefault(mono.mul(shift), []).append((f * (a + b) * z, e, 0))
        terms.append(col)
    terms.append({ONE_MONO: [(-1, 0, m), (1, -m, 0)]})  # -H_{n,m} + n^-m

    nodes = range(1, order)
    big = lcm(*nodes)
    sums = {0: [1] * len(nodes)}  # t -> [L^t H_{n,t}]
    bases: dict = {}  # (e, t) -> (den, [den n^e H_{n,t}]), den = L^(t + max(-e, 0))
    out = []
    for column in terms:
        ints = {}
        for mono, triples in column.items():
            parts = []
            for c, e, t in triples:
                if t not in sums:
                    sums[t] = list(accumulate(big ** t // n ** t for n in nodes))
                if (e, t) not in bases:
                    lift = big ** max(-e, 0)
                    bases[e, t] = (big ** t * lift,
                                   [(n ** e if e >= 0 else lift // n ** -e) * h
                                    for n, h in zip(nodes, sums[t])])
                den, values = bases[e, t]
                q = Fraction(c)
                parts.append((q.denominator * den, q.numerator, values))
            if col := column_sum(parts):
                ints[mono] = col
        out.append(ints)
    return out
