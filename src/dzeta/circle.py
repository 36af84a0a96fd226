"""Exact Fourier moments on the unit circle.

The circle is parameterized as x = exp(2 pi i t) with t in (-1/2, 1/2], and
log x = 2 pi i t is the single-valued branch used throughout.  Everything in
this module is exact: log-power moments are polynomials in 1/p whose integer
coefficients have a closed form, and the infinite tails appearing in moments
of the basis elements collapse to the shifted double sums S(m, k1, k2).  A
partial-fraction split of each summand turns S into a closed form in
O(k1 + k2) terms: zeta values plus harmonic numbers H_{m,t}.  Each moment is
gathered in one term map in one pass.

Orientation convention: moments of the generating series (which lives in the
original variable, the inverse of the disc variable) are plain coefficient
extraction, so pi_moment returns a bare rational.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from math import comb, perm

from .pfseries import harmonic, pi_coefficient, upper_block_specs
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

@functools.cache
def s_sum(m: int, k1: int, k2: int) -> SymNumber:
    """Reduce the shifted double sum to zeta values and harmonic numbers.

    Base cases: S(m, l, 0) = zeta(l) for l >= 2; S(m, 0, l) = zeta(l) - H_{m,l}
    for l >= 2.  For k1, k2 >= 1, with w = k1 + k2, partial fractions give
      n^-k1 (n+m)^-k2 = sum_{t<=k1} A_t n^-t + sum_{t<=k2} B_t (n+m)^-t,
      A_t = (-1)^(k1-t) binom(w-t-1, k2-1) / m^(w-t),
      B_t = (-1)^k1 binom(w-t-1, k1-1) / m^(w-t),
    and A_1 + B_1 = 0, so
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
    w = k1 + k2
    terms = {}
    rational = Fraction(0)
    for t in range(max(k1, k2), 0, -1):
        a = (-1) ** (k1 - t) * comb(w - t - 1, k2 - 1) if t <= k1 else 0
        b = (-1) ** k1 * comb(w - t - 1, k1 - 1) if t <= k2 else 0
        den = m ** (w - t)
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
    q >= 1.  The log moment and every tail term go into one term map, in
    the order the tails are met.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    specs = upper_block_specs(k, m, i)  # rejects an out-of-range i
    terms = dict(log_moment(n, i)._terms)
    sign = -1 if n % 2 else 1
    for d, spec in specs:
        for r, c in enumerate(log_moment_poly(d)):  # c_r P^(d-r)
            if not c:
                continue
            if n >= 1:
                tail = s_sum(n, spec.power, r)
            else:
                tail = zeta_value(spec.power + r)
            factor = c * sign * spec.scale
            for mono, t in tail._terms.items():
                key = ZetaMonomial(mono.pi_exp + d - r, mono.zetas)
                value = terms.get(key, 0) + t * factor
                if value:
                    terms[key] = value
                else:
                    del terms[key]
    return SymNumber(terms)
