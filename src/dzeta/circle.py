"""Exact Fourier moments on the unit circle.

The circle is parameterized as x = exp(2 pi i t) with t in (-1/2, 1/2], and
log x = 2 pi i t is the single-valued branch used throughout.  Everything in
this module is exact: log-power moments come from an integration-by-parts
recursion, and the infinite tails appearing in moments of the basis elements
collapse to the shifted double sums S(m, k1, k2), which reduce recursively to
zeta values and harmonic numbers.

Orientation convention: moments of the generating series (which lives in the
original variable, the inverse of the disc variable) are plain coefficient
extraction, so pi_moment returns a bare rational.
"""

from __future__ import annotations

import threading
from fractions import Fraction

from .pfseries import harmonic, operator_order, pi_coefficient, upper_block_specs
from .symfield import SymNumber, zeta_value


class DivergentSum(ArithmeticError):
    """The requested infinite sum diverges."""


# ---------------------------------------------------------------------------
# Log-power moments  I_j(p) = integral of x^p log(x)^j dt.
#
# For p != 0, integrating by parts against x^p gives
#   I_j(p) = (-1)^p (pi i)^(j-1) [j odd] / p  -  (j/p) I_(j-1)(p),
# so I_j(p) = (-1)^p * J_j(1/p) for a polynomial J_j with coefficients in
# Q[P^2], P = pi i.  J_j is cached; its 1/p^r coefficients also drive the tail
# reduction in basis_moment.

_moment_polys: list[tuple[SymNumber, ...]] = [(SymNumber.zero(),)]
_moment_lock = threading.Lock()


def log_moment_poly(j: int) -> tuple[SymNumber, ...]:
    """Coefficients (by power of 1/p) of the p != 0 log-power moment."""
    global _moment_polys
    if j < 0:
        raise ValueError("log power must be >= 0")
    polys = _moment_polys
    if j < len(polys):
        return polys[j]
    with _moment_lock:
        polys = _moment_polys
        if j < len(polys):
            return polys[j]
        grown = list(polys)
        for d in range(len(grown), j + 1):
            prev = grown[d - 1]
            row = [SymNumber.zero() for _ in range(d + 1)]
            for r in range(1, d + 1):  # shift by -d * (1/p) * J_{d-1}
                if r - 1 < len(prev) and not prev[r - 1].is_zero():
                    row[r] = row[r] + prev[r - 1] * (-d)
            if d % 2 == 1:  # boundary term, nonzero for odd log powers only
                row[1] = row[1] + SymNumber.p_power(d - 1)
            grown.append(tuple(row))
        _moment_polys = grown
        return grown[j]


def log_moment(p: int, j: int) -> SymNumber:
    """Exact value of the circle moment of x^p log(x)^j."""
    if j < 0:
        raise ValueError("log power must be >= 0")
    if p == 0:
        if j % 2 == 1:
            return SymNumber.zero()
        return SymNumber.p_power(j, Fraction(1, j + 1))
    coeffs = log_moment_poly(j)
    sign = -1 if p % 2 else 1
    total = SymNumber.zero()
    inv = Fraction(1, p)
    x = Fraction(1)
    for r in range(1, len(coeffs)):
        x *= inv
        if not coeffs[r].is_zero():
            total = total + coeffs[r] * x
    return total * sign


# ---------------------------------------------------------------------------
# Shifted double sums  S(m, k1, k2) = sum_{n>=1} n^-k1 (n+m)^-k2.

_s_sum_cache: dict[tuple[int, int, int], SymNumber] = {}
_s_sum_lock = threading.Lock()


def _power_harmonic(m: int, t: int) -> Fraction:
    return sum((Fraction(1, j ** t) for j in range(1, m + 1)), Fraction(0))


def s_sum(m: int, k1: int, k2: int) -> SymNumber:
    """Reduce the shifted double sum to zeta values and harmonic numbers.

    Base cases: S(m, l, 0) = zeta(l) for l >= 2; S(m, 0, l) = zeta(l) - H_{m,l}
    for l >= 2; S(m, 1, 1) = H_{m,1}/m.  Everything else descends through
    S(m, k1, k2) = (S(m, k1, k2-1) - S(m, k1-1, k2)) / m, which never reaches a
    divergent corner from k1, k2 >= 1 with k1 + k2 >= 2.
    """
    if m < 1:
        raise ValueError("shift m must be >= 1")
    if k1 < 0 or k2 < 0:
        raise ValueError("exponents must be >= 0")
    key = (m, k1, k2)
    cached = _s_sum_cache.get(key)
    if cached is not None:
        return cached

    if k1 + k2 < 2 or (k2 == 0 and k1 < 2) or (k1 == 0 and k2 < 2):
        raise DivergentSum(f"S({m},{k1},{k2}) diverges")
    if k2 == 0:
        value = zeta_value(k1)
    elif k1 == 0:
        value = zeta_value(k2) - SymNumber.from_rational(_power_harmonic(m, k2))
    elif (k1, k2) == (1, 1):
        value = SymNumber.from_rational(harmonic(m, 1) / m)
    else:
        value = (s_sum(m, k1, k2 - 1) - s_sum(m, k1 - 1, k2)) / Fraction(m)

    with _s_sum_lock:
        _s_sum_cache[key] = value
    return value


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
    q >= 1.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    order = operator_order(k, m)
    if not 0 <= i < order:
        raise ValueError(f"basis index {i} out of range for order {order}")
    total = log_moment(n, i)
    sign = -1 if n % 2 else 1
    for d, spec in upper_block_specs(k, m, i):
        coeffs = log_moment_poly(d)
        for r in range(1, d + 1):
            if coeffs[r].is_zero():
                continue
            if n >= 1:
                tail = s_sum(n, spec.power, r)
            else:
                tail = zeta_value(spec.power + r)
            total = total + coeffs[r] * tail * (sign * spec.scale)
    return total
