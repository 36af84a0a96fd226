"""Tests for the exact circle moments and shifted double sums."""

import functools
import random
import sys
import threading
from fractions import Fraction
from math import factorial

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dzeta import numverify
from dzeta.circle import (DivergentSum, basis_moment, log_moment,
                          log_moment_poly, pi_moment, s_sum, scaled_columns,
                          weighted_sum)
from dzeta.pfseries import harmonic, operator_order, upper_block_specs
from dzeta.symfield import SymNumber, ZetaMonomial, zeta_value


def q(num, den=1):
    return SymNumber.from_rational(Fraction(num, den))


def pi_pow(e, coeff=1):
    return SymNumber.pi_power(e, Fraction(coeff))


# -- The ten closed-form displays, frozen as polynomials in n and pi ---------

def closed_form(n, j):
    sign = Fraction((-1) ** n)
    forms = {
        1: lambda: q(sign, n),
        2: lambda: q(-2 * sign, n ** 2),
        3: lambda: (q(6) - pi_pow(2, n * n)) * Fraction(sign, n ** 3),
        4: lambda: (q(-6) + pi_pow(2, n * n)) * Fraction(4 * sign, n ** 4),
        5: lambda: (q(120) - pi_pow(2, 20 * n ** 2) + pi_pow(4, n ** 4))
            * Fraction(sign, n ** 5),
        6: lambda: (q(120) - pi_pow(2, 20 * n ** 2) + pi_pow(4, n ** 4))
            * Fraction(-6 * sign, n ** 6),
        7: lambda: (q(5040) - pi_pow(2, 840 * n ** 2) + pi_pow(4, 42 * n ** 4)
                    - pi_pow(6, n ** 6)) * Fraction(sign, n ** 7),
        8: lambda: (q(-5040) + pi_pow(2, 840 * n ** 2) - pi_pow(4, 42 * n ** 4)
                    + pi_pow(6, n ** 6)) * Fraction(8 * sign, n ** 8),
        9: lambda: (q(362880) - pi_pow(2, 60480 * n ** 2)
                    + pi_pow(4, 3024 * n ** 4) - pi_pow(6, 72 * n ** 6)
                    + pi_pow(8, n ** 8)) * Fraction(sign, n ** 9),
        10: lambda: (q(362880) - pi_pow(2, 60480 * n ** 2)
                     + pi_pow(4, 3024 * n ** 4) - pi_pow(6, 72 * n ** 6)
                     + pi_pow(8, n ** 8)) * Fraction(-10 * sign, n ** 10),
    }
    return forms[j]()


@pytest.mark.parametrize("j", range(1, 11))
def test_log_moment_closed_forms(j):
    for n in list(range(1, 11)) + [25, 50]:
        assert log_moment(n, j) == closed_form(n, j), (n, j)


def test_log_moment_zero_mode():
    assert log_moment(0, 0) == q(1)
    assert log_moment(0, 1).is_zero()
    assert log_moment(0, 2) == pi_pow(2, Fraction(-1, 3))
    for j in range(0, 12):
        expected = SymNumber.p_power(j, Fraction(1, j + 1)) \
            if j % 2 == 0 else SymNumber.zero()
        assert log_moment(0, j) == expected


def test_log_moment_nonzero_modes_vanish_at_zero_power():
    for n in (1, 2, 7):
        assert log_moment(n, 0).is_zero()


@settings(max_examples=60)
@given(st.integers(1, 40), st.integers(0, 10))
def test_log_moment_conjugation_symmetry(p, j):
    left = log_moment(-p, j)
    sign = 1 if j % 2 == 0 else -1
    right = log_moment(p, j)
    assert left == (right - 2 * right.imag_part()) * sign


# -- Shifted double sums -----------------------------------------------------

def test_s_sum_base_cases():
    assert s_sum(5, 3, 0) == zeta_value(3)
    assert s_sum(2, 0, 4) == zeta_value(4) - q(1 + Fraction(1, 16))
    for m in (1, 2, 3, 7):
        assert s_sum(m, 1, 1) == q(harmonic(m, 1) / m)


def test_s_sum_spot_values():
    assert s_sum(1, 2, 1) == zeta_value(2) - q(1)
    assert s_sum(2, 2, 1) == zeta_value(2) * Fraction(1, 2) - q(3, 8)
    assert s_sum(3, 2, 1) == zeta_value(2) * Fraction(1, 3) - q(11, 54)


@pytest.mark.parametrize("k1,k2", [(0, 0), (1, 0), (0, 1)])
def test_s_sum_divergent(k1, k2):
    with pytest.raises(DivergentSum):
        s_sum(3, k1, k2)


# -- Memo tables under concurrency --------------------------------------------

def _call_from_threads(fn, calls):
    """Run fn(*args) for every args in calls, one thread each, with a short
    switch interval; return the (args, result) pairs."""
    results = []

    def worker(args):
        results.append((args, fn(*args)))

    threads = [threading.Thread(target=worker, args=(args,)) for args in calls]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(results) == len(calls)
    return results


def test_s_sum_concurrent_fill():
    calls = [(m, k1, k2) for m in (3, 8) for k1, k2 in ((6, 5), (2, 9), (7, 7))] * 3
    expected = {args: s_sum(*args) for args in calls}
    s_sum.cache_clear()
    for args, value in _call_from_threads(s_sum, calls):
        assert value == expected[args]


def test_log_moment_poly_concurrent_fill():
    calls = [(j,) for j in (20, 35, 50, 65)] * 4
    expected = {args: log_moment_poly(*args) for args in calls}
    log_moment_poly.cache_clear()
    for args, value in _call_from_threads(log_moment_poly, calls):
        assert value == expected[args]


@functools.cache
def _log_moment_poly_recursive(j):
    """J_j by the integration-by-parts recursion the closed form replaced:
    J_j = -j (1/p) J_(j-1) plus P^(j-1)/p for odd j."""
    if j == 0:
        return (SymNumber.zero(),)
    prev = _log_moment_poly_recursive(j - 1)
    row = [SymNumber.zero() for _ in range(j + 1)]
    for r in range(1, j + 1):  # shift by -j * (1/p) * J_{j-1}
        if r - 1 < len(prev) and not prev[r - 1].is_zero():
            row[r] = row[r] + prev[r - 1] * (-j)
    if j % 2 == 1:  # boundary term, nonzero for odd log powers only
        row[1] = row[1] + SymNumber.p_power(j - 1)
    return tuple(row)


def test_log_moment_poly_matches_recursion():
    for j in range(41):
        coeffs = log_moment_poly(j)
        assert all(isinstance(c, int) for c in coeffs)
        assert [SymNumber.p_power(j - r, c) for r, c in enumerate(coeffs)] \
            == list(_log_moment_poly_recursive(j)), j


def test_harmonic_concurrent_growth():
    # t = 5 is an order no other test asks for, so the threads grow its table
    calls = [(n, 5) for n in (60, 120, 180, 240)] * 4
    for (n, t), value in _call_from_threads(harmonic, calls):
        assert value == sum(Fraction(1, j ** t) for j in range(1, n + 1))


@pytest.mark.parametrize("fn,args", [(s_sum, (4, 3, 5)), (log_moment_poly, (9,))])
def test_repeated_call_is_a_memo_hit(fn, args):
    fn(*args)
    hits = fn.cache_info().hits
    fn(*args)
    assert fn.cache_info().hits == hits + 1


def test_s_sum_reachability_exhaustive():
    # every admissible corner of the recursion terminates, through weight 24
    for total in range(2, 25):
        for k1 in range(0, total + 1):
            k2 = total - k1
            if (k1 == 0 and k2 < 2) or (k2 == 0 and k1 < 2):
                continue
            for m in (1, 2, 3):
                s_sum(m, k1, k2)  # must not raise


@functools.cache
def _s_sum_recursive(m, k1, k2):
    """The shifted double sum by the recursion the closed form replaced:
    S(m, k1, k2) = (S(m, k1, k2-1) - S(m, k1-1, k2)) / m down to the base
    cases, S(m, 1, 1) = H_{m,1}/m among them."""
    if k2 == 0:
        return zeta_value(k1)
    if k1 == 0:
        return zeta_value(k2) - SymNumber.from_rational(harmonic(m, k2))
    if (k1, k2) == (1, 1):
        return SymNumber.from_rational(harmonic(m, 1) / m)
    return (_s_sum_recursive(m, k1, k2 - 1)
            - _s_sum_recursive(m, k1 - 1, k2)) / Fraction(m)


def test_s_sum_matches_recursion():
    for m in range(1, 7):
        for total in range(2, 25):
            for k1 in range(0, total + 1):
                k2 = total - k1
                if (k1 == 0 and k2 < 2) or (k2 == 0 and k1 < 2):
                    continue
                assert s_sum(m, k1, k2) == _s_sum_recursive(m, k1, k2), \
                    (m, k1, k2)


def _s_sum_numeric(m, k1, k2, n_cut=400, expansion=30):
    """Partial sums plus a rigorous tail estimate for the shifted double sum.

    The tail expands (n+m)^-k2 binomially in m/n; the truncation error is
    bounded through the Lagrange form with (1 - m/n)^-(k2+J+1) <= 2^(k2+J+1)
    for n > 2m.
    """
    from math import comb

    prec = mpmath.mp.prec
    direct = mpmath.fsum(
        mpmath.mpf(n) ** (-k1) * mpmath.mpf(n + m) ** (-k2)
        for n in range(1, n_cut + 1))
    if k2 == 0:
        tail = numverify._powerlog_tail(0, 1, k1, n_cut + 1, prec)
        return direct + tail.value, tail.bound
    if k1 == 0:
        tail = numverify._powerlog_tail(0, 1, k2, n_cut + 1 + m, prec)
        return direct + tail.value, tail.bound
    value = direct
    bound = mpmath.mpf(0)
    for j in range(expansion + 1):
        c = (-1) ** j * comb(k2 + j - 1, j) * m ** j
        piece = numverify._powerlog_tail(0, 1, k1 + k2 + j, n_cut + 1,
                                         prec)
        value += c * piece.value
        bound += abs(c) * piece.bound
    rem = numverify._powerlog_tail(0, 1, k1 + k2 + expansion + 1, n_cut + 1,
                                   prec)
    bound += comb(k2 + expansion, expansion + 1) * m ** (expansion + 1) \
        * 2 ** (k2 + expansion + 1) * (rem.value + rem.bound)
    return value, bound


def test_s_sum_numeric_cross_check():
    rng = random.Random(20240817)
    cases = []
    while len(cases) < 50:
        k1 = rng.randint(0, 6)
        k2 = rng.randint(0, 6)
        if k1 + k2 < 2 or (k1 == 0 and k2 < 2) or (k2 == 0 and k1 < 2):
            continue
        cases.append((rng.randint(1, 6), k1, k2))
    with mpmath.workprec(150):
        for m, k1, k2 in cases:
            symbolic = numverify.sym_to_mpf(s_sum(m, k1, k2), 30)
            numeric, bound = _s_sum_numeric(m, k1, k2)
            assert bound < 1e-11, (m, k1, k2)
            assert abs(symbolic - numeric) < 1e-10, (m, k1, k2)


# -- Moments of the generating series ----------------------------------------

def test_pi_moment_values():
    assert pi_moment(2, 1, 0) == 0
    assert pi_moment(2, 1, 1) == 0
    assert pi_moment(2, 1, 2) == Fraction(-1, 4)
    assert pi_moment(2, 1, 3) == Fraction(1, 6)


# -- Moments of basis elements ------------------------------------------------

def test_basis_moment_examples():
    assert basis_moment(2, 1, 2, 0) == pi_pow(2, Fraction(-1, 3))
    assert basis_moment(2, 1, 3, 1).is_zero()
    assert basis_moment(2, 1, 3, 0) == zeta_value(3) * 6
    assert basis_moment(2, 1, 3, 2) == q(-3, 2)
    assert basis_moment(2, 1, 3, 3) == q(1)


@pytest.mark.parametrize("k,m", [(2, 1), (5, 1), (3, 2), (6, 2)])
def test_basis_moment_zero_mode_log_powers(k, m):
    # pure log powers i = 1..k: (1 + (-1)^i) (pi i)^i / (2 (1+i))
    for i in range(1, k + 1):
        expected = SymNumber.p_power(i, Fraction(1, i + 1)) \
            if i % 2 == 0 else SymNumber.zero()
        assert basis_moment(k, m, i, 0) == expected


@pytest.mark.parametrize("k", [2, 3, 6, 11])
@pytest.mark.parametrize("m", [1, 2])
def test_basis_moment_zero_mode_mixed(k, m):
    i = k + 1
    expected = log_moment(0, i) + q(factorial(k + 1)) * zeta_value(k + 1)
    assert basis_moment(k, m, i, 0) == expected
    if m == 2:
        i = k + 2
        expected = log_moment(0, i) \
            - q((k + 1) * factorial(k + 2)) * zeta_value(k + 2)
        assert basis_moment(k, m, i, 0) == expected


def _basis_moment_reference(k, m, i, n):
    """basis_moment's former term map: the log moment, then each tail term
    added in turn, a monomial deleted when its coefficient cancels."""
    terms = dict(log_moment(n, i)._terms)
    sign = -1 if n % 2 else 1
    for d, spec in upper_block_specs(k, m, i):
        for r, c in enumerate(log_moment_poly(d)):
            if not c:
                continue
            tail = s_sum(n, spec.power, r) if n >= 1 else zeta_value(spec.power + r)
            for mono, t in tail._terms.items():
                key = ZetaMonomial(mono.pi_exp + d - r, mono.zetas)
                value = terms.get(key, 0) + t * c * sign * spec.scale
                if value:
                    terms[key] = value
                else:
                    del terms[key]
    return SymNumber(terms)


@pytest.mark.parametrize("m", [1, 2])
def test_basis_moment_matches_its_term_map_reference(m):
    # values and term order: the n = 0 row reaches tau through the solver
    for k in range(2, 21):
        order = operator_order(k, m)
        for i in range(order):
            for n in range(order + 1):
                got, ref = basis_moment(k, m, i, n), _basis_moment_reference(k, m, i, n)
                assert list(got._terms.items()) == list(ref._terms.items()), (k, i, n)


def _plain_weighted_sum(pairs):
    total = SymNumber.zero()
    for c, e, x in pairs:
        total = total + SymNumber.p_power(e, c) * x
    return total


def test_weighted_sum_when_a_monomial_cancels_and_reappears():
    z3, z5 = zeta_value(3), zeta_value(5)
    pairs = [(Fraction(1, 2), 1, z3 + q(1)),      # P zeta(3) + P
             (Fraction(-1, 2), 1, z3),            # P zeta(3) cancels
             (0, 4, z5),                          # zero weight
             (7, 0, SymNumber.zero()),            # zero value
             (Fraction(3, 4), 0, pi_pow(2, -1)),  # P^2 (pi^2 = -P^2)
             (Fraction(1, 6), 1, z3 * 3)]         # P zeta(3) again
    got = weighted_sum(pairs)
    assert got == _plain_weighted_sum(pairs)
    assert got == SymNumber({ZetaMonomial(1, ((3, 1),)): Fraction(1, 2),
                             ZetaMonomial(1): Fraction(1, 2),
                             ZetaMonomial(2): Fraction(3, 4)})
    # terms in the order their monomials are first met
    assert [mono.pi_exp for mono in got._terms] == [1, 1, 2]
    assert weighted_sum([]).is_zero()
    assert weighted_sum([(1, 0, z3), (-1, 0, z3)]).is_zero()


_VALUES = (q(1), zeta_value(3), zeta_value(3) * zeta_value(5) + pi_pow(2, 3),
           pi_pow(4, Fraction(-5, 7)) - zeta_value(3) + q(2, 9))


@settings(max_examples=40)
@given(st.lists(st.tuples(st.integers(-6, 6), st.integers(1, 4), st.integers(0, 3),
                          st.integers(0, len(_VALUES) - 1)), max_size=8))
def test_weighted_sum_equals_symnumber_arithmetic(triples):
    pairs = [(Fraction(a, b), e, _VALUES[v]) for a, b, e, v in triples]
    assert weighted_sum(pairs) == _plain_weighted_sum(pairs)


def test_basis_moment_matches_truncated_series_numerically():
    # independent check: numerically integrate the truncated basis series
    # against x^n using the closed-form moments of each monomial term
    from dzeta.pfseries import canonical_basis
    k, m, N = 3, 2, 400
    basis = canonical_basis(k, m, N)
    with mpmath.workprec(150):
        for i in (k, k + 1, k + 2):
            for n in (0, 1, 2, 3):
                exact = numverify.sym_to_mpf(basis_moment(k, m, i, n), 30)
                approx = mpmath.mpf(0)
                series = basis[i]
                for d in range(len(series.blocks)):
                    for p, coeff in enumerate(series.blocks[d]):
                        if coeff:
                            moment = numverify.sym_to_mpf(
                                log_moment(n + p, d), 30) if (n + p) or d == 0 \
                                else mpmath.mpf(0)
                            if n + p == 0:
                                moment = numverify.sym_to_mpf(log_moment(0, d), 30)
                            approx += mpmath.mpf(coeff.numerator) \
                                / coeff.denominator * moment
                # truncation error of the slowest block ~ log(N)/N^k
                assert abs(exact - approx) < mpmath.mpf(N) ** (-k) * 60, (i, n)


def test_basis_moment_rejects_bad_index():
    with pytest.raises(ValueError):
        basis_moment(2, 1, operator_order(2, 1), 0)
    with pytest.raises(ValueError):
        basis_moment(2, 1, 1, -1)


def _column_value(col, n):
    return SymNumber({mono: Fraction(ints[n - 1], den)
                      for mono, (den, ints) in col.items() if ints[n - 1]})


@pytest.mark.parametrize("m", [1, 2])
def test_scaled_columns_equal_the_scaled_moments(m):
    # the direct solve reads rows n >= 1 from these closed forms, not from
    # basis_moment; this ties them, and so every row's residual, to the
    # moment definitions
    for k in range(2, 31):
        order = operator_order(k, m)
        *tops, rhs = scaled_columns(k, m)
        assert len(tops) == order - k - 1
        for n in range(1, order):
            scale = (-1) ** n * n ** k
            for t, col in zip(range(k + 1, order), tops):
                assert _column_value(col, n) == basis_moment(k, m, t, n) * scale, (k, t, n)
            assert _column_value(rhs, n) == SymNumber.from_rational(
                pi_moment(k, m, n) * scale), (k, n)
