"""Independent arbitrary-precision numerical oracle.

This module never feeds values back into the exact pipeline; it exists to
falsify.  Zeta values come from an Euler-Maclaurin tail with an explicit
remainder bound; the weighted harmonic sums use the digamma/trigamma
asymptotics so a short partial sum plus closed-form power/log tails reaches
any reasonable precision; alternating sums use repeated pair averaging with a
bracketing-based error estimate, whose bracketing is checked numerically, not
proven.  Working precision carries guard bits beyond the requested digits; that
this rounding budget stays below the reported tail bounds is a heuristic, not a
bound.

Each kernel tries growing term budgets.  The zeta kernel doubles its budget
from 24 terms while within `_ZETA_MAX_TERMS`, extending one list of terms
n^-s across its budgets and `fsum`-ing it at each; the two harmonic kernels
extend one running partial sum across their budgets and take their summands
H_{n,m}/(n+1)^k from one shared table (`_terms`), which grows one harmonic
prefix per (m, precision) for every k and keeps the latest k's summands for
the alternating sum that follows the weighted one.  The weighted sum's tail
comes from one expansion table per m (`_expansion`): each row adds its
closed-form tail to the value and its tail bound to the bound, and the first
omitted term adds to the bound only.  Both running sums (`_extend`) and the
averaging triangle (`_bracket`) are Python ints at one exponent: each exact
sum is rounded once by `_round`, to the working precision with ties to even,
as mpf_add rounds it, and the gap signs are int comparisons.  Power/log
tails and their Bernoulli ratios are memoised on an explicit `prec`
argument.  All of these only remove repeated work: every value, bound and
message is bit-identical to the plain mpf loops kept as the reference in the
test suite.

Big floats are mpmath `mpf` values; pi and Euler's constant come from mpmath's
standard arbitrary-precision constants (pi is cross-checked against the
series for the weight-2 sum in the test suite).  mpmath is imported on the
first oracle call (`_load`), so commands that never reach the oracle never
load it.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from typing import NamedTuple, Optional

from .identities import FourierIdentity, IdentityRecord
from .symfield import SymNumber, bernoulli

_GUARD_BITS = 48

# bound by `_load` on the first oracle call
mpmath = mpf = None
fzero = from_int = from_man_exp = mpf_add = mpf_div = None
mpf_pow_int = round_nearest = None


def _load() -> None:
    """Import mpmath and bind its names here, once.

    Every kernel a caller can reach first calls this before it touches
    mpmath; `_to_mpf` is only used under `_workprec`, which calls it.
    """
    global mpmath, mpf, fzero, from_int, from_man_exp, mpf_add, mpf_div
    global mpf_pow_int, round_nearest
    if mpf is not None:
        return
    import mpmath
    from mpmath.libmp import (fzero, from_int, from_man_exp, mpf_add, mpf_div,
                              mpf_pow_int, round_nearest)
    from mpmath import mpf  # bound last: the guard above reads it


def _to_mpf(value) -> mpf:
    """Exact rational (or int/float) to mpf at the current working precision."""
    if isinstance(value, Fraction):
        return mpf(value.numerator) / value.denominator
    return mpf(value)


class PrecisionUnreachable(ArithmeticError):
    def __init__(self, message, achieved_digits=None):
        super().__init__(message)
        self.achieved_digits = achieved_digits


def _workprec(digits: int):
    _load()
    return mpmath.workprec(int(digits * 3.33) + _GUARD_BITS)


class _TailResult(NamedTuple):
    value: mpf
    bound: mpf  # rigorous bound on the estimation error


@functools.cache
def _powerlog_tail(c_log, c_const, r: int, x0, prec: int) -> _TailResult:
    """sum_{j>=0} f(x0 + j) for f(y) = y^-r (c_log ln y + c_const).

    Euler-Maclaurin in j at `prec` bits; periodized-Bernoulli remainder bound
    |R| <= 4 (2 pi)^(-2J) int |h^(2J)|; requires r >= 2 and x0 >= 1.
    """
    levels = 14
    _load()
    with mpmath.workprec(prec):
        if r < 2:
            raise ValueError("tail requires decay exponent >= 2")
        x0 = mpf(x0)
        if x0 < 1:
            raise ValueError("tail start must be >= 1")
        c_log = mpf(c_log)
        c_const = mpf(c_const)
        ln0 = mpmath.ln(x0)

        # f^(p)(y) = y^(-r-p) (A_p ln y + B_p)
        A = [c_log]
        B = [c_const]
        for p in range(2 * levels + 1):
            A.append(-(r + p) * A[p])
            B.append(-(r + p) * B[p] + A[p])

        def integral(a_coeff, b_coeff, power):
            # int_x0^inf y^-power (a ln y + b) dy for power >= 2
            base = x0 ** (1 - power) / (power - 1)
            return base * (a_coeff * (ln0 + mpf(1) / (power - 1)) + b_coeff)

        total = integral(c_log, c_const, r)
        total += (x0 ** (-r)) * (c_log * ln0 + c_const) / 2
        for i in range(1, levels + 1):
            p = 2 * i - 1
            deriv = x0 ** (-r - p) * (A[p] * ln0 + B[p])
            total -= _bernoulli_ratio(i, prec) * deriv
        p = 2 * levels
        abs_integral = integral(abs(A[p]), abs(B[p]) + abs(A[p]), r + p)
        bound = 4 * (1 / (2 * mpmath.pi)) ** (2 * levels) * abs_integral
        return _TailResult(total, abs(bound))


@functools.cache
def _bernoulli_ratio(i: int, prec: int) -> mpf:
    """B_2i/(2i)! at `prec` bits, rounded as `_powerlog_tail` rounds it."""
    with mpmath.workprec(prec):
        return _to_mpf(bernoulli(2 * i)) / mpmath.factorial(2 * i)


def zeta_num(s: int, digits: int) -> mpf:
    """zeta(s) for integer s >= 2 by partial sum plus Euler-Maclaurin tail."""
    value, _ = _zeta_with_bound(s, digits)
    return value


_ZETA_MAX_TERMS = 16384  # budgets double from 24; 12,288 terms reach ~110 digits


@functools.cache
def _zeta_with_bound(s: int, digits: int) -> _TailResult:
    if s < 2:
        raise ValueError("s must be >= 2")
    _load()
    target = mpf(10) ** (-digits)
    with _workprec(digits):
        terms = []
        n_terms = 24
        while n_terms <= _ZETA_MAX_TERMS:
            terms += [mpf(n) ** (-s)
                      for n in range(len(terms) + 1, n_terms + 1)]
            partial = mpmath.fsum(terms)
            tail = _powerlog_tail(0, 1, s, n_terms + 1, mpmath.mp.prec)
            if tail.bound < target:
                return _TailResult(+(partial + tail.value), +tail.bound)
            n_terms *= 2
    raise PrecisionUnreachable(f"zeta({s}) to {digits} digits")


# One-key tables, lists that `_terms` grows: the harmonic prefix H_{n,m} at one
# (m, prec), shared by every k, and the terms H_{n,m}/(n+1)^k at one (k, m,
# prec), which the alternating sum reuses from the weighted sum just run for
# the same (k, m).  A new key replaces the old entry.
@functools.lru_cache(maxsize=1)
def _harmonic_list(m: int, prec: int) -> list:
    return []


@functools.lru_cache(maxsize=1)
def _terms_list(k: int, m: int, prec: int) -> list:
    return []


def _terms(k: int, m: int, prec: int, count: int) -> list:
    """Raw tuples of H_{n,m}/(n+1)^k for n = 1..count (or more) at `prec`.

    Rounded exactly as h += n^-m and h / (n+1)^k on mpf values.
    """
    terms = _terms_list(k, m, prec)
    if len(terms) < count:
        rnd = round_nearest
        hs = _harmonic_list(m, prec)
        h = hs[-1] if hs else fzero
        for n in range(len(hs) + 1, count + 1):
            h = mpf_add(h, mpf_pow_int(from_int(n), -m, prec, rnd), prec, rnd)
            hs.append(h)
        for n in range(len(terms) + 1, count + 1):
            terms.append(mpf_div(hs[n - 1],
                                 mpf_pow_int(from_int(n + 1), k, prec, rnd),
                                 prec, rnd))
    return terms


def _round(x: int, prec: int) -> int:
    """x rounded to `prec` significant bits, ties to even, at x's exponent.

    An int at a fixed exponent holds any sum of two values at that exponent
    exactly, so rounding it once gives what mpf_add/mpf_sub return for
    operands of at most `prec` bits, as every sum here has.  (For wider
    operands far apart, mpf_add perturbs rather than adds the smaller one,
    which can round differently.)
    """
    shift = x.bit_length() - prec
    if shift <= 0:
        return x
    unit = 1 << shift
    rest = x & (unit - 1)  # x mod unit, also for x < 0
    x -= rest
    half = unit >> 1
    if rest > half or rest == half and x & unit:
        x += unit
    return x


def _extend(acc: int, low: int, terms: list, first: int, last: int,
            prec: int, alternating: bool = False) -> tuple:
    """Extend the running sum `acc`, an int at exponent `low`, by the terms
    n = first..last, each partial sum rounded once to `prec` bits as
    acc += t (or acc += (-1)^n t) does on mpf values.

    Returns the partial sums for n = first..last and their exponent, the
    least of `low` and the terms' exponents; `acc` is shifted to it exactly.
    """
    chunk = terms[first - 1:last]
    new_low = min(low, *(t[2] for t in chunk))
    acc <<= low - new_low
    sums = []
    for n, (sign, man, exp, _) in enumerate(chunk, first):
        t = man << (exp - new_low)
        acc = _round(acc - t if sign ^ (alternating and n & 1) else acc + t,
                     prec)
        sums.append(acc)
    return sums, new_low


def _expansion(k: int, m: int) -> tuple:
    """Rows (coeff, log, r), each the term coeff ln(u)^log / u^r, of the
    summand H_{u-1,m}/u^k for large u, and (rem_coeff, rem_power): the
    remainder is at most rem_coeff / u^rem_power for real u > 0.

    m = 1: psi(u) + euler = ln u + euler - 1/(2u) - sum B_2i/(2i u^2i);
    m = 2: zeta(2) - psi'(u) = zeta(2) - 1/u - 1/(2u^2) - sum B_2i/u^(2i+1)
    (DLMF 5.11.2 and its derivative; the first omitted term bounds the
    remainder, DLMF 5.11(ii), and m = 2 doubles it).  Coefficients are
    rounded at the working precision.
    """
    corrections = 6
    n = 2 * corrections + 2  # the first omitted B_n
    *b, b_n = (_to_mpf(bernoulli(2 * i)) for i in range(1, corrections + 2))
    if m == 1:
        rows = [(1, 1, k), (+mpmath.euler, 0, k), (-0.5, 0, k + 1)]
        rows += [(-(c / (2 * i)), 0, k + 2 * i) for i, c in enumerate(b, 1)]
        return rows, abs(b_n) / n, k + n
    rows = [(mpmath.pi ** 2 / 6, 0, k), (-1, 0, k + 1), (-0.5, 0, k + 2)]
    rows += [(-c, 0, k + 2 * i + 1) for i, c in enumerate(b, 1)]
    return rows, 2 * abs(b_n), k + n + 1


def _dzv_with_bound(k: int, m: int, digits: int) -> _TailResult:
    """Weighted harmonic sum  sum_{n>=1} H_{n,m} / (n+1)^k.

    A partial sum up to the cutoff, then the closed-form power or power-log
    tail of each `_expansion` row in u = n+1, which enters the value and
    the bound together; the remainder row enters the bound.
    """
    if k < 2 or m not in (1, 2):
        raise ValueError("need k >= 2 and m in {1, 2}")
    _load()
    target = mpf(10) ** (-digits)
    with _workprec(digits):
        prec = mpmath.mp.prec
        rows, rem_coeff, rem_power = _expansion(k, m)
        partial = low = 0
        # each budget extends the previous budget's partial sum
        for first, cutoff in ((1, 64), (64, 128), (128, 256)):
            terms = _terms(k, m, prec, cutoff - 1)
            sums, low = _extend(partial, low, terms, first, cutoff - 1, prec)
            partial = sums[-1]
            u0 = cutoff + 1  # tail starts at u = cutoff + 1, i.e. n = cutoff
            tail = bound = mpf(0)
            for coeff, log, r in rows:
                t = _powerlog_tail(log, 1 - log, r, u0, prec)
                tail += coeff * t.value
                bound += abs(coeff) * t.bound
            rem = _powerlog_tail(0, 1, rem_power, u0, prec)
            bound += rem_coeff * (rem.value + rem.bound)
            if bound < target:
                partial = mpmath.mp.make_mpf(from_man_exp(partial, low))
                return _TailResult(+(partial + tail), +bound)
    # every row's tail bound and the remainder shrink as the cutoff grows,
    # so the last budget's bound is the least
    achieved = int(-mpmath.log10(bound)) if bound > 0 else 0
    raise PrecisionUnreachable(
        f"dzv({k},{m}) tail bound {mpmath.nstr(bound, 3)} exceeds "
        f"10^-{digits} within the term budget", achieved_digits=achieved)


def dzv_num(k: int, m: int, digits: int) -> mpf:
    return _dzv_with_bound(k, m, digits).value


def _bracket(row: list, low: int, prec: int) -> tuple:
    """Repeated pair averaging of partial sums given as ints at exponent
    `low`, each of at most `prec` bits; returns raw mpf tuples.

    At every level consecutive averaged values must keep bracketing the limit
    (they do for terms whose finite differences are monotone, which holds
    here beyond small n and is checked numerically: the nonzero gaps must
    alternate in sign); the last pair of the deepest level that still
    alternates gives (value, bound), bound being its gap.  Each sum and gap
    is exact and rounds once (`_round`), and halving lowers the exponent by
    one, so every average rounds as (a + b) / 2 on mpf values does; the gap
    signs are exact int comparisons.
    """
    _load()
    value = _round(row[-1] + row[-2], prec)
    bound = abs(_round(row[-1] - row[-2], prec))
    exp = low
    while len(row) > 2:
        signs = [b > a for a, b in zip(row, row[1:]) if a != b]
        if any(a == b for a, b in zip(signs, signs[1:])):
            break  # alternation lost: stop at the last valid bracket
        # entries straddle the limit; the last pair brackets tightest
        value = _round(row[-1] + row[-2], prec)
        bound = abs(_round(row[-1] - row[-2], prec))
        exp = low
        if not bound:
            break
        row = [_round(a + b, prec) for a, b in zip(row, row[1:])]
        low -= 1
    return from_man_exp(value, exp - 1), from_man_exp(bound, exp)


def _alt_with_bound(k: int, m: int, digits: int) -> _TailResult:
    """Alternating sum  sum_{n>=1} (-1)^n H_{n,m} / (n+1)^k.

    Repeated pair averaging (`_bracket`) of the last partial sums, at three
    term budgets, each extending the previous budget's running sum.
    """
    if k < 2 or m not in (1, 2):
        raise ValueError("need k >= 2 and m in {1, 2}")
    _load()
    target = mpf(10) ** (-digits)

    with _workprec(digits):
        prec = mpmath.mp.prec
        acc = low = 0
        first = 1
        # Windows stay shallow relative to the start index: bracketing needs
        # the window-depth finite differences of the terms to stay monotone,
        # which the log-growth factor only guarantees for ln(start) above the
        # harmonic number of the depth.  Successive estimates cross-check each
        # other and their spread is folded into the reported bound.
        best = None
        previous = None
        for n_terms, window in ((240, 40), (480, 80), (960, 160)):
            terms = _terms(k, m, prec, n_terms)
            sums, low = _extend(acc, low, terms, first, n_terms, prec,
                                alternating=True)
            acc = sums[-1]
            first = n_terms + 1
            # averaging the budget's last window + 1 partial sums
            est = _TailResult(*map(mpmath.mp.make_mpf,
                                   _bracket(sums[-(window + 1):], low, prec)))
            if previous is not None:
                bound = max(est.bound, abs(est.value - previous.value))
                if best is None or bound < best.bound:
                    best = _TailResult(+est.value, +bound)
                if best.bound < target:
                    return best
            previous = est
    achieved = int(-mpmath.log10(best.bound)) if best.bound > 0 else digits
    raise PrecisionUnreachable(
        f"alternating sum ({k},{m}) reached only ~{achieved} digits",
        achieved_digits=achieved)


def alt_sum_num(k: int, m: int, digits: int) -> mpf:
    return _alt_with_bound(k, m, digits).value


# ---------------------------------------------------------------------------
# Symbolic-to-numeric substitution.

def sym_to_mpf(x: SymNumber, digits: int) -> mpf:
    """Evaluate a real symbolic number with oracle zeta values."""
    with _workprec(digits + 8):
        total = mpf(0)
        for mono, coeff in x.terms():
            if coeff.im:
                raise ValueError("cannot evaluate a complex value as a real")
            term = _to_mpf(coeff.re)
            if mono.pi_exp:
                term *= mpmath.pi ** mono.pi_exp
            for s, e in mono.zetas:
                term *= zeta_num(s, digits + 8) ** e
            total += term
        return +total


# ---------------------------------------------------------------------------
# Reports.

class NumericReport(NamedTuple):
    identity: str
    lhs: str
    rhs: str
    abs_error: float
    rel_error: float
    tail_bound: float
    tolerance: float
    passed: bool

    def to_json_dict(self) -> dict:
        return {name: repr(value) if isinstance(value, float) else value
                for name, value in self._asdict().items()}


def verify_identity_numeric(rec: IdentityRecord, digits: int = 12,
                            tolerance: float = 1e-8) -> NumericReport:
    """Compare an identity's left side (summed directly) with its solved
    right side (zeta oracle substitution).  Pass requires relative error
    within tolerance and the summation tail bound under a tenth of it."""
    if rec.kind == "trivial":
        raise ValueError("trivial records carry nothing to verify")
    with _workprec(digits):
        if rec.kind == "dzv":
            lhs = _dzv_with_bound(rec.k, rec.m, digits)
        else:
            lhs = _alt_with_bound(rec.k, rec.m, digits)
        rhs = sym_to_mpf(rec.value, digits)
        abs_err = abs(lhs.value - rhs)
        scale = max(abs(lhs.value), abs(rhs), mpf(1) * 10 ** (-digits))
        rel_err = abs_err / scale
        passed = bool(rel_err <= tolerance and lhs.bound <= tolerance / 10)
        name = rec.lhs_label()
        return NumericReport(
            identity=f"{name}@{rec.point:+d}",
            lhs=mpmath.nstr(lhs.value, digits),
            rhs=mpmath.nstr(rhs, digits),
            abs_error=float(abs_err),
            rel_error=float(rel_err),
            tail_bound=float(lhs.bound),
            tolerance=float(tolerance),
            passed=passed,
        )


_SPOT_CHECK_MAX_TERMS = 4096


def fourier_spot_check(samples, digits: int = 12, tolerance: float = 1e-10,
                       identity: Optional[FourierIdentity] = None) -> NumericReport:
    """Check sum (-1)^n cos(2 pi n t)/n^2 against its closed quadratic form.

    Samples must be rational; the summand is then periodic in n over residue
    classes, and each class tail is a closed-form power tail, so the
    summation error bound is explicit.  The cutoff starts at
    max(128, 8 * period) and doubles until that bound is at most 10^-digits;
    raises PrecisionUnreachable when it is not within _SPOT_CHECK_MAX_TERMS
    terms (about 71 digits).
    """
    ts = [Fraction(t) for t in samples]
    with _workprec(digits):
        if identity is not None:
            const = sym_to_mpf(identity.constant, digits)
            lin = sym_to_mpf(identity.linear, digits)
            quad = sym_to_mpf(identity.quadratic, digits)
        else:
            const = -mpmath.pi ** 2 / 12
            lin = mpf(0)
            quad = mpmath.pi ** 2
        target = mpf(10) ** (-digits)
        worst_bound = mpf(0)
        cuts = []  # (t, n_cut, class tails) per sample
        for t in ts:
            q = t.denominator
            period = q if q % 2 == 0 else 2 * q  # lcm(2, q): sign and cosine
            n_cut = max(128, 8 * period)
            while True:
                tail = mpf(0)
                bound = mpf(0)
                for r in range(1, period + 1):
                    n_first = n_cut + r
                    w = (-1) ** n_first * mpmath.cospi(_to_mpf(2 * n_first * t))
                    if w == 0:
                        continue
                    piece = _powerlog_tail(0, 1, 2, mpf(n_first) / period,
                                           mpmath.mp.prec)
                    tail += w * piece.value / period ** 2
                    bound += abs(w) * piece.bound / period ** 2
                if bound <= target or 2 * n_cut > _SPOT_CHECK_MAX_TERMS:
                    break
                n_cut *= 2
            worst_bound = max(worst_bound, bound)
            cuts.append((t, n_cut, tail))
        if worst_bound > target:
            raise PrecisionUnreachable(
                f"fourier spot check tail bound {mpmath.nstr(worst_bound, 3)} "
                f"exceeds 10^-{digits} within the term budget",
                achieved_digits=int(-mpmath.log10(worst_bound)))
        worst_abs = mpf(0)
        lhs_texts = []
        rhs_texts = []
        for t, n_cut, tail in cuts:
            partial = mpmath.fsum(
                (-1) ** n * mpmath.cospi(_to_mpf(2 * n * t)) / mpf(n) ** 2
                for n in range(1, n_cut + 1))
            lhs = partial + tail
            rhs = const + lin * _to_mpf(t) + quad * _to_mpf(t) ** 2
            worst_abs = max(worst_abs, abs(lhs - rhs))
            lhs_texts.append(mpmath.nstr(lhs, digits))
            rhs_texts.append(mpmath.nstr(rhs, digits))
        passed = bool(worst_abs <= tolerance and worst_bound <= tolerance / 10)
        return NumericReport(
            identity="fourier-alternating-weight2",
            lhs="; ".join(lhs_texts),
            rhs="; ".join(rhs_texts),
            abs_error=float(worst_abs),
            rel_error=float(worst_abs / max(abs(const), mpf(1))),
            tail_bound=float(worst_bound),
            tolerance=float(tolerance),
            passed=passed,
        )
