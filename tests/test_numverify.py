"""Tests for the arbitrary-precision numeric oracle."""

from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mpf
from mpmath.libmp import (from_man_exp, fzero, mpf_abs, mpf_add, mpf_shift,
                          mpf_sub, round_nearest)

from dzeta import cli, identities as ids, numverify as nv, tausolver as ts
from dzeta.numverify import (PrecisionUnreachable, _TailResult,
                             _powerlog_tail, _to_mpf, _workprec)
from dzeta.symfield import SymNumber, bernoulli
from reference_data import q, z


def test_zeta_frozen_digits():
    assert mpmath.nstr(nv.zeta_num(2, 30), 31) \
        == "1.644934066848226436472415166646"
    assert mpmath.nstr(nv.zeta_num(3, 30), 31) \
        == "1.202056903159594285399738161511"


def test_zeta2_matches_pi_squared_over_six():
    with nv._workprec(35):
        pi = +mpmath.pi
    with mpmath.workprec(140):
        diff = abs(nv.zeta_num(2, 30) - pi ** 2 / 6)
        assert diff < mpmath.mpf(10) ** -30


def test_zeta10_matches_bernoulli_closed_form():
    with nv._workprec(35):
        pi = +mpmath.pi
    with mpmath.workprec(140):
        target = pi ** 10 / 93555
        assert abs(nv.zeta_num(10, 30) - target) < mpmath.mpf(10) ** -30


def test_pi_cross_check_against_zeta2():
    # the big-float pi constant must agree with sqrt(6 zeta(2)) from the
    # independent Euler-Maclaurin oracle
    with nv._workprec(40):
        pi = +mpmath.pi
    with mpmath.workprec(160):
        pi_from_series = mpmath.sqrt(6 * nv.zeta_num(2, 40))
        assert abs(pi_from_series - pi) < mpmath.mpf(10) ** -39


@pytest.mark.parametrize("s", range(2, 14))
def test_zeta_self_consistency_doubling(s):
    with mpmath.workprec(200):
        low = nv.zeta_num(s, 20)
        high = nv.zeta_num(s, 30)
        assert abs(low - high) < mpmath.mpf(10) ** -20


@pytest.mark.parametrize("s", [2, 3, 5])
@pytest.mark.parametrize("digits", [60, 108])
def test_zeta_past_its_first_budgets_within_bound(s, digits):
    # 192 terms stop near 59 digits; 108 is digits + 8 for a 100-digit check
    value, bound = nv._zeta_with_bound(s, digits)
    with mpmath.workprec(int(digits * 3.33) + 100):
        assert abs(value - mpmath.zeta(s)) <= bound


def _zeta_reference(s, digits):
    """The zeta kernel re-summing its partial sum from n = 1 at every
    budget."""
    target = mpf(10) ** (-digits)
    with nv._workprec(digits):
        prec = mpmath.mp.prec
        n_terms = 24
        while n_terms <= nv._ZETA_MAX_TERMS:
            partial = mpmath.fsum(mpf(n) ** (-s) for n in range(1, n_terms + 1))
            tail = nv._powerlog_tail(0, 1, s, n_terms + 1, prec)
            if tail.bound < target:
                return +(partial + tail.value), +tail.bound
            n_terms *= 2
    raise PrecisionUnreachable(f"zeta({s}) to {digits} digits")


def test_zeta_first_budgets_bit_identical():
    # one running term list across the budgets gives the values and bounds
    # of re-summing at each budget, on the first four budgets (digits below
    # 60) and on the later ones
    cases = [(s, digits) for s in range(2, 21) for digits in range(10, 60)]
    cases += [(s, digits) for s in (2, 3, 5) for digits in (60, 80, 108)]
    for s, digits in cases:
        expected = _zeta_reference(s, digits)
        value, bound = nv._zeta_with_bound.__wrapped__(s, digits)
        assert (value._mpf_, bound._mpf_) \
            == (expected[0]._mpf_, expected[1]._mpf_), (s, digits)


def test_dzv_21_matches_zeta3():
    with mpmath.workprec(120):
        assert abs(nv.dzv_num(2, 1, 12) - nv.zeta_num(3, 20)) < 1e-12


def test_dzv_32_matches_symbolic():
    with mpmath.workprec(120):
        target = nv.sym_to_mpf(q(-11, 2) * z(5) + q(3) * z(2) * z(3), 25)
        assert abs(nv.dzv_num(3, 2, 12) - target) < 1e-12


def test_dzv_tail_bound_honest():
    # estimates at different budgets agree far beyond the requested digits
    with mpmath.workprec(200):
        a = nv.dzv_num(2, 1, 15)
        b = nv.dzv_num(2, 1, 35)
        assert abs(a - b) < mpmath.mpf(10) ** -15


@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("k", [2, 5, 16])
@pytest.mark.parametrize("u", [65, 129, 257])
def test_expansion_within_its_remainder(k, m, u):
    # the summand from mpmath's digamma/trigamma; at 30 digits the rounding
    # stays below the remainder, which at 12 digits it does not
    with _workprec(30):
        rows, rem_coeff, rem_power = nv._expansion(k, m)
        u = mpf(u)
        series = mpmath.fsum(c * mpmath.ln(u) ** log / u ** r
                             for c, log, r in rows)
        if m == 1:
            summand = (mpmath.digamma(u) + mpmath.euler) / u ** k
        else:
            summand = (mpmath.zeta(2) - mpmath.psi(1, u)) / u ** k
        assert abs(series - summand) <= rem_coeff / u ** rem_power


def test_dzv_precision_unreachable():
    with pytest.raises(nv.PrecisionUnreachable):
        nv.dzv_num(2, 1, 60)  # past the ~38-digit cap of the fixed budget


def test_alt_21_matches_minus_eighth_zeta3():
    with mpmath.workprec(120):
        assert abs(nv.alt_sum_num(2, 1, 12) + nv.zeta_num(3, 20) / 8) < 1e-12


def test_alt_41_matches_symbolic():
    with mpmath.workprec(120):
        target = nv.sym_to_mpf(q(29, 32) * z(5) - q(1, 2) * z(2) * z(3), 25)
        assert abs(nv.alt_sum_num(4, 1, 12) - target) < 1e-12


def test_alt_92_matches_symbolic():
    with mpmath.workprec(160):
        target = nv.sym_to_mpf(
            q(-18409, 1024) * z(11) + q(1793, 512) * z(2) * z(9)
            + q(127, 64) * z(3) * z(8) + q(21, 4) * z(4) * z(7)
            + q(31, 8) * z(5) * z(6), 30)
        assert abs(nv.alt_sum_num(9, 2, 12) - target) < 1e-12


def test_verify_identity_passes():
    rec = ids.derive_identity(2, 1, -1, ts.solve_tau_direct(2, 1))
    report = nv.verify_identity_numeric(rec, 12, 1e-8)
    assert report.passed
    assert report.rel_error <= 1e-8
    assert report.tail_bound <= 1e-9


def test_verify_identity_72():
    rec = ids.derive_identity(7, 2, -1, ts.solve_tau_direct(7, 2))
    report = nv.verify_identity_numeric(rec, 12, 1e-8)
    assert report.passed


def test_verify_detects_corruption():
    rec = ids.derive_identity(2, 1, -1, ts.solve_tau_direct(2, 1))
    bad = ids.IdentityRecord(rec.kind, rec.k, rec.m, rec.point, rec.target,
                             rec.value + SymNumber.from_rational(Fraction(1, 10 ** 6)),
                             rec.provenance, rec.weight)
    report = nv.verify_identity_numeric(bad, 12, 1e-8)
    assert not report.passed


def test_verify_rejects_trivial():
    rec = ids.derive_identity(3, 1, -1, ts.solve_tau_direct(3, 1))
    with pytest.raises(ValueError):
        nv.verify_identity_numeric(rec)


def test_fourier_spot_check_samples():
    samples = [Fraction(0), Fraction(1, 8), Fraction(1, 4), Fraction(3, 8),
               Fraction(1, 2)]
    report = nv.fourier_spot_check(samples, 12, 1e-10)
    assert report.passed
    assert report.abs_error < 1e-10
    assert report.tail_bound < 1e-11


def test_fourier_spot_check_t_zero_value():
    # at t = 0 the sum is minus half the even-zeta value of weight two
    report = nv.fourier_spot_check([Fraction(0)], 15, 1e-12)
    assert report.passed


def test_fourier_detects_corruption():
    _, fourier = ids.toy_example()
    bad = ids.FourierIdentity(fourier.constant + Fraction(1, 10 ** 6),
                              fourier.linear, fourier.quadratic)
    report = nv.fourier_spot_check([Fraction(0), Fraction(1, 4)], 12, 1e-10,
                                   identity=bad)
    assert not report.passed


def test_report_json_shape():
    rec = ids.derive_identity(2, 1, 1, ts.solve_tau_direct(2, 1))
    report = nv.verify_identity_numeric(rec, 12, 1e-8)
    data = report.to_json_dict()
    assert set(data) == {"identity", "lhs", "rhs", "abs_error", "rel_error",
                         "tail_bound", "tolerance", "passed"}
    assert data["passed"] is True


# ---------------------------------------------------------------------------
# Bit-identity of the summation kernels.  The two functions below are the
# plain forms of the weighted harmonic sum (each cutoff restarts its partial
# sum) and of the alternating sum (each budget rebuilds its partial sums and
# averages them with mpf arithmetic); they are kept verbatim as the reference
# the optimised kernels must match bit for bit, because the golden reports
# pin the bytes of every value and bound.

def _dzv_reference(k: int, m: int, digits: int) -> _TailResult:
    """Weighted harmonic sum  sum_{n>=1} H_{n,m} / (n+1)^k.

    Shifted to u = n+1 the summand is (psi(u) + euler)/u^k for m = 1 and
    (zeta(2) - psi'(u))/u^k for m = 2; inserting the digamma/trigamma
    asymptotics (remainders bounded by the first omitted term) leaves
    closed-form power and power-log tails.
    """
    if k < 2 or m not in (1, 2):
        raise ValueError("need k >= 2 and m in {1, 2}")
    target = mpf(10) ** (-digits)
    corrections = 6
    with _workprec(digits):
        prec = mpmath.mp.prec
        best_bound = None
        for cutoff in (64, 128, 256):
            partial = mpf(0)
            h = mpf(0)
            for n in range(1, cutoff):
                h += mpf(n) ** (-m)
                partial += h / mpf(n + 1) ** k
            u0 = cutoff + 1  # tail starts at u = cutoff + 1, i.e. n = cutoff
            bound = mpf(0)
            if m == 1:
                tail_t = [_powerlog_tail(0, 1, k + j, u0, prec)
                          for j in (0, 1, *range(2, 2 * corrections + 1, 2))]
                tail_log = _powerlog_tail(1, 0, k, u0, prec)
                tail = tail_log.value + mpmath.euler * tail_t[0].value \
                    - tail_t[1].value / 2
                bound += tail_log.bound + mpmath.euler * tail_t[0].bound \
                    + tail_t[1].bound / 2
                for idx, i in enumerate(range(1, corrections + 1)):
                    b2i = _to_mpf(bernoulli(2 * i))
                    tail -= b2i / (2 * i) * tail_t[2 + idx].value
                    bound += abs(b2i) / (2 * i) * tail_t[2 + idx].bound
                rem = _powerlog_tail(0, 1, k + 2 * corrections + 2, u0, prec)
                b_next = abs(_to_mpf(bernoulli(2 * corrections + 2)))
                bound += b_next / (2 * corrections + 2) \
                    * (rem.value + rem.bound)
            else:
                zeta2 = mpmath.pi ** 2 / 6
                t_k = _powerlog_tail(0, 1, k, u0, prec)
                t_k1 = _powerlog_tail(0, 1, k + 1, u0, prec)
                t_k2 = _powerlog_tail(0, 1, k + 2, u0, prec)
                tail = zeta2 * t_k.value - t_k1.value - t_k2.value / 2
                bound += zeta2 * t_k.bound + t_k1.bound + t_k2.bound / 2
                for i in range(1, corrections + 1):
                    b2i = _to_mpf(bernoulli(2 * i))
                    t = _powerlog_tail(0, 1, k + 2 * i + 1, u0, prec)
                    tail -= b2i * t.value
                    bound += abs(b2i) * t.bound
                rem = _powerlog_tail(0, 1, k + 2 * corrections + 3, u0, prec)
                b_next = abs(_to_mpf(bernoulli(2 * corrections + 2)))
                bound += 2 * b_next * (rem.value + rem.bound)
            best_bound = bound if best_bound is None else min(best_bound, bound)
            if bound < target:
                return _TailResult(+(partial + tail), +bound)
    achieved = int(-mpmath.log10(best_bound)) if best_bound and best_bound > 0 else 0
    raise PrecisionUnreachable(
        f"dzv({k},{m}) tail bound {mpmath.nstr(best_bound, 3)} exceeds "
        f"10^-{digits} within the term budget", achieved_digits=achieved)


def _alt_reference(k: int, m: int, digits: int) -> _TailResult:
    """Alternating sum  sum_{n>=1} (-1)^n H_{n,m} / (n+1)^k.

    Repeated pair averaging of the partial sums.  At every level consecutive
    averaged values must keep bracketing the limit (they do for terms whose
    finite differences are monotone, which holds here beyond small n and is
    checked numerically); the final gap then bounds the error.
    """
    if k < 2 or m not in (1, 2):
        raise ValueError("need k >= 2 and m in {1, 2}")
    target = mpf(10) ** (-digits)

    def averaged(n_terms: int, window: int) -> _TailResult:
        h = mpf(0)
        sums = []
        acc = mpf(0)
        for n in range(1, n_terms + 1):
            h += mpf(n) ** (-m)
            acc += (-1) ** n * h / mpf(n + 1) ** k
            sums.append(acc)
        row = sums[-(window + 1):]
        value = (row[-1] + row[-2]) / 2
        bound = abs(row[-1] - row[-2])
        while len(row) > 2:
            gaps = [row[i + 1] - row[i] for i in range(len(row) - 1)]
            signs = [mpmath.sign(g) for g in gaps if g != 0]
            if any(signs[i] == signs[i + 1] for i in range(len(signs) - 1)):
                break  # alternation lost: stop at the last valid bracket
            # entries straddle the limit; the last pair brackets tightest
            value = (row[-1] + row[-2]) / 2
            bound = abs(row[-1] - row[-2])
            if not bound:
                break
            row = [(row[i] + row[i + 1]) / 2 for i in range(len(row) - 1)]
        return _TailResult(value, bound)

    with _workprec(digits):
        # Windows stay shallow relative to the start index: bracketing needs
        # the window-depth finite differences of the terms to stay monotone,
        # which the log-growth factor only guarantees for ln(start) above the
        # harmonic number of the depth.  Successive estimates cross-check each
        # other and their spread is folded into the reported bound.
        best = None
        previous = None
        for n_terms, window in ((240, 40), (480, 80), (960, 160)):
            est = averaged(n_terms, window)
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


def _outcome(kernel, k, m, digits):
    try:
        result = kernel(k, m, digits)
    except PrecisionUnreachable as exc:
        return "unreachable", str(exc), exc.achieved_digits
    return "ok", result.value._mpf_, result.bound._mpf_


@pytest.mark.parametrize("kernel,reference", [
    (nv._dzv_with_bound, _dzv_reference),
    (nv._alt_with_bound, _alt_reference),
], ids=["dzv", "alt"])
@pytest.mark.parametrize("k", [2, 3, 9, 16, 20])
def test_kernel_bit_identical_to_reference(kernel, reference, k):
    for m in (1, 2):
        for digits in (12, 30, 40, 60):
            assert _outcome(kernel, k, m, digits) \
                == _outcome(reference, k, m, digits), (m, digits)


def test_shared_tables_bit_identical_in_any_call_order():
    # alt before dzv, k descending, and m and digits switching between calls,
    # so every call meets tables left behind by a different key
    calls = [(nv._alt_with_bound, _alt_reference, 9, 2, 12),
             (nv._dzv_with_bound, _dzv_reference, 9, 2, 30),
             (nv._alt_with_bound, _alt_reference, 7, 1, 30),
             (nv._dzv_with_bound, _dzv_reference, 7, 2, 12),
             (nv._alt_with_bound, _alt_reference, 7, 2, 12),
             (nv._dzv_with_bound, _dzv_reference, 5, 1, 12),
             (nv._alt_with_bound, _alt_reference, 4, 1, 30),
             (nv._dzv_with_bound, _dzv_reference, 4, 1, 30),
             (nv._alt_with_bound, _alt_reference, 3, 2, 30),
             (nv._dzv_with_bound, _dzv_reference, 2, 1, 12),
             (nv._alt_with_bound, _alt_reference, 2, 1, 12)]
    for kernel, reference, k, m, digits in calls:
        assert _outcome(kernel, k, m, digits) \
            == _outcome(reference, k, m, digits), (kernel.__name__, k, m, digits)


def test_shared_tables_hold_one_key(capsys):
    code = cli.main(["verify", "--mode", "fast", "--k", "2", "--k-max", "16",
                     "--m", "1,2", "--digits", "30"])
    capsys.readouterr()
    assert code == cli.EXIT_OK
    assert nv._harmonic_list.cache_info().currsize <= 1
    assert nv._terms_list.cache_info().currsize <= 1


def _bracket_reference(row: list, prec: int) -> tuple:
    """Repeated pair averaging of partial sums, on raw mpf tuples at `prec`.

    At every level consecutive averaged values must keep bracketing the limit
    (they do for terms whose finite differences are monotone, which holds
    here beyond small n and is checked numerically: the nonzero gaps must
    alternate in sign); the last pair of the deepest level that still
    alternates gives (value, bound), bound being its gap.  Halving is an exact
    shift, so each average rounds once, as (a + b) / 2 on mpf values does.
    """
    value = mpf_shift(mpf_add(row[-1], row[-2], prec, round_nearest), -1)
    bound = mpf_abs(mpf_sub(row[-1], row[-2], prec, round_nearest))
    while len(row) > 2:
        gaps = [mpf_sub(b, a, prec, round_nearest) for a, b in zip(row, row[1:])]
        signs = [g[0] for g in gaps if g != fzero]  # sign bit of the tuple
        if any(a == b for a, b in zip(signs, signs[1:])):
            break  # alternation lost: stop at the last valid bracket
        # entries straddle the limit; the last pair brackets tightest
        value = mpf_shift(mpf_add(row[-1], row[-2], prec, round_nearest), -1)
        bound = mpf_abs(gaps[-1])
        if bound == fzero:
            break
        row = [mpf_shift(mpf_add(a, b, prec, round_nearest), -1)
               for a, b in zip(row, row[1:])]
    return value, bound


@st.composite
def _bracket_rows(draw):
    """(row, prec): raw-tuple rows of at most `prec` bits each, as `_bracket`
    takes them, alternating partial sums or free values, at mixed exponents,
    with repeated neighbours (zero gaps) and mixed signs."""
    prec = draw(st.integers(20, 200))
    n = draw(st.integers(2, 12))
    if draw(st.booleans()):
        # partial sums of an alternating series around a signed base, so
        # the averaging goes deep; |acc| + step < 2^prec
        acc = draw(st.integers(-2 ** (prec - 1), 2 ** (prec - 1)))
        steps = sorted(draw(st.lists(st.integers(0, 2 ** (prec * 3 // 4)),
                                     min_size=n, max_size=n)), reverse=True)
        values = []
        for i, step in enumerate(steps):
            acc += step if i % 2 else -step
            values.append(acc)
    else:
        values = draw(st.lists(st.integers(1 - 2 ** prec, 2 ** prec - 1),
                               min_size=n, max_size=n))
    exps = draw(st.lists(st.integers(-260, 40), min_size=n, max_size=n))
    if draw(st.booleans()):
        exps = [exps[0]] * n
    row = [from_man_exp(v, e) for v, e in zip(values, exps)]
    for i in draw(st.lists(st.integers(1, n - 1), max_size=3)):
        row[i] = row[i - 1]  # an equal neighbour: a zero gap
    return row, prec


@settings(max_examples=300, deadline=None)
@given(_bracket_rows())
def test_bracket_matches_reference(case):
    row, prec = case
    low = min(x[2] for x in row)
    ints = [(-man if sign else man) << (exp - low) for sign, man, exp, _ in row]
    assert nv._bracket(ints, low, prec) == _bracket_reference(row, prec)


@pytest.mark.parametrize("x,rounded", [
    (0b101, 0b100), (0b111, 0b1000),  # ties: even quotient kept, odd one up
    (0b1011, 0b1100), (0b1001, 0b1000),  # nearest
    (-0b101, -0b100), (-0b111, -0b1000), (-0b1011, -0b1100),
    (0b11, 0b11), (0, 0),  # no rounding
])
def test_round_ties_to_even(x, rounded):
    assert nv._round(x, 2) == rounded


@st.composite
def _round_cases(draw):
    """(a, b, prec): raw tuples of at most `prec` bits each, whose sum is a
    tie, carries into the next binade, needs no rounding, cancels, or is
    free; both signs and mixed exponents."""
    prec = draw(st.integers(20, 200))
    e = draw(st.integers(-300, 40))
    sign = draw(st.sampled_from([1, -1]))
    shape = draw(st.sampled_from(["tie", "carry", "exact", "cancel", "free"]))
    if shape == "tie":
        # q 2^e +- 2^(e-1) lies halfway between two prec-bit neighbours,
        # one with an odd and one with an even quotient
        q = draw(st.integers(2 ** (prec - 1), 2 ** prec - 1))
        half = draw(st.sampled_from([1, -1]))
        a, b = from_man_exp(sign * q, e), from_man_exp(sign * half, e - 1)
    elif shape == "carry":
        # the largest prec-bit mantissa plus at least half its unit rounds
        # to 2^(prec + e)
        j = draw(st.integers(0, prec - 1))
        a = from_man_exp(sign * (2 ** prec - 1), e)
        b = from_man_exp(sign * draw(st.integers(2 ** j, 2 ** (j + 1) - 1)),
                         e - 1 - j)
    elif shape == "exact":
        x, y = (draw(st.integers(-2 ** (prec - 1), 2 ** (prec - 1)))
                for _ in range(2))
        a, b = from_man_exp(x, e), from_man_exp(y, e)
    elif shape == "cancel":
        x = sign * draw(st.integers(1, 2 ** prec - 1))
        a, b = from_man_exp(x, e), from_man_exp(-x, e)
    else:
        x, y = (draw(st.integers(1 - 2 ** prec, 2 ** prec - 1))
                for _ in range(2))
        a, b = from_man_exp(x, e), from_man_exp(y, draw(st.integers(-300, 40)))
    return a, b, prec


@settings(max_examples=500, deadline=None)
@given(_round_cases())
def test_round_matches_mpf_add_and_sub(case):
    a, b, prec = case
    low = min(a[2], b[2])
    x, y = ((-man if sign else man) << (exp - low)
            for sign, man, exp, _ in (a, b))
    assert from_man_exp(nv._round(x + y, prec), low) \
        == mpf_add(a, b, prec, round_nearest)
    assert from_man_exp(nv._round(x - y, prec), low) \
        == mpf_sub(a, b, prec, round_nearest)


def test_powerlog_tail_memo_is_keyed_on_precision():
    args = (1, 0, 5, 65)
    for digits in (12, 30):
        with _workprec(digits):
            prec = mpmath.mp.prec
            cached = _powerlog_tail(*args, prec)
            plain = _powerlog_tail.__wrapped__(*args, prec)
            assert (cached.value._mpf_, cached.bound._mpf_) \
                == (plain.value._mpf_, plain.bound._mpf_)
            hits = _powerlog_tail.cache_info().hits
            assert _powerlog_tail(*args, prec) is cached
            assert _powerlog_tail.cache_info().hits == hits + 1
    with _workprec(12):
        short = _powerlog_tail(*args, mpmath.mp.prec)
    assert short.value._mpf_ != cached.value._mpf_  # cached is the 30-digit one
