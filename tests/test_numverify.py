"""Tests for the arbitrary-precision numeric oracle."""

from fractions import Fraction

import mpmath
import pytest

from dzeta import identities as ids, numverify as nv, tausolver as ts
from dzeta.symfield import SymNumber
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


def test_sym_to_mpf_rejects_unknowns():
    with pytest.raises(ValueError):
        nv.sym_to_mpf(SymNumber.unknown_dzv(2, 1), 12)


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
