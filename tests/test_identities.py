"""Tests for boundary evaluation, identity derivation, and the warm-up example."""

from fractions import Fraction

import pytest

from dzeta import identities as ids, tausolver as ts
from dzeta.identities import (Divergent, InconsistentIdentity, closed_sum,
                              derive_identity, eval_basis_at, render_identity,
                              toy_example)
from dzeta.symfield import SymNumber, Unknown, render, zeta_value
from reference_data import (ALT_IDENTITIES, DZV_IDENTITIES, TRIVIAL_PAIRS,
                            q, z)


# -- closed sums --------------------------------------------------------------

def test_closed_sum_values():
    assert closed_sum("power", s=3) == z(3)
    assert closed_sum("alt-power", s=3) == q(-3, 4) * z(3)
    assert closed_sum("alt-power", s=2) == SymNumber.pi_power(2, Fraction(-1, 12))
    assert closed_sum("alt-power", s=5) == q(-15, 16) * z(5)


def test_closed_sum_alt_matches_eta_formula():
    # independent oracle: eta(s) = (1 - 2^(1-s)) zeta(s)
    for s in range(2, 12):
        eta = zeta_value(s) * (1 - Fraction(1, 2 ** (s - 1)))
        assert closed_sum("alt-power", s=s) == -eta


def test_closed_sum_divergent():
    with pytest.raises(Divergent):
        closed_sum("power", s=1)
    with pytest.raises(Divergent):
        closed_sum("alt-power", s=1)


# -- boundary values of basis elements ----------------------------------------

def test_eval_constant_element():
    for point in (1, -1):
        assert eval_basis_at(3, 1, 0, point) == (q(1), 0)


def test_eval_log_powers_at_minus_one():
    for i in (1, 2, 3):
        assert eval_basis_at(5, 1, i, -1) == (SymNumber.p_power(i), 0)
        value, r = eval_basis_at(5, 1, i, 1)
        assert value.is_zero() and r == 0


def test_eval_top_element_examples():
    # weight-2 family, top element at -1: 6(-zeta(3) + dzv(2,1)), as the
    # known part and the rational coefficient of the unknown
    assert eval_basis_at(2, 1, 3, -1) == (q(-6) * z(3), 6)
    # and at +1: 9/2 zeta(3) - 6 altsum(2,1)
    assert eval_basis_at(2, 1, 3, 1) == (q(9, 2) * z(3), -6)


def test_eval_imaginary_parts_cancel_in_weighted_sum():
    tau = ts.solve_tau_direct(4, 1)
    total = SymNumber.zero()
    for i, entry in enumerate(tau.entries):
        total = total + entry * eval_basis_at(4, 1, i, -1)[0]
    assert total.imag_part().is_zero()


# -- derived identities --------------------------------------------------------

@pytest.mark.parametrize("k,m", sorted(DZV_IDENTITIES))
def test_dzv_identities(k, m):
    tau = ts.solve_tau_direct(k, m)
    rec = derive_identity(k, m, -1, tau)
    assert rec.kind == "dzv"
    assert rec.target == Unknown("dzv", k, m)
    assert rec.value == DZV_IDENTITIES[(k, m)]
    assert rec.weight == k + m
    assert rec.value.is_homogeneous(k + m)


@pytest.mark.parametrize("k,m", sorted(ALT_IDENTITIES))
def test_alt_identities(k, m):
    tau = ts.solve_tau_direct(k, m)
    rec = derive_identity(k, m, 1, tau)
    assert rec.kind == "alt"
    assert rec.value == ALT_IDENTITIES[(k, m)]


@pytest.mark.parametrize("k,m", TRIVIAL_PAIRS)
@pytest.mark.parametrize("point", [1, -1])
def test_trivial_parity(k, m, point):
    tau = ts.solve_tau_direct(k, m)
    rec = derive_identity(k, m, point, tau)
    assert rec.kind == "trivial"
    assert rec.value is None


@pytest.mark.parametrize("m", [1, 2])
def test_parity_law_through_12(m):
    # solvable exactly when (m=1, k even) or (m=2, k odd)
    for k in range(2, 13):
        tau = ts.solve_tau_direct(k, m)
        solvable = (k % 2 == 0) if m == 1 else (k % 2 == 1)
        for point in (1, -1):
            rec = derive_identity(k, m, point, tau)
            assert (rec.kind != "trivial") == solvable, (k, m, point)


def test_fast_tau_provenance_recorded():
    rec = derive_identity(4, 1, -1, ts.solve_tau_fast(4, 1))
    assert rec.provenance == "fast"
    assert rec.value == DZV_IDENTITIES[(4, 1)]


def test_inconsistent_identity_detection():
    tau = ts.solve_tau_direct(3, 1)
    corrupted = ts.TauVector(3, 1, (tau.entries[0] + q(1),) + tau.entries[1:],
                             tau.provenance, tau.conjectural)
    with pytest.raises(InconsistentIdentity):
        derive_identity(3, 1, -1, corrupted)


def test_non_rational_unknown_coefficient_detected():
    # the harmonic-tail element of (2, 1) is index k + 1 = 3; scaling its
    # coordinate by zeta(3) leaves the unknown a non-rational coefficient
    tau = ts.solve_tau_direct(2, 1)
    entries = list(tau.entries)
    entries[3] = entries[3] * z(3)
    corrupted = ts.TauVector(2, 1, tuple(entries), tau.provenance, tau.conjectural)
    for point in (-1, 1):
        with pytest.raises(InconsistentIdentity, match="not a pure rational"):
            derive_identity(2, 1, point, corrupted)


def test_derive_rejects_mismatched_tau():
    with pytest.raises(ValueError):
        derive_identity(3, 1, -1, ts.solve_tau_direct(2, 1))


# -- rendering ----------------------------------------------------------------

def test_render_identity_examples():
    rec = derive_identity(6, 1, -1, ts.solve_tau_direct(6, 1))
    assert render_identity(rec, "plain", "even-zeta") \
        == "zeta(6,1) = 3*zeta(7) - zeta(2)*zeta(5) - zeta(3)*zeta(4)"
    trivial = derive_identity(3, 1, 1, ts.solve_tau_direct(3, 1))
    assert render_identity(trivial) == "0 = 0 (no information at phi=±1)"
    rec92 = derive_identity(9, 2, -1, ts.solve_tau_direct(9, 2))
    assert render(rec92.value, "plain", "even-zeta") == (
        "-28*zeta(11) + 9*zeta(2)*zeta(9) + 2*zeta(3)*zeta(8) "
        "+ 6*zeta(4)*zeta(7) + 4*zeta(5)*zeta(6)")


def test_identity_json_schema():
    rec = derive_identity(2, 1, -1, ts.solve_tau_direct(2, 1))
    data = ids.identity_to_json_dict(rec, verified=True)
    assert data["kind"] == "dzv"
    assert data["k"] == 2 and data["m"] == 1
    assert data["point"] == -1
    assert data["lhs"] == "zeta(2,1)"
    assert data["weight"] == 3
    assert data["provenance"] == "direct"
    assert data["verified_numeric"] is True
    assert data["rhs"]["terms"][0]["zeta"] == {"3": 1}
    trivial = derive_identity(2, 2, 1, ts.solve_tau_direct(2, 2))
    tdata = ids.identity_to_json_dict(trivial)
    assert tdata["kind"] == "trivial" and tdata["rhs"] is None


# -- warm-up example ------------------------------------------------------------

def test_toy_example_coordinates():
    (t0, t1, t2), fourier = toy_example()
    assert t0 == SymNumber.pi_power(2, Fraction(-1, 6))
    assert t1.is_zero()
    assert t2 == q(-1, 2)
    assert fourier.constant == SymNumber.pi_power(2, Fraction(-1, 12))
    assert fourier.linear.is_zero()
    assert fourier.quadratic == SymNumber.pi_power(2)


def test_toy_identity_at_half():
    # consistency with the alternating weight-2 sum: at t = 1/2 both sides
    # are the even-zeta value pi^2/6
    _, fourier = toy_example()
    rhs = fourier.constant + fourier.quadratic * Fraction(1, 4)
    assert rhs == zeta_value(2)
