"""Tests for the moment systems and both solving paths."""

from fractions import Fraction
from math import factorial

import pytest

from dzeta import tausolver as ts
from dzeta.pfseries import operator_order
from dzeta.symfield import SymNumber
from reference_data import TAU_TABLES, q, z


def test_assemble_first_row():
    system = ts.assemble_system(2, 1, [0, 1, 2, 3])
    row = system.rows[0]
    assert row.n == 0
    assert row.coeffs[0] == q(1)
    assert row.coeffs[1].is_zero()
    assert row.coeffs[2] == SymNumber.pi_power(2, Fraction(-1, 3))
    assert row.coeffs[3] == z(3) * 6
    assert row.rhs.is_zero()


def test_assemble_requires_enough_distinct_indices():
    with pytest.raises(ValueError):
        ts.assemble_system(2, 1, [])
    with pytest.raises(ValueError):
        ts.assemble_system(2, 1, [0, 1, 2, 2])


def test_solve_identity_system():
    given = [z(3), q(1, 7), SymNumber.pi_power(4, Fraction(2, 3))]
    rows = []
    for i, value in enumerate(given):
        coeffs = tuple(q(1) if j == i else SymNumber.zero() for j in range(3))
        rows.append(ts.MomentRow(i, coeffs, value))
    tau = ts.fraction_free_solve(ts.MomentSystem(0, 0, tuple(rows)))
    assert list(tau.entries) == given


def test_solve_k2_m1():
    tau = ts.solve_tau_direct(2, 1)
    assert tau.entries == TAU_TABLES[(2, 1)]
    assert tau.provenance == "direct"
    assert not tau.conjectural


def test_solve_k2_m2():
    assert ts.solve_tau_direct(2, 2).entries == TAU_TABLES[(2, 2)]


def test_solve_k3_m1():
    assert ts.solve_tau_direct(3, 1).entries == TAU_TABLES[(3, 1)]


def test_solve_k5_m2_head():
    tau = ts.solve_tau_direct(5, 2)
    assert tau.entries[0] == q(6) * z(7) + q(4) * z(2) * z(5) \
        + q(7, 2) * z(3) * z(4)


def test_solve_k9_m1_head():
    tau = ts.solve_tau_direct(9, 1)
    assert tau.entries[0] == q(511, 64) * z(10)


def test_overdetermined_consistency():
    order = operator_order(2, 1)
    system = ts.assemble_system(2, 1, list(range(order + 3)))
    tau = ts.fraction_free_solve(system)
    assert tau.entries == TAU_TABLES[(2, 1)]


def test_inconsistent_system_detected():
    system = ts.assemble_system(2, 1, [0, 1, 2, 3, 4])
    bad_last = ts.MomentRow(system.rows[-1].n, system.rows[-1].coeffs,
                            system.rows[-1].rhs + q(1))
    bad = ts.MomentSystem(2, 1, system.rows[:-1] + (bad_last,))
    with pytest.raises(ts.InconsistentSystem):
        ts.fraction_free_solve(bad)


def test_singular_system_raises_with_indices():
    rows = []
    for n in (0, 1, 2):
        coeffs = (q(1), q(n), SymNumber.zero())  # third column identically zero
        rows.append(ts.MomentRow(n, coeffs, q(n)))
    with pytest.raises(ts.SingularSystem) as err:
        ts.fraction_free_solve(ts.MomentSystem(0, 0, tuple(rows)))
    assert err.value.indices == (0, 1, 2)


def test_residuals_are_structurally_zero():
    for (k, m) in [(2, 1), (3, 2), (4, 1)]:
        system = ts.assemble_system(k, m, list(range(operator_order(k, m))))
        tau = ts.fraction_free_solve(system)
        for row in system.rows:
            residual = row.rhs
            for coeff, value in zip(row.coeffs, tau.entries):
                residual = residual - coeff * value
            assert residual.is_zero()


def test_fast_base_case_is_direct():
    fast = ts.solve_tau_fast(2, 1)
    assert fast.provenance == "direct"
    assert not fast.conjectural
    assert fast.entries == TAU_TABLES[(2, 1)]


def test_fast_k4_example():
    fast = ts.solve_tau_fast(4, 1)
    assert fast.conjectural
    assert fast.entries[2] == q(-1, 2) * z(3)
    assert fast.entries == TAU_TABLES[(4, 1)]


def test_fast_k8_m2_head():
    fast = ts.solve_tau_fast(8, 2)
    assert fast.entries[0] == q(-49363, 1280) * z(10)


@pytest.mark.parametrize("m", [1, 2])
def test_fast_top_entries(m):
    for k in range(2, 13):
        tau = ts.solve_tau_fast(k, m)
        top = Fraction((-1) ** (k + m - 1), factorial(operator_order(k, m) - 1))
        assert tau.entries[-1] == SymNumber.from_rational(top)


@pytest.mark.parametrize("m", [1, 2])
def test_tau_invariants_through_15(m):
    # reality, weight homogeneity, the zero pattern, and the top entry
    for k in range(2, 16):
        assert ts.check_tau_invariants(ts.solve_tau_direct(k, m)) == [], (k, m)


@pytest.mark.parametrize("m", [1, 2])
def test_conjecture_small_range(m):
    report = ts.check_conjecture(5, m)
    assert report.all_pass
    assert [c.k for c in report.checks] == [3, 4, 5]
    assert len(report.lines()) == 3


def test_conjecture_vacuous():
    report = ts.check_conjecture(2, 1)
    assert report.all_pass
    assert report.checks == ()


def test_conjecture_flags_memoized_direct_solves():
    ts.solve_tau_direct.cache_clear()
    cold = ts.check_conjecture(4, 1)
    warm = ts.check_conjecture(4, 1)
    assert [c.direct_cached for c in cold.checks] == [False, False]
    assert [c.direct_cached for c in warm.checks] == [True, True]
    assert all("(cached)" not in line for line in cold.lines())
    assert all("(cached), fast" in line for line in warm.lines())


def test_conjecture_cache_label_survives_a_wrapper(monkeypatch):
    original = ts.solve_tau_direct

    def wrapper(k, m):
        return original(k, m)

    wrapper.__wrapped__ = original
    monkeypatch.setattr(ts, "solve_tau_direct", wrapper)
    ts.check_conjecture(3, 1)
    assert ts.check_conjecture(3, 1).checks[0].direct_cached
