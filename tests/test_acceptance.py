"""Acceptance suite: one test per release criterion, one printed line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the PASS/FAIL lines.
The heavy direct solves are shared through the solver's memo table, so the
whole suite stays well inside its runtime budgets.
"""

from fractions import Fraction
from math import factorial

import mpmath

from dzeta import circle, identities as ids, numverify as nv, pfseries as pf, \
    tausolver as ts
from dzeta.symfield import SymNumber, render, zeta_value
from reference_data import (ALT_IDENTITIES, DZV_IDENTITIES, TAU_TABLES,
                            TRIVIAL_PAIRS, q)


def _report(num, name, check):
    try:
        check()
    except BaseException:
        print(f"ACCEPTANCE {num:02d} {name}: FAIL")
        raise
    print(f"ACCEPTANCE {num:02d} {name}: PASS")


# -- 1. coordinate tables, exact ---------------------------------------------

def test_criterion_01_tau_tables(capsys):
    def check():
        from dzeta import cli

        # through the CLI surface, comparing even-zeta renderings line by line
        code = cli.main(["tau", "--k", "2", "--k-max", "9", "--m", "1,2",
                         "--mode", "direct"])
        out = capsys.readouterr().out
        assert code == 0
        lines = {line.split(" = ")[0]: line.split(" = ", 1)[1]
                 for line in out.splitlines() if line.startswith("tau[")}
        for (k, m), expected in sorted(TAU_TABLES.items()):
            for i, value in enumerate(expected):
                assert lines[f"tau[{k},{m}][{i}]"] \
                    == render(value, "plain", "even-zeta"), (k, m, i)
        # and structurally against the solver's exact values
        for (k, m), expected in sorted(TAU_TABLES.items()):
            tau = ts.solve_tau_direct(k, m)
            assert tau.entries == expected, (k, m)
        head = ts.solve_tau_direct(9, 2).entries[0]
        assert render(head, "plain", "even-zeta") == (
            "10*zeta(11) + 8*zeta(2)*zeta(9) + 127/32*zeta(3)*zeta(8) "
            "+ 21/2*zeta(4)*zeta(7) + 31/4*zeta(5)*zeta(6)")

    _report(1, "tau-tables-exact", check)


# -- 2. the sixteen identities, exact ----------------------------------------

def test_criterion_02_identities():
    def check():
        for (k, m), expected in sorted(DZV_IDENTITIES.items()):
            rec = ids.derive_identity(k, m, -1, ts.solve_tau_direct(k, m))
            assert rec.kind == "dzv" and rec.value == expected, (k, m)
        for (k, m), expected in sorted(ALT_IDENTITIES.items()):
            rec = ids.derive_identity(k, m, 1, ts.solve_tau_direct(k, m))
            assert rec.kind == "alt" and rec.value == expected, (k, m)

    _report(2, "identities-exact", check)


# -- 3. parity triviality ------------------------------------------------------

def test_criterion_03_parity_trivial():
    def check():
        for k, m in TRIVIAL_PAIRS:
            tau = ts.solve_tau_direct(k, m)
            for point in (1, -1):
                rec = ids.derive_identity(k, m, point, tau)
                assert rec.kind == "trivial", (k, m, point)

    _report(3, "parity-triviality", check)


# -- 4. warm-up example ---------------------------------------------------------

def test_criterion_04_toy():
    def check():
        (t0, t1, t2), fourier = ids.toy_example()
        assert t0 == SymNumber.pi_power(2, Fraction(-1, 6))
        assert t1.is_zero()
        assert t2 == q(-1, 2)
        samples = [Fraction(0), Fraction(1, 8), Fraction(1, 4), Fraction(3, 8),
                   Fraction(1, 2)]
        report = nv.fourier_spot_check(samples, 12, identity=fourier)
        assert report.passed, report

    _report(4, "toy-example", check)


# -- 5. fast recursion equals direct elimination, k <= 15 ----------------------

def test_criterion_05_conjecture_to_15():
    def check():
        for m in (1, 2):
            report = ts.check_conjecture(15, m)
            assert report.all_pass, report.lines()

    _report(5, "conjecture-k15", check)


# -- 6. top entries --------------------------------------------------------------

def test_criterion_06_top_entries():
    def check():
        for m in (1, 2):
            for k in range(2, 16):
                tau = ts.solve_tau_direct(k, m)
                top = Fraction((-1) ** (k + m - 1),
                               factorial(pf.operator_order(k, m) - 1))
                assert tau.entries[-1] == SymNumber.from_rational(top), (k, m)

    _report(6, "top-entries", check)


# -- 7. log-power moment closed forms -------------------------------------------

def test_criterion_07_log_moments():
    from test_circle import closed_form

    def check():
        for j in range(1, 11):
            for n in range(1, 51):
                assert circle.log_moment(n, j) == closed_form(n, j), (n, j)

    _report(7, "log-moments", check)


# -- 8. shifted double sum spot values ------------------------------------------

def test_criterion_08_s_sums():
    def check():
        assert circle.s_sum(1, 2, 1) == zeta_value(2) - q(1)
        assert circle.s_sum(2, 2, 1) == zeta_value(2) * Fraction(1, 2) - q(3, 8)
        assert circle.s_sum(3, 2, 1) == zeta_value(2) * Fraction(1, 3) - q(11, 54)

    _report(8, "s-sum-spot-values", check)


# -- 9. recursion closure and annihilation at N = 200 ---------------------------

def test_criterion_09_basis_operator_suite():
    def check():
        N = 200
        for m in (1, 2):
            for k in range(2, 10):
                a = {1: Fraction(0)}
                a.update({n: pf.pi_coefficient(k, m, n) for n in range(2, N + 1)})
                b = {n: pf.basis_coefficient(k, m, k, n) for n in range(1, N + 1)}
                c = {n: pf.basis_coefficient(k, m, k + 1, n)
                     for n in range(1, N + 1)}
                d = {n: pf.basis_coefficient(k, m, k + 2, n)
                     for n in range(1, N + 1)} if m == 2 else None
                for n in range(2, N):
                    if m == 1:
                        assert (n - 1) ** (k + 1) * a[n - 1] \
                            + n ** k * (2 * n - 1) * a[n] \
                            + n * (n + 1) ** k * a[n + 1] == 0
                        assert (n - 1) ** k * n * b[n - 1] \
                            + n ** k * (2 * n + 1) * b[n] \
                            + (n + 1) ** (k + 1) * b[n + 1] == 0
                        assert (n + 1) ** (k + 1) * c[n + 1] \
                            + n ** k * (2 * n + 1) * c[n] \
                            + (n - 1) ** k * n * c[n - 1] \
                            + Fraction((-1) ** (n + 1) * k * factorial(k + 1),
                                       n * (n - 1)) == 0
                    else:
                        quad = n ** k * (2 * n * n + 2 * n + 1)
                        assert (n - 1) ** (k + 2) * a[n - 1] \
                            + n ** k * (2 * n * n - 2 * n + 1) * a[n] \
                            + n * n * (n + 1) ** k * a[n + 1] == 0
                        assert (n - 1) ** k * n * n * b[n - 1] + quad * b[n] \
                            + (n + 1) ** (k + 2) * b[n + 1] == 0
                        assert (n + 1) ** (k + 2) * c[n + 1] + quad * c[n] \
                            + (n - 1) ** k * n * n * c[n - 1] \
                            + Fraction((-1) ** (n + 1) * k * factorial(k + 1),
                                       n * (n - 1)) == 0
                        assert (n + 1) ** (k + 2) * d[n + 1] + quad * d[n] \
                            + (n - 1) ** k * n * n * d[n - 1] \
                            + Fraction((-1) ** n * k * (k + 1) * factorial(k + 2)
                                       * (2 * n * n - 1),
                                       2 * n * n * (n - 1) ** 2) == 0
                op = pf.pf_operator(k, m, pf.CHART_INV)
                basis = pf.canonical_basis(k, m, N)
                for i, element in enumerate(basis):
                    image = pf.apply_operator(op, element)
                    assert image.is_zero(), (k, m, i)
                op_phi = pf.pf_operator(k, m, pf.CHART_PHI)
                image = pf.apply_operator(op_phi, pf.pi_series(k, m, N))
                assert image.is_zero(), (k, m)
                # the forms share their upper blocks (upper_block_specs), so
                # they agree when each mixed element's log-free row does
                for i in range(k, len(basis)):
                    specs = pf.bottom_block_rewritten(k, m, i)
                    assert list(basis[i].blocks[0]) == [0] + [
                        sum(spec.coefficient(n) for spec in specs)
                        for n in range(1, N + 1)], (k, m, i)

    _report(9, "basis-operator-suite", check)


# -- 10. numeric certification ---------------------------------------------------

def test_criterion_10_numeric_certification():
    def check():
        for m in (1, 2):
            for k in range(2, 13):
                tau = ts.solve_tau_direct(k, m)
                for point in (-1, 1):
                    rec = ids.derive_identity(k, m, point, tau)
                    if rec.kind == "trivial":
                        continue
                    report = nv.verify_identity_numeric(rec, 12)
                    assert report.passed, (k, m, point, report)
        with mpmath.workprec(200):
            for s in range(2, 14):
                low = nv.zeta_num(s, 20)
                high = nv.zeta_num(s, 30)
                assert abs(low - high) < mpmath.mpf(10) ** -20, s

    _report(10, "numeric-certification", check)
