"""Tests for the moment systems and both solving paths."""

import functools
import hashlib
import os
import subprocess
import sys
import types
from fractions import Fraction
from math import factorial
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dzeta import circle
from dzeta import tausolver as ts
from dzeta.identities import derive_identity_fast
from dzeta.pfseries import operator_order
from dzeta.symfield import ExactDivisionError, SymNumber, _mono_sort_key
from reference_data import TAU_TABLES, q, z


def test_assemble_first_row():
    system = ts.assemble_system(2, 1)
    assert [row.n for row in system.rows] == [0, 1, 2, 3]
    row = system.rows[0]
    assert row.coeffs[0] == q(1)
    assert row.coeffs[1].is_zero()
    assert row.coeffs[2] == SymNumber.pi_power(2, Fraction(-1, 3))
    assert row.coeffs[3] == z(3) * 6
    assert row.rhs.is_zero()


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


def test_non_square_system_is_rejected():
    two_by_one = (ts.MomentRow(0, (q(1),), q(5)), ts.MomentRow(1, (q(2),), q(10)))
    one_by_two = (ts.MomentRow(0, (q(1), q(2)), q(5)),)
    with pytest.raises(ValueError, match="got 2 rows and 1 columns"):
        ts.fraction_free_solve(ts.MomentSystem(0, 0, two_by_one))
    with pytest.raises(ValueError, match="got 1 rows and 2 columns"):
        ts.fraction_free_solve(ts.MomentSystem(0, 0, one_by_two))


def test_singular_system_raises_with_indices():
    rows = []
    for n in (0, 1, 2):
        coeffs = (q(1), q(n), SymNumber.zero())  # third column identically zero
        rows.append(ts.MomentRow(n, coeffs, q(n)))
    with pytest.raises(ts.SingularSystem) as err:
        ts.fraction_free_solve(ts.MomentSystem(0, 0, tuple(rows)))
    assert err.value.indices == (0, 1, 2)


def test_direct_solve_makes_one_attempt_on_the_square_system(monkeypatch):
    # a zero witness: the whole system on rows 0..order-1 is singular, with
    # no retry and no Cramer step
    seen = []

    def zero_witness(rows):
        seen.append(len(rows))
        return SymNumber.zero()

    monkeypatch.setattr(ts, "_det", zero_witness)
    with pytest.raises(ts.SingularSystem) as err:
        ts.solve_tau_direct.__wrapped__(5, 2)  # past the memo, which may hold (5, 2)
    assert seen == [2]
    assert err.value.indices == tuple(range(8))


def test_empty_system_is_rejected():
    with pytest.raises(ValueError, match="got 0 rows and 0 columns"):
        ts.fraction_free_solve(ts.MomentSystem(0, 0, ()))
    with pytest.raises(ValueError, match="got 1 rows and 0 columns"):
        ts.fraction_free_solve(ts.MomentSystem(0, 0, (ts.MomentRow(0, (), q(0)),)))


@pytest.mark.parametrize("m", [1, 2])
def test_structured_solve_matches_bareiss(m):
    # values and term order: two independent routes to the same coordinates
    for k in range(2, 16):
        direct = ts.solve_tau_direct(k, m)
        bareiss = ts.fraction_free_solve(ts.assemble_system(k, m))
        assert ([list(e._terms.items()) for e in direct.entries]
                == [list(e._terms.items()) for e in bareiss.entries]), k


@pytest.mark.parametrize("k,m", [(2, 1), (5, 2), (9, 1), (12, 2)])
def test_direct_solution_zeroes_every_assembled_row(k, m):
    # the certificate's claim, recomputed in SymNumber arithmetic on every
    # row of the assembled system
    entries = ts.solve_tau_direct(k, m).entries
    for row in ts.assemble_system(k, m).rows:
        assert sum((c * t for c, t in zip(row.coeffs, entries)), -row.rhs).is_zero(), row.n


def _mutant(*edits):
    """A fresh tausolver module over a fresh circle module, each built from
    its source with every (old, new) edit made in the one source that holds
    the old text."""
    sources = {mod: Path(mod.__file__).read_text() for mod in (circle, ts)}
    for old, new in edits:
        holders = [mod for mod, source in sources.items() if old in source]
        assert len(holders) == 1, old
        sources[holders[0]] = sources[holders[0]].replace(old, new)
    built = {}
    for mod, source in sources.items():
        module = types.ModuleType(f"{mod.__name__}_mutant")
        module.__package__ = "dzeta"
        exec(compile(source, mod.__file__, "exec"), module.__dict__)
        built[mod] = module
    built[ts].circle = built[circle]
    return built[ts]


_CERTIFICATE = "    if not sum((a * t for a, t in zip(moments, entries)), -b).is_zero():"
_RESIDUAL = "    residual = circle.combine(["
_MUTANTS = {
    # the differenced rows no longer annihilate the powers n^(k-r); without
    # the check that the closed-form top entries solve them, this mutant
    # survives
    "difference order k-1": [("comb(k, j) for j in range(k + 1)]",
                              "comb(k - 1, j) for j in range(k)]")],
    # the closed form's top entry is off the invariant
    "top entry off the invariant": [("SymNumber.from_rational(top)]",
                                     "SymNumber.from_rational(top + 1)]")],
    # the zeta-value piece of every partial fraction one power of n off (the
    # H_{n,1} pieces cancel in column k+2 and column k+1 meets tau_{k+1} = 0
    # at m = 2, so an H_{n,1} mutant there is equivalent to the original)
    "column n-exponent off by one": [("append((f * (a + b) * z, e, 0))",
                                      "append((f * (a + b) * z, e + 1, 0))")],
    # the residual's power columns on rows n = 2..N+1 in place of 1..N
    "nodes shifted by one": [("for n in range(1, order)])}", "for n in range(2, order + 1)])}")],
    # each (C tau)_r put on n^(k-r+1) in place of n^(k-r)
    "power of n off by one": [("[n ** (k - r) for n", "[n ** (k - r + 1) for n")],
    # C's weights c_{i,r} read one place early
    "forward weight off by one": [("log_moment_poly(i)[r], i - r",
                                   "log_moment_poly(i)[r - 1], i - r")],
    "zeroed witness": [("witness = _det(lhs)", "witness = SymNumber.zero()")],
    # the one convolution's d = 0 term dropped, in every head of tau
    "back substitution without its first term": [
        ("for j in range(k + 1))", "for j in range(k))")],
    # entries 0, 3, k-1, k and the top ones (-1 is 9 at m = 1, 10 at m = 2)
    # changed after tau_0 is read, before the certificate checks them
    **{f"entry {i} perturbed": [
        (_CERTIFICATE, f"    entries[{i}] = entries[{i}] + 1\n{_CERTIFICATE}")]
       for i in (0, 3, 7, 8, 9, -1)},
    # a top entry changed after the differenced rows and row 0 are checked:
    # the residual sums the returned entries, so it is caught there
    "top entry +1 before residual": [
        (_RESIDUAL, f"    entries[k + 1] = entries[k + 1] + 1\n{_RESIDUAL}")],
}


@pytest.mark.parametrize("name", sorted(_MUTANTS))
@pytest.mark.parametrize("m", [1, 2])
def test_mutated_solve_fails_with_a_system_error(name, m):
    # k = 8: entry 7 is k - 1; every mutant must end in a mapped exit code
    mutant = _mutant(*_MUTANTS[name])
    with pytest.raises((mutant.InconsistentSystem, mutant.SingularSystem)) as err:
        mutant.solve_tau_direct(8, m)
    if name == "zeroed witness":
        assert err.type is mutant.SingularSystem
    if name.startswith(("entry", "back substitution")):
        assert "residual is nonzero" in str(err.value)
    if name in ("difference order k-1", "top entry off the invariant"):
        assert err.type is mutant.InconsistentSystem
        assert "the top entries do not solve the differenced rows" in str(err.value)
    if name in ("nodes shifted by one", "power of n off by one", "forward weight off by one",
                "top entry +1 before residual"):
        assert err.type is mutant.InconsistentSystem
        assert "residual is nonzero" in str(err.value)


def test_invariant_problems_are_named(monkeypatch):
    monkeypatch.setattr(ts, "check_tau_invariants", lambda tau: ["entry 3 should vanish"])
    with pytest.raises(ts.InconsistentSystem, match=r"tau\[4,1\]: entry 3 should vanish"):
        ts.solve_tau_direct.__wrapped__(4, 1)


def test_residuals_are_structurally_zero():
    # recomputed with SymNumber arithmetic, independent of the solver's
    # integer rows
    for (k, m) in [(2, 1), (3, 2), (4, 1), (12, 1), (12, 2)]:
        system = ts.assemble_system(k, m)
        tau = ts.fraction_free_solve(system)
        for row in system.rows:
            residual = row.rhs
            for coeff, value in zip(row.coeffs, tau.entries):
                residual = residual - coeff * value
            assert residual.is_zero()


def _cofactor_det(mat):
    """The determinant by cofactor expansion along the first row."""
    if len(mat) == 1:
        return mat[0][0]
    total = SymNumber.zero()
    for j, entry in enumerate(mat[0]):
        term = entry * _cofactor_det([row[:j] + row[j + 1:] for row in mat[1:]])
        total = total - term if j % 2 else total + term
    return total


def _reference_solve(system):
    """Cramer's rule by cofactor expansion, independent of elimination:
    tau_i = det_i / det by exact ring division."""
    mat = [list(row.coeffs) for row in system.rows]
    det = _cofactor_det(mat)
    if det.is_zero():
        raise ts.SingularSystem([row.n for row in system.rows])
    return tuple(_cofactor_det([coeffs[:i] + [row.rhs] + coeffs[i + 1:]
                                for coeffs, row in zip(mat, system.rows)]).exact_div(det)
                 for i in range(system.width))


_rationals = st.sampled_from([Fraction(a, b) for a in (-9, -4, -3, -2, -1, 1, 2, 5, 7)
                              for b in (1, 2, 3, 4, 5, 6, 9, 12)])


def _mono(exps):
    """P^a zeta(3)^b zeta(5)^c zeta(7)^d for exps = (a, b, c, d) or a prefix."""
    value = SymNumber.p_power(exps[0])
    for s, e in zip((3, 5, 7), exps[1:]):
        for _ in range(e):
            value = value * z(s)
    return value


def _poly(terms):
    total = SymNumber.zero()
    for exps, coeff in terms:
        total = total + _mono(exps) * coeff
    return total


def _polys(min_terms, monos):
    """Sums of min_terms to 3 distinct monomials drawn from monos."""
    return st.lists(st.tuples(st.sampled_from(monos), _rationals),
                    min_size=min_terms, max_size=3,
                    unique_by=lambda t: t[0]).map(_poly)


def _family(monos):
    """The polynomial strategies of one monomial family: entries with at
    least one or two monomials, and values that may also be zero."""
    polys = {1: _polys(1, monos), 2: _polys(2, monos)}
    return polys, st.just(SymNumber.zero()) | polys[1]


# built once: hypothesis re-analyses every new strategy object it is given.
# P^a zeta(3)^b with a <= 2, b <= 1; and P^a zeta(3)^b zeta(5)^c zeta(7)^d
# with a <= 1 and b, c, d <= 2, so a monomial can divide another in some
# zeta exponents but not all
_ONE_ZETA = _family([(a, b) for a in range(3) for b in range(2)])
_THREE_ZETAS = _family([(a, b, c, d) for a in range(2) for b in range(3)
                        for c in range(3) for d in range(3)])


@st.composite
def _systems(draw, family=_ONE_ZETA):
    """A square system with mixed row denominators, zero entries and rows,
    and, when min_terms is 2, multi-monomial pivots.  The rhs comes from a
    drawn solution or is drawn itself."""
    polys, values = family
    width = draw(st.integers(1, 3))
    min_terms = draw(st.sampled_from([1, 2]))
    coeffs = [[draw(polys[min_terms]) for _ in range(width)] for _ in range(width)]
    for r, c in draw(st.sets(st.tuples(st.integers(0, width - 1),
                                       st.integers(0, width - 1)), max_size=width)):
        coeffs[r][c] = SymNumber.zero()
    for r in draw(st.sets(st.integers(0, width - 1), max_size=1)):
        coeffs[r] = [SymNumber.zero()] * width
    copy = draw(st.none() | st.tuples(st.integers(0, width - 1),
                                      st.integers(0, width - 1), _rationals))
    if copy is not None:  # a dependent row
        src, dst, factor = copy
        coeffs[dst] = [value * factor for value in coeffs[src]]
    solution = draw(st.none() | st.lists(values, min_size=width, max_size=width))
    rows = []
    for n, row in enumerate(coeffs):
        if solution is None:
            rhs = draw(values)
        else:
            rhs = SymNumber.zero()
            for coeff, value in zip(row, solution):
                rhs = rhs + coeff * value
        rows.append(ts.MomentRow(n, tuple(row), rhs))
    return ts.MomentSystem(0, 0, tuple(rows)), solution


def _binomial(a, b):
    return SymNumber.p_power(2, Fraction(a, 3)) + z(3) * Fraction(b, 2)


def _binomial_case():
    """Every pivot has two monomials, so the polynomial exact division runs."""
    coeffs = ((_binomial(1, 1), _binomial(2, -1)), (_binomial(-1, 3), _binomial(1, 1)))
    solution = [_binomial(1, 5), q(1, 7)]
    rows = tuple(ts.MomentRow(n, row, row[0] * solution[0] + row[1] * solution[1])
                 for n, row in enumerate(coeffs))
    return ts.MomentSystem(0, 0, rows), solution


def _unsorted_rhs_case():
    """x = 1/3 + 2 zeta(3) + P^2: a scalar pivot keeps the rhs's term order,
    which is not descending."""
    rhs = q(1, 3) + z(3) * 2 + SymNumber.p_power(2)
    return ts.MomentSystem(0, 0, (ts.MomentRow(0, (q(1),), rhs),)), [rhs]


def _check_against_reference(case):
    # a drawn rhs can put the solution outside the ring: ExactDivisionError
    system, solution = case
    try:
        expected = _reference_solve(system)
    except (ts.SingularSystem, ExactDivisionError) as exc:
        with pytest.raises(type(exc)):
            ts.fraction_free_solve(system)
        return
    entries = ts.fraction_free_solve(system).entries
    assert entries == expected
    for entry in entries:
        keys = [_mono_sort_key(mono) for mono in entry._terms]
        assert keys == sorted(keys, reverse=True)
    if solution is not None:
        assert expected == tuple(solution)


@settings(max_examples=100, deadline=None)
@given(_systems())
@example(_binomial_case())
@example(_unsorted_rhs_case())
def test_solve_matches_fraction_reference(case):
    _check_against_reference(case)


def _indivisible_case(extra):
    """zeta(3)^2 zeta(5) x = zeta(3) zeta(5)^2 (+ extra on the left): the
    quotient needs zeta(3)^-1, although zeta(5) divides with room."""
    coeff = z(3) * z(3) * z(5) + extra
    return ts.MomentSystem(0, 0, (ts.MomentRow(0, (coeff,), z(3) * z(5) * z(5)),)), None


@settings(max_examples=100, deadline=None)
@given(_systems(_THREE_ZETAS))
@example(_indivisible_case(SymNumber.zero()))
@example(_indivisible_case(z(7) * z(3) * 2))
def test_solve_matches_fraction_reference_three_zetas(case):
    _check_against_reference(case)


def test_indivisible_monomial_is_named():
    system, _ = _indivisible_case(SymNumber.zero())
    with pytest.raises(ExactDivisionError, match=r"zetas=\(\(3, 1\), \(5, 2\)\)"):
        ts.fraction_free_solve(system)


@pytest.mark.parametrize("m", [1, 2])
def test_closed_form_y_is_c_tau(m):
    # y(k - r, m) is y_r = (C tau)_r of the direct solution, through the
    # forward weights c_{i,r} of the log-power moments
    for k in range(2, 41):
        entries = ts.solve_tau_direct(k, m).entries
        for r in range(1, k + 1):
            c_tau = circle.weighted_sum((circle.log_moment_poly(i)[r], i - r, entries[i])
                                        for i in range(r, k + 1))
            assert ts.y(k - r, m) == c_tau, (k, r)


@functools.cache
def _tail_reference(k, m):
    """The entries i >= k-1 as the fast route read them before the closed
    form: tau[k][i] = (-1)^k (i-k+2)!/i! tau[2][i-k+2], from the direct
    tau[2]."""
    base = ts.solve_tau_direct(2, m).entries
    return tuple((i, base[i - k + 2] * Fraction((-1) ** k * factorial(i - k + 2),
                                                 factorial(i)))
                 for i in range(k - 1, operator_order(k, m)))


@functools.cache
def _zero_mode_source_reference(j, m):
    """g(j) = -sum_{i >= j-1} tau[j][i] (zero moment of basis element i), the
    source the heads were convolved from before the closed form."""
    g = SymNumber.zero()
    for i, entry in _tail_reference(j, m):
        if not entry.is_zero():
            g = g - entry * circle.basis_moment(j, m, i, 0)
    return g


def _log_part_reference(k, m, point):
    """sum_{j=2..k} g(j) w_point(k-j), over ascending j."""
    weights = ((j, ts._weight(point, k - j)) for j in range(2, k + 1))
    return circle.weighted_sum((w, k - j, _zero_mode_source_reference(j, m))
                               for j, w in weights if w)


@pytest.mark.parametrize("m", [1, 2])
def test_closed_form_matches_the_zero_mode_sources(m):
    # values and term order; at -1 only the even-P terms keep their order,
    # since the odd-P terms cancel against the tail and reach no record
    def terms(x, parity=None):
        return [t for t in x._terms.items() if parity is None or t[0].pi_exp % 2 == parity]

    for k in range(2, 201):
        assert ([(i, terms(e)) for i, e in ts.tail(k, m)]
                == [(i, terms(e)) for i, e in _tail_reference(k, m)]), k
        plus, ref = ts.log_part(k, m, 1), _log_part_reference(k, m, 1)
        assert terms(plus) == terms(ref), k
        minus, ref = ts.log_part(k, m, -1), _log_part_reference(k, m, -1)
        assert minus == ref, k
        assert terms(minus, 0) == terms(ref, 0), k


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


@functools.cache
def _solve_tau_fast_recursive(k: int, m: int) -> ts.TauVector:
    """The fast path as the memoised recursion the closed form replaced:
    entry i is -1/i times entry i-1 at k-1, and the head is minus the
    weighted sum of the zero moments of the basis elements."""
    if k < 2:
        raise ValueError("k must be >= 2")
    if k == 2:
        return ts.solve_tau_direct(2, m)
    # fill the memo upward so the recursion stays two frames deep at any k
    for j in range(3, k):
        _solve_tau_fast_recursive(j, m)
    prev = _solve_tau_fast_recursive(k - 1, m)
    order = operator_order(k, m)
    entries = [SymNumber.zero()] * order
    for i in range(1, order):
        entries[i] = prev.entries[i - 1] / Fraction(-i)
    head = SymNumber.zero()
    for i in range(1, order):
        if not entries[i].is_zero():
            head = head - entries[i] * circle.basis_moment(k, m, i, 0)
    entries[0] = head
    return ts.TauVector(k, m, tuple(entries), provenance="fast", conjectural=True)


@pytest.mark.parametrize("m", [1, 2])
def test_fast_closed_form_matches_recursion(m):
    # values and dict term order: the order reaches the oracle's sums
    for k in range(3, 61):
        fast, ref = ts.solve_tau_fast(k, m), _solve_tau_fast_recursive(k, m)
        assert (fast.provenance, fast.conjectural) == ("fast", True)
        assert ([list(e._terms.items()) for e in fast.entries]
                == [list(e._terms.items()) for e in ref.entries]), k


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


# SHA-256 of repr(list(entry._terms.items())) over every entry, m = 1 then 2,
# k ascending.  The term order reaches the oracle's sums through
# numverify.sym_to_mpf, so it is pinned, not only the values.
_TERM_ORDER_SHA256 = {
    "direct": "722c41861e827eb9d67c9a882a4ddf8677380d8ddb8fc1e59323d27c02a1198b",
    "fast": "32d7ca8d471b5de2989fbfd5c0c923ef81b0bd5f4d35b47395ce4a9776a330d0",
}


def test_term_order_is_pinned():
    for mode, solve, ks in (("direct", ts.solve_tau_direct, range(2, 17)),
                            ("fast", ts.solve_tau_fast, range(3, 17))):
        digest = hashlib.sha256()
        for m in (1, 2):
            for k in ks:
                for entry in solve(k, m).entries:
                    digest.update(repr(list(entry._terms.items())).encode())
        assert digest.hexdigest() == _TERM_ORDER_SHA256[mode], mode


@pytest.mark.parametrize("m", [1, 2])
def test_conjecture_small_range(m):
    report = ts.check_conjecture(5, m)
    assert report.all_pass
    assert [c.k for c in report.checks] == [3, 4, 5]
    assert len(report.lines()) == 3


def test_conjecture_range_starts_at_k_min():
    assert [c.k for c in ts.check_conjecture(5, 1, 4).checks] == [4, 5]
    assert [c.k for c in ts.check_conjecture(4, 1, 2).checks] == [3, 4]


def test_conjecture_rejects_a_truncated_fast_vector(monkeypatch):
    # every entry the shorter vector has agrees; the missing one must not pass
    honest = {k: ts.solve_tau_fast(k, 1) for k in (3, 4)}

    def fast(k, m):
        tau = honest[k]
        return ts.TauVector(k, m, tau.entries[:-1], tau.provenance, tau.conjectural)

    monkeypatch.setattr(ts, "solve_tau_fast", fast)
    report = ts.check_conjecture(4, 1)
    assert [c.matches for c in report.checks] == [False, False]
    assert not report.all_pass


def test_conjecture_vacuous():
    report = ts.check_conjecture(2, 1)
    assert report.all_pass
    assert report.checks == ()
    # m is checked even when the range is empty
    for k_max in (2, 5):
        with pytest.raises(ValueError, match="m must be 1 or 2"):
            ts.check_conjecture(k_max, 3)


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


def test_conjecture_cache_label_survives_a_wrapper_without_wrapped(monkeypatch):
    original = ts.solve_tau_direct
    monkeypatch.setattr(ts, "solve_tau_direct", lambda k, m: original(k, m))
    ts.check_conjecture(3, 1)
    assert ts.check_conjecture(3, 1).checks[0].direct_cached


def test_fast_path_depth_does_not_grow_with_k():
    # a fresh interpreter starts from cold memos; nothing on the fast path
    # recurses, and no full vector is kept, so memory stays flat in k (the
    # memoised recursion this replaced peaked near 100 MB at k = 200).  The
    # peak is the child's own VmHWM: ru_maxrss would carry over the peak of
    # the test process that forked it.
    code = ("import re, sys; sys.setrecursionlimit(120)\n"
            "from dzeta import tausolver\n"
            "print(tausolver.solve_tau_fast(200, 1).order)\n"
            "print(re.search(r'VmHWM:\\s*(\\d+)', open('/proc/self/status').read())[1])")
    env = dict(os.environ, PYTHONPATH=str(Path(ts.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    order, peak_kb = proc.stdout.split()
    assert order == str(operator_order(200, 1))
    assert int(peak_kb) < 60 * 1024, f"peak RSS {int(peak_kb) // 1024} MB"


def test_fast_route_reads_no_direct_solve_and_no_moment(monkeypatch):
    # last in the file, so that no later test recomputes the memos it clears
    def forbidden(*args):
        raise AssertionError("the fast route read a direct solve or a moment")

    for memo in (ts.y, ts.tail, ts.log_part):
        memo.cache_clear()
    monkeypatch.setattr(ts, "solve_tau_direct", forbidden)
    monkeypatch.setattr(circle, "basis_moment", forbidden)
    for m in (1, 2):
        for k in range(3, 61):
            assert ts.solve_tau_fast(k, m).provenance == "fast"
            for point in (-1, 1):
                assert derive_identity_fast(k, m, point).provenance == "fast"
