"""Tests for operators, series coefficients, and the canonical basis."""

from collections import Counter
from fractions import Fraction
from math import comb, factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dzeta import circle, identities, pfseries
from dzeta.pfseries import (CHART_INV, CHART_PHI, ChartMismatch,
                            HarmonicTailSeries, LevelOutOfRange,
                            LogSeries, PFOperator, PureAltSeries,
                            apply_operator, basis_coefficient, basis_violations,
                            bottom_block_rewritten, canonical_basis, harmonic,
                            operator_order, pf_operator, pi_coefficient,
                            pi_series, recursion_closure_violations)


# -- Harmonic numbers --------------------------------------------------------

@pytest.mark.parametrize("n,t,expected", [
    (0, 1, Fraction(0)),
    (3, 1, Fraction(11, 6)),
    (2, 2, Fraction(5, 4)),
    (1, 2, Fraction(1)),
    (2, 3, Fraction(9, 8)),
    (3, 5, Fraction(1) + Fraction(1, 32) + Fraction(1, 243)),
])
def test_harmonic_values(n, t, expected):
    assert harmonic(n, t) == expected


@given(st.integers(1, 300), st.sampled_from([1, 2, 3, 7]))
def test_harmonic_recurrence(n, t):
    assert harmonic(n, t) == harmonic(n - 1, t) + Fraction(1, n ** t)


def test_harmonic_rejects_bad_order():
    with pytest.raises(ValueError):
        harmonic(3, 0)


# -- Operators ---------------------------------------------------------------

def test_operator_m1_display():
    op = pf_operator(2, 1, CHART_PHI)
    assert op.order == 4
    assert op.coeffs[4] == (1, 2, 1)
    assert op.coeffs[3] == (-3, -3)
    assert op.coeffs[2] == (2, 1)
    assert all(not c for c in op.coeffs[:2])


def test_operator_m2_display():
    op = pf_operator(3, 2, CHART_PHI)
    assert op.order == 6
    assert op.coeffs[6] == (1, 2, 1)
    assert op.coeffs[5] == (-4, -4)
    assert op.coeffs[4] == (5, 3)
    assert op.coeffs[3] == (-2, -1)


def test_operator_inverse_chart_m1():
    op = pf_operator(5, 1, CHART_INV)
    assert op.coeffs[7] == (1, 2, 1)      # (1+x)^2
    assert op.coeffs[6] == (0, 3, 3)      # 3x(1+x)
    assert op.coeffs[5] == (0, 1, 2)      # x(1+2x)


def test_operator_inverse_chart_m2():
    op = pf_operator(4, 2, CHART_INV)
    assert op.coeffs[7] == (1, 2, 1)
    assert op.coeffs[6] == (0, 4, 4)      # 4x(1+x)
    assert op.coeffs[5] == (0, 3, 5)      # x(3+5x)
    assert op.coeffs[4] == (0, 1, 2)      # x(1+2x)


@pytest.mark.parametrize("k,m", [(2, 1), (3, 1), (2, 2), (5, 2)])
def test_chart_flip_is_involution(k, m):
    op = pf_operator(k, m, CHART_PHI)
    assert op.flip_chart().flip_chart() == op


# -- Series coefficients -----------------------------------------------------

@pytest.mark.parametrize("k", [2, 3, 5, 9])
def test_pi_coefficient_seeds(k):
    assert pi_coefficient(k, 1, 2) == Fraction(-1, 2 ** k)
    assert pi_coefficient(k, 1, 3) == Fraction(3, 2) / 3 ** k
    assert pi_coefficient(k, 2, 2) == Fraction(-1, 2 ** k)
    assert pi_coefficient(k, 2, 3) == Fraction(5, 4) / 3 ** k


def test_pi_coefficient_m2_from_recursion():
    # independent oracle: iterate the three-term recursion from a_2, a_3
    k = 2
    a = {2: Fraction(-1, 4), 3: Fraction(5, 4) / 9}
    for n in range(3, 6):
        # (n-1)^(k+2) a_{n-1} + n^k (2n^2-2n+1) a_n + n^2 (n+1)^k a_{n+1} = 0
        a[n + 1] = -((n - 1) ** (k + 2) * a[n - 1]
                     + n ** k * (2 * n * n - 2 * n + 1) * a[n]) \
            / (n * n * (n + 1) ** k)
    assert pi_coefficient(2, 2, 4) == a[4] == -harmonic(3, 2) / 16
    assert pi_coefficient(2, 2, 5) == a[5]
    assert pi_coefficient(2, 2, 6) == a[6]


@pytest.mark.parametrize("k", [2, 3, 4, 7])
def test_basis_coefficient_seeds(k):
    assert basis_coefficient(k, 1, k, 1) == -factorial(k)
    assert basis_coefficient(k, 1, k + 1, 1) == (k - 1) * factorial(k + 1)
    assert basis_coefficient(k, 2, k + 2, 1) \
        == Fraction(-(k * k + k + 2) * factorial(k + 2), 2)
    assert basis_coefficient(k, 1, k, 2) == Fraction(factorial(k), 2 ** k)
    assert basis_coefficient(k, 1, k + 1, 2) \
        == Fraction(-(k - 3) * factorial(k + 1), 2 ** (k + 1))
    assert basis_coefficient(k, 2, k + 2, 2) \
        == Fraction((k * k + k + 10) * factorial(k + 2), 2 ** (k + 3))


@pytest.mark.parametrize("coefficient", [
    PureAltSeries(2, 3).coefficient,
    PureAltSeries(Fraction(-5, 7), 1).coefficient,
    HarmonicTailSeries(Fraction(-6), 3, 1).coefficient,
    HarmonicTailSeries(Fraction(1, 2), 2, 2).coefficient,
    lambda n: basis_coefficient(3, 1, 3, n),
])
@pytest.mark.parametrize("n", [0, -1, -2])
def test_series_coefficients_start_at_one(coefficient, n):
    with pytest.raises(ValueError, match=r"series coefficients start at n = 1"):
        coefficient(n)


def test_basis_coefficient_level_out_of_range():
    with pytest.raises(LevelOutOfRange):
        basis_coefficient(3, 1, 5, 1)  # k+2 level exists only for m=2
    with pytest.raises(LevelOutOfRange):
        basis_coefficient(3, 1, 2, 1)


# -- Recursion closure (the closed forms satisfy their recursions exactly) ---

@pytest.mark.parametrize("k", [2, 3, 5, 8])
@pytest.mark.parametrize("m", [1, 2])
def test_recursion_closure(k, m):
    N = 120
    a = {n: pi_coefficient(k, m, n) for n in range(2, N + 1)}
    a[1] = Fraction(0)
    b = {n: basis_coefficient(k, m, k, n) for n in range(1, N + 1)}
    c = {n: basis_coefficient(k, m, k + 1, n) for n in range(1, N + 1)}
    if m == 1:
        for n in range(2, N):
            assert (n - 1) ** (k + 1) * a[n - 1] + n ** k * (2 * n - 1) * a[n] \
                + n * (n + 1) ** k * a[n + 1] == 0
            assert (n - 1) ** k * n * b[n - 1] + n ** k * (2 * n + 1) * b[n] \
                + (n + 1) ** (k + 1) * b[n + 1] == 0
            assert (n + 1) ** (k + 1) * c[n + 1] + n ** k * (2 * n + 1) * c[n] \
                + (n - 1) ** k * n * c[n - 1] \
                + Fraction((-1) ** (n + 1) * k * factorial(k + 1), n * (n - 1)) == 0
    else:
        d = {n: basis_coefficient(k, m, k + 2, n) for n in range(1, N + 1)}
        for n in range(2, N):
            q = n ** k * (2 * n * n + 2 * n + 1)
            assert (n - 1) ** (k + 2) * a[n - 1] \
                + n ** k * (2 * n * n - 2 * n + 1) * a[n] \
                + n * n * (n + 1) ** k * a[n + 1] == 0
            assert (n - 1) ** k * n * n * b[n - 1] + q * b[n] \
                + (n + 1) ** (k + 2) * b[n + 1] == 0
            assert (n + 1) ** (k + 2) * c[n + 1] + q * c[n] \
                + (n - 1) ** k * n * n * c[n - 1] \
                + Fraction((-1) ** (n + 1) * k * factorial(k + 1), n * (n - 1)) == 0
            assert (n + 1) ** (k + 2) * d[n + 1] + q * d[n] \
                + (n - 1) ** k * n * n * d[n - 1] \
                + Fraction((-1) ** n * k * (k + 1) * factorial(k + 2)
                           * (2 * n * n - 1),
                           2 * n * n * (n - 1) ** 2) == 0
    # the check reads the rows the series and the basis built
    series, basis = pi_series(k, m, N), canonical_basis(k, m, N)
    assert list(series.blocks[0][1:]) == [a[n] for n in range(1, N + 1)]
    assert [list(element.blocks[0][1:]) for element in basis[k:]] \
        == [[f[n] for n in range(1, N + 1)] for f in ((b, c) if m == 1 else (b, c, d))]
    assert recursion_closure_violations(k, m, series, basis) == []
    assert basis_violations(k, m, N) == []


@pytest.mark.parametrize("call", [
    lambda k: operator_order(k, 1),
    lambda k: pf_operator(k, 2),
    lambda k: canonical_basis(k, 1, 10),
    lambda k: circle.basis_moment(k, 1, 0, 0),
    lambda k: identities.eval_basis_at(k, 1, 0, -1),
], ids=["operator_order", "pf_operator", "canonical_basis", "basis_moment",
        "eval_basis_at"])
@pytest.mark.parametrize("k", [1, 0, -2])
def test_public_functions_reject_k_below_two(call, k):
    with pytest.raises(ValueError, match="k must be >= 2"):
        call(k)


@pytest.mark.parametrize("k,m", [(2, 1), (5, 2)])
def test_basis_index_check_has_one_message(k, m):
    # upper_block_specs owns the check; both boundary and moment callers
    # pass its ValueError through unchanged
    for i in (-1, operator_order(k, m)):
        with pytest.raises(ValueError) as owner:
            pfseries.upper_block_specs(k, m, i)
        for call in (lambda: identities.eval_basis_at(k, m, i, -1),
                     lambda: circle.basis_moment(k, m, i, 0)):
            with pytest.raises(ValueError) as err:
                call()
            assert str(err.value) == str(owner.value)


@pytest.mark.parametrize("k,m", [(1, 1), (0, 1), (-3, 2), (3, 3), (3, 0)])
def test_recursion_closure_rejects_missing_family(k, m):
    # like pf_operator: a plain ValueError, not LevelOutOfRange from a lookup
    with pytest.raises(ValueError) as info:
        basis_violations(k, m, 60)
    assert type(info.value) is ValueError


@pytest.mark.parametrize("family,m", [("a", 1), ("a", 2), ("b", 1), ("b", 2),
                                      ("c", 1), ("c", 2), ("d", 2)])
def test_recursion_closure_reports_a_perturbed_coefficient(family, m,
                                                           monkeypatch):
    # f[n0] enters the residuals at n0-1, n0 and n0+1 and no others
    k, n0 = 4, 17
    if family == "a":
        original = pfseries.pi_coefficient
        monkeypatch.setattr(pfseries, "pi_coefficient", lambda k_, m_, n: (
            original(k_, m_, n) + (Fraction(1, 7) if n == n0 else 0)))
    else:
        level = k + "bcd".index(family)
        original = pfseries.basis_coefficient
        monkeypatch.setattr(pfseries, "basis_coefficient", lambda k_, m_, lv, n: (
            original(k_, m_, lv, n) + (Fraction(1, 7) if (lv, n) == (level, n0)
                                       else 0)))
    expected = [f"{family}-recursion fails at (k={k}, m={m}, n={n})"
                for n in (n0 - 1, n0, n0 + 1)]
    assert recursion_closure_violations(k, m, pi_series(k, m, 40),
                                        canonical_basis(k, m, 40)) == expected
    assert basis_violations(k, m, 40)[:3] == expected


# -- Canonical basis ---------------------------------------------------------

def test_basis_constant_solution():
    basis = canonical_basis(3, 1, 20)
    w0 = basis[0]
    assert w0.blocks[0][0] == 1
    assert w0.is_zero() is False
    assert all(w0.blocks[0][n] == 0 for n in range(1, 21))


def test_basis_rewritten_block_example():
    # mixed element of the weight-2 family: log-free block coefficient is
    # 6 (-1)^n (-2 + n H_n) / n^3
    basis = canonical_basis(2, 1, 30)
    w3 = basis[3]
    for n in range(1, 31):
        expected = 6 * Fraction((-1) ** n) * (-2 + n * harmonic(n, 1)) / n ** 3
        assert w3.blocks[0][n] == expected


def test_basis_m2_log2_block():
    # (k=3, m=2): the log^2 block of the top element starts with
    # binom(5,2) * 3! * (-1) = -60
    basis = canonical_basis(3, 2, 10)
    top = basis[5]
    assert top.blocks[2][1] == comb(5, 2) * factorial(3) * (-1) == -60
    assert top.blocks[5][0] == 1


@pytest.mark.parametrize("k,m", [(2, 1), (4, 1), (3, 2), (5, 2)])
def test_basis_forms_agree(k, m):
    # the upper blocks come from upper_block_specs in both forms, and the
    # pure log powers i < k carry no series, so the log-free rows of the
    # mixed elements are all the forms can differ in
    N = 80
    basis = canonical_basis(k, m, N)
    for i, element in enumerate(basis):
        specs = bottom_block_rewritten(k, m, i)  # () for i < k
        expected = [Fraction(i == 0)] + [sum(spec.coefficient(n) for spec in specs)
                                         for n in range(1, N + 1)]
        assert list(element.blocks[0]) == expected, i
    assert basis_violations(k, m, N) == []


@pytest.mark.parametrize("k,m", [(3, 1), (4, 2)])
def test_basis_forms_differ_for_a_perturbed_rewritten_block(k, m, monkeypatch):
    # the check must see a change in the log-free block of each mixed
    # element, and report it once however many elements differ
    original = pfseries.bottom_block_rewritten
    N = 40
    mixed = range(k, operator_order(k, m))
    for bad in [{i} for i in mixed] + [set(mixed)]:
        def perturbed(k_, m_, i, bad=bad):
            specs = original(k_, m_, i)
            if i in bad:
                specs += (PureAltSeries(Fraction(1, 3), k_ + 4),)
            return specs

        monkeypatch.setattr(pfseries, "bottom_block_rewritten", perturbed)
        assert basis_violations(k, m, N) == [f"basis forms disagree for ({k},{m})"]
    monkeypatch.setattr(pfseries, "bottom_block_rewritten", original)
    assert basis_violations(k, m, N) == []


@pytest.mark.parametrize("k,m", [(4, 1), (3, 2)])
def test_basis_violations_builds_each_coefficient_once(k, m, monkeypatch):
    calls = Counter()
    basis_original, pi_original = pfseries.basis_coefficient, pfseries.pi_coefficient

    def counted_basis(k_, m_, level, n):
        calls[level, n] += 1
        return basis_original(k_, m_, level, n)

    def counted_pi(k_, m_, n):
        calls[n] += 1
        return pi_original(k_, m_, n)

    monkeypatch.setattr(pfseries, "basis_coefficient", counted_basis)
    monkeypatch.setattr(pfseries, "pi_coefficient", counted_pi)
    N = 30
    assert basis_violations(k, m, N) == []
    expected = Counter({(level, n): 1 for level in range(k, k + m + 1)
                        for n in range(1, N + 1)})
    expected.update(range(2, N + 1))
    assert calls == expected


def test_basis_blocks_are_rational():
    for series in canonical_basis(3, 2, 15):
        for block in series.blocks:
            assert all(isinstance(c, Fraction) for c in block)


# -- Operator application ----------------------------------------------------

@pytest.mark.parametrize("k,m", [(2, 1), (3, 1), (2, 2), (4, 2)])
def test_annihilation_smoke(k, m):
    N = 60
    op = pf_operator(k, m, CHART_INV)
    for element in canonical_basis(k, m, N):
        image = apply_operator(op, element)
        assert image.is_zero()
    op_phi = pf_operator(k, m, CHART_PHI)
    image = apply_operator(op_phi, pi_series(k, m, N))
    assert image.is_zero()


def test_annihilation_detects_wrong_series():
    # images are exact through the truncation order, so a wrong coefficient
    # shows in the last columns too
    N = 30
    op = pf_operator(2, 1, CHART_PHI)
    series = pi_series(2, 1, N)
    for n0 in (7, N - 1, N):
        blocks = [list(series.blocks[0])]
        blocks[0][n0] += Fraction(1, 3)
        corrupted = LogSeries(CHART_PHI, (tuple(blocks[0]),))
        image = apply_operator(op, corrupted)
        assert not image.is_zero(), n0


def test_apply_operator_chart_mismatch():
    op = pf_operator(2, 1, CHART_PHI)
    with pytest.raises(ChartMismatch):
        apply_operator(op, canonical_basis(2, 1, 10)[0])


def test_apply_operator_zero_series():
    op = pf_operator(2, 1, CHART_INV)
    zero = LogSeries(CHART_INV, (pfseries._zero_row(15),) * 3)
    image = apply_operator(op, zero)
    assert image.is_zero()


@pytest.mark.parametrize("blocks", [
    ((Fraction(0),) * 5, (Fraction(1),) * 3),   # ragged: lengths 5 and 3
    ((Fraction(1),) * 4, (Fraction(1),) * 2),   # lengths 4 and 2
    (),                                         # no blocks
], ids=["ragged-5-3", "ragged-4-2", "empty"])
def test_apply_operator_rejects_malformed_series(blocks):
    s = LogSeries(CHART_PHI, blocks)
    with pytest.raises(ValueError, match="one or more blocks of one length"):
        apply_operator(pf_operator(2, 1, CHART_PHI), s)


def test_theta_action():
    # theta(x^n log^d) = n x^n log^d + d x^n log^(d-1)
    s = LogSeries(CHART_INV, ((0, 0, 0), (0, 0, 1)))  # x^2 log x
    t = s.theta()
    assert t.blocks[1][2] == 2
    assert t.blocks[0][2] == 1


@pytest.mark.parametrize("blocks", [
    ((1, 2, 3), (4, 5)),   # upper block shorter
    ((1, 2), (3, 4, 5)),   # upper block longer: was cut silently
    (),
], ids=["short-upper", "long-upper", "empty"])
def test_theta_rejects_ragged_blocks(blocks):
    with pytest.raises(ValueError, match="one or more blocks of one length"):
        LogSeries(CHART_PHI, blocks).theta()


@settings(max_examples=25)
@given(st.integers(2, 6), st.sampled_from([1, 2]), st.integers(0, 3))
def test_linearity_of_operator(k, m, i):
    N = 25
    op = pf_operator(k, m, CHART_INV)
    basis = canonical_basis(k, m, N)
    element = basis[i % len(basis)]

    def add(s, t):
        return tuple(tuple(x + y for x, y in zip(a, b)) for a, b in zip(s, t))

    doubled = apply_operator(op, LogSeries(CHART_INV, add(element.blocks, element.blocks)))
    single = apply_operator(op, element).blocks
    assert doubled.blocks == add(single, single)


def _apply_reference(op, s):
    """The operator on Fraction rows: theta() powers, each multiplied by its
    coefficient polynomial and added, truncated at the series' order."""
    trunc = s.trunc
    blocks = [[Fraction(0)] * (trunc + 1)]
    power = s
    for j, poly in enumerate(op.coeffs):
        if j > 0:
            power = power.theta()
        if not any(poly):
            continue
        while len(blocks) < len(power.blocks):
            blocks.append([Fraction(0)] * (trunc + 1))
        for d, block in enumerate(power.blocks):
            for e, c in enumerate(poly):
                for n in range(trunc + 1 - e):
                    blocks[d][n + e] += c * block[n]
    return LogSeries(s.chart, tuple(tuple(b) for b in blocks))


@st.composite
def _operator_and_series(draw):
    chart = draw(st.sampled_from([CHART_PHI, CHART_INV]))
    if draw(st.booleans()):
        op = pf_operator(draw(st.integers(2, 5)), draw(st.sampled_from([1, 2])),
                         chart)
    else:
        polys = st.lists(st.integers(-4, 4), max_size=4).map(tuple)
        coeffs = tuple(draw(st.lists(polys, min_size=1, max_size=5)))
        op = PFOperator(len(coeffs) - 1, chart, coeffs)
    trunc = draw(st.integers(4, 10))
    log_degree = draw(st.integers(0, 4))
    # one denominator per entry, so that columns have different denominators;
    # all-zero blocks, both the shared zero row and a fresh one, which the
    # operator passes over, also between live blocks; and blocks whose one
    # nonzero entry is at x^0, the shape of a pure log power
    fraction = st.builds(Fraction, st.integers(-50, 50), st.integers(1, 60))
    entries = st.lists(fraction, min_size=trunc + 1, max_size=trunc + 1)
    constant = fraction.filter(bool).map(lambda c: (c,) + (Fraction(0),) * trunc)
    row = st.one_of(st.just(pfseries._zero_row(trunc)),
                    st.just((Fraction(0),) * (trunc + 1)), constant, entries)
    blocks = tuple(tuple(draw(row)) for _ in range(log_degree + 1))
    return op, LogSeries(chart, blocks)


@settings(max_examples=100, deadline=None)
@given(_operator_and_series())
def test_apply_operator_matches_fraction_reference(case):
    op, s = case
    image = apply_operator(op, s)
    expected = _apply_reference(op, s)
    assert image == expected
    assert all(isinstance(c, Fraction) for b in image.blocks for c in b)


@pytest.mark.parametrize("k", [12, 20])
@pytest.mark.parametrize("m", [1, 2])
def test_apply_operator_matches_reference_on_the_basis(k, m):
    # pure log power i is one unit block above i absent ones, and the mixed
    # elements have absent blocks between their live series rows and the
    # unit block on top
    op = pf_operator(k, m, CHART_INV)
    for i, element in enumerate(canonical_basis(k, m, 12)):
        assert apply_operator(op, element) == _apply_reference(op, element), i


def test_apply_operator_keeps_cancelled_top_block():
    # (theta - 1)(x log x) = x + x log x - x log x = x: the log^1 block of
    # the image cancels to zero but stays, as the theta power had it
    s = LogSeries(CHART_PHI, ((Fraction(0),) * 6, tuple(map(Fraction, (0, 1, 0, 0, 0, 0)))))
    op = PFOperator(1, CHART_PHI, ((-1,), (1,)))
    image = apply_operator(op, s)
    assert image.blocks == ((0, 1, 0, 0, 0, 0), (0,) * 6)
    assert image == _apply_reference(op, s)


@pytest.mark.parametrize("coeffs,blocks", [
    (((1,), (0, 1)), 3),   # p_0 != 0 keeps every block of the zero input
    (((), (0, 1)), 1),     # theta drops the trailing zero blocks
])
def test_apply_operator_zero_series_block_count(coeffs, blocks):
    zero = LogSeries(CHART_INV, (pfseries._zero_row(8),) * 3)
    op = PFOperator(1, CHART_INV, coeffs)
    image = apply_operator(op, zero)
    assert len(image.blocks) == blocks
    assert image == _apply_reference(op, zero)
