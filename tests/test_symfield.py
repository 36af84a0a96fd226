"""Tests for the exact coefficient field."""

import json
import threading
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dzeta import symfield as sf
from dzeta.circle import log_moment
from dzeta.symfield import (SymNumber, ZetaMonomial, bernoulli,
                            even_zeta_as_pi_power, render, zeta_value)


# -- Bernoulli numbers -------------------------------------------------------

def akiyama_tanigawa(n):
    """Independent oracle for B_n (adjusted to the B_1 = -1/2 convention)."""
    a = [Fraction(0)] * (n + 1)
    for m in range(n + 1):
        a[m] = Fraction(1, m + 1)
        for j in range(m, 0, -1):
            a[j - 1] = j * (a[j - 1] - a[j])
    return -a[0] if n == 1 else a[0]


@pytest.mark.parametrize("n", [0, 1, 2, 4, 6, 8, 10, 12, 20, 30])
def test_bernoulli_against_independent_recurrence(n):
    assert bernoulli(n) == akiyama_tanigawa(n)


def test_bernoulli_examples():
    assert bernoulli(0) == 1
    assert bernoulli(1) == Fraction(-1, 2)
    assert bernoulli(2) == Fraction(1, 6)
    assert bernoulli(12) == Fraction(-691, 2730)


@pytest.mark.parametrize("n", [3, 5, 7, 9, 11, 25])
def test_bernoulli_odd_vanishes(n):
    assert bernoulli(n) == 0


def test_bernoulli_concurrent_growth():
    results = []

    def worker(n):
        results.append((n, bernoulli(n)))

    threads = [threading.Thread(target=worker, args=(n,))
               for n in (40, 60, 80, 100) * 4]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    for n, value in results:
        assert value == bernoulli(n)


# -- Even zeta normalization -------------------------------------------------

@pytest.mark.parametrize("n,coeff", [
    (1, Fraction(1, 6)),
    (2, Fraction(1, 90)),
    (5, Fraction(1, 93555)),
])
def test_even_zeta_as_pi_power(n, coeff):
    expected = SymNumber.pi_power(2 * n, coeff)
    assert even_zeta_as_pi_power(n) == expected


def test_even_zeta_matches_independent_bernoulli():
    for n in range(1, 8):
        coeff = Fraction((-1) ** (n + 1)) * akiyama_tanigawa(2 * n) \
            * 2 ** (2 * n) / (2 * _factorial(2 * n))
        assert even_zeta_as_pi_power(n) == SymNumber.pi_power(2 * n, coeff)


def _factorial(n):
    out = 1
    for j in range(2, n + 1):
        out *= j
    return out


@pytest.mark.parametrize("n", range(1, 7))
def test_even_zeta_render_roundtrip(n):
    assert render(even_zeta_as_pi_power(n), "plain", "even-zeta") == f"zeta({2 * n})"


# -- Arithmetic --------------------------------------------------------------

def test_sym_arith_examples():
    z3 = zeta_value(3)
    assert (z3 + -z3).is_zero()
    prod = zeta_value(2) * z3
    assert render(prod) == "1/6*pi^2*zeta(3)"
    assert prod == zeta_value(2) * zeta_value(3)


def test_division_rules():
    x = zeta_value(3) * Fraction(3, 4)
    assert x / Fraction(3, 4) == zeta_value(3)
    with pytest.raises(ValueError):
        _ = x / zeta_value(3)  # not a pure rational divisor
    assert (x * zeta_value(5)).exact_div(zeta_value(5)) == x
    with pytest.raises(sf.ExactDivisionError):
        (zeta_value(3) + SymNumber.from_rational(1)).exact_div(zeta_value(5))


# -- Property tests over random values -------------------------------------

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=20)


@st.composite
def sym_numbers(draw):
    total = SymNumber.zero()
    for _ in range(draw(st.integers(0, 3))):
        pi_exp = draw(st.integers(0, 4))
        zetas = draw(st.lists(
            st.tuples(st.sampled_from([3, 5, 7]), st.integers(1, 2)),
            max_size=2))
        merged = {}
        for s, e in zetas:
            merged[s] = merged.get(s, 0) + e
        mono = ZetaMonomial(pi_exp, tuple(sorted(merged.items())))
        # the field holds c * i^e * pi^e, i.e. c * P^e with P = i*pi
        total = total + SymNumber.from_term(mono, draw(rationals))
    return total


@settings(max_examples=60)
@given(sym_numbers(), sym_numbers(), sym_numbers())
def test_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a * (b + c) == a * b + a * c
    assert (a * b) * c == a * (b * c)
    assert (a + b) - b == a


@settings(max_examples=40)
@given(sym_numbers(), sym_numbers())
def test_exact_division_roundtrip(a, b):
    if b.is_zero():
        return
    assert (a * b).exact_div(b) == a


@settings(max_examples=40)
@given(sym_numbers())
def test_conjugation_involution(a):
    assert a.conjugate().conjugate() == a
    assert (a + a.conjugate()).imag_part().is_zero()


@st.composite
def monomials(draw):
    zetas = {}
    for _ in range(draw(st.integers(0, 3))):
        s = draw(st.sampled_from([3, 5, 7, 9]))
        zetas[s] = zetas.get(s, 0) + draw(st.integers(1, 2))
    return ZetaMonomial(draw(st.integers(0, 4)), tuple(sorted(zetas.items())))


@settings(max_examples=150)
@given(monomials(), monomials(), monomials())
def test_term_order_is_multiplicative(a, b, c):
    # exact division counts on: a < b implies a*c < b*c
    ka, kb = sf._mono_sort_key(a), sf._mono_sort_key(b)
    if ka == kb:
        return
    kac = sf._mono_sort_key(a.mul(c))
    kbc = sf._mono_sort_key(b.mul(c))
    assert (ka < kb) == (kac < kbc)


# -- Rendering ---------------------------------------------------------------

def test_render_examples():
    tau41_1 = zeta_value(4) * Fraction(-7, 4)
    assert render(tau41_1, "plain", "even-zeta") == "-7/4*zeta(4)"
    assert render(SymNumber.zero()) == "0"
    assert render(zeta_value(2) * zeta_value(3), "plain", "pi-power") \
        == "1/6*pi^2*zeta(3)"


def test_render_multi_term_ordering():
    value = zeta_value(7) * 3 - zeta_value(2) * zeta_value(5) \
        - zeta_value(3) * zeta_value(4)
    assert render(value, "plain", "even-zeta") \
        == "3*zeta(7) - zeta(2)*zeta(5) - zeta(3)*zeta(4)"


def test_render_latex():
    assert render(zeta_value(4) * Fraction(-7, 4), "latex", "even-zeta") \
        == r"-\frac{7}{4}\zeta(4)"
    # imaginary coefficients of pi^e for e = 1 and 3 (mod 4)
    assert render(SymNumber.p_power(1, Fraction(1, 2)), "latex") \
        == r"\frac{1}{2}i\pi"
    assert render(SymNumber.p_power(3, Fraction(1, 2)), "latex") \
        == r"-\frac{1}{2}i\pi^{3}"


def test_render_odd_pi_power_keeps_one_pi():
    # i*pi^3/2 = 3 * i * pi * zeta(2) after regrouping the even part
    v = SymNumber.p_power(3, Fraction(-1, 2))
    assert render(v, "plain", "even-zeta") == "3*i*pi*zeta(2)"


def test_json_schema_shape():
    x = zeta_value(2) * zeta_value(3) + zeta_value(5) * Fraction(1, 2)
    data = sf.to_json_dict(x)
    assert set(data) == {"terms"}
    for term in data["terms"]:
        assert set(term) == {"coeff", "pi", "zeta", "unknown"}
        assert term["unknown"] is None  # the ring holds known values only
        assert set(term["coeff"]) == {"re", "im"}
    assert sf.from_json_dict(data) == x
    # deterministic dump
    assert json.dumps(data, sort_keys=True) == json.dumps(sf.to_json_dict(x),
                                                          sort_keys=True)


def test_weight_grading():
    x = zeta_value(2) * zeta_value(3)
    (mono, _), = x.terms()
    assert mono.weight == 5
    assert zeta_value(5).is_homogeneous(5)
    assert x.is_homogeneous(5)
    assert not (x + zeta_value(3)).is_homogeneous(5)


# -- The field Q[P, zeta(3), ...] with P = i*pi ------------------------------

def _json_term(re="1", im="0", pi=0, zeta=None, unknown=None):
    return {"coeff": {"re": re, "im": im}, "pi": pi, "zeta": zeta or {},
            "unknown": unknown}


def test_coefficients_outside_the_field_raise():
    # a real coefficient of an odd pi power, and i itself, are not c * i^e
    with pytest.raises(ValueError):
        SymNumber.pi_power(3, Fraction(1, 2))
    with pytest.raises(ValueError):
        sf.from_json_dict({"terms": [_json_term(re="0", im="1")]})


# coefficient parts that `Fraction` reads but `to_json_dict` never writes
_NON_CANONICAL_PARTS = {
    "zero-denominator": "1/0", "exponent": "1e3", "decimal": "0.5",
    "not-lowest": "2/4", "unit-denominator": "3/1", "plus-sign": "+1",
    "spaces": " 1 ", "underscore": "1_000", "arabic-indic-one": "\u0661",
}


@pytest.mark.parametrize("data", [{"terms": [term]} for term in (
    _json_term(pi=-2, re="-1"),
    _json_term(pi=1.0, im="1"),
    _json_term(zeta={"2": 1}),  # even zeta values are P powers
    _json_term(zeta={"1": 1}),
    _json_term(zeta={"03": 1}),
    _json_term(zeta={"3": 0}),  # would not equal 1
    _json_term(zeta={"3": -1}),
    _json_term(unknown={"kind": "foo", "k": 2, "m": 1}),
    _json_term(pi=1, re="1"),  # a rational multiple of pi
    _json_term(pi=2, re="-1", im="1"),
    {"coeff": {"re": "1", "im": "0"}},
    {"zeta": {}},
    {"coeff": {"re": "1"}, "zeta": {}},
    _json_term(unknown={"k": 2, "m": 1}),
    _json_term(unknown={"kind": "dzv", "k": "x", "m": 1}),
    _json_term(unknown={"kind": "dzv", "k": 1, "m": 7}),
    _json_term(unknown={"kind": "alt", "k": 3, "m": 0}),
    _json_term(unknown={"kind": "dzv", "k": 2.0, "m": 1}),
    _json_term(unknown={"kind": "dzv", "k": 2, "m": 1}),  # a well-formed label
    _json_term(pi=True, re="0", im="1"),  # bool is an int subclass in Python
    _json_term(zeta={"3": True}),
    _json_term(re=0.5),  # the schema writes strings
    _json_term(re=True),
    _json_term(re=1),
    _json_term(im=0.0),
    _json_term(re="0"),  # to_json_dict drops zero terms
    *(_json_term(re=part) for part in _NON_CANONICAL_PARTS.values()),
    *(_json_term(pi=1, re="0", im=part) for part in _NON_CANONICAL_PARTS.values()),
    _json_term(pi=1, re="-0", im="1"),
    _json_term(re="1", im="-0"),
)] + [
    {},
    {"terms": [_json_term(zeta={"3": 1})] * 2},  # would read as 2*zeta(3)
], ids=["negative-pi", "float-pi", "even-zeta", "zeta-1", "zeta-key-03",
        "zeta-exp-0", "zeta-exp-negative", "unknown-kind", "real-odd-pi",
        "complex-even-pi", "no-zeta", "no-coeff", "no-coeff-im",
        "unknown-no-kind", "unknown-k-text", "unknown-k-1", "unknown-m-0",
        "unknown-k-float", "unknown-label", "bool-pi", "bool-zeta-exp",
        "float-re", "bool-re", "int-re", "float-im", "zero-coeff",
        *(f"re-{name}" for name in _NON_CANONICAL_PARTS),
        *(f"im-{name}" for name in _NON_CANONICAL_PARTS),
        "re-negative-zero", "im-negative-zero",
        "no-terms", "repeated-monomial"])
def test_non_canonical_json_raises(data):
    with pytest.raises(ValueError):
        sf.from_json_dict(data)


@pytest.mark.parametrize("d,re,im", [
    (0, "1", "0"), (1, "0", "1"), (2, "-1", "0"),
    (3, "0", "-1"), (4, "1", "0"), (5, "0", "1"),
])
def test_json_of_i_pi_powers(d, re, im):
    x = SymNumber.p_power(d)
    if d % 2 == 0:
        assert x == SymNumber.pi_power(d, (-1) ** (d // 2))
    else:
        with pytest.raises(ValueError):
            SymNumber.pi_power(d)
    (term,) = sf.to_json_dict(x)["terms"]
    assert term["coeff"] == {"re": re, "im": im}
    assert term["pi"] == d
    assert sf.from_json_dict(sf.to_json_dict(x)) == x


@settings(max_examples=40)
@given(sym_numbers())
def test_json_roundtrip_with_odd_p_powers(a):
    x = a + SymNumber.p_power(3, Fraction(-5, 7)) * zeta_value(3)
    assert sf.from_json_dict(sf.to_json_dict(x)) == x


def _gaussian_terms(x):
    return {mono: (c.re, c.im) for mono, c in x.terms()}


@pytest.mark.parametrize("p", [-3, -1, 0, 1, 2, 5])
@pytest.mark.parametrize("j", range(0, 8))
@pytest.mark.parametrize("twist", [0, 1])
def test_parity_checks_match_gaussian_meaning(p, j, twist):
    # the moments are real; times 1 + i*pi they mix both parities
    x = log_moment(p, j) * (SymNumber.p_power(1, twist) + 1)
    gauss = _gaussian_terms(x)
    assert x.is_real() == all(im == 0 for _, im in gauss.values())
    # imag_part() keeps i * Im(x): exactly the terms with a nonzero im part
    assert {m: im for m, (_, im) in _gaussian_terms(x.imag_part()).items()} \
        == {m: im for m, (_, im) in gauss.items() if im}
    assert x.imag_part().is_zero() == x.is_real()
    assert _gaussian_terms(x.conjugate()) \
        == {m: (re, -im) for m, (re, im) in gauss.items()}
