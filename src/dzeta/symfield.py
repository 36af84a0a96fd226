"""Exact arithmetic in the ring Q[P, zeta(3), zeta(5), ...] with P = i*pi.

Values are sparse sums of monomials ``P^e * zeta(s1)^e1 * ...`` with plain
`Fraction` coefficients.  Every value the pipeline builds has the form
rational * i^e * pi^e (the log-moment boundary terms are (i pi)^(d-1),
log(-1)^d = (i pi)^d, and even zeta values are rational multiples of
P^(2n)), so no coefficient ever needs Q(i): a value is real exactly when all
its P exponents are even, and complex conjugation negates the odd-P terms.

Even zeta values never appear as generators: they are normalized into P
powers through Bernoulli numbers, so structural equality of two values is
decidable by comparing their term maps.  The ring holds known values only:
the double zeta value or alternating sum that an identity solves for never
enters it.  `identities` carries that unknown's rational coefficient beside
the ring value and divides by it once, and `Unknown` is only the label of the
solved-for quantity.

Q is the only coefficient field.  The coefficient of pi^e is c * i^e, which
is +-c or +-c*i; `_i_sign` is the one place that sign is written.  Rendering
prints pi powers, `terms` hands out the pi^e coefficient as a
`GaussianRational` record of its ``re``/``im`` parts, and the JSON schema
stores those parts as strings.  `from_json_dict`, the reader for data from
outside the program, is the only code that turns such a pair back into a
rational coefficient, and it rejects one that is not a rational multiple of
i^e.

Monomials are treated as formally independent generators; no algebraic
relations between pi and the odd zeta values are assumed anywhere.
"""

from __future__ import annotations

import functools
import re
from fractions import Fraction
from math import factorial
from typing import NamedTuple, Optional


class ExactDivisionError(ArithmeticError):
    """The requested ring division has a nonzero remainder."""


# ---------------------------------------------------------------------------
# Bernoulli numbers (convention B_1 = -1/2).

@functools.cache
def bernoulli(n: int) -> Fraction:
    """Bernoulli number B_n via sum_{j<=n} binom(n+1, j) B_j = 0.

    The sum asks for B_0, B_1, ... in ascending order, so on a cold memo each
    inner call finds its own predecessors cached and the recursion stays two
    frames deep.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        return Fraction(1)
    if n > 2 and n % 2 == 1:
        return Fraction(0)
    acc = Fraction(0)
    binom = 1  # binom(n+1, j), updated incrementally
    for j in range(n):
        acc += binom * bernoulli(j)
        binom = binom * (n + 1 - j) // (j + 1)
    return -acc / (n + 1)


class Unknown(NamedTuple):
    """The quantity an identity solves for: a double zeta value or an
    alternating sum.  A label, never a ring element."""

    kind: str  # "dzv" | "alt"
    k: int
    m: int

    def label(self) -> str:
        name = "zeta" if self.kind == "dzv" else "altsum"
        return f"{name}({self.k},{self.m})"


class ZetaMonomial(NamedTuple):
    """P^pi_exp times a product of odd zeta values.

    The exponent of P = i*pi is also the exponent of pi in the value."""

    pi_exp: int = 0
    zetas: tuple[tuple[int, int], ...] = ()  # ((s, exp), ...), s odd >= 3, ascending

    @property
    def weight(self) -> int:
        return self.pi_exp + sum(s * e for s, e in self.zetas)

    def mul(self, other: "ZetaMonomial") -> "ZetaMonomial":
        if not self.zetas:
            zetas = other.zetas
        elif not other.zetas:
            zetas = self.zetas
        else:
            merged = dict(self.zetas)
            for s, e in other.zetas:
                merged[s] = merged.get(s, 0) + e
            zetas = tuple(sorted(merged.items()))
        return ZetaMonomial(self.pi_exp + other.pi_exp, zetas)


ONE_MONO = ZetaMonomial()


def _mono_sort_key(mono: ZetaMonomial):
    """Graded lexicographic term order with variables pi > zeta(3) > zeta(5)...

    The zeta part is encoded as ((-s, e), ...) so that a positive exponent on
    an earlier variable beats its absence; plain structural comparison of the
    (s, e) tuples would not be multiplicative, which exact division needs.
    """
    return (mono.weight, mono.pi_exp, tuple((-s, e) for s, e in mono.zetas))


def _mono_divide(num: ZetaMonomial, den: ZetaMonomial) -> Optional[ZetaMonomial]:
    """num / den as a monomial, or None when not divisible."""
    if num.pi_exp < den.pi_exp:
        return None
    rest = dict(num.zetas)
    for s, e in den.zetas:
        have = rest.get(s, 0)
        if have < e:
            return None
        if have == e:
            del rest[s]
        else:
            rest[s] = have - e
    return ZetaMonomial(num.pi_exp - den.pi_exp, tuple(sorted(rest.items())))


class GaussianRational(NamedTuple):
    """The coefficient re + im*i of pi^e that `terms` hands across the
    boundary of the field: a record, not a field."""

    re: Fraction
    im: Fraction


def _i_sign(e: int) -> int:
    """The sign s with i^e = s or i^e = s*i: -1 when e mod 4 >= 2, else +1."""
    return -1 if e % 4 >= 2 else 1


class SymNumber:
    """Sparse map from ZetaMonomial to the Fraction coefficient of its P power.

    Zero terms are dropped.  A monomial's `pi_exp` counts powers of P = i*pi,
    so the term c * P^e stands for (c * i^e) * pi^e.  Values are never
    mutated in place, so memo tables (`zeta_value`, `circle.s_sum`,
    `identities.closed_sum`, `tausolver.log_part`, `tail`,
    `zero_mode_source`, `_weight`) share them.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Optional[dict] = None):
        self._terms = terms if terms is not None else {}

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls) -> "SymNumber":
        return cls({})

    @classmethod
    def from_rational(cls, value) -> "SymNumber":
        return cls.from_term(ONE_MONO, value)

    @classmethod
    def from_term(cls, mono: ZetaMonomial, coeff=1) -> "SymNumber":
        """coeff * mono for a rational coeff: the coefficient of P^e, not of
        pi^e."""
        c = Fraction(coeff)
        return cls({mono: c} if c else {})

    @classmethod
    def pi_power(cls, exp: int, coeff=1) -> "SymNumber":
        """coeff * pi^exp for a rational coeff and an even exp.

        An odd power of pi times a rational is not in the field (i*pi is), so
        an odd exp raises ValueError; use `p_power` for powers of P.
        """
        if exp % 2:
            raise ValueError(f"pi^{exp} is an odd power of pi, outside the field")
        return cls.p_power(exp, _i_sign(exp) * Fraction(coeff))

    @classmethod
    def p_power(cls, exp: int, coeff=1) -> "SymNumber":
        """coeff * P^exp = coeff * (i pi)^exp for a rational coeff."""
        return cls.from_term(ZetaMonomial(pi_exp=exp), coeff)

    # -- inspection ---------------------------------------------------------

    def terms(self) -> list:
        """(monomial, `GaussianRational` coefficient of its pi power) pairs."""
        zero = Fraction(0)
        out = []
        for m, c in self._terms.items():
            q = _i_sign(m.pi_exp) * c
            out.append((m, GaussianRational(zero, q) if m.pi_exp % 2
                        else GaussianRational(q, zero)))
        return out

    def __len__(self) -> int:
        """Number of monomials."""
        return len(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def is_scalar(self) -> bool:
        """True when the value is rational (no pi or zeta factors)."""
        return not self._terms or (len(self._terms) == 1 and ONE_MONO in self._terms)

    def is_real(self) -> bool:
        return all(m.pi_exp % 2 == 0 for m in self._terms)

    def imag_part(self) -> "SymNumber":
        """The odd-P terms: i times the imaginary part, which itself has
        real odd pi powers and so lies outside the field."""
        return SymNumber({m: c for m, c in self._terms.items() if m.pi_exp % 2})

    def is_homogeneous(self, weight: int) -> bool:
        """All terms of the given weight (the zero value is homogeneous)."""
        return all(m.weight == weight for m in self._terms)

    # -- ring operations ----------------------------------------------------

    def __add__(self, other) -> "SymNumber":
        other = _coerce_sym(other)
        if not other._terms:
            return self
        out = dict(self._terms)
        for mono, coeff in other._terms.items():
            cur = out.get(mono)
            if cur is None:
                out[mono] = coeff
            else:
                s = cur + coeff
                if not s:
                    del out[mono]
                else:
                    out[mono] = s
        return SymNumber(out)

    __radd__ = __add__

    def __neg__(self) -> "SymNumber":
        return SymNumber({m: -c for m, c in self._terms.items()})

    def __sub__(self, other) -> "SymNumber":
        return self + (-_coerce_sym(other))

    def __rsub__(self, other) -> "SymNumber":
        return _coerce_sym(other) + (-self)

    def __mul__(self, other) -> "SymNumber":
        if isinstance(other, (int, Fraction)):
            if not other:
                return SymNumber()
            return SymNumber({m: c * other for m, c in self._terms.items()})
        other = _coerce_sym(other)
        out: dict = {}
        for m1, c1 in self._terms.items():
            for m2, c2 in other._terms.items():
                mono = m1.mul(m2)
                coeff = c1 * c2
                cur = out.get(mono)
                if cur is None:
                    out[mono] = coeff
                else:
                    s = cur + coeff
                    if not s:
                        del out[mono]
                    else:
                        out[mono] = s
        return SymNumber(out)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "SymNumber":
        """Division by a nonzero rational value only."""
        if not isinstance(other, (int, Fraction)):
            other = _coerce_sym(other)
            if not other.is_scalar():
                raise ValueError("value is not a pure rational")
            other = other._terms.get(ONE_MONO, 0)
        if not other:
            raise ZeroDivisionError("division by zero")
        inv = 1 / Fraction(other)
        return SymNumber({m: c * inv for m, c in self._terms.items()})

    def exact_div(self, other: "SymNumber") -> "SymNumber":
        """Exact ring division; raises ExactDivisionError on nonzero remainder."""
        if other.is_zero():
            raise ZeroDivisionError("division by zero")
        if other.is_scalar():
            return self / other
        lead = max(other._terms, key=_mono_sort_key)
        lead_coeff = other._terms[lead]
        rem = dict(self._terms)
        out: dict = {}
        while rem:
            rmono = max(rem, key=_mono_sort_key)
            q_mono = _mono_divide(rmono, lead)
            if q_mono is None:
                raise ExactDivisionError(f"{rmono} not divisible by {lead}")
            q_coeff = rem[rmono] / lead_coeff
            out[q_mono] = out.get(q_mono, 0) + q_coeff
            for mono, coeff in other._terms.items():
                target = mono.mul(q_mono)
                cur = rem.get(target, 0) - coeff * q_coeff
                if not cur:
                    rem.pop(target, None)
                else:
                    rem[target] = cur
        return SymNumber({m: c for m, c in out.items() if c})

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = SymNumber.from_rational(other)
        if not isinstance(other, SymNumber):
            return NotImplemented
        return self._terms == other._terms

    __hash__ = None  # mutable-dict carrier; structural equality only

    def __repr__(self) -> str:
        return f"SymNumber({render(self)})"


def _coerce_sym(value) -> SymNumber:
    if isinstance(value, SymNumber):
        return value
    return SymNumber.from_rational(value)


# ---------------------------------------------------------------------------
# Zeta values as field elements.

def even_zeta_as_pi_power(n: int) -> SymNumber:
    """zeta(2n) = (-1)^(n+1) B_{2n} (2 pi)^(2n) / (2 (2n)!) as a pi-power."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return SymNumber.pi_power(2 * n, _even_zeta_pi_coeff(2 * n))


@functools.cache
def _even_zeta_pi_coeff(s: int) -> Fraction:
    """The rational coefficient of pi^s in zeta(s) for even s >= 2."""
    n = s // 2
    return Fraction((-1) ** (n + 1)) * bernoulli(s) * (2 ** s) / (2 * factorial(s))


@functools.cache
def zeta_value(s: int) -> SymNumber:
    """zeta(s) for integer s >= 2, in canonical form."""
    if s < 2:
        raise ValueError("zeta(s) requires s >= 2")
    if s % 2 == 0:
        return even_zeta_as_pi_power(s // 2)
    return SymNumber.from_term(ZetaMonomial(zetas=((s, 1),)))


# ---------------------------------------------------------------------------
# Rendering.

def _term_factors(mono: ZetaMonomial, style: str):
    """Factor list ((s, exp), ...) with pi encoded as s = 1; returns the
    residual coefficient multiplier coming from even-zeta regrouping."""
    factors = []
    multiplier = Fraction(1)
    p = mono.pi_exp
    if style == "even-zeta":
        if p >= 2:
            e = p - (p % 2)
            multiplier /= _even_zeta_pi_coeff(e)
            factors.append((e, 1))
            p -= e
    if p:
        factors.append((1, p))
    factors.extend(mono.zetas)
    factors.sort()
    return factors, multiplier


def _coeff_text(q: Fraction, imag: bool, fmt: str) -> str:
    """q or q*i as text for q > 0; empty string for the real value one."""
    if q == 1:
        return "i" if imag else ""
    if fmt == "latex" and q.denominator != 1:
        text = rf"\frac{{{q.numerator}}}{{{q.denominator}}}"
    else:
        text = str(q)
    if imag:
        text += "*i" if fmt == "plain" else "i"
    return text


def _factor_text(s: int, e: int, fmt: str) -> str:
    if fmt == "latex":
        base = r"\pi" if s == 1 else rf"\zeta({s})"
        return base if e == 1 else base + rf"^{{{e}}}"
    base = "pi" if s == 1 else f"zeta({s})"
    return base if e == 1 else f"{base}^{e}"


def render(x: SymNumber, fmt: str = "plain", style: str = "pi-power") -> str:
    """Deterministic text for a SymNumber.

    `even-zeta` regroups pi^(2n) into zeta(2n) greedily by descending weight,
    matching the tables this library reproduces; `pi-power` prints the
    canonical internal form.
    """
    if fmt not in ("plain", "latex"):
        raise ValueError(f"unknown format {fmt!r}")
    if style not in ("pi-power", "even-zeta"):
        raise ValueError(f"unknown style {style!r}")
    if x.is_zero():
        return "0"

    rendered = []
    for mono, coeff in x._terms.items():
        factors, multiplier = _term_factors(mono, style)
        # c * P^e = (c * i^e) * pi^e: the pi coefficient is +-c or +-c*i
        q = _i_sign(mono.pi_exp) * coeff * multiplier
        rendered.append((len(factors), tuple(factors), q, mono.pi_exp % 2 == 1))
    rendered.sort(key=lambda r: (r[0], r[1]))

    pieces = []
    for _, factors, q, imag in rendered:
        sign = -1 if q < 0 else 1
        mag = abs(q)
        bits = []
        text = _coeff_text(mag, imag, fmt)
        if text:
            bits.append(text)
        bits.extend(_factor_text(s, e, fmt) for s, e in factors)
        if not bits:  # pure rational term with |coeff| == 1
            bits = [str(mag)]
        body = ("" if fmt == "latex" else "*").join(bits)
        if not pieces:
            pieces.append(("-" if sign < 0 else "") + body)
        else:
            pieces.append(("- " if sign < 0 else "+ ") + body)
    return " ".join(pieces)


# ---------------------------------------------------------------------------
# JSON serialization (schema shared with the CLI catalog files).

def _fraction_str(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}" if q.denominator != 1 else str(q.numerator)


# what `_fraction_str` writes; `Fraction` alone also reads exponents (and
# builds 10^e for "1e<e>"), decimals, spaces, underscores and non-ASCII digits
_FRACTION_TEXT = re.compile(r"-?(0|[1-9][0-9]*)(/[1-9][0-9]*)?")


def to_json_dict(x: SymNumber) -> dict:
    terms = []
    for mono, coeff in sorted(x.terms(), key=lambda kv: _mono_sort_key(kv[0]),
                              reverse=True):
        terms.append({
            "coeff": {"re": _fraction_str(coeff.re), "im": _fraction_str(coeff.im)},
            "pi": mono.pi_exp,
            "zeta": {str(s): e for s, e in mono.zetas},
            "unknown": None,  # kept in the schema; the ring has no unknowns
        })
    return {"terms": terms}


def _check_keys(obj: dict, keys: tuple) -> None:
    if obj.keys() != set(keys):
        raise ValueError(f"keys {list(obj)!r} are not {list(keys)!r}")


def from_json_dict(data: dict) -> SymNumber:
    """Read back a value written by `to_json_dict`.

    This reads data from outside the program, so it accepts only canonical
    terms and raises ValueError on any other: a pi exponent that is not an
    integer >= 0, a zeta key that is not an odd integer >= 3 written in
    decimal, a zeta exponent below 1, an ``unknown`` other than null (the ring
    holds known values only), a re/im pair that is not a rational multiple of
    i^e and so lies outside the field, a zero coefficient, a monomial given
    twice, a coefficient part other than the ASCII ``n`` or ``n/d`` in lowest
    terms that `to_json_dict` writes, or a missing, extra or mistyped key.
    """
    out = {}
    try:
        _check_keys(data, ("terms",))
        for term in data["terms"]:
            _check_keys(term, ("coeff", "pi", "zeta", "unknown"))
            _check_keys(term["coeff"], ("re", "im"))
            e = term["pi"]
            if type(e) is not int or e < 0:
                raise ValueError(f"pi exponent {e!r} is not an integer >= 0")
            zetas = []
            for key, exp in term["zeta"].items():
                s = int(key)
                if key != str(s) or s < 3 or s % 2 == 0:
                    raise ValueError(f"zeta({key}) is not an odd zeta value >= 3")
                if type(exp) is not int or exp < 1:
                    raise ValueError(f"exponent {exp!r} of zeta({key}) is not >= 1")
                zetas.append((s, exp))
            if term["unknown"] is not None:
                raise ValueError(f"unknown {term['unknown']!r} in a known value")
            parts = term["coeff"]["re"], term["coeff"]["im"]
            if not all(isinstance(part, str) and _FRACTION_TEXT.fullmatch(part)
                       for part in parts):
                raise ValueError(f"coefficient {parts!r} is not two fractions")
            re, im = map(Fraction, parts)
            if (_fraction_str(re), _fraction_str(im)) != parts:
                raise ValueError(f"coefficient {parts!r} is not in canonical form")
            # the pi^e coefficient c * i^e is real for even e, imaginary for odd e
            c, rest = (im, re) if e % 2 else (re, im)
            if rest:
                raise ValueError(f"coefficient {re} + {im}*i of pi^{e} is not a "
                                 f"rational multiple of i^{e}")
            if not c:
                raise ValueError(f"zero coefficient of pi^{e}")
            mono = ZetaMonomial(e, tuple(sorted(zetas)))
            if mono in out:
                raise ValueError(f"monomial {mono} given twice")
            out[mono] = _i_sign(e) * c
    except (KeyError, TypeError, AttributeError) as exc:
        raise ValueError(f"malformed JSON value: {exc!r}") from exc
    return SymNumber(out)
