"""Exact arithmetic in the ring Q[P, zeta(3), zeta(5), ...] with P = i*pi.

Values are sparse sums of monomials ``P^e * zeta(s1)^e1 * ...`` with plain
`Fraction` coefficients.  Every value the pipeline builds has the form
rational * i^e * pi^e (the log-moment boundary terms are (i pi)^(d-1),
log(-1)^d = (i pi)^d, and even zeta values are rational multiples of
P^(2n)), so no coefficient ever needs Q(i): a value is real exactly when all
its P exponents are even, and complex conjugation negates the odd-P terms.

Even zeta values never appear as generators: they are normalized into P
powers through Bernoulli numbers, so structural equality of two values is
decidable by comparing their term maps.  A monomial may carry at most one
formal unknown of degree one (a double-zeta symbol or an alternating
harmonic sum symbol); the linear-equation solving in `identities` never needs
more.

Conversion to the Gaussian coefficient of pi^e happens only at the boundary:
`terms`, `sorted_terms`, `coeff_of` and `scalar` hand out `GaussianRational`
values, rendering prints pi powers, and the JSON schema stores ``re``/``im``
strings of the pi^e coefficient.  `from_term` and `pi_power` take such a
coefficient and reject one that is not a rational multiple of i^e.

Monomials are treated as formally independent generators; no algebraic
relations between pi and the odd zeta values are assumed anywhere.
"""

from __future__ import annotations

import threading
from fractions import Fraction
from math import factorial
from typing import NamedTuple, Optional

# Exact rationals.  Fraction already keeps gcd(|num|, den) = 1 and den > 0.
Rational = Fraction


class UnknownDegreeOverflow(ArithmeticError):
    """A product would create a formal unknown of degree >= 2."""


class ExactDivisionError(ArithmeticError):
    """The requested ring division has a nonzero remainder."""


# ---------------------------------------------------------------------------
# Bernoulli numbers (convention B_1 = -1/2), shared memo table.
# Reads are lock-free; the table only grows under the lock.

_bernoulli_table: list[Fraction] = [Fraction(1)]
_bernoulli_lock = threading.Lock()


def bernoulli(n: int) -> Fraction:
    """Bernoulli number B_n via sum_{j<=n} binom(n+1, j) B_j = 0."""
    global _bernoulli_table
    if n < 0:
        raise ValueError("n must be >= 0")
    table = _bernoulli_table
    if n < len(table):
        return table[n]
    with _bernoulli_lock:
        table = _bernoulli_table
        if n < len(table):
            return table[n]
        grown = list(table)
        for m in range(len(grown), n + 1):
            if m > 2 and m % 2 == 1:
                grown.append(Fraction(0))
                continue
            acc = Fraction(0)
            binom = 1  # binom(m+1, j), updated incrementally
            for j in range(m):
                acc += binom * grown[j]
                binom = binom * (m + 1 - j) // (j + 1)
            grown.append(-acc / (m + 1))
        _bernoulli_table = grown
        return grown[n]


class Unknown(NamedTuple):
    """Formal degree-one symbol: a double zeta value or an alternating sum."""

    kind: str  # "dzv" | "alt"
    k: int
    m: int

    @property
    def weight(self) -> int:
        return self.k + self.m

    def label(self) -> str:
        name = "zeta" if self.kind == "dzv" else "altsum"
        return f"{name}({self.k},{self.m})"


class ZetaMonomial(NamedTuple):
    """P^pi_exp times a product of odd zeta values, optionally one unknown.

    The exponent of P = i*pi is also the exponent of pi in the value."""

    pi_exp: int = 0
    zetas: tuple[tuple[int, int], ...] = ()  # ((s, exp), ...), s odd >= 3, ascending
    unknown: Optional[Unknown] = None

    @property
    def weight(self) -> int:
        w = self.pi_exp + sum(s * e for s, e in self.zetas)
        if self.unknown is not None:
            w += self.unknown.weight
        return w

    def mul(self, other: "ZetaMonomial") -> "ZetaMonomial":
        if self.unknown is not None and other.unknown is not None:
            raise UnknownDegreeOverflow(
                f"product of {self.unknown.label()} and {other.unknown.label()}"
            )
        if not self.zetas:
            zetas = other.zetas
        elif not other.zetas:
            zetas = self.zetas
        else:
            merged = dict(self.zetas)
            for s, e in other.zetas:
                merged[s] = merged.get(s, 0) + e
            zetas = tuple(sorted(merged.items()))
        return ZetaMonomial(self.pi_exp + other.pi_exp, zetas,
                            self.unknown or other.unknown)


ONE_MONO = ZetaMonomial()


def _mono_sort_key(mono: ZetaMonomial):
    """Graded lexicographic term order with variables pi > zeta(3) > zeta(5)...

    The zeta part is encoded as ((-s, e), ...) so that a positive exponent on
    an earlier variable beats its absence; plain structural comparison of the
    (s, e) tuples would not be multiplicative, which exact division needs.
    """
    unk = (1, mono.unknown) if mono.unknown is not None else (0, ("", 0, 0))
    return (mono.weight, mono.pi_exp,
            tuple((-s, e) for s, e in mono.zetas), unk)


def _mono_divide(num: ZetaMonomial, den: ZetaMonomial) -> Optional[ZetaMonomial]:
    """num / den as a monomial, or None when not divisible."""
    if num.pi_exp < den.pi_exp:
        return None
    if den.unknown is not None:
        if num.unknown != den.unknown:
            return None
        unknown = None
    else:
        unknown = num.unknown
    rest = dict(num.zetas)
    for s, e in den.zetas:
        have = rest.get(s, 0)
        if have < e:
            return None
        if have == e:
            del rest[s]
        else:
            rest[s] = have - e
    return ZetaMonomial(num.pi_exp - den.pi_exp, tuple(sorted(rest.items())), unknown)


class GaussianRational:
    """Exact element of Q(i): the coefficient of pi^e handed across the
    boundary of the field (`terms`, `coeff_of`, `scalar`, `from_term`)."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = Fraction(re)
        self.im = Fraction(im)

    def __mul__(self, other) -> "GaussianRational":
        if isinstance(other, (int, Fraction)):
            other = GaussianRational(other)
        elif not isinstance(other, GaussianRational):
            return NotImplemented
        return GaussianRational(self.re * other.re - self.im * other.im,
                                self.re * other.im + self.im * other.re)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if not isinstance(other, GaussianRational):
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __repr__(self) -> str:
        if not self.im:
            return str(self.re)
        if not self.re:
            return f"{self.im}*i"
        sign = "+" if self.im > 0 else "-"
        return f"({self.re}{sign}{abs(self.im)}*i)"


GR_ZERO = GaussianRational(0)

# i^r for r mod 4
_I_POWERS = (GaussianRational(1), GaussianRational(0, 1),
             GaussianRational(-1), GaussianRational(0, -1))


def i_power(r: int) -> GaussianRational:
    return _I_POWERS[r % 4]


class SymNumber:
    """Sparse map from ZetaMonomial to the Fraction coefficient of its P power.

    Zero terms are dropped.  A monomial's `pi_exp` counts powers of P = i*pi,
    so the term c * P^e stands for (c * i^e) * pi^e.
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
        """coeff * mono, with coeff the (Gaussian) coefficient of pi^e.

        Raises ValueError unless coeff = c * i^e for a rational c: any other
        term lies outside the field and is never coerced into it.
        """
        c = i_power(-mono.pi_exp) * coeff
        if c.im:
            raise ValueError(f"coefficient {coeff!r} of pi^{mono.pi_exp} is not "
                             f"a rational multiple of i^{mono.pi_exp}")
        return cls({mono: c.re} if c.re else {})

    @classmethod
    def pi_power(cls, exp: int, coeff=1) -> "SymNumber":
        """coeff * pi^exp; coeff must be a rational multiple of i^exp."""
        return cls.from_term(ZetaMonomial(pi_exp=exp), coeff)

    @classmethod
    def p_power(cls, exp: int, coeff=1) -> "SymNumber":
        """coeff * P^exp = coeff * (i pi)^exp for a rational coeff."""
        c = Fraction(coeff)
        return cls({ZetaMonomial(pi_exp=exp): c} if c else {})

    @classmethod
    def unknown_dzv(cls, k: int, m: int, coeff=1) -> "SymNumber":
        return cls.from_term(ZetaMonomial(unknown=Unknown("dzv", k, m)), coeff)

    @classmethod
    def unknown_alt(cls, k: int, m: int, coeff=1) -> "SymNumber":
        return cls.from_term(ZetaMonomial(unknown=Unknown("alt", k, m)), coeff)

    # -- inspection ---------------------------------------------------------

    def terms(self) -> list:
        """(monomial, Gaussian coefficient of its pi power) pairs."""
        return [(m, i_power(m.pi_exp) * c) for m, c in self._terms.items()]

    def __len__(self) -> int:
        """Number of monomials."""
        return len(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def is_scalar(self) -> bool:
        """True when the value is rational (no pi, zeta or unknown factors)."""
        return not self._terms or (len(self._terms) == 1 and ONE_MONO in self._terms)

    def scalar(self) -> GaussianRational:
        if not self._terms:
            return GR_ZERO
        if self.is_scalar():
            return GaussianRational(self._terms[ONE_MONO])
        raise ValueError("value is not a pure rational")

    def is_real(self) -> bool:
        return all(m.pi_exp % 2 == 0 for m in self._terms)

    def has_unknown(self) -> bool:
        return any(mono.unknown is not None for mono in self._terms)

    def coeff_of(self, mono: ZetaMonomial) -> GaussianRational:
        c = self._terms.get(mono)
        return GR_ZERO if c is None else i_power(mono.pi_exp) * c

    def imag_part(self) -> "SymNumber":
        """The odd-P terms: i times the imaginary part, which itself has
        real odd pi powers and so lies outside the field."""
        return SymNumber({m: c for m, c in self._terms.items() if m.pi_exp % 2})

    def conjugate(self) -> "SymNumber":
        return SymNumber({m: -c if m.pi_exp % 2 else c
                          for m, c in self._terms.items()})

    def is_homogeneous(self, weight: int) -> bool:
        """All terms of the given weight (the zero value is homogeneous)."""
        return all(m.weight == weight for m in self._terms)

    def split_unknown(self, unknown: Unknown) -> tuple["SymNumber", "SymNumber"]:
        """Write self = cof * unknown + rest; return (cof, rest)."""
        cof: dict = {}
        rest: dict = {}
        for mono, coeff in self._terms.items():
            if mono.unknown == unknown:
                cof[ZetaMonomial(mono.pi_exp, mono.zetas, None)] = coeff
            else:
                rest[mono] = coeff
        return SymNumber(cof), SymNumber(rest)

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

    def sorted_terms(self):
        return sorted(self.terms(), key=lambda kv: _mono_sort_key(kv[0]),
                      reverse=True)


def _coerce_sym(value) -> SymNumber:
    if isinstance(value, SymNumber):
        return value
    return SymNumber.from_rational(value)


SYM_ZERO = SymNumber.zero()
SYM_ONE = SymNumber.from_rational(1)


def sym_arith(a: SymNumber, b: SymNumber, op: str) -> SymNumber:
    """Functional entry point for +, -, * (kept for symmetry with `render`)."""
    if op == "add":
        return a + b
    if op == "sub":
        return a - b
    if op == "mul":
        return a * b
    raise ValueError(f"unsupported operation {op!r}")


# ---------------------------------------------------------------------------
# Zeta values as field elements.

def even_zeta_as_pi_power(n: int) -> SymNumber:
    """zeta(2n) = (-1)^(n+1) B_{2n} (2 pi)^(2n) / (2 (2n)!) as a pi-power."""
    if n < 1:
        raise ValueError("n must be >= 1")
    coeff = Fraction((-1) ** (n + 1)) * bernoulli(2 * n) * (2 ** (2 * n)) \
        / (2 * factorial(2 * n))
    return SymNumber.pi_power(2 * n, coeff)


def _even_zeta_pi_coeff(s: int) -> Fraction:
    value = even_zeta_as_pi_power(s // 2)
    return value.coeff_of(ZetaMonomial(pi_exp=s)).re


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
    if imag:
        return "i" if q == 1 else f"{q}*i" if fmt == "plain" else f"{q}i"
    if q == 1:
        return ""
    if fmt == "latex" and q.denominator != 1:
        return rf"\frac{{{q.numerator}}}{{{q.denominator}}}"
    return str(q)


def _factor_text(s: int, e: int, fmt: str) -> str:
    if fmt == "latex":
        base = r"\pi" if s == 1 else rf"\zeta({s})"
        return base if e == 1 else base + rf"^{{{e}}}"
    base = "pi" if s == 1 else f"zeta({s})"
    return base if e == 1 else f"{base}^{e}"


_UNKNOWN_SENTINEL = 10 ** 9  # sorts unknown factors after every zeta


def render(x: SymNumber, fmt: str = "plain", style: str = "pi-power") -> str:
    """Deterministic text for a SymNumber.

    `even-zeta` regroups pi^(2n) into zeta(2n) greedily by descending weight,
    matching the tables this library reproduces; `pi-power` prints the
    canonical internal form.
    """
    if fmt == "json":
        import json

        return json.dumps(to_json_dict(x), sort_keys=True)
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
        q = coeff * multiplier
        if mono.pi_exp % 4 >= 2:
            q = -q
        if mono.unknown is not None:
            factors = factors + [(_UNKNOWN_SENTINEL, 1)]
        rendered.append((len(factors), tuple(factors), mono.unknown, q,
                         mono.pi_exp % 2 == 1))
    rendered.sort(key=lambda r: (r[0], r[1]))

    pieces = []
    for _, factors, unknown, q, imag in rendered:
        sign = -1 if q < 0 else 1
        mag = abs(q)
        bits = []
        text = _coeff_text(mag, imag, fmt)
        if text:
            bits.append(text)
        for s, e in factors:
            if s == _UNKNOWN_SENTINEL:
                if fmt == "latex":
                    name = "zeta" if unknown.kind == "dzv" else "altsum"
                    bits.append(rf"\{name}({unknown.k},{unknown.m})")
                else:
                    bits.append(unknown.label())
            else:
                bits.append(_factor_text(s, e, fmt))
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


def to_json_dict(x: SymNumber) -> dict:
    terms = []
    for mono, coeff in x.sorted_terms():
        unknown = None
        if mono.unknown is not None:
            unknown = {"kind": mono.unknown.kind, "k": mono.unknown.k,
                       "m": mono.unknown.m}
        terms.append({
            "coeff": {"re": _fraction_str(coeff.re), "im": _fraction_str(coeff.im)},
            "pi": mono.pi_exp,
            "zeta": {str(s): e for s, e in mono.zetas},
            "unknown": unknown,
        })
    return {"terms": terms}


def from_json_dict(data: dict) -> SymNumber:
    out = SymNumber.zero()
    for term in data["terms"]:
        unknown = None
        if term.get("unknown"):
            u = term["unknown"]
            unknown = Unknown(u["kind"], u["k"], u["m"])
        mono = ZetaMonomial(term.get("pi", 0),
                            tuple(sorted((int(s), e) for s, e in term["zeta"].items())),
                            unknown)
        coeff = GaussianRational(Fraction(term["coeff"]["re"]),
                                 Fraction(term["coeff"]["im"]))
        out = out + SymNumber.from_term(mono, coeff)
    return out
