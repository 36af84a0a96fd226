"""Assemble the circle-moment linear systems and solve them exactly.

The direct path builds one equation per Fourier index 0..order-1, clears
each row once to integer coefficients and eliminates fraction-free (Bareiss
cross-multiplication with exact divisions) in Z[P, zeta(3), ...]; the
elimination works on maps from packed integer monomial keys to integer
coefficients, so a monomial product is an integer addition, and hands back
`SymNumber` values only in the solution.  Every row of a solved system has a
structurally zero residual, computed as one integer dot product.  The fast
path is the observed coefficient rule plus the zero-mode row in closed form
(the heads are one Bernoulli convolution, `log_part`, and the entries
i >= k-1 come from the direct tau[2] through `tail`); it is marked
conjectural until cross-checked against the direct solver.
"""

from __future__ import annotations

import functools
import time
from fractions import Fraction
from math import factorial, gcd, lcm
from typing import NamedTuple

from . import circle
from .pfseries import operator_order
from .symfield import ExactDivisionError, SymNumber, ZetaMonomial, bernoulli


class SingularSystem(Exception):
    def __init__(self, indices):
        super().__init__(f"moment system singular for indices {sorted(indices)}")
        self.indices = tuple(indices)


class InconsistentSystem(Exception):
    pass


class MomentRow(NamedTuple):
    n: int
    coeffs: tuple[SymNumber, ...]
    rhs: SymNumber


class MomentSystem(NamedTuple):
    k: int
    m: int
    rows: tuple[MomentRow, ...]

    @property
    def width(self) -> int:
        return len(self.rows[0].coeffs)


class TauVector(NamedTuple):
    """Exact coordinates of the generating series in the canonical basis."""

    k: int
    m: int
    entries: tuple[SymNumber, ...]
    provenance: str = "direct"  # "direct" | "fast"
    conjectural: bool = False

    @property
    def order(self) -> int:
        return len(self.entries)


def assemble_system(k: int, m: int) -> MomentSystem:
    """The square moment system: one row per Fourier index n = 0..order-1."""
    order = operator_order(k, m)
    rows = []
    for n in range(order):
        coeffs = tuple(circle.basis_moment(k, m, i, n) for i in range(order))
        rhs = SymNumber.from_rational(circle.pi_moment(k, m, n))
        rows.append(MomentRow(n, coeffs, rhs))
    return MomentSystem(k, m, tuple(rows))


def _negated(x: dict) -> dict:
    return {mono: -c for mono, c in x.items()}


def _key_codec(monos, bound: int):
    """Integer keys for the monomials of one system.

    A key packs fixed-width fields, most significant first: the weight, the
    exponent of P, then the exponents of the odd zeta values that occur in
    `monos`, by ascending argument.  Each field holds values up to `bound`
    below one guard bit, so a product of monomials is the sum of their keys,
    comparing keys is the graded lexicographic order of `_mono_sort_key`,
    and a divides b exactly when ((b | guard) - a) & guard == guard, the
    quotient being b - a.  Returns (pack, unpack, guard).
    """
    gens = sorted({s for mono in monos for s, _ in mono.zetas})
    bits = bound.bit_length() + 1
    mask = (1 << bits) - 1
    guard = 0
    for _ in range(len(gens) + 2):
        guard = (guard << bits) | (1 << (bits - 1))

    def pack(mono: ZetaMonomial) -> int:
        exps = dict(mono.zetas)
        key = (mono.weight << bits) | mono.pi_exp
        for s in gens:
            key = (key << bits) | exps.get(s, 0)
        return key

    def unpack(key: int) -> ZetaMonomial:
        zetas = []
        for s in reversed(gens):
            if key & mask:
                zetas.append((s, key & mask))
            key >>= bits
        return ZetaMonomial(key & mask, tuple(reversed(zetas)))

    return pack, unpack, guard


def _dot(pairs) -> dict:
    """Sum of the products x*y over (x, y) pairs of integer maps, gathered in
    one accumulator and stripped of zeros once at the end."""
    acc: dict = {}
    for x, y in pairs:
        for m1, c1 in x.items():
            for m2, c2 in y.items():
                mono = m1 + m2
                acc[mono] = acc.get(mono, 0) + c1 * c2
    return {mono: c for mono, c in acc.items() if c}


def _indivisible(c, mono, lead_c, lead, unpack) -> ExactDivisionError:
    return ExactDivisionError(f"{c}*{unpack(mono)} not divisible by "
                              f"{lead_c}*{unpack(lead)}")


def _exact_div(num: dict, den: dict, guard: int, unpack) -> dict:
    """num / den in Z[P, zeta(3), ...] on packed keys; ExactDivisionError
    unless the quotient has integer coefficients."""
    if len(den) == 1:
        ((lead, lead_c),) = den.items()
        out = {}
        for mono, c in num.items():
            q, r = divmod(c, lead_c)
            if r or ((mono | guard) - lead) & guard != guard:
                raise _indivisible(c, mono, lead_c, lead, unpack)
            out[mono - lead] = q
        return out
    lead = max(den)
    lead_c = den[lead]
    rem = dict(num)
    out = {}
    while rem:
        rmono = max(rem)
        q, r = divmod(rem[rmono], lead_c)
        if r or ((rmono | guard) - lead) & guard != guard:
            raise _indivisible(rem[rmono], rmono, lead_c, lead, unpack)
        q_mono = rmono - lead
        out[q_mono] = q
        for mono, c in den.items():
            target = mono + q_mono
            cur = rem.get(target, 0) - c * q
            if cur:
                rem[target] = cur
            else:
                rem.pop(target, None)
    return out


def fraction_free_solve(system: MomentSystem) -> TauVector:
    """Bareiss elimination over Z[P, zeta(3), ...] with exact back substitution.

    Each row, rhs included, is scaled once by the lcm of its coefficient
    denominators, so every entry is a map from monomial to int; scaling a row
    changes neither the solution nor any entry's monomial count.  The
    monomials become packed integer keys (`_key_codec`) at that step, so a
    monomial product is one integer addition and the leading monomial is the
    largest key; they are unpacked only to build tau.  Every entry met below
    is a minor or a product of two minors, so twice the sum over columns of
    the largest monomial weight in the column bounds every exponent and sets
    the field width.  Pivots are chosen fewest-monomials-first to limit
    intermediate swell.  Each step forms pivot*a - lead*b in one accumulator
    and divides it exactly by the previous pivot (Bareiss, Math. Comp. 22,
    1968).  Back substitution computes the Cramer numerators det*tau_i, again
    by exact divisions in Z; dividing them by the primitive part of det puts
    tau over one common denominator, the content of det.  Every row's
    residual is recomputed as one integer dot product.  A system that is not
    square raises ValueError.
    """
    width = system.width
    if len(system.rows) != width:
        raise ValueError(f"system must be square, got {len(system.rows)} rows "
                         f"and {width} columns")
    values = [[v._terms for v in (*row.coeffs, row.rhs)] for row in system.rows]
    bound = 2 * sum(max((mono.weight for row in values for mono in row[c]),
                        default=0) for c in range(width + 1))
    monos = {mono for row in values for v in row for mono in v}
    pack, unpack, guard = _key_codec(monos, bound)
    keys = {mono: pack(mono) for mono in monos}
    cleared = []
    for row in values:
        denom = lcm(*(c.denominator for v in row for c in v.values()))
        cleared.append([{keys[mono]: c.numerator * (denom // c.denominator)
                         for mono, c in v.items()} for v in row])
    mat = [list(row) for row in cleared]
    indices = [row.n for row in system.rows]

    prev = {0: 1}  # key 0 is the monomial 1
    for col in range(width):
        pivot_row = None
        pivot_size = None
        for r in range(col, width):
            if mat[r][col]:
                size = len(mat[r][col])
                if pivot_size is None or size < pivot_size:
                    pivot_row, pivot_size = r, size
        if pivot_row is None:
            raise SingularSystem(indices)
        mat[col], mat[pivot_row] = mat[pivot_row], mat[col]
        top = mat[col]
        pivot = top[col]
        for r in range(col + 1, width):
            row = mat[r]
            lead = _negated(row[col])
            # rows with a zero leading entry still rescale, keeping every
            # entry an exact minor (the Bareiss divisibility invariant)
            for c in range(col + 1, width + 1):
                row[c] = _exact_div(_dot(((pivot, row[c]), (lead, top[c]))),
                                    prev, guard, unpack)
            row[col] = {}
        prev = pivot

    # the Cramer numerators y_i = det * tau_i from
    # U[i][i] y_i = det * b_i - sum_{c > i} U[i][c] y_c, kept negated so that
    # each right-hand side is one _dot
    det = prev
    neg_y: list[dict] = [{}] * width
    for i in range(width - 1, -1, -1):
        row = mat[i]
        pairs = [(det, row[width])]
        pairs.extend((row[c], neg_y[c]) for c in range(i + 1, width))
        neg_y[i] = _negated(_exact_div(_dot(pairs), row[i], guard, unpack))
    # det = content * primitive part, and tau_i = (y_i / primitive) / content
    content = gcd(*det.values())
    primitive = {mono: c // content for mono, c in det.items()}
    neg_num = [_exact_div(y, primitive, guard, unpack) for y in neg_y]

    scale = {0: content}
    for row, label in zip(cleared, indices):
        pairs = [(scale, row[width])]
        pairs.extend(zip(row[:width], neg_num))
        if _dot(pairs):
            raise InconsistentSystem(f"row n={label} residual is nonzero")

    entries = tuple(SymNumber({unpack(mono): Fraction(-c, content)
                               for mono, c in x.items()}) for x in neg_num)
    return TauVector(system.k, system.m, entries)


@functools.cache
def solve_tau_direct(k: int, m: int) -> TauVector:
    """Solve the square moment system on indices 0..order-1: its nonzero
    Bareiss determinant witnesses nonsingularity, else SingularSystem."""
    return fraction_free_solve(assemble_system(k, m))


# the memo's counters, bound here so that a wrapper rebinding the name
# (a tracer) does not hide them from `check_conjecture`
_direct_cache_info = solve_tau_direct.cache_info


@functools.cache
def tail(k: int, m: int) -> tuple[tuple[int, SymNumber], ...]:
    """The pairs (i, tau[k][i]) for i >= k-1, from the direct tau[2]:
    tau[k][i] = (-1)^k (i-k+2)!/i! tau[2][i-k+2]."""
    base = solve_tau_direct(2, m).entries
    return tuple((i, base[i - k + 2] * Fraction((-1) ** k * factorial(i - k + 2),
                                                 factorial(i)))
                 for i in range(k - 1, operator_order(k, m)))


@functools.cache
def zero_mode_source(j: int, m: int) -> SymNumber:
    """g(j) = -sum_{i >= j-1} tau[j][i] * (zero moment of basis element i), one
    or two terms; g(2) = tau[2][0] in value and term order (zero-moment row)."""
    g = SymNumber.zero()
    for i, entry in tail(j, m):
        if not entry.is_zero():
            g = g - entry * circle.basis_moment(j, m, i, 0)
    return g


@functools.cache
def _weight(point: int, d: int) -> SymNumber:
    """s B_d P^d/d!, the coefficient of t^d in Pt/sinh Pt (s = 2 - 2^d, point
    +1) or in 2Pt/(e^(2Pt) - 1) (s = 2^d, point -1); B_1 = -1/2 and the zero
    odd Bernoulli numbers give the odd d."""
    s = 2 - 2 ** d if point == 1 else 2 ** d
    return SymNumber.p_power(d, s * bernoulli(d) / factorial(d))


@functools.cache
def log_part(k: int, m: int, point: int) -> SymNumber:
    """sum_{i <= k-2} tau[k][i] log(point)^i = sum_{j=2..k} g(j) w_point(k-j),
    over ascending j: the head h(k) = tau[k][0] at +1, and at -1
    g(k) - P g(k-1) - 2 sum_{even d >= 2} zeta(d) g(k-d).  Only the nonzero
    weights (d = 0, d = 1 at -1, even d >= 2) are multiplied."""
    weights = ((j, _weight(point, k - j)) for j in range(2, k + 1))
    return sum((zero_mode_source(j, m) * w for j, w in weights if not w.is_zero()),
               SymNumber.zero())


def solve_tau_fast(k: int, m: int) -> TauVector:
    """Closed-form coordinates: the coefficient rule plus the zero mode, unrolled.

    The rule tau[k][i] = -tau[k-1][i-1]/i gives tau[k][i] = (-1)^i h(k-i)/i!
    for i <= k-2, with heads h(j) = tau[j][0], and ties the entries i >= k-1
    to the base k = 2.  The zero moment of basis element i < k is P^i/(i+1)
    for even i and 0 for odd i, so the n = 0 moment row convolves the heads
    with sinh(Pt)/(Pt); `log_part` at +1 inverts it.  Nothing recurses and no
    vector is kept.  Conjectural (the rule is verified, not proven) except
    for the base k = 2, the direct solution.
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    if k == 2:
        return solve_tau_direct(2, m)
    entries = [log_part(k - i, m, 1) / Fraction((-1) ** i * factorial(i))
               for i in range(k - 1)]
    entries += [entry for _, entry in tail(k, m)]
    return TauVector(k, m, tuple(entries), provenance="fast", conjectural=True)


def check_tau_invariants(tau: TauVector) -> list[str]:
    """Structural checks every computed coordinate vector must satisfy."""
    problems = []
    k, m = tau.k, tau.m
    order = operator_order(k, m)
    if len(tau.entries) != order:
        problems.append(f"expected {order} entries, got {len(tau.entries)}")
        return problems
    for i, entry in enumerate(tau.entries):
        if not entry.is_real():
            problems.append(f"entry {i} has a nonzero imaginary part")
        if not entry.is_homogeneous(k + m - i):
            problems.append(f"entry {i} is not homogeneous of weight {k + m - i}")
    zero_at = (k - 1, k) if m == 1 else (k + 1,)
    for i in zero_at:
        if not tau.entries[i].is_zero():
            problems.append(f"entry {i} should vanish")
    top = Fraction((-1) ** (k + m - 1), factorial(order - 1))
    if tau.entries[-1] != SymNumber.from_rational(top):
        problems.append(f"top entry differs from {top}")
    return problems


class ConjectureCheck(NamedTuple):
    k: int
    matches: bool
    direct_seconds: float
    fast_seconds: float
    direct_cached: bool = False  # direct solve came from the memo table


class ConjectureReport(NamedTuple):
    m: int
    k_max: int
    checks: tuple[ConjectureCheck, ...]

    @property
    def all_pass(self) -> bool:
        return all(c.matches for c in self.checks)

    def lines(self) -> list[str]:
        out = []
        for c in self.checks:
            status = "pass" if c.matches else "FAIL"
            cached = " (cached)" if c.direct_cached else ""
            out.append(f"k={c.k:>2} m={self.m}: {status} "
                       f"(direct {c.direct_seconds:.3f}s{cached}, "
                       f"fast {c.fast_seconds:.3f}s)")
        return out


def check_conjecture(k_max: int, m: int, k_min: int = 3) -> ConjectureReport:
    """Compare the closed-form fast path against the direct solver for
    k = max(k_min, 3)..k_max.

    A mismatch would be a mathematical finding rather than a bug, provided the
    direct pipeline passes its own residual checks; it is surfaced per-k.
    A direct solve answered by the memo table is flagged `direct_cached`, so
    its time is not read as a solve time.
    """
    if k_max < 3:
        return ConjectureReport(m, k_max, ())
    checks = []
    for k in range(max(k_min, 3), k_max + 1):
        hits = _direct_cache_info().hits
        t0 = time.perf_counter()
        direct = solve_tau_direct(k, m)
        t1 = time.perf_counter()
        cached = _direct_cache_info().hits > hits
        fast = solve_tau_fast(k, m)
        t2 = time.perf_counter()
        matches = direct.entries == fast.entries
        checks.append(ConjectureCheck(k, matches, t1 - t0, t2 - t1, cached))
    return ConjectureReport(m, k_max, tuple(checks))
