"""Evaluate the coordinate expansion at the boundary points +1 and -1.

At the point -1 the expansion turns into a linear equation for the double
zeta value; at +1, for the alternating harmonic sum.  The unknown enters only
through the weighted harmonic tail of the rewritten basis, with a rational
coefficient, so `eval_basis_at` returns each element's boundary value as a
pair: the known part in the ring, resolved through `closed_sum`, and that
rational coefficient.  Whether the equation carries information depends on
parity: the unknown's coefficient cancels identically in the other parity
class, leaving the empty identity 0 = 0.

The fast mode never builds its coordinate vectors.  For i <= k-2 basis
element i is the pure log power log^i with no series block, so there is no
boundary sum to evaluate: its value is P^i at -1 and, at +1, 1 for i = 0 and
0 otherwise, and it does not carry the unknown.  With the fast coordinates
those entries sum to one Bernoulli convolution of the closed-form y
(`tausolver.y`, `tausolver.log_part`): at +1 the head h(k), and at -1, since
(Pt/sinh Pt) e^(-Pt) = 2Pt/(e^(2Pt) - 1),
-y(k) + P y(k-1) + 2 sum_{even d >= 2} zeta(d) y(k-d), the shape of Euler's
formula, less the pure-log terms of entries k-1 and k.  Only the two to four
entries i >= k-1 (`tausolver.tail`, also from y) go through `eval_basis_at`
(`derive_identity_fast`), for every k >= 3; nothing reads a direct solve.
Each identity then costs O(k) monomial products rather than O(k^2).
"""

from __future__ import annotations

import functools
from fractions import Fraction
from typing import NamedTuple, Optional

from . import circle, tausolver
from .pfseries import HarmonicTailSeries, bottom_block_rewritten, upper_block_specs
from .symfield import SymNumber, Unknown, render, to_json_dict, zeta_value


class InconsistentIdentity(Exception):
    """The unknown's coefficient vanished but a nonzero remainder survived,
    or the solved value failed a structural sanity check."""


@functools.cache
def closed_sum(point: int, s: int) -> SymNumber:
    """sum_{n >= 1} (-1)^n x^n / n^s at the boundary point x = point in closed
    form: zeta(s) at -1 and -(1 - 2^(1-s)) zeta(s) at +1."""
    if s < 2:
        raise circle.DivergentSum(f"boundary power sum needs s >= 2, got {s}")
    if point == -1:
        return zeta_value(s)
    if point == 1:
        return zeta_value(s) * (Fraction(1, 2 ** (s - 1)) - 1)
    raise ValueError("point must be +1 or -1")


def _log_power_at(point: int, d: int) -> SymNumber:
    """log(point)^d with log(-1) = P = pi*i on the chosen branch."""
    if d == 0:
        return SymNumber.from_rational(1)
    if point == 1:
        return SymNumber.zero()
    return SymNumber.p_power(d)


def eval_basis_at(k: int, m: int, i: int, point: int) -> tuple[SymNumber, Fraction]:
    """Exact boundary value of basis element i at +1 or -1, as the pair
    (known value, rational coefficient of the unknown).

    The unknown is zeta(k, m) at -1 and the alternating sum at +1; only the
    log-free harmonic tail carries it, as the sum over n of
    (-1)^n H_{n,m}/(n+1)^k x^(n+1): that is -zeta(k, m) at x = -1 and the
    alternating sum itself at x = +1.
    """
    if point not in (1, -1):
        raise ValueError("point must be +1 or -1")
    specs = upper_block_specs(k, m, i)  # rejects an out-of-range i
    total = _log_power_at(point, i)
    for d, spec in specs:
        log_part = _log_power_at(point, d)
        if log_part.is_zero():
            continue
        total = total + closed_sum(point, spec.power) * spec.scale * log_part
    unknown_coeff = Fraction(0)
    for spec in bottom_block_rewritten(k, m, i):
        if isinstance(spec, HarmonicTailSeries):
            unknown_coeff += spec.scale * point
        else:  # PureAltSeries
            total = total + closed_sum(point, spec.power) * spec.scale
    return total, unknown_coeff


class IdentityRecord(NamedTuple):
    kind: str  # "dzv" | "alt" | "trivial"
    k: int
    m: int
    point: int
    target: Optional[Unknown]
    value: Optional[SymNumber]
    provenance: str
    weight: int

    def lhs_label(self) -> str:
        if self.kind == "trivial":
            return "0"
        return self.target.label()


def derive_identity(k: int, m: int, point: int, tau: tausolver.TauVector) -> IdentityRecord:
    """Turn the boundary evaluation of the expansion into a closed form.

    The series equals the expansion at the point: lhs_c * unknown =
    sum_i tau_i * (value_i + r_i * unknown), with lhs_c = -1 at -1 (the series
    there is -zeta(k, m)) and +1 at +1.  So cof * unknown = known with
    cof = lhs_c - sum_i tau_i r_i and known = sum_i tau_i value_i, and the
    closed form is known / cof (`_close`, which raises on the cases it lists).
    """
    if point not in (1, -1):
        raise ValueError("point must be +1 or -1")
    if (tau.k, tau.m) != (k, m):
        raise ValueError("coordinate vector does not match (k, m)")
    known, cof = _accumulate(k, m, point, SymNumber.zero(), enumerate(tau.entries))
    return _close(k, m, point, known, cof, tau.provenance)


def derive_identity_fast(k: int, m: int, point: int) -> IdentityRecord:
    """`derive_identity` of the fast coordinates, without building them.

    The entries i <= k-2 sum to `tausolver.log_part(k, m, point)` (module
    docstring); only those of `tausolver.tail` go through `eval_basis_at`.
    Summing over ascending j, then ascending i, keeps both the value and the
    term order of `derive_identity(k, m, point, solve_tau_fast(k, m))`.  At
    k = 2 the record is that of the direct tau[2], which computed it.  The
    point is checked by `derive_identity` at k = 2 and by `log_part` past it.
    """
    if k == 2:
        return derive_identity(2, m, point, tausolver.solve_tau_direct(2, m))
    known, cof = _accumulate(k, m, point, tausolver.log_part(k, m, point),
                             tausolver.tail(k, m))
    return _close(k, m, point, known, cof, "fast")


def _accumulate(k: int, m: int, point: int, known: SymNumber, entries):
    """(known + sum tau_i value_i, lhs_c - sum tau_i r_i) over the (i, tau_i)
    pairs, each nonzero entry through `eval_basis_at`."""
    cof = SymNumber.from_rational(point)  # lhs_c
    for i, entry in entries:
        if entry.is_zero():
            continue
        value, r = eval_basis_at(k, m, i, point)
        known = known + entry * value
        cof = cof - entry * r
    return known, cof


def _close(k: int, m: int, point: int, known: SymNumber, cof: SymNumber,
           provenance: str) -> IdentityRecord:
    """The record of cof * unknown = known.

    A zero coefficient with a zero known part is the trivial parity case; a
    nonzero imaginary part in either side, a zero coefficient with a nonzero
    known part, a coefficient that is not rational, or a value that is not
    real and homogeneous of weight k + m signals an upstream bug and raises.
    """
    if not (known.imag_part().is_zero() and cof.imag_part().is_zero()):
        raise InconsistentIdentity(
            f"imaginary parts failed to cancel at (k={k}, m={m}, point={point})")
    if cof.is_zero():
        if known.is_zero():
            return IdentityRecord("trivial", k, m, point, None, None,
                                  provenance, k + m)
        raise InconsistentIdentity(
            f"no unknown left but remainder nonzero at (k={k}, m={m}, point={point})")
    if not cof.is_scalar():
        raise InconsistentIdentity("unknown coefficient is not a pure rational")

    value = known / cof
    if not value.is_real() or not value.is_homogeneous(k + m):
        raise InconsistentIdentity(
            f"solved value fails structural checks at (k={k}, m={m}, point={point})")
    kind = "dzv" if point == -1 else "alt"
    return IdentityRecord(kind, k, m, point, Unknown(kind, k, m), value,
                          provenance, k + m)


def identity_to_json_dict(rec: IdentityRecord, verified: Optional[bool] = None) -> dict:
    return {
        "kind": rec.kind,
        "k": rec.k,
        "m": rec.m,
        "point": rec.point,
        "lhs": rec.lhs_label(),
        "rhs": to_json_dict(rec.value) if rec.value is not None else None,
        "weight": rec.weight,
        "provenance": rec.provenance,
        "verified_numeric": bool(verified) if verified is not None else False,
    }


def render_identity(rec: IdentityRecord, fmt: str = "plain",
                    style: str = "even-zeta") -> str:
    if rec.kind == "trivial":
        if fmt == "latex":
            return r"0 = 0 \text{ (no information at } \phi=\pm 1)"
        return "0 = 0 (no information at phi=±1)"
    rhs = render(rec.value, fmt, style)
    if fmt == "latex":
        lhs = (rf"\zeta({rec.k},{rec.m})" if rec.kind == "dzv"
               else rf"\mathrm{{altsum}}({rec.k},{rec.m})")
        return f"{lhs} = {rhs}"
    return f"{rec.lhs_label()} = {rhs}"


# ---------------------------------------------------------------------------
# The introductory example: the alternating weight-2 series.

class FourierIdentity(NamedTuple):
    """sum (-1)^n cos(2 pi n t)/n^2 = constant + linear*t + quadratic*t^2."""

    constant: SymNumber
    linear: SymNumber
    quadratic: SymNumber


def toy_example() -> tuple[tuple[SymNumber, SymNumber, SymNumber], FourierIdentity]:
    """Run the whole pipeline on the order-3 warm-up operator.

    The alternating weight-2 series satisfies a third-order equation whose
    basis on the inverse disc is {1, log, log^2 + twice the series itself}.
    Matching three Fourier moments determines the coordinates, and the
    expansion restricted to the circle is the displayed cosine identity.
    """
    rows = []
    for n in range(3):
        coeffs = tuple(circle.log_moment(n, j) for j in range(3))
        rhs = SymNumber.from_rational(
            Fraction((-1) ** n, n * n) if n >= 1 else Fraction(0))
        rows.append(tausolver.MomentRow(n, coeffs, rhs))
    system = tausolver.MomentSystem(0, 0, tuple(rows))
    tau = tausolver.fraction_free_solve(system)
    t0, t1, t2 = tau.entries
    if t2 != SymNumber.from_rational(Fraction(-1, 2)):
        raise InconsistentIdentity("toy coordinate on the log^2 element must be -1/2")
    # With that coordinate the two boundary series pair into a cosine; halving
    # the matched expansion gives the identity coefficients.
    identity = FourierIdentity(
        constant=t0 * Fraction(1, 2),
        linear=t1 * SymNumber.p_power(1),
        quadratic=t2 * SymNumber.pi_power(2, Fraction(-2)),
    )
    return (t0, t1, t2), identity
