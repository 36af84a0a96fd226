"""Evaluate the coordinate expansion at the boundary points +1 and -1.

At the point -1 the expansion turns into a linear equation for the double
zeta value; at +1, for the alternating harmonic sum.  The unknown enters only
through the weighted harmonic tail of the rewritten basis, with a rational
coefficient, so `eval_basis_at` returns each element's boundary value as a
pair: the known part in the ring, resolved through `closed_sum`, and that
rational coefficient.  Whether the equation carries information depends on
parity: the unknown's coefficient cancels identically in the other parity
class, leaving the empty identity 0 = 0.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Optional

from . import circle, tausolver
from .pfseries import (HarmonicTailSeries, bottom_block_rewritten, operator_order,
                       upper_block_specs)
from .symfield import SymNumber, Unknown, render, to_json_dict, zeta_value


class Divergent(ArithmeticError):
    """The requested closed sum diverges on the boundary."""


class InconsistentIdentity(Exception):
    """The unknown's coefficient vanished but a nonzero remainder survived,
    or the solved value failed a structural sanity check."""


def closed_sum(shape: str, s: int) -> SymNumber:
    """Closed forms of the known boundary series.

    power:      sum 1/n^s         -> zeta(s)
    alt-power:  sum (-1)^n / n^s  -> -(1 - 2^(1-s)) zeta(s)
    """
    if shape == "power":
        if s < 2:
            raise Divergent("power sum needs s >= 2")
        return zeta_value(s)
    if shape == "alt-power":
        if s < 2:
            raise Divergent("alternating power sum needs s >= 2")
        return zeta_value(s) * (Fraction(1, 2 ** (s - 1)) - 1)
    raise ValueError(f"unknown shape {shape!r}")


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
    order = operator_order(k, m)
    if not 0 <= i < order:
        raise ValueError(f"basis index {i} out of range for order {order}")
    power_shape = "power" if point == -1 else "alt-power"  # (-1)^n x^n at x = point
    total = _log_power_at(point, i)
    for d, spec in upper_block_specs(k, m, i):
        log_part = _log_power_at(point, d)
        if log_part.is_zero():
            continue
        total = total + closed_sum(power_shape, spec.power) * spec.scale * log_part
    unknown_coeff = Fraction(0)
    for spec in bottom_block_rewritten(k, m, i):
        if spec.power < 2:
            raise Divergent("series exponent 1 cannot be evaluated on the boundary")
        if isinstance(spec, HarmonicTailSeries):
            unknown_coeff += spec.scale * point
        else:  # PureAltSeries
            total = total + closed_sum(power_shape, spec.power) * spec.scale
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
    closed form is known / cof.  A zero coefficient with a zero known part is
    the trivial parity case; a zero coefficient with a nonzero known part, a
    coefficient that is not rational, or a value that is not real and
    homogeneous of weight k + m signals an upstream bug and raises.
    """
    if point not in (1, -1):
        raise ValueError("point must be +1 or -1")
    if (tau.k, tau.m) != (k, m):
        raise ValueError("coordinate vector does not match (k, m)")
    cof = SymNumber.from_rational(point)  # lhs_c
    known = SymNumber.zero()
    for i, entry in enumerate(tau.entries):
        if entry.is_zero():
            continue
        value, r = eval_basis_at(k, m, i, point)
        known = known + entry * value
        cof = cof - entry * r

    if not (known.imag_part().is_zero() and cof.imag_part().is_zero()):
        raise InconsistentIdentity(
            f"imaginary parts failed to cancel at (k={k}, m={m}, point={point})")
    if cof.is_zero():
        if known.is_zero():
            return IdentityRecord("trivial", k, m, point, None, None,
                                  tau.provenance, k + m)
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
                          tau.provenance, k + m)


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
