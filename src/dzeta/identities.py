"""Evaluate the coordinate expansion at the boundary points +1 and -1.

At the point -1 the expansion turns into a linear equation for the double
zeta value; at +1, for the alternating harmonic sum.  Whether the equation
carries information depends on parity: the unknown's coefficient cancels
identically in the other parity class, leaving the empty identity 0 = 0.
Every infinite series is resolved through `closed_sum`; the single unknown
enters linearly through the weighted harmonic tail of the rewritten basis.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from . import circle, tausolver
from .pfseries import (HarmonicTailSeries, PureAltSeries, bottom_block_rewritten,
                       operator_order, upper_block_specs)
from .symfield import SymNumber, Unknown, render, to_json_dict, zeta_value


class Divergent(ArithmeticError):
    """The requested closed sum diverges on the boundary."""


class InconsistentIdentity(Exception):
    """The unknown's coefficient vanished but a nonzero remainder survived,
    or the solved value failed a structural sanity check."""


def closed_sum(shape: str, s: Optional[int] = None, k: Optional[int] = None,
               m: Optional[int] = None) -> SymNumber:
    """Closed forms of the boundary series.

    power:              sum 1/n^s            -> zeta(s)
    alt-power:          sum (-1)^n / n^s     -> -(1 - 2^(1-s)) zeta(s)
    harmonic-tail:      sum H_{n,m}/(n+1)^k          -> formal dzv symbol
    alt-harmonic-tail:  sum (-1)^n H_{n,m}/(n+1)^k   -> formal alt symbol
    """
    if shape == "power":
        if s is None or s < 2:
            raise Divergent("power sum needs s >= 2")
        return zeta_value(s)
    if shape == "alt-power":
        if s is None or s < 2:
            raise Divergent("alternating power sum needs s >= 2")
        return zeta_value(s) * (Fraction(1, 2 ** (s - 1)) - 1)
    if shape == "harmonic-tail":
        if k is None or m is None or k < 2:
            raise Divergent("harmonic tail needs k >= 2")
        return SymNumber.unknown_dzv(k, m)
    if shape == "alt-harmonic-tail":
        if k is None or m is None or k < 2:
            raise Divergent("alternating harmonic tail needs k >= 2")
        return SymNumber.unknown_alt(k, m)
    raise ValueError(f"unknown shape {shape!r}")


def _series_at_point(spec, point: int) -> SymNumber:
    """Value of a basis series block on the boundary, unknowns allowed."""
    if isinstance(spec, PureAltSeries):
        if spec.power < 2:
            raise Divergent("series exponent 1 cannot be evaluated on the boundary")
        if point == -1:  # (-1)^n * (-1)^n = 1
            return closed_sum("power", s=spec.power) * spec.scale
        return closed_sum("alt-power", s=spec.power) * spec.scale
    if isinstance(spec, HarmonicTailSeries):
        if spec.power < 2:
            raise Divergent("series exponent 1 cannot be evaluated on the boundary")
        if point == -1:  # (-1)^n * (-1)^(n+1) = -1
            return closed_sum("harmonic-tail", k=spec.power, m=spec.t) * (-spec.scale)
        return closed_sum("alt-harmonic-tail", k=spec.power, m=spec.t) * spec.scale
    raise TypeError(f"unknown series spec {spec!r}")


def _log_power_at(point: int, d: int) -> SymNumber:
    """log(point)^d with log(-1) = P = pi*i on the chosen branch."""
    if d == 0:
        return SymNumber.from_rational(1)
    if point == 1:
        return SymNumber.zero()
    return SymNumber.p_power(d)


def eval_basis_at(k: int, m: int, i: int, point: int) -> SymNumber:
    """Exact boundary value of basis element i at +1 or -1."""
    if point not in (1, -1):
        raise ValueError("point must be +1 or -1")
    order = operator_order(k, m)
    if not 0 <= i < order:
        raise ValueError(f"basis index {i} out of range for order {order}")
    total = _log_power_at(point, i)
    for d, spec in upper_block_specs(k, m, i):
        log_part = _log_power_at(point, d)
        if log_part.is_zero():
            continue
        total = total + _series_at_point(spec, point) * log_part
    for spec in bottom_block_rewritten(k, m, i):
        total = total + _series_at_point(spec, point)
    return total


@dataclass(frozen=True)
class IdentityRecord:
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

    Forms lhs - rhs = 0 as a linear equation in the single unknown.  A zero
    unknown coefficient with zero remainder is the trivial parity case; a zero
    coefficient with nonzero remainder signals an upstream bug and raises.
    """
    if point not in (1, -1):
        raise ValueError("point must be +1 or -1")
    if (tau.k, tau.m) != (k, m):
        raise ValueError("coordinate vector does not match (k, m)")
    if point == -1:
        unknown = Unknown("dzv", k, m)
        lhs = SymNumber.unknown_dzv(k, m, -1)  # series value at -1 is -zeta(k,m)
    else:
        unknown = Unknown("alt", k, m)
        lhs = SymNumber.unknown_alt(k, m)

    rhs = SymNumber.zero()
    for i, entry in enumerate(tau.entries):
        if entry.is_zero():
            continue
        rhs = rhs + entry * eval_basis_at(k, m, i, point)

    diff = lhs - rhs
    if not diff.imag_part().is_zero():
        raise InconsistentIdentity(
            f"imaginary parts failed to cancel at (k={k}, m={m}, point={point})")
    cof, rest = diff.split_unknown(unknown)

    if cof.is_zero():
        if rest.is_zero():
            return IdentityRecord("trivial", k, m, point, None, None,
                                  tau.provenance, k + m)
        raise InconsistentIdentity(
            f"no unknown left but remainder nonzero at (k={k}, m={m}, point={point})")
    if not cof.is_scalar():
        raise InconsistentIdentity("unknown coefficient is not a pure rational")

    value = -(rest / cof)
    if value.has_unknown() or not value.is_real() \
            or not value.is_homogeneous(k + m):
        raise InconsistentIdentity(
            f"solved value fails structural checks at (k={k}, m={m}, point={point})")
    kind = "dzv" if point == -1 else "alt"
    return IdentityRecord(kind, k, m, point, unknown, value, tau.provenance, k + m)


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
    if fmt == "json":
        import json

        return json.dumps(identity_to_json_dict(rec), sort_keys=True)
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

@dataclass(frozen=True)
class FourierIdentity:
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
