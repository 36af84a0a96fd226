"""Assemble the circle-moment linear systems and solve them exactly.

The direct path builds one equation per Fourier index and eliminates
fraction-free (Bareiss cross-multiplication with exact ring divisions) over
symbolic numbers; every row of a solved system has a structurally zero
residual.  The fast path applies the observed coefficient recursion plus the
zero-mode formula; it is marked conjectural until cross-checked against the
direct solver.
"""

from __future__ import annotations

import functools
import inspect
import time
from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from typing import NamedTuple

from . import circle
from .pfseries import operator_order
from .symfield import SymNumber


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


@dataclass(frozen=True)
class MomentSystem:
    k: int
    m: int
    rows: tuple[MomentRow, ...]

    @property
    def width(self) -> int:
        return len(self.rows[0].coeffs)


@dataclass(frozen=True)
class TauVector:
    """Exact coordinates of the generating series in the canonical basis."""

    k: int
    m: int
    entries: tuple[SymNumber, ...]
    provenance: str = "direct"  # "direct" | "fast"
    conjectural: bool = False

    @property
    def order(self) -> int:
        return len(self.entries)


def assemble_system(k: int, m: int, moment_indices) -> MomentSystem:
    indices = list(moment_indices)
    order = operator_order(k, m)
    if len(set(indices)) != len(indices):
        raise ValueError("moment indices must be distinct")
    if len(indices) < order:
        raise ValueError(f"need at least {order} moment indices, got {len(indices)}")
    rows = []
    for n in indices:
        coeffs = tuple(circle.basis_moment(k, m, i, n) for i in range(order))
        rhs = SymNumber.from_rational(circle.pi_moment(k, m, n))
        rows.append(MomentRow(n, coeffs, rhs))
    return MomentSystem(k, m, tuple(rows))


def fraction_free_solve(system: MomentSystem) -> TauVector:
    """Bareiss elimination over symbolic numbers with exact back substitution.

    Pivots are chosen fewest-monomials-first to limit intermediate swell.
    Rows beyond the width act as consistency checks; a residual is recomputed
    for every original row at the end.
    """
    width = system.width
    nrows = len(system.rows)
    if nrows < width:
        raise ValueError("system is underdetermined")
    mat = [list(row.coeffs) + [row.rhs] for row in system.rows]
    indices = [row.n for row in system.rows]

    prev = SymNumber.from_rational(1)
    for col in range(width):
        pivot_row = None
        pivot_size = None
        for r in range(col, nrows):
            if not mat[r][col].is_zero():
                size = len(mat[r][col])
                if pivot_size is None or size < pivot_size:
                    pivot_row, pivot_size = r, size
        if pivot_row is None:
            raise SingularSystem(indices)
        if pivot_row != col:
            mat[col], mat[pivot_row] = mat[pivot_row], mat[col]
        pivot = mat[col][col]
        for r in range(col + 1, nrows):
            lead = mat[r][col]
            # rows with a zero leading entry still rescale, keeping every
            # entry an exact minor (the Bareiss divisibility invariant)
            for c in range(col + 1, width + 1):
                mat[r][c] = (pivot * mat[r][c] - lead * mat[col][c]).exact_div(prev)
            mat[r][col] = SymNumber.zero()
        prev = pivot

    for r in range(width, nrows):
        if not mat[r][width].is_zero():
            raise InconsistentSystem(
                f"extra moment row n={indices[r]} has nonzero residual")

    entries: list[SymNumber] = [SymNumber.zero()] * width
    for col in range(width - 1, -1, -1):
        acc = mat[col][width]
        for c in range(col + 1, width):
            acc = acc - mat[col][c] * entries[c]
        entries[col] = acc.exact_div(mat[col][col])

    for row in system.rows:
        residual = row.rhs
        for coeff, value in zip(row.coeffs, entries):
            residual = residual - coeff * value
        if not residual.is_zero():
            raise InconsistentSystem(f"row n={row.n} residual is nonzero")

    return TauVector(system.k, system.m, tuple(entries))


_MAX_EXTRA_INDICES = 6


@functools.cache
def solve_tau_direct(k: int, m: int) -> TauVector:
    """Solve the moment system for indices 0..order-1, widening on singularity."""
    if k < 2:
        raise ValueError("k must be >= 2")
    order = operator_order(k, m)
    for extra in range(_MAX_EXTRA_INDICES + 1):
        indices = list(range(order + extra))
        try:
            return fraction_free_solve(assemble_system(k, m, indices))
        except SingularSystem:
            if extra == _MAX_EXTRA_INDICES:
                raise
    raise AssertionError("unreachable")


@functools.cache
def solve_tau_fast(k: int, m: int) -> TauVector:
    """Recursive coefficient rule plus the zero-mode formula.

    Entry i comes from -1/i times entry i-1 at k-1; the head entry is minus
    the weighted sum of the zero moments of the basis elements.  Results are
    conjectural (the rule is verified, not proven) except for the base k = 2,
    which is the direct solution.
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    if k == 2:
        return solve_tau_direct(2, m)
    # fill the memo upward so the recursion stays two frames deep at any k
    for j in range(3, k):
        solve_tau_fast(j, m)
    prev = solve_tau_fast(k - 1, m)
    order = operator_order(k, m)
    entries = [SymNumber.zero()] * order
    for i in range(1, order):
        entries[i] = prev.entries[i - 1] / Fraction(-i)
    head = SymNumber.zero()
    for i in range(1, order):
        if not entries[i].is_zero():
            head = head - entries[i] * circle.basis_moment(k, m, i, 0)
    entries[0] = head
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


@dataclass(frozen=True)
class ConjectureReport:
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


def check_conjecture(k_max: int, m: int) -> ConjectureReport:
    """Compare the fast recursion against the direct solver for k = 3..k_max.

    A mismatch would be a mathematical finding rather than a bug, provided the
    direct pipeline passes its own residual checks; it is surfaced per-k.
    A direct solve answered by the memo table is flagged `direct_cached`, so
    its time is not read as a solve time.
    """
    if k_max < 3:
        return ConjectureReport(m, k_max, ())
    # the memo table, also when an outside wrapper (a tracer) rebound the name
    memo = inspect.unwrap(solve_tau_direct,
                          stop=lambda f: hasattr(f, "cache_info"))
    checks = []
    for k in range(3, k_max + 1):
        hits = memo.cache_info().hits
        t0 = time.perf_counter()
        direct = solve_tau_direct(k, m)
        t1 = time.perf_counter()
        cached = memo.cache_info().hits > hits
        fast = solve_tau_fast(k, m)
        t2 = time.perf_counter()
        matches = all(a == b for a, b in zip(direct.entries, fast.entries))
        checks.append(ConjectureCheck(k, matches, t1 - t0, t2 - t1, cached))
    return ConjectureReport(m, k_max, tuple(checks))
