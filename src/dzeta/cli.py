"""Command-line surface: coordinate tables, identity catalog, conjecture and
basis checks, numeric certification.

Exit codes: 0 ok, 1 numeric verification failure, 2 singular system,
3 inconsistent identity, 4 bad configuration, 5 numeric precision
unreachable within the oracle's term budget.  All JSON artifacts are written
atomically and are byte-identical across reruns except for the timestamp
field.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import dataclass
from fractions import Fraction

from . import identities, numverify, pfseries, tausolver
from .symfield import render, to_json_dict

EXIT_OK = 0
EXIT_NUMERIC_FAILURE = 1
EXIT_SINGULAR = 2
EXIT_INCONSISTENT = 3
EXIT_BAD_CONFIG = 4
EXIT_PRECISION_UNREACHABLE = 5


@dataclass
class RunConfig:
    k: int = 2
    k_max: int | None = None
    m_set: tuple[int, ...] = (1, 2)
    trunc: int = 200
    digits: int = 12
    tolerance: float = 1e-8
    out_dir: str | None = None
    fmt: str = "plain"
    mode: str = "direct"
    style: str = "even-zeta"

    def k_range(self) -> range:
        hi = self.k_max if self.k_max is not None else self.k
        return range(self.k, hi + 1)

    def validate(self) -> list[str]:
        problems = []
        if self.k < 2:
            problems.append("k must be >= 2")
        if self.k_max is not None and self.k_max < self.k:
            problems.append("k-max must be >= k")
        if not self.m_set or any(m not in (1, 2) for m in self.m_set):
            problems.append("m must be a subset of {1,2}")
        if self.digits < 10:
            problems.append("digits must be >= 10")
        if self.trunc < 50:
            problems.append("truncation must be >= 50")
        if self.mode not in ("direct", "fast"):
            problems.append("mode must be direct or fast")
        if self.style not in ("even-zeta", "pi-power"):
            problems.append("style must be even-zeta or pi-power")
        if self.fmt not in ("plain", "json"):
            problems.append("format must be plain or json")
        return problems


def _write_json(path: str, payload: dict) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")
    os.replace(tmp, path)


def _out_path(cfg: RunConfig, name: str) -> str:
    os.makedirs(cfg.out_dir, exist_ok=True)
    return os.path.join(cfg.out_dir, name)


def _stamp() -> str:
    return time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime())


def _solve(k: int, m: int, mode: str) -> tausolver.TauVector:
    if mode == "fast":
        return tausolver.solve_tau_fast(k, m)
    return tausolver.solve_tau_direct(k, m)


def _tau_payload(tau: tausolver.TauVector, cfg: RunConfig) -> dict:
    return {
        "k": tau.k,
        "m": tau.m,
        "mode": tau.provenance,
        "conjectural": tau.conjectural,
        "style": cfg.style,
        "entries": [
            {"i": i, "text": render(v, "plain", cfg.style),
             "latex": render(v, "latex", cfg.style), "value": to_json_dict(v)}
            for i, v in enumerate(tau.entries)
        ],
        "timestamp": _stamp(),
    }


def cmd_toy(cfg: RunConfig, corrupt: bool = False) -> int:
    tau, fourier = identities.toy_example()
    if corrupt:
        fourier = identities.FourierIdentity(
            fourier.constant + Fraction(1, 10 ** 6),
            fourier.linear, fourier.quadratic)
    samples = [Fraction(0), Fraction(1, 8), Fraction(1, 4), Fraction(3, 8),
               Fraction(1, 2)]
    report = numverify.fourier_spot_check(samples, cfg.digits, 1e-10,
                                          identity=fourier)
    payload = {
        "tau": [to_json_dict(v) for v in tau],
        "fourier": report.to_json_dict(),
        "timestamp": _stamp(),
    }
    if cfg.fmt == "json":
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        texts = ", ".join(render(v, "plain", "pi-power") for v in tau)
        print(f"tau = ({texts})")
        status = "pass" if report.passed else "FAIL"
        print(f"fourier identity at t in {{0, 1/8, 1/4, 3/8, 1/2}}: {status} "
              f"(max abs error {report.abs_error:.3e})")
    if cfg.out_dir:
        _write_json(_out_path(cfg, "toy.json"), payload)
    return EXIT_OK if report.passed else EXIT_NUMERIC_FAILURE


def cmd_tau(cfg: RunConfig, verify: bool = False) -> int:
    for m in cfg.m_set:
        for k in cfg.k_range():
            try:
                tau = _solve(k, m, cfg.mode)
            except tausolver.SingularSystem as exc:
                print(f"singular system for (k={k}, m={m}): {exc}", file=sys.stderr)
                return EXIT_SINGULAR
            conjectural = tau.conjectural
            if conjectural and verify:
                direct = tausolver.solve_tau_direct(k, m)
                if all(a == b for a, b in zip(direct.entries, tau.entries)):
                    conjectural = False
                else:
                    print(f"fast/direct mismatch at (k={k}, m={m})", file=sys.stderr)
                    return EXIT_INCONSISTENT
            if cfg.fmt == "json":
                print(json.dumps(_tau_payload(tau, cfg), sort_keys=True))
            else:
                flag = " (conjectural)" if conjectural else ""
                print(f"# coordinates for (k={k}, m={m}), {tau.provenance}{flag}")
                for i, value in enumerate(tau.entries):
                    print(f"tau[{k},{m}][{i}] = {render(value, 'plain', cfg.style)}")
            if cfg.out_dir:
                _write_json(_out_path(cfg, f"tau_{k}_{m}.json"),
                            _tau_payload(tau, cfg))
    return EXIT_OK


def _derive_records(cfg: RunConfig):
    for m in cfg.m_set:
        for k in cfg.k_range():
            tau = _solve(k, m, cfg.mode)
            for point in (-1, 1):
                yield identities.derive_identity(k, m, point, tau)


def cmd_derive(cfg: RunConfig, do_verify: bool = True) -> int:
    reports = []
    records = []
    try:
        for rec in _derive_records(cfg):
            verified = None
            if rec.kind != "trivial" and do_verify:
                report = numverify.verify_identity_numeric(rec, cfg.digits,
                                                           cfg.tolerance)
                reports.append(report)
                verified = report.passed
            records.append((rec, verified))
            if cfg.fmt == "plain":
                tag = {"dzv": "value", "alt": "alternating", "trivial": "trivial"}
                suffix = ""
                if verified is not None:
                    suffix = "  [numeric ok]" if verified else "  [NUMERIC FAIL]"
                print(f"(k={rec.k}, m={rec.m}, point={rec.point:+d}) "
                      f"{tag[rec.kind]}: "
                      f"{identities.render_identity(rec, 'plain', cfg.style)}{suffix}")
            else:
                print(json.dumps(identities.identity_to_json_dict(rec, verified),
                                 sort_keys=True))
            if cfg.out_dir:
                name = f"identity_{rec.k}_{rec.m}_{'m1' if rec.point < 0 else 'p1'}.json"
                payload = identities.identity_to_json_dict(rec, verified)
                payload["text"] = identities.render_identity(rec, "plain", cfg.style)
                payload["timestamp"] = _stamp()
                _write_json(_out_path(cfg, name), payload)
    except identities.InconsistentIdentity as exc:
        print(f"inconsistent identity: {exc}", file=sys.stderr)
        return EXIT_INCONSISTENT
    except tausolver.SingularSystem as exc:
        print(f"singular system: {exc}", file=sys.stderr)
        return EXIT_SINGULAR
    except numverify.PrecisionUnreachable as exc:
        print(f"precision unreachable: {exc}", file=sys.stderr)
        return EXIT_PRECISION_UNREACHABLE
    if cfg.out_dir:
        _write_json(_out_path(cfg, "report.json"), {
            "identities": [identities.identity_to_json_dict(r, v)
                           for r, v in records],
            "numeric_reports": [r.to_json_dict() for r in reports],
            "summary": {
                "identities": len(records),
                "verified": sum(1 for r in reports if r.passed),
                "failed": sum(1 for r in reports if not r.passed),
            },
            "timestamp": _stamp(),
        })
    if any(not r.passed for r in reports):
        return EXIT_NUMERIC_FAILURE
    return EXIT_OK


def cmd_check_conjecture(cfg: RunConfig) -> int:
    ok = True
    for m in cfg.m_set:
        k_max = cfg.k_max if cfg.k_max is not None else cfg.k
        report = tausolver.check_conjecture(k_max, m)
        for line in report.lines():
            print(line)
        if not report.checks:
            print(f"m={m}: vacuous (k_max < 3)")
        ok = ok and report.all_pass
        if cfg.out_dir:
            _write_json(_out_path(cfg, f"conjecture_m{m}.json"), {
                "m": m,
                "k_max": k_max,
                "all_pass": report.all_pass,
                "checks": [{"k": c.k, "matches": c.matches,
                            "direct_cached": c.direct_cached,
                            "direct_seconds": round(c.direct_seconds, 6),
                            "fast_seconds": round(c.fast_seconds, 6)}
                           for c in report.checks],
                "timestamp": _stamp(),
            })
    return EXIT_OK if ok else EXIT_INCONSISTENT


def cmd_basis_check(cfg: RunConfig) -> int:
    """Recursion closure, operator annihilation, and basis-form agreement."""
    failures = []
    trunc = cfg.trunc
    for m in cfg.m_set:
        for k in cfg.k_range():
            local = pfseries.recursion_closure_violations(k, m, trunc)
            op = pfseries.pf_operator(k, m, pfseries.CHART_INV)
            for i, element in enumerate(pfseries.canonical_basis(k, m, trunc)):
                image = pfseries.apply_operator(op, element)
                if not image.is_zero_through(image.valid_order):
                    local.append(f"basis ({k},{m}) element {i} not annihilated")
            op_phi = pfseries.pf_operator(k, m, pfseries.CHART_PHI)
            image = pfseries.apply_operator(op_phi, pfseries.pi_series(k, m, trunc))
            if not image.is_zero_through(image.valid_order):
                local.append(f"series ({k},{m}) not annihilated")
            direct = pfseries.canonical_basis(k, m, trunc, form="direct")
            rewritten = pfseries.canonical_basis(k, m, trunc, form="rewritten")
            if direct != rewritten:
                local.append(f"basis forms disagree for ({k},{m})")
            print(f"(k={k}, m={m}): " + ("ok" if not local else "FAIL"))
            failures.extend(local)
    for f in failures:
        print(f, file=sys.stderr)
    return EXIT_OK if not failures else EXIT_INCONSISTENT


def cmd_verify(cfg: RunConfig) -> int:
    return cmd_derive(cfg, do_verify=True)


def _parse_m(text: str) -> tuple[int, ...]:
    return tuple(sorted({int(piece) for piece in text.split(",") if piece}))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dzeta",
        description="Exact double-zeta evaluations from differential-equation "
                    "solution bases and circle moments")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_mode=True):
        p.add_argument("--k", type=int, default=2)
        p.add_argument("--k-max", type=int, default=None)
        p.add_argument("--m", type=_parse_m, default=(1, 2),
                       help="comma-separated subset of 1,2")
        p.add_argument("--digits", type=int, default=12)
        p.add_argument("--tol", type=float, default=1e-8)
        p.add_argument("--trunc", type=int, default=200)
        p.add_argument("--style", choices=("even-zeta", "pi-power"),
                       default="even-zeta")
        p.add_argument("--format", dest="fmt", choices=("plain", "json"),
                       default="plain")
        p.add_argument("--out", dest="out_dir", default=None)
        if with_mode:
            p.add_argument("--mode", choices=("direct", "fast"), default="direct")

    p_toy = sub.add_parser("toy", help="run the order-3 warm-up example")
    common(p_toy, with_mode=False)
    p_toy.add_argument("--corrupt", action="store_true",
                       help="perturb the identity to exercise the detector")

    p_tau = sub.add_parser("tau", help="print coordinate tables")
    common(p_tau)
    p_tau.add_argument("--verify", action="store_true",
                       help="cross-check fast results against the direct solver")

    p_derive = sub.add_parser("derive", help="derive and certify identities")
    common(p_derive)
    p_derive.add_argument("--no-verify", action="store_true",
                          help="skip numeric certification")

    p_conj = sub.add_parser("check-conjecture",
                            help="compare fast and direct coordinates")
    common(p_conj)

    p_basis = sub.add_parser("basis-check",
                             help="operator annihilation and form agreement")
    common(p_basis)

    p_verify = sub.add_parser("verify", help="alias of derive with certification")
    common(p_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    cfg = RunConfig(
        k=args.k, k_max=args.k_max, m_set=args.m, trunc=args.trunc,
        digits=args.digits, tolerance=args.tol, out_dir=args.out_dir,
        fmt=args.fmt, mode=getattr(args, "mode", "direct"), style=args.style)
    problems = cfg.validate()
    if problems:
        for p in problems:
            print(f"bad configuration: {p}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    if args.command == "toy":
        return cmd_toy(cfg, corrupt=args.corrupt)
    if args.command == "tau":
        return cmd_tau(cfg, verify=args.verify)
    if args.command == "derive":
        return cmd_derive(cfg, do_verify=not args.no_verify)
    if args.command == "check-conjecture":
        return cmd_check_conjecture(cfg)
    if args.command == "basis-check":
        return cmd_basis_check(cfg)
    if args.command == "verify":
        return cmd_verify(cfg)
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
