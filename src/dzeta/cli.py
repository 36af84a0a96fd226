"""Command-line surface: coordinate tables, identity catalog, conjecture and
basis checks, numeric certification.

Each subcommand accepts only the flags it reads (`COMMANDS`); any other is a
usage error.  `--digits` is the one precision knob: it sets the oracle's
precision, and a check passes when its two sides agree to digits - 4 digits
(identities) or digits - 2 (`toy`).  Exit codes: 0 ok, 1 numeric verification
failure, 2 singular system, 3 inconsistent system or identity, 4 bad
configuration, usage error or unwritable `--out`, 5 numeric precision
unreachable within the oracle's term budget, 141 stdout closed by the reader
of a command that itself succeeded (as by `| head`; 128 + SIGPIPE, with no
traceback; a failure keeps its own code).  Each failure of the solver, the
oracle or `--out` prints one `<kind>: <message>` line on stderr (`FAILURES`).
All JSON artifacts are written atomically and are byte-identical across
reruns except for the timestamp field and the
`direct_seconds`/`fast_seconds` timings of `conjecture_m{m}.json`.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from fractions import Fraction
from typing import NamedTuple

from . import identities, numverify, pfseries, tausolver
from .symfield import render, to_json_dict

EXIT_OK = 0
EXIT_NUMERIC_FAILURE = 1
EXIT_SINGULAR = 2
EXIT_INCONSISTENT = 3
EXIT_BAD_CONFIG = 4
EXIT_PRECISION_UNREACHABLE = 5
EXIT_BROKEN_PIPE = 141

# The oracle's term budgets stop near 38 digits (derive, verify) and 71 (toy),
# so a larger request can only exit 5, and a huge one takes minutes to do so.
MAX_DIGITS = 1000


class RunConfig(NamedTuple):
    k: int = 2
    k_max: int | None = None
    m_set: tuple[int, ...] = (1, 2)
    trunc: int = 200
    digits: int = 12
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
        if not 10 <= self.digits <= MAX_DIGITS:
            problems.append(f"digits must be between 10 and {MAX_DIGITS}")
        if self.trunc < 50:
            problems.append("truncation must be >= 50")
        return problems


def _write_json(out_dir: str, name: str, payload: dict) -> None:
    path = os.path.join(out_dir, name)
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")
    os.replace(tmp, path)


def _stamp() -> str:
    return time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime())


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
    report = numverify.fourier_spot_check(samples, cfg.digits, identity=fourier)
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
        _write_json(cfg.out_dir, "toy.json", payload)
    return EXIT_OK if report.passed else EXIT_NUMERIC_FAILURE


def cmd_tau(cfg: RunConfig, verify: bool = False) -> int:
    solve = (tausolver.solve_tau_fast if cfg.mode == "fast"
             else tausolver.solve_tau_direct)
    for m in cfg.m_set:
        for k in cfg.k_range():
            tau = solve(k, m)
            if tau.conjectural and verify:
                direct = tausolver.solve_tau_direct(k, m)
                if direct.entries != tau.entries:
                    raise tausolver.InconsistentSystem(
                        f"fast/direct mismatch at (k={k}, m={m})")
                tau = tau._replace(conjectural=False)
            if cfg.fmt == "json" or cfg.out_dir:
                payload = _tau_payload(tau, cfg)
            if cfg.fmt == "json":
                print(json.dumps(payload, sort_keys=True))
            else:
                flag = " (conjectural)" if tau.conjectural else ""
                print(f"# coordinates for (k={k}, m={m}), {tau.provenance}{flag}")
                for i, value in enumerate(tau.entries):
                    print(f"tau[{k},{m}][{i}] = {render(value, 'plain', cfg.style)}")
            if cfg.out_dir:
                _write_json(cfg.out_dir, f"tau_{k}_{m}.json", payload)
    return EXIT_OK


def _derive_records(cfg: RunConfig):
    for m in cfg.m_set:
        for k in cfg.k_range():
            tau = tausolver.solve_tau_direct(k, m) if cfg.mode == "direct" else None
            for point in (-1, 1):
                yield (identities.derive_identity_fast(k, m, point) if tau is None
                       else identities.derive_identity(k, m, point, tau))


def cmd_derive(cfg: RunConfig, do_verify: bool = True) -> int:
    reports = []
    entries = []  # report.json's identities, each without text or timestamp
    for rec in _derive_records(cfg):
        verified = None
        if rec.kind != "trivial" and do_verify:
            report = numverify.verify_identity_numeric(rec, cfg.digits)
            reports.append(report)
            verified = report.passed
        if cfg.fmt == "json" or cfg.out_dir:
            data = identities.identity_to_json_dict(rec, verified)
        if cfg.fmt == "plain" or cfg.out_dir:
            text = identities.render_identity(rec, "plain", cfg.style)
        if cfg.fmt == "plain":
            tag = {"dzv": "value", "alt": "alternating", "trivial": "trivial"}
            suffix = ""
            if verified is not None:
                suffix = "  [numeric ok]" if verified else "  [NUMERIC FAIL]"
            print(f"(k={rec.k}, m={rec.m}, point={rec.point:+d}) "
                  f"{tag[rec.kind]}: {text}{suffix}")
        else:
            print(json.dumps(data, sort_keys=True))
        if cfg.out_dir:
            entries.append(data)
            name = f"identity_{rec.k}_{rec.m}_{'m1' if rec.point < 0 else 'p1'}.json"
            _write_json(cfg.out_dir, name,
                        {**data, "text": text, "timestamp": _stamp()})
    if cfg.out_dir:
        _write_json(cfg.out_dir, "report.json", {
            "identities": entries,
            "numeric_reports": [r.to_json_dict() for r in reports],
            "summary": {
                "identities": len(entries),
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
        report = tausolver.check_conjecture(k_max, m, cfg.k)
        for line in report.lines():
            print(line)
        if not report.checks:
            print(f"m={m}: vacuous (k_max < 3)")
        ok = ok and report.all_pass
        if cfg.out_dir:
            _write_json(cfg.out_dir, f"conjecture_m{m}.json", {
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
    """Print ok or FAIL per (k, m) from `pfseries.basis_violations`, then
    every message on stderr."""
    failures = []
    for m in cfg.m_set:
        for k in cfg.k_range():
            local = pfseries.basis_violations(k, m, cfg.trunc)
            print(f"(k={k}, m={m}): " + ("ok" if not local else "FAIL"))
            failures.extend(local)
    for f in failures:
        print(f, file=sys.stderr)
    return EXIT_OK if not failures else EXIT_INCONSISTENT


def cmd_verify(cfg: RunConfig) -> int:
    return cmd_derive(cfg, do_verify=True)


def _parse_m(text: str) -> tuple[int, ...]:
    return tuple(sorted({int(piece) for piece in text.split(",") if piece}))


# flag -> add_argument keywords.  Each dest is a RunConfig field or a keyword
# of the subcommand's cmd_* function; a flag left out keeps that default.
FLAGS = {
    "--k": {"type": int},
    "--k-max": {"type": int},
    "--m": {"dest": "m_set", "metavar": "M", "type": _parse_m,
            "help": "comma-separated subset of 1,2"},
    "--mode": {"choices": ("direct", "fast")},
    "--digits": {"type": int},
    "--trunc": {"type": int},
    "--style": {"choices": ("even-zeta", "pi-power")},
    "--format": {"dest": "fmt", "choices": ("plain", "json")},
    "--out": {"dest": "out_dir"},
    "--corrupt": {"action": "store_true",
                  "help": "perturb the identity to exercise the detector"},
    "--verify": {"action": "store_true",
                 "help": "cross-check fast results against the direct solver"},
    "--no-verify": {"dest": "do_verify", "action": "store_false",
                    "help": "skip numeric certification"},
}
_VERIFY_FLAGS = ("--k", "--k-max", "--m", "--mode", "--digits", "--style",
                 "--format", "--out")
# subcommand (run by cmd_<name>) -> (help, the flags it reads)
COMMANDS = {
    "toy": ("run the order-3 warm-up example",
            ("--digits", "--format", "--out", "--corrupt")),
    "tau": ("print coordinate tables",
            ("--k", "--k-max", "--m", "--mode", "--style", "--format", "--out",
             "--verify")),
    "derive": ("derive and certify identities", (*_VERIFY_FLAGS, "--no-verify")),
    "check-conjecture": ("compare fast and direct coordinates",
                         ("--k", "--k-max", "--m", "--out")),
    "basis-check": ("operator annihilation and form agreement",
                    ("--k", "--k-max", "--m", "--trunc")),
    "verify": ("alias of derive with certification", _VERIFY_FLAGS),
}
# exception -> (exit code, the kind that starts its one line on stderr)
FAILURES = {
    tausolver.SingularSystem: (EXIT_SINGULAR, "singular system"),
    tausolver.InconsistentSystem: (EXIT_INCONSISTENT, "inconsistent system"),
    identities.InconsistentIdentity: (EXIT_INCONSISTENT, "inconsistent identity"),
    OSError: (EXIT_BAD_CONFIG, "bad configuration"),  # --out not writable
    numverify.PrecisionUnreachable: (EXIT_PRECISION_UNREACHABLE,
                                     "precision unreachable"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dzeta",
        description="Exact double-zeta evaluations from differential-equation "
                    "solution bases and circle moments")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, flags) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text,
                           argument_default=argparse.SUPPRESS)
        for flag in flags:
            p.add_argument(flag, **FLAGS[flag])
    return parser


def main(argv=None) -> int:
    try:
        args = vars(build_parser().parse_args(argv))
    except SystemExit as exc:
        # argparse exits 2 on a usage error, which is EXIT_SINGULAR here
        return EXIT_OK if not exc.code else EXIT_BAD_CONFIG
    command = args.pop("command")
    names = RunConfig._fields
    cfg = RunConfig(**{n: v for n, v in args.items() if n in names})
    problems = cfg.validate()
    if problems:
        for p in problems:
            print(f"bad configuration: {p}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    try:
        if cfg.out_dir:
            os.makedirs(cfg.out_dir, exist_ok=True)
        # looked up at call time, so that wrappers set on this module apply
        cmd = globals()["cmd_" + command.replace("-", "_")]
        code = cmd(cfg, **{n: v for n, v in args.items() if n not in names})
    except BrokenPipeError:
        code = EXIT_BROKEN_PIPE  # a closed stdout, not an --out failure
    except tuple(FAILURES) as exc:
        code, kind = next(v for cls, v in FAILURES.items() if isinstance(exc, cls))
        print(f"{kind}: {exc}", file=sys.stderr)
    try:
        sys.stdout.flush()  # a reader that closed stdout early is seen here
    except BrokenPipeError:
        # fd 1 now points at devnull, so the flush at interpreter exit cannot
        # raise again; a failure keeps its own code
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, 1)
        os.close(devnull)
        if code == EXIT_OK:
            code = EXIT_BROKEN_PIPE
    return code


if __name__ == "__main__":
    sys.exit(main())
