"""Tests for the command-line interface and its artifact files."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from dzeta import circle, cli, numverify, pfseries, tausolver
from dzeta.symfield import SymNumber

# Outputs recorded before the coefficient field moved from Q(i) to
# Q[P, zeta(3), ...] with P = i*pi, timestamps blanked.  Rerecord them only
# for an intended change of the output bytes.
GOLDEN = Path(__file__).parent / "golden_outputs"


def run(capsys, *args):
    code = cli.main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_toy_default(capsys):
    code, out, _ = run(capsys, "toy")
    assert code == 0
    assert "tau = (-1/6*pi^2, 0, -1/2)" in out
    assert "pass" in out


def test_toy_corrupt_flag(capsys):
    code, out, _ = run(capsys, "toy", "--corrupt")
    assert code == 1


def test_toy_json(capsys):
    code, out, _ = run(capsys, "toy", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["fourier"]["passed"] is True
    assert len(payload["tau"]) == 3


def test_tau_table_7_1(capsys):
    code, out, _ = run(capsys, "tau", "--k", "7", "--m", "1")
    assert code == 0
    assert "tau[7,1][0] = 381/64*zeta(8)" in out


def test_tau_table_6_2(capsys):
    code, out, _ = run(capsys, "tau", "--k", "6", "--m", "2")
    assert code == 0
    assert "tau[6,2][0] = -4501/192*zeta(8)" in out


def test_tau_fast_flags_conjectural(capsys):
    code, out, _ = run(capsys, "tau", "--k", "4", "--m", "1", "--mode", "fast")
    assert code == 0
    assert "(conjectural)" in out
    code, out, _ = run(capsys, "tau", "--k", "4", "--m", "1", "--mode", "fast",
                       "--verify")
    assert code == 0
    assert "(conjectural)" not in out


def test_tau_fast_verify_clears_conjectural_in_json(tmp_path, capsys):
    # stdout JSON and the --out file carry the verified status, as the plain
    # output does
    for extra, expected in (((), True), (("--verify",), False)):
        out_dir = tmp_path / f"out{len(extra)}"
        code, out, _ = run(capsys, "tau", "--k", "5", "--m", "1", "--mode",
                           "fast", *extra, "--format", "json", "--out",
                           str(out_dir))
        assert code == 0
        assert json.loads(out)["conjectural"] is expected
        data = json.loads((out_dir / "tau_5_1.json").read_text())
        assert data["conjectural"] is expected


def test_tau_fast_base_case_matches_direct(capsys):
    code, fast_out, _ = run(capsys, "tau", "--k", "2", "--m", "1",
                            "--mode", "fast")
    assert code == 0
    code, direct_out, _ = run(capsys, "tau", "--k", "2", "--m", "1")
    assert code == 0
    assert fast_out.replace("fast", "direct") == direct_out


def test_bad_config_exit_code(capsys):
    assert run(capsys, "tau", "--k", "1")[0] == cli.EXIT_BAD_CONFIG
    assert run(capsys, "derive", "--k", "2", "--digits", "5")[0] \
        == cli.EXIT_BAD_CONFIG
    assert run(capsys, "tau", "--k", "3", "--m", "4")[0] == cli.EXIT_BAD_CONFIG
    assert run(capsys, "tau", "--k", "3", "--trunc", "10")[0] \
        == cli.EXIT_BAD_CONFIG
    for tol in ("nan", "-1", "0", "1e10"):
        code, _, err = run(capsys, "derive", "--k", "4", "--m", "1", "--tol", tol)
        assert code == cli.EXIT_BAD_CONFIG
        assert "usage: dzeta" in err


def test_digits_above_the_limit_is_bad_config(capsys):
    # past the oracle's term budgets every run exits 5; a huge request is
    # refused before it spends minutes getting there
    code, out, err = run(capsys, "derive", "--k", "2", "--k-max", "3", "--m",
                         "1", "--digits", str(cli.MAX_DIGITS + 1))
    assert code == cli.EXIT_BAD_CONFIG
    assert out == ""
    assert err == "bad configuration: digits must be between 10 and " \
        f"{cli.MAX_DIGITS}\n"
    code, _, err = run(capsys, "verify", "--k", "2", "--m", "1", "--digits",
                       str(cli.MAX_DIGITS))
    assert code == cli.EXIT_PRECISION_UNREACHABLE
    assert err.startswith("precision unreachable: ")


def test_singular_system_exit_code(capsys, monkeypatch):
    def boom(k, m):
        raise tausolver.SingularSystem([0, 1, 2])

    monkeypatch.setattr(tausolver, "solve_tau_direct", boom)
    assert run(capsys, "tau", "--k", "2", "--m", "1")[0] == cli.EXIT_SINGULAR


def test_derive_catalog(tmp_path, capsys):
    out_dir = tmp_path / "out"
    code, out, _ = run(capsys, "derive", "--k", "2", "--k-max", "3",
                       "--m", "1,2", "--out", str(out_dir))
    assert code == 0
    names = sorted(p.name for p in out_dir.iterdir())
    assert "identity_2_1_m1.json" in names
    assert "identity_3_2_p1.json" in names
    assert "report.json" in names
    data = json.loads((out_dir / "identity_2_1_m1.json").read_text())
    assert data["kind"] == "dzv"
    assert data["lhs"] == "zeta(2,1)"
    assert data["verified_numeric"] is True
    assert data["text"] == "zeta(2,1) = zeta(3)"
    trivial = json.loads((out_dir / "identity_3_1_m1.json").read_text())
    assert trivial["kind"] == "trivial"
    report = json.loads((out_dir / "report.json").read_text())
    assert report["summary"]["failed"] == 0
    assert report["summary"]["identities"] == 8


def test_derive_no_verify_fast(tmp_path, capsys):
    code, out, _ = run(capsys, "derive", "--k", "4", "--m", "1",
                       "--mode", "fast", "--no-verify")
    assert code == 0
    assert "zeta(4,1) = 2*zeta(5) - zeta(2)*zeta(3)" in out


def test_derive_new_identity_beyond_tables(capsys):
    # weight-11 evaluation, not in the frozen tables; certified numerically
    code, out, _ = run(capsys, "derive", "--k", "10", "--m", "1")
    assert code == 0
    assert "zeta(10,1) = " in out
    assert "[numeric ok]" in out
    assert "5*zeta(11)" in out  # leading term of the weight-11 evaluation


def test_derive_json_deterministic(tmp_path, capsys):
    first = tmp_path / "a"
    second = tmp_path / "b"
    run(capsys, "derive", "--k", "2", "--m", "1", "--out", str(first))
    run(capsys, "derive", "--k", "2", "--m", "1", "--out", str(second))
    for name in ("identity_2_1_m1.json", "identity_2_1_p1.json"):
        a = json.loads((first / name).read_text())
        b = json.loads((second / name).read_text())
        a.pop("timestamp"), b.pop("timestamp")
        assert a == b


def _count_calls(monkeypatch, module, name, calls):
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls[name] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)


def test_derive_builds_each_artifact_once(tmp_path, capsys, monkeypatch):
    calls = {"identity_to_json_dict": 0, "render_identity": 0}
    for name in calls:
        _count_calls(monkeypatch, cli.identities, name, calls)
    out_dir = tmp_path / "out"
    code, out, _ = run(capsys, "derive", "--k", "2", "--k-max", "3", "--m", "1",
                       "--no-verify", "--format", "json", "--out", str(out_dir))
    assert code == 0
    assert calls == {"identity_to_json_dict": 4, "render_identity": 4}
    report = json.loads((out_dir / "report.json").read_text())
    assert [json.loads(line) for line in out.splitlines()] == report["identities"]
    for entry in report["identities"]:
        assert "text" not in entry and "timestamp" not in entry
    written = json.loads((out_dir / "identity_2_1_m1.json").read_text())
    assert written.pop("text") == "zeta(2,1) = zeta(3)"
    written.pop("timestamp")
    assert written == report["identities"][0]


def test_tau_builds_each_payload_once(tmp_path, capsys, monkeypatch):
    calls = {"_tau_payload": 0}
    _count_calls(monkeypatch, cli, "_tau_payload", calls)
    out_dir = tmp_path / "out"
    code, out, _ = run(capsys, "tau", "--k", "2", "--k-max", "3", "--m", "1,2",
                       "--format", "json", "--out", str(out_dir))
    assert code == 0
    assert calls == {"_tau_payload": 4}
    assert [json.loads(line) for line in out.splitlines()] \
        == [json.loads((out_dir / f"tau_{k}_{m}.json").read_text())
            for m in (1, 2) for k in (2, 3)]


def test_check_conjecture_cli(tmp_path, capsys):
    out_dir = tmp_path / "out"
    code, out, _ = run(capsys, "check-conjecture", "--k", "2", "--k-max", "5",
                       "--m", "1", "--out", str(out_dir))
    assert code == 0
    assert "k= 5 m=1: pass" in out
    payload = json.loads((out_dir / "conjecture_m1.json").read_text())
    assert payload["all_pass"] is True


def test_check_conjecture_cli_starts_at_k(capsys):
    code, out, _ = run(capsys, "check-conjecture", "--k", "4", "--k-max", "5",
                       "--m", "1")
    assert code == 0
    # each line ends in its timings: "k= 4 m=1: pass (direct ...s, fast ...s)"
    assert [line.split(" (")[0] for line in out.splitlines()] == [
        "k= 4 m=1: pass", "k= 5 m=1: pass"]


def test_fast_verify_rejects_a_truncated_vector(capsys, monkeypatch):
    honest = tausolver.solve_tau_fast(3, 1)
    truncated = tausolver.TauVector(3, 1, honest.entries[:-1], honest.provenance,
                                    honest.conjectural)
    monkeypatch.setattr(tausolver, "solve_tau_fast", lambda k, m: truncated)
    code, _, err = run(capsys, "tau", "--k", "3", "--m", "1", "--mode", "fast",
                       "--verify")
    assert code == cli.EXIT_INCONSISTENT == 3
    assert err == "inconsistent system: fast/direct mismatch at (k=3, m=1)\n"


def test_fast_derive_keeps_k2_direct(capsys):
    # k = 2 is the base tau[2] itself; every later k derives from it
    code, out, _ = run(capsys, "derive", "--k", "2", "--k-max", "3", "--m", "1",
                       "--mode", "fast", "--no-verify", "--format", "json")
    assert code == 0
    records = [json.loads(line) for line in out.splitlines()]
    assert [(r["k"], r["provenance"]) for r in records] == [
        (2, "direct"), (2, "direct"), (3, "fast"), (3, "fast")]


def test_fast_and_direct_derive_print_the_same_identities(capsys):
    # stdout carries no provenance, so the two modes' identities must agree
    # line for line, as the fast and direct coordinate vectors do
    args = ("derive", "--k", "2", "--k-max", "14", "--m", "1,2", "--no-verify")
    outs = []
    for mode in ("fast", "direct"):
        code, out, _ = run(capsys, *args, "--mode", mode)
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]
    assert outs[0].count("\n") == 2 * 13 * 2


def test_basis_check_cli(capsys):
    code, out, _ = run(capsys, "basis-check", "--k", "2", "--k-max", "3",
                       "--m", "1", "--trunc", "60")
    assert code == 0
    assert "(k=2, m=1): ok" in out


def test_basis_check_reports_a_perturbed_closed_form(capsys, monkeypatch):
    # one wrong coefficient of the level-k block breaks its recursion at three
    # n, the annihilation of basis element k, and the agreement of the forms
    original = pfseries.basis_coefficient

    def perturbed(k, m, level, n):
        value = original(k, m, level, n)
        return value + 1 if (k, m, level, n) == (3, 1, 3, 20) else value

    monkeypatch.setattr(pfseries, "basis_coefficient", perturbed)
    code, out, err = run(capsys, "basis-check", "--k", "2", "--k-max", "3",
                         "--m", "1", "--trunc", "50")
    assert code == cli.EXIT_INCONSISTENT == 3
    assert out == "(k=2, m=1): ok\n(k=3, m=1): FAIL\n"
    assert err.splitlines() == [
        "b-recursion fails at (k=3, m=1, n=19)",
        "b-recursion fails at (k=3, m=1, n=20)",
        "b-recursion fails at (k=3, m=1, n=21)",
        "basis (3,1) element 3 not annihilated",
        "basis forms disagree for (3,1)",
    ]


def test_basis_check_reports_a_perturbed_series_coefficient(capsys, monkeypatch):
    # one wrong coefficient of the generating series breaks its recursion at
    # n0-1, n0 and n0+1 (those below the truncation order 50) and its
    # annihilation, also in the last two columns; the basis is untouched
    original = pfseries.pi_coefficient
    for n0 in (20, 49, 50):
        def perturbed(k, m, n, n0=n0):
            value = original(k, m, n)
            return value + 1 if (k, m, n) == (3, 1, n0) else value

        monkeypatch.setattr(pfseries, "pi_coefficient", perturbed)
        code, out, err = run(capsys, "basis-check", "--k", "2", "--k-max", "3",
                             "--m", "1", "--trunc", "50")
        assert code == cli.EXIT_INCONSISTENT == 3
        assert out == "(k=2, m=1): ok\n(k=3, m=1): FAIL\n"
        assert err == "".join(line + "\n" for line in [
            *(f"a-recursion fails at (k=3, m=1, n={n})"
              for n in (n0 - 1, n0, n0 + 1) if n < 50),
            "series (3,1) not annihilated",
        ]), n0


def test_tau_out_file_schema(tmp_path, capsys):
    out_dir = tmp_path / "out"
    code, _, _ = run(capsys, "tau", "--k", "2", "--m", "1", "--out",
                     str(out_dir))
    assert code == 0
    data = json.loads((out_dir / "tau_2_1.json").read_text())
    assert data["k"] == 2 and data["m"] == 1
    assert data["entries"][0]["text"] == "-zeta(3)"
    assert data["entries"][3]["text"] == "1/6"
    assert data["mode"] == "direct"


def test_check_conjecture_labels_cached_solves(tmp_path, capsys):
    tausolver.solve_tau_direct(3, 1)
    out_dir = tmp_path / "out"
    code, out, _ = run(capsys, "check-conjecture", "--k", "2", "--k-max", "3",
                       "--m", "1", "--out", str(out_dir))
    assert code == 0
    assert "k= 3 m=1: pass (direct 0.000s (cached)" in out
    payload = json.loads((out_dir / "conjecture_m1.json").read_text())
    assert payload["checks"][0]["direct_cached"] is True


def test_unreachable_precision_exit_code(capsys):
    code, _, err = run(capsys, "verify", "--k", "2", "--m", "1", "--digits", "40")
    assert code == cli.EXIT_PRECISION_UNREACHABLE == 5
    assert "Traceback" not in err
    assert err.startswith("precision unreachable: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("digits", ["29", "60"])
def test_toy_high_precision_passes(capsys, digits):
    # the spot check's cutoff doubles past its first budget of 128 terms,
    # which stops at a tail bound of 1.94e-29
    code, out, _ = run(capsys, "toy", "--digits", digits)
    assert code == 0
    assert "pass" in out


def test_toy_tolerance_follows_digits(capsys):
    # the spot check passes on agreement to digits - 2 digits
    code, out, _ = run(capsys, "toy", "--digits", "60", "--format", "json")
    assert code == 0
    report = json.loads(out)["fourier"]
    assert report["passed"] is True
    assert report["tolerance"] == "1e-58"


def test_toy_unreachable_precision_exit_code(capsys):
    # past the spot check's largest term budget (about 71 digits)
    code, out, err = run(capsys, "toy", "--digits", "80")
    assert code == cli.EXIT_PRECISION_UNREACHABLE == 5
    assert out == ""
    assert "Traceback" not in err
    assert err.startswith("precision unreachable: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("args", [["tau", "--k", "x"], ["tau", "--bogus"], []])
def test_usage_error_exit_code(capsys, args):
    # argparse's own exit status 2 would read as a singular moment system
    code, out, err = run(capsys, *args)
    assert code == cli.EXIT_BAD_CONFIG == 4
    assert out == ""
    assert "usage: dzeta" in err


def test_help_exit_code(capsys):
    code, out, _ = run(capsys, "--help")
    assert code == cli.EXIT_OK == 0
    assert out.startswith("usage: dzeta")


# the flags each subcommand reads; it rejects every other
READS = {
    "toy": {"--digits", "--format", "--out", "--corrupt"},
    "tau": {"--k", "--k-max", "--m", "--mode", "--style", "--format", "--out",
            "--verify"},
    "verify": {"--k", "--k-max", "--m", "--mode", "--digits", "--style",
               "--format", "--out"},
    "derive": {"--k", "--k-max", "--m", "--mode", "--digits", "--style",
               "--format", "--out", "--no-verify"},
    "check-conjecture": {"--k", "--k-max", "--m", "--out"},
    "basis-check": {"--k", "--k-max", "--m", "--trunc"},
}
# a valid value of each flag that takes one
VALUES = {"--k": "3", "--k-max": "3", "--m": "1", "--mode": "fast",
          "--digits": "12", "--trunc": "200",
          "--style": "pi-power", "--format": "json", "--out": "out"}


def _listed_flags(capsys, command):
    code, out, _ = run(capsys, command, "--help")
    assert code == cli.EXIT_OK
    return set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", out)) - {"--help"}


@pytest.mark.parametrize("command", sorted(READS))
def test_help_lists_exactly_the_flags_read(capsys, command):
    assert _listed_flags(capsys, command) == READS[command]


def test_settable_value_count(capsys):
    # each flag sets one value
    assert sum(len(_listed_flags(capsys, c)) for c in READS) == 37


@pytest.mark.parametrize("command,flag", [
    (command, flag) for command, reads in sorted(READS.items())
    for flag in VALUES if flag not in reads])
def test_flag_not_read_is_a_usage_error(tmp_path, capsys, monkeypatch,
                                        command, flag):
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, command, flag, VALUES[flag])
    assert code == cli.EXIT_BAD_CONFIG == 4
    assert out == ""
    assert "usage: dzeta" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("out", ["file", "file/sub"])
def test_unwritable_out_exit_code(tmp_path, capsys, monkeypatch, out):
    (tmp_path / "file").write_text("kept\n")

    def solve(k, m):
        pytest.fail("solved before --out was checked")

    monkeypatch.setattr(tausolver, "solve_tau_direct", solve)
    code, stdout, err = run(capsys, "derive", "--k", "2", "--m", "1",
                            "--no-verify", "--out", str(tmp_path / out))
    assert code == cli.EXIT_BAD_CONFIG == 4
    assert stdout == ""
    assert err.startswith("bad configuration: ")
    assert err.count("\n") == 1
    assert (tmp_path / "file").read_text() == "kept\n"


def test_closed_stdout_is_not_a_bad_out(capsys, monkeypatch):
    def closed(cfg, **flags):
        raise BrokenPipeError(32, "Broken pipe")

    monkeypatch.setattr(cli, "cmd_tau", closed)
    saved = os.dup(1)  # main points fd 1 at devnull; give it back afterwards
    try:
        assert cli.main(["tau"]) == cli.EXIT_BROKEN_PIPE == 141
    finally:
        os.dup2(saved, 1)
        os.close(saved)
    assert capsys.readouterr().err == ""


def test_reader_closing_stdout_exits_141_without_traceback():
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    env.pop("PYTHONUNBUFFERED", None)  # block-buffered, as in a user's pipe
    proc = subprocess.Popen(
        [sys.executable, "-m", "dzeta.cli", "tau", "--k", "2", "--k-max", "14",
         "--m", "1,2"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    try:
        # the output is larger than a block-buffered stdout's buffer, so the
        # first line arrives while later tables are still being solved
        assert proc.stdout.readline().startswith(b"# coordinates for (k=2, m=1)")
        proc.stdout.close()
        _, err = proc.communicate(timeout=120)
    finally:
        proc.kill()
        proc.wait()
    assert proc.returncode == cli.EXIT_BROKEN_PIPE
    assert "Traceback" not in err.decode()


def test_reader_closing_stdout_keeps_a_failure_code():
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    env.pop("PYTHONUNBUFFERED", None)  # block-buffered, as in a user's pipe
    proc = subprocess.Popen(
        [sys.executable, "-m", "dzeta.cli", "verify", "--k", "2", "--k-max",
         "3", "--m", "2", "--digits", "45"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    try:
        # k = 2's lines stay in the buffer until dzv(3,2) fails at 45 digits
        proc.stdout.close()
        _, err = proc.communicate(timeout=120)
    finally:
        proc.kill()
        proc.wait()
    assert proc.returncode == cli.EXIT_PRECISION_UNREACHABLE
    lines = err.decode().splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("precision unreachable: dzv(3,2) ")


# the injected failure: the direct solve's nonsingularity witness is zero, or
# every weighted sum is 1, so each (C tau)_r is 1 and the residual of the
# scaled rows n >= 1 is nonzero
@pytest.mark.parametrize("error,code,kind", [
    ((tausolver, "_det", lambda rows: SymNumber.zero()), cli.EXIT_SINGULAR,
     "singular system"),
    ((circle, "weighted_sum", lambda pairs: SymNumber.from_rational(1)),
     cli.EXIT_INCONSISTENT, "inconsistent system"),
])
def test_check_conjecture_solver_failure_exit_code(capsys, monkeypatch, error,
                                                   code, kind):
    monkeypatch.setattr(*error)
    tausolver.solve_tau_direct.cache_clear()
    got, _, err = run(capsys, "check-conjecture", "--k-max", "3", "--m", "1")
    assert got == code
    assert err.startswith(f"{kind}: ")
    assert err.count("\n") == 1


def _blank_timestamp(data: bytes) -> bytes:
    return re.sub(rb'"timestamp": "[^"]*"', b'"timestamp": ""', data)


@pytest.mark.parametrize("name,args", [
    ("derive", ["derive", "--k", "2", "--k-max", "7", "--m", "1,2",
                "--no-verify"]),
    ("tau_12_2", ["tau", "--k", "12", "--m", "2", "--format", "json"]),
    ("toy", ["toy", "--format", "json"]),
])
def test_outputs_byte_identical_to_golden(tmp_path, capsys, name, args):
    out_dir = tmp_path / name
    code, out, _ = run(capsys, *args, "--out", str(out_dir))
    assert code == 0
    stdout, = GOLDEN.glob(f"{name}_stdout.*")
    assert _blank_timestamp(out.encode()) == stdout.read_bytes()
    golden_dir = GOLDEN / name
    assert sorted(p.name for p in out_dir.iterdir()) \
        == sorted(p.name for p in golden_dir.iterdir())
    for file in golden_dir.iterdir():
        assert _blank_timestamp((out_dir / file.name).read_bytes()) \
            == file.read_bytes(), file.name


# ---------------------------------------------------------------------------
# Cold start: what a fresh interpreter imports.

_UNUSED_BY_EXACT_COMMANDS = ("mpmath", "dataclasses", "inspect")


def _fresh(code: str) -> str:
    """Run `code` in a new interpreter on this package; return its last line."""
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


@pytest.mark.parametrize("args", [
    ["tau", "--k", "3", "--m", "1"],
    ["basis-check", "--k", "2", "--m", "1", "--trunc", "50"],
])
def test_exact_commands_never_import_the_oracle(args):
    # mpmath is imported on the first oracle call, and the package uses
    # neither dataclasses nor inspect
    last = _fresh("import sys\nfrom dzeta.cli import main\n"
                  f"code = main({args!r})\n"
                  f"print(code, [n for n in {_UNUSED_BY_EXACT_COMMANDS!r} "
                  "if n in sys.modules])")
    assert last == "0 []"


def test_verify_imports_the_oracle():
    last = _fresh("import sys\nfrom dzeta.cli import main\n"
                  "code = main(['verify', '--k', '2', '--m', '1'])\n"
                  "print(code, 'mpmath' in sys.modules)")
    assert last == "0 True"


def test_powerlog_tail_works_as_the_first_oracle_call():
    with numverify._workprec(30):
        expected = repr(numverify._powerlog_tail(0, 1, 2, 10,
                                                 numverify.mpmath.mp.prec))
    assert _fresh("from dzeta import numverify\n"
                  "with numverify._workprec(30):\n"
                  "    print(repr(numverify._powerlog_tail(\n"
                  "        0, 1, 2, 10, numverify.mpmath.mp.prec)))") \
        == expected


def test_bracket_works_as_the_first_oracle_call():
    # the row holds ints at one exponent and the result is raw mpf tuples,
    # built by mpmath names that numverify has not bound yet
    sums = [32, 16, 24, 20, 22, 21]  # 1, 1/2, 3/4, 5/8, 11/16, 21/32 at 2^-5
    expected = repr(numverify._bracket(sums, -5, 53))
    assert _fresh("from dzeta import numverify\n"
                  f"print(repr(numverify._bracket({sums!r}, -5, 53)))") \
        == expected
