"""Tests for the command-line interface and its artifact files."""

import json
import re
from pathlib import Path

import pytest

from dzeta import cli, tausolver

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
        assert "bad configuration:" in err


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


def test_check_conjecture_cli(tmp_path, capsys):
    out_dir = tmp_path / "out"
    code, out, _ = run(capsys, "check-conjecture", "--k", "2", "--k-max", "5",
                       "--m", "1", "--out", str(out_dir))
    assert code == 0
    assert "k= 5 m=1: pass" in out
    payload = json.loads((out_dir / "conjecture_m1.json").read_text())
    assert payload["all_pass"] is True


def test_basis_check_cli(capsys):
    code, out, _ = run(capsys, "basis-check", "--k", "2", "--k-max", "3",
                       "--m", "1", "--trunc", "60")
    assert code == 0
    assert "(k=2, m=1): ok" in out


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


def test_toy_unreachable_precision_exit_code(capsys):
    code, out, err = run(capsys, "toy", "--digits", "60")
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
    "verify": {"--k", "--k-max", "--m", "--mode", "--digits", "--tol",
               "--style", "--format", "--out"},
    "derive": {"--k", "--k-max", "--m", "--mode", "--digits", "--tol",
               "--style", "--format", "--out", "--no-verify"},
    "check-conjecture": {"--k", "--k-max", "--m", "--out"},
    "basis-check": {"--k", "--k-max", "--m", "--trunc"},
}
# a valid value of each flag that takes one
VALUES = {"--k": "3", "--k-max": "3", "--m": "1", "--mode": "fast",
          "--digits": "12", "--tol": "1e-8", "--trunc": "200",
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
    assert sum(len(_listed_flags(capsys, c)) for c in READS) == 39


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
    with pytest.raises(BrokenPipeError):
        cli.main(["tau"])
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("error,code,kind", [
    (tausolver.SingularSystem([0, 1, 2]), cli.EXIT_SINGULAR, "singular system"),
    (tausolver.InconsistentSystem("row n=0 residual is nonzero"),
     cli.EXIT_INCONSISTENT, "inconsistent system"),
])
def test_check_conjecture_solver_failure_exit_code(capsys, monkeypatch, error,
                                                   code, kind):
    def solve(system):
        raise error

    monkeypatch.setattr(tausolver, "fraction_free_solve", solve)
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
