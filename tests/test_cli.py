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
