"""Smoke test for the catalog script in scripts/."""

import os
import subprocess
import sys
from pathlib import Path

import dzeta

ROOT = Path(__file__).resolve().parents[1]


def test_make_tables_writes_the_catalog(tmp_path):
    out_dir = tmp_path / "out"
    env = dict(os.environ, PYTHONPATH=str(Path(dzeta.__file__).resolve().parents[1]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "make_tables.py"),
         "--k-max", "3", "--out", str(out_dir)],
        capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    expected = {"toy.json", "report.json"}
    for k in (2, 3):
        for m in (1, 2):
            expected.add(f"tau_{k}_{m}.json")
            expected.update(f"identity_{k}_{m}_{side}.json" for side in ("m1", "p1"))
    assert {p.name for p in out_dir.iterdir()} == expected
