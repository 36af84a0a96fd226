"""The package surface the benchmark under `bench/` relies on.

`bench/tracer.py` wraps named entry points from outside the program and
`bench/reference.py` renders the frozen identities; deleting a name either of
them uses breaks the benchmark, so these tests fail first.  They only read
`bench/`.
"""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

from dzeta import tausolver
from dzeta.symfield import SymNumber, zeta_value

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _tracer_module():
    spec = importlib.util.spec_from_file_location("bench_tracer", BENCH / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_entry_points_resolve():
    missing = []
    for layer, entries in _tracer_module().ENTRY_POINTS.items():
        module = importlib.import_module(f"dzeta.{layer}")
        for entry in entries:
            # looked up the way Tracer.install does: methods in the class dict
            owner_name, _, attr = entry.rpartition(".")
            if owner_name:
                found = getattr(module, owner_name, None)
                found = None if found is None else found.__dict__.get(attr)
            else:
                found = getattr(module, attr, None)
            if not callable(found):
                missing.append(f"{layer}.{entry}")
    assert missing == []
    # the tracer reads the direct solver's memo counters
    assert hasattr(tausolver.solve_tau_direct, "cache_info")


def test_importing_the_cli_loads_every_traced_layer():
    # the tracer looks each layer up as sys.modules["dzeta.<layer>"] after
    # `import dzeta.cli`; a layer imported lazily would break `--trace 1`
    layers = _tracer_module().LAYERS
    code = ("import sys, dzeta.cli\n"
            f"print([n for n in {layers!r} if 'dzeta.' + n not in sys.modules])")
    env = dict(os.environ, PYTHONPATH=str(BENCH.parent / "src"))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_tracer_reads_the_terms_record():
    # the exact_div observer reads coeff.re/coeff.im of each `terms()` pair
    tracer = _tracer_module().Tracer()
    value = SymNumber.p_power(1, 3) * zeta_value(3) + zeta_value(4)
    tracer._exact_div(None, value, None)
    assert tracer.peak_terms > 0
    assert tracer.peak_coeff_bits > 0


def test_reference_script_runs():
    proc = subprocess.run([sys.executable, str(BENCH / "reference.py")],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["identities"]
