"""Record the golden outputs the benchmark's gate compares against.

Usage: python3 bench/record_golden.py

Runs every workload command and every reference command once against the
checkout's `src/` and writes `bench/golden/<name>.json`.  Record only from a
commit whose outputs are known to be right; the benchmark additionally
cross-checks identities against tests/reference_data.py on every run.
"""

import json
import os

import gate
from run import GOLDEN, REFERENCES, WORK, WORKLOADS, live_views, run_command


def main() -> None:
    os.makedirs(WORK, exist_ok=True)
    os.makedirs(GOLDEN, exist_ok=True)
    for name, (kind, argv) in {**WORKLOADS, **REFERENCES}.items():
        res = run_command(argv)
        if res["exit"] != 0 or res["stderr"]:
            raise SystemExit(f"{name}: exit {res['exit']}\n{res['stderr']}")
        views = live_views(kind, res)
        star = views.pop(gate.STAR)
        with open(os.path.join(GOLDEN, f"{name}.json"), "w") as fh:
            json.dump({"argv": argv, "kind": kind, "exit": res["exit"],
                       "ops": views, "star": star}, fh, sort_keys=True, indent=1)
            fh.write("\n")
        print(f"{name}: {len(views)} operations, {res['wall_s']:.2f} s")


if __name__ == "__main__":
    main()
