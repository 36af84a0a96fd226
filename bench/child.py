"""Run one dzeta CLI command the way a user does, and report on it.

Usage: python3 bench/child.py STATS_PATH TRACE(0|1) -- DZETA_ARGS...

The dzeta package is imported from the checkout's `src/`.  STATS_PATH
receives the monotonic time at which `dzeta.cli` finished importing, the
command's exit code, the peak resident set of this process (VmHWM) and, when
TRACE is 1, the per-layer metrics of `tracer.py`.  The command's own stdout,
stderr and exit status pass through unchanged.
"""

import json
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import dzeta.cli  # noqa: E402

IMPORTED_AT = time.monotonic()


def _peak_rss_kb() -> int:
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("VmHWM missing from /proc/self/status")


def main() -> int:
    stats_path, trace = sys.argv[1], sys.argv[2] == "1"
    argv = sys.argv[4:]
    if not os.path.abspath(dzeta.cli.__file__).startswith(SRC + os.sep):
        raise RuntimeError(f"dzeta imported from {dzeta.cli.__file__}, not {SRC}")
    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    stats = {"imported_at": IMPORTED_AT, "exit": None}
    try:
        stats["exit"] = dzeta.cli.main(argv)
        return stats["exit"]
    finally:
        sys.stdout.flush()
        stats["peak_rss_kb"] = _peak_rss_kb()
        if tracer is not None:
            stats["layers"] = tracer.metrics()
        with open(stats_path, "w") as fh:
            json.dump(stats, fh)


if __name__ == "__main__":
    sys.exit(main())
