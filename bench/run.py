"""Benchmark for the dzeta CLI: exact pipeline end to end, and per layer.

Usage, from the root of a checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

One closed-loop client runs the workload's `dzeta` command again and again
for S seconds, each time in a fresh interpreter with cold memo tables, as a
user runs it.  Only the harness and one child are alive at a time.  Every
command's outputs go through the per-operation gate in `gate.py`; the gate
proves itself live in every run on two negative controls.

With `--trace 0` the last stdout line reports, per command, the medians of
wall time and child CPU time, each in units of the time of a fixed reference
kernel (`hostref.py`) measured in bursts just before and just after the
command, so that a drift of host speed cancels, and the medians of set-up time (spawn until
`dzeta.cli` is imported) and peak resident set.  With `--trace 1` commands alternate between plain
and traced (`tracer.py`), and the line reports per-layer counts, which must
repeat exactly, and median self times.  The line before it records the host
state, so that a bad set of runs can be diagnosed.

The workloads are fixed parameter sets from the paper and the pipeline is
deterministic: the seed changes no input.  It picks the operation the
edited-output control corrupts, and is recorded.
"""

from __future__ import annotations

import argparse
import copy
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time

import gate
import hostref

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
GOLDEN = os.path.join(BENCH, "golden")
WORK = os.path.join(BENCH, "_work")
OUT = "{out}"

# name -> (gate kind, dzeta argv).  Each command takes about 1 to 2.3 s on a
# 2-vCPU KVM guest.
WORKLOADS = {
    # the paper's full catalog: many small cold direct solves, memo reuse
    # across k, the 12-digit oracle and every artifact
    "catalog": ("verify", ["verify", "--k", "2", "--k-max", "9", "--m", "1,2",
                           "--out", OUT]),
    # one order-21 system: expression swell in Bareiss elimination
    "deep": ("tau", ["tau", "--k", "18", "--m", "2"]),
    # Fraction kernels of the operator application at criterion 09's
    # truncation; the symbolic layers stay idle
    "basis": ("basis", ["basis-check", "--k", "7", "--m", "1,2",
                        "--trunc", "200"]),
    # the oracle at 30 digits, with coordinates from the fast recursion
    "oracle": ("verify", ["verify", "--mode", "fast", "--k", "2",
                          "--k-max", "16", "--m", "1,2", "--digits", "30"]),
}
# Golden outputs that are not workloads.  `toy` backs the corrupted-toy
# control; `probe` is the expected output of the 40-digit probe (recorded at
# the default 12 digits, since stdout carries no digits); `direct_10_16` is
# the direct solver's view of the oracle workload's fast-mode identities.
REFERENCES = {
    "toy": ("toy", ["toy"]),
    "probe": ("verify", ["verify", "--k", "2", "--m", "1,2"]),
    "direct_10_16": ("verify", ["verify", "--k", "10", "--k-max", "16",
                                "--m", "1,2", "--digits", "30"]),
}
CORRUPT_TOY = ["toy", "--corrupt"]
PROBE = ["verify", "--k", "2", "--digits", "40"]  # ROADMAP item 4's defect
MIN_SAMPLES = 3
# Reference-kernel calls in one burst, about 0.3 s; one burst runs after
# each command.
REF_REPS = 15


class BenchError(Exception):
    """The benchmark itself cannot run or its gate misbehaved."""


# ---------------------------------------------------------------------------
# One command in a fresh interpreter.

def run_command(argv: list[str], trace: bool = False) -> dict:
    out_dir = os.path.join(WORK, "out")
    shutil.rmtree(out_dir, ignore_errors=True)
    argv = [out_dir if a == OUT else a for a in argv]
    paths = {name: os.path.join(WORK, name)
             for name in ("stdout", "stderr", "stats.json")}
    for path in paths.values():
        if os.path.exists(path):
            os.remove(path)
    cmd = [sys.executable, os.path.join(BENCH, "child.py"), paths["stats.json"],
           "1" if trace else "0", "--", *argv]
    with open(paths["stdout"], "w") as out, open(paths["stderr"], "w") as err:
        spawned = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, cwd=ROOT)
        _, status, usage = os.wait4(proc.pid, 0)
        ended = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(paths["stdout"]) as fh:
        stdout = fh.read()
    with open(paths["stderr"]) as fh:
        stderr = fh.read()
    stats = {}
    if os.path.exists(paths["stats.json"]):
        with open(paths["stats.json"]) as fh:
            stats = json.load(fh)
    result = {
        "exit": proc.returncode, "stdout": stdout, "stderr": stderr,
        "artifacts": gate.read_artifacts(out_dir),
        "wall_s": ended - spawned,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "layers": stats.get("layers"),
    }
    if "imported_at" in stats:
        result["setup_s"] = stats["imported_at"] - spawned
        result["peak_rss_mb"] = stats["peak_rss_kb"] * 1024 / 1e6
    return result


def live_views(kind: str, res: dict) -> dict:
    return gate.views(kind, res["stdout"], res["stderr"], res["artifacts"])


def load_golden(name: str) -> dict:
    path = os.path.join(GOLDEN, f"{name}.json")
    with open(path) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# Cross-checks beyond the golden outputs.

def reference_identities() -> tuple[dict, dict]:
    """Rendered identities of tests/reference_data.py, plus versions."""
    proc = subprocess.run([sys.executable, os.path.join(BENCH, "reference.py")],
                          cwd=ROOT, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise BenchError(f"reference renderer failed:\n{proc.stderr}")
    data = json.loads(proc.stdout)
    return data["identities"], data["versions"]


def identity_check(reference: dict, direct: dict):
    """Identities with k <= 9 must match the frozen reference data; the
    oracle's fast-mode right-hand sides for k = 10..16 must match the
    direct solver's golden ones."""

    def check(op: str, view: dict) -> bool:
        if op in direct["ops"]:
            return view.get("stdout") == direct["ops"][op]["stdout"]
        exp = reference.get(op)
        if exp is None:
            return True
        suffix = "" if exp["kind"] == "trivial" else "  [numeric ok]"
        if view.get("stdout") != exp["line"] + suffix + "\n":
            return False
        for name, text in view.items():
            if not gate.IDENTITY_FILE.match(name):
                continue
            try:
                artifact = json.loads(text)
            except ValueError:
                return False
            if any(artifact.get(key) != exp[key]
                   for key in ("kind", "lhs", "rhs", "text")):
                return False
        return True

    return check


def edit_one_operation(kind: str, res: dict, rng: random.Random) -> tuple[str, dict]:
    """Copy a command's outputs with one operation's output edited: an
    identity artifact when the command writes them, else a stdout line."""
    edited = copy.deepcopy(res)
    files = sorted(n for n in res["artifacts"] if gate.IDENTITY_FILE.match(n))
    if files:
        name = rng.choice(files)
        payload = json.loads(res["artifacts"][name])
        payload["weight"] += 1
        edited["artifacts"][name] = json.dumps(payload, sort_keys=True, indent=2) + "\n"
        return gate.artifact_op(kind, name), edited
    lines = res["stdout"].splitlines(keepends=True)
    i = rng.choice([i for i, line in enumerate(lines)
                    if gate.line_op(kind, line) != gate.STAR])
    body = lines[i].rstrip("\n")
    lines[i] = body[:-1] + ("1" if body.endswith("0") else "0") + "\n"
    edited["stdout"] = "".join(lines)
    return gate.line_op(kind, lines[i]), edited


# ---------------------------------------------------------------------------
# Host state: information only, never a metric.

def _cpu_times() -> list[int]:
    with open("/proc/stat") as fh:
        fields = fh.readline().split()
    return [int(x) for x in fields[1:9]]  # user .. steal


def _git_commit() -> str | None:
    head = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.exists(head):
        return None
    with open(head) as fh:
        ref = fh.read().strip()
    if not ref.startswith("ref: "):
        return ref
    path = os.path.join(ROOT, ".git", ref[5:])
    if os.path.exists(path):
        with open(path) as fh:
            return fh.read().strip()
    return ref[5:]


def _src_hash() -> str:
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for base, dirs, files in os.walk(src):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            path = os.path.join(base, name)
            digest.update(os.path.relpath(path, src).encode() + b"\0")
            with open(path, "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()[:16]


# ---------------------------------------------------------------------------
# The run.

def median(values):
    return statistics.median(values) if values else 0.0


def run(workload: str, seed: int, seconds: int, trace: bool) -> tuple[dict, dict]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    kind, argv = WORKLOADS[workload]
    golden = load_golden(workload)
    if golden["argv"] != argv:
        raise BenchError(f"golden/{workload}.json was recorded for {golden['argv']}")
    references = {name: load_golden(name) for name in REFERENCES}
    rng = random.Random(seed)
    cpu_start, load_start = _cpu_times(), os.getloadavg()

    reference, versions = reference_identities()
    check = identity_check(reference, references["direct_10_16"])
    attempted = failed = 0
    wrong_ops: list[str] = []

    def tally(name, gold, res, extra=None):
        nonlocal attempted, failed
        lost, wrong = gate.judge(gold, live_views(gold["kind"], res), res["exit"],
                                 res["stderr"], extra)
        attempted += len(gold["ops"])
        failed += len(lost | wrong)
        wrong_ops.extend(f"{name}: {op}" for op in sorted(wrong))
        return lost | wrong

    # Negative control 1 (also warms the bytecode cache): the corrupted toy
    # identity must fail its one operation.
    toy = run_command(CORRUPT_TOY)
    toy_lost, toy_wrong = gate.judge(references["toy"], live_views("toy", toy),
                                     toy["exit"], toy["stderr"])
    controls = {"corrupt_toy_failed": sorted(toy_lost | toy_wrong)}

    samples, traced = [], []
    hostref.measure(REF_REPS)  # warm-up, discarded
    before = hostref.measure(REF_REPS)
    deadline = time.monotonic() + seconds
    while not (time.monotonic() >= deadline and len(samples) >= MIN_SAMPLES
               and (not trace or len(traced) >= 2)):
        want_trace = trace and len(samples) > len(traced)
        res = run_command(argv, trace=want_trace)
        after = hostref.measure(REF_REPS)
        # the host's speed around this command: the mean of the reference
        # bursts that bracket it
        res["ref_wall_s"], res["ref_cpu_s"] = ((b + a) / 2
                                               for b, a in zip(before, after))
        before = after
        tally(workload, golden, res, check)
        (traced if want_trace else samples).append(res)

    # Negative control 2: one edited output fails exactly its own operation.
    target, edited = edit_one_operation(kind, samples[-1], rng)
    lost, wrong = gate.judge(golden, live_views(kind, edited), edited["exit"],
                             edited["stderr"], check)
    controls["edited_op"] = target
    controls["edited_failed"] = sorted(lost | wrong)

    if workload == "oracle":
        # ROADMAP item 4's known defect: today the probe dies with
        # PrecisionUnreachable.  Its operations are judged and reported in
        # the info line, but kept out of `attempted`/`failed`, which count
        # the workload's own operations only.
        probe = run_command(PROBE)
        gold = references["probe"]
        lost, wrong = gate.judge(gold, live_views(gold["kind"], probe),
                                 probe["exit"], probe["stderr"], check)
        controls["probe"] = {"attempted": len(gold["ops"]),
                             "failed": sorted(lost | wrong)}

    problems = []
    if controls["corrupt_toy_failed"] != ["toy"]:
        problems.append(f"corrupted toy not caught: {controls['corrupt_toy_failed']}")
    if controls["edited_failed"] != [target]:
        problems.append(f"edited {target} gave {controls['edited_failed']}")
    problems.extend(f"wrong output: {op}" for op in wrong_ops)

    metrics = spec["per_layer" if trace else "end_to_end"]
    if trace:
        values = per_layer(metrics, samples, traced, problems)
    raw = {name: median([s[name] for s in samples if name in s])
           for name in ("wall_s", "cpu_s", "setup_s", "peak_rss_mb",
                        "ref_wall_s", "ref_cpu_s")}
    if not trace:
        values = {
            "wall_rel": median([s["wall_s"] / s["ref_wall_s"] for s in samples]),
            "cpu_rel": median([s["cpu_s"] / s["ref_cpu_s"] for s in samples]),
            "setup_s": raw["setup_s"], "peak_rss_mb": raw["peak_rss_mb"]}

    cpu_end = _cpu_times()
    delta = [b - a for a, b in zip(cpu_start, cpu_end)]
    info = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "argv": argv, "samples": len(samples), "traced_samples": len(traced),
        "median": raw,
        "wall_s_samples": [s["wall_s"] for s in samples],
        "controls": controls, "problems": problems,
        "host": {
            "loadavg_start": load_start, "loadavg_end": os.getloadavg(),
            "steal_share": delta[7] / sum(delta) if sum(delta) else 0.0,
            "nproc": os.cpu_count(), "versions": versions,
            "git_commit": _git_commit(), "src_sha256_16": _src_hash(),
        },
    }
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in metrics},
    }
    return info, result


def per_layer(metrics: list[dict], samples: list[dict], traced: list[dict],
              problems: list[str]) -> dict:
    """Median self times over traced commands; counts must repeat exactly."""
    rows = []
    for res in traced:
        row = dict(res["layers"] or {})
        row["cli.artifacts"] = len(res["artifacts"])
        row["cli.artifact_bytes"] = sum(len(t.encode()) for t in res["artifacts"].values())
        rows.append(row)
    plain_wall = median([s["wall_s"] / s["ref_wall_s"] for s in samples])
    traced_wall = median([t["wall_s"] / t["ref_wall_s"] for t in traced])
    values = {}
    for metric in metrics:
        name = metric["name"]
        if name == "trace.overhead_frac":
            values[name] = traced_wall / plain_wall - 1
            continue
        seen = [row.get(name) for row in rows]
        if None in seen:
            raise BenchError(f"traced run did not produce {name}")
        if metric["unit"] == "s":
            values[name] = median(seen)
        else:
            if len(set(seen)) != 1:
                problems.append(f"{name} differs across traced commands: {seen}")
            values[name] = seen[0]
    return values


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    for needed in ("BENCHMARK.json", "src/dzeta/cli.py", "tests/reference_data.py"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            print(f"bench: {needed} missing; run from a full checkout",
                  file=sys.stderr)
            return 2
    os.makedirs(WORK, exist_ok=True)
    try:
        info, result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    for problem in info["problems"]:
        print(f"bench: {problem}", file=sys.stderr)
    print(json.dumps({"info": info}, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
