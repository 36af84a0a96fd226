"""Per-operation correctness gate for dzeta CLI outputs.

An operation is an identity `(k, m, point)`, a coordinate table `(k, m)`, a
basis check `(k, m)` or the warm-up example.  `views()` splits one command's
stdout, stderr and `--out` artifacts into a view per operation (a dict from
output source to text, `timestamp` blanked) plus a command-wide view under
`"*"`.  `judge()` compares those views with golden ones recorded from a known
good commit.
"""

from __future__ import annotations

import json
import os
import re

IDENTITY_LINE = re.compile(r"^\(k=(\d+), m=(\d+), point=([+-]1)\) ")
IDENTITY_FILE = re.compile(r"^identity_(\d+)_(\d+)_(m1|p1)\.json$")
NUMERIC_NAME = re.compile(r"\((\d+),(\d+)\)@([+-]1)$")
TAU_LINE = re.compile(r"^(?:# coordinates for \(k=(\d+), m=(\d+)\)|tau\[(\d+),(\d+)\])")
TAU_FILE = re.compile(r"^tau_(\d+)_(\d+)\.json$")
BASIS_LINE = re.compile(r"^\(k=(\d+), m=(\d+)\): ")
TIMESTAMP = re.compile(r'"timestamp": "[^"]*"')

STAR = "*"


def identity_op(k, m, point) -> str:
    return f"identity {int(k)} {int(m)} {int(point):+d}"


def read_artifacts(out_dir: str | None) -> dict[str, str]:
    if not out_dir or not os.path.isdir(out_dir):
        return {}
    found = {}
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name)) as fh:
            found[name] = fh.read()
    return found


def line_op(kind: str, line: str) -> str:
    if kind == "verify":
        hit = IDENTITY_LINE.match(line)
        return identity_op(*hit.groups()) if hit else STAR
    if kind == "tau":
        hit = TAU_LINE.match(line)
        if hit:
            k, m = hit.group(1, 2) if hit.group(1) else hit.group(3, 4)
            return f"tau {k} {m}"
        return STAR
    if kind == "basis":
        hit = BASIS_LINE.match(line)
        return f"basis {hit.group(1)} {hit.group(2)}" if hit else STAR
    return "toy"


def artifact_op(kind: str, name: str) -> str:
    hit = IDENTITY_FILE.match(name)
    if kind == "verify" and hit:
        k, m, side = hit.groups()
        return identity_op(k, m, -1 if side == "m1" else 1)
    hit = TAU_FILE.match(name)
    if kind == "tau" and hit:
        return f"tau {hit.group(1)} {hit.group(2)}"
    return "toy" if kind == "toy" else STAR


def views(kind: str, stdout: str, stderr: str,
          artifacts: dict[str, str]) -> dict[str, dict[str, str]]:
    """Split one command's outputs into per-operation views."""
    out: dict[str, dict[str, str]] = {STAR: {"stderr": stderr}}

    def add(op, source, text):
        view = out.setdefault(op, {})
        view[source] = view.get(source, "") + text

    order = []
    for line in stdout.splitlines(keepends=True):
        op = line_op(kind, line)
        add(op, "stdout", line)
        if op != STAR and op not in order:
            order.append(op)
    add(STAR, "order", "\n".join(order))
    for name, text in artifacts.items():
        if kind == "verify" and name == "report.json":
            _split_report(text, add)
            continue
        add(artifact_op(kind, name), name, TIMESTAMP.sub('"timestamp": ""', text))
    return out


def _split_report(text: str, add) -> None:
    """report.json holds one entry per identity; give each to its operation."""
    try:
        report = json.loads(text)
        entries = report.pop("identities")
        numeric = report.pop("numeric_reports")
    except (ValueError, KeyError, AttributeError):
        add(STAR, "report.json", text)
        return
    for entry in entries:
        op = identity_op(entry["k"], entry["m"], entry["point"])
        add(op, "report.json#identity", json.dumps(entry, sort_keys=True))
    for entry in numeric:
        hit = NUMERIC_NAME.search(entry.get("identity", ""))
        op = identity_op(*hit.groups()) if hit else STAR
        add(op, "report.json#numeric", json.dumps(entry, sort_keys=True))
    report.pop("timestamp", None)
    add(STAR, "report.json", json.dumps(report, sort_keys=True))


def judge(golden: dict, live: dict, exit_code: int, stderr: str,
          extra_check=None) -> tuple[set, set]:
    """Return (failed, wrong) operation sets for one command.

    A nonzero exit or a traceback fails every operation of the command.
    Otherwise an operation is wrong when its view differs from the golden
    one or missing, when `extra_check(op, view)` rejects it, or when the
    command-wide view differs or names an operation the golden one lacks."""
    ops = set(golden["ops"])
    if exit_code != golden["exit"] or "Traceback" in stderr:
        return ops, set()
    if live.get(STAR) != golden["star"] or not set(live) - {STAR} <= ops:
        return set(), ops
    wrong = {op for op in ops if live.get(op) != golden["ops"][op]
             or (extra_check is not None and not extra_check(op, live[op]))}
    return set(), wrong
