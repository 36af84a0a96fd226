"""Render the frozen identities of tests/reference_data.py as the CLI shows them.

Usage: python3 bench/reference.py  (prints one JSON object)

For every `(k, m, point)` the reference data covers (k <= 9), the object
holds the identity's kind, left side, JSON right side and plain text, so the
benchmark can cross-check `verify` output without trusting golden files
alone.  It also reports the interpreter and mpmath versions and backend.
"""

import json
import os
import platform
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]

import mpmath  # noqa: E402
from dzeta.identities import IdentityRecord, render_identity  # noqa: E402
from dzeta.symfield import Unknown, to_json_dict  # noqa: E402
from gate import identity_op  # noqa: E402
from reference_data import ALT_IDENTITIES, DZV_IDENTITIES, TRIVIAL_PAIRS  # noqa: E402

TAGS = {"dzv": "value", "alt": "alternating", "trivial": "trivial"}


def expected(rec: IdentityRecord) -> dict:
    text = render_identity(rec, "plain", "even-zeta")
    return {
        "kind": rec.kind,
        "lhs": rec.lhs_label(),
        "rhs": to_json_dict(rec.value) if rec.value is not None else None,
        "text": text,
        "line": f"(k={rec.k}, m={rec.m}, point={rec.point:+d}) "
                f"{TAGS[rec.kind]}: {text}",
    }


def main() -> None:
    records = []
    for point, kind, table in ((-1, "dzv", DZV_IDENTITIES),
                               (1, "alt", ALT_IDENTITIES)):
        for (k, m), value in table.items():
            records.append(IdentityRecord(kind, k, m, point, Unknown(kind, k, m),
                                          value, "direct", k + m))
        for k, m in TRIVIAL_PAIRS:
            records.append(IdentityRecord("trivial", k, m, point, None, None,
                                          "direct", k + m))
    print(json.dumps({
        "identities": {identity_op(r.k, r.m, r.point): expected(r)
                       for r in records},
        "versions": {"python": platform.python_version(),
                     "mpmath": mpmath.__version__,
                     "mpmath_backend": mpmath.libmp.BACKEND},
    }, sort_keys=True))


if __name__ == "__main__":
    main()
