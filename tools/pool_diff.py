"""Compare two source trees on every benchmark pool scenario.

usage: python tools/pool_diff.py PARENT_SRC CHANGE_SRC

Each SRC is a directory holding the mlwave package.  Every scenario of the
pools in bench/workloads.py is solved by both trees' cli.main, in this one
process, one tree after the other.  Printed per differing scenario: trace.csv
and norms.csv when their bytes differ, and each JSON key that differs apart
from metadata, with its largest relative change.  Passing one tree twice
checks that reruns are byte-identical.  Nothing under bench/ is written.
"""

import contextlib
import io
import json
import math
import os
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
import workloads as wl  # noqa: E402

FILES = {"linear": ("summary.json", "trace.csv", "norms.csv"),
         "semilinear": ("outcome.json", "trace.csv", "norms.csv")}


def solve_pool(src, work):
    """{(workload, k): {file name: bytes}} of every pool scenario."""
    for name in [m for m in sys.modules if m.split(".")[0] == "mlwave"]:
        del sys.modules[name]
    sys.path.insert(0, str(Path(src).resolve()))
    try:
        import mlwave.cli
    finally:
        sys.path.pop(0)
    os.makedirs(work)
    got = {}
    for w in wl.WORKLOADS:
        kind = "linear" if w == "linear-forced" else "semilinear"
        for k in range(wl.POOL_SIZE[w]):
            config, out = os.path.join(work, "scenario.json"), \
                os.path.join(work, f"{w}-{k}")
            with open(config, "w") as fh:
                json.dump(wl.scenario(w, k), fh)
            with contextlib.redirect_stdout(io.StringIO()):
                rc = mlwave.cli.main(["solve", kind, "--config", config,
                                      "--out", out])
            got[w, k] = {"exit": str(rc).encode()}
            for f in FILES[kind]:
                path = os.path.join(out, f)
                if os.path.exists(path):
                    got[w, k][f] = Path(path).read_bytes()
    return got


def json_diffs(a, b, key=""):
    """(key, largest relative change) of each leaf where a and b differ;
    inf where they differ other than as two numbers."""
    if isinstance(a, dict) and isinstance(b, dict):
        out = []
        for k in sorted(set(a) | set(b)):
            if k == "metadata" and not key:
                continue
            out += json_diffs(a.get(k), b.get(k), f"{key}.{k}".lstrip("."))
        return out
    if isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        diffs = [d for x, y in zip(a, b) for d in json_diffs(x, y, key)]
        return [(key, max(r for _, r in diffs))] if diffs else []
    if a == b:
        return []
    num = (int, float)
    if isinstance(a, num) and isinstance(b, num) and not isinstance(
            a, bool) and math.isfinite(a) and math.isfinite(b):
        return [(key, abs(a - b) / max(abs(a), abs(b)))]
    return [(key, math.inf)]


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as work:
        before, after = (solve_pool(src, os.path.join(work, side))
                         for src, side in zip(argv, ("a", "b")))
    worst = {}
    differing = 0
    for case, files in before.items():
        notes = [f for f, data in files.items()
                 if not f.endswith(".json") and after[case].get(f) != data]
        for f in (f for f in files if f.endswith(".json")):
            for key, rel in json_diffs(json.loads(files[f]),
                                       json.loads(after[case].get(f, "{}"))):
                notes.append(f"{f}:{key} {rel:.2e}")
                worst[key] = max(worst.get(key, 0.0), rel)
        if notes:
            differing += 1
            print(f"{case[0]} {case[1]}: " + ", ".join(notes))
    for key, rel in sorted(worst.items()):
        print(f"largest relative change of {key}: {rel:.3e}")
    print(f"{differing} of {len(before)} scenarios differ")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
