"""Compare two source trees on every benchmark pool scenario.

usage: python tools/pool_diff.py PARENT_SRC CHANGE_SRC

Each SRC is a directory holding the mlwave package.  Every scenario of the
pools in bench/workloads.py (124) and of three derived pools (112) is
solved by both trees' cli.main, in this one process, one tree after the
other: 236 scenarios.  In two derived pools the runs extend their
workspace past its first 64 steps: each box-power entry run to t_end = 1
(100 steps), and each picard-blowup entry with u0[0] = 12, which stops
past node 64.  In the third, each box-power entry with the power
nonlinearity at r = 3, c = 0.5 is solved right after the same entry at
r = 2, c = 1, so a run that kept the pointwise map of the run before it
on the same operator would show.  Printed per differing scenario:
trace.csv and norms.csv when their bytes differ, each JSON key that
differs apart from metadata, with its largest relative change, and the
final state's change relative to max(1, max |state|), the measure
bench/workloads.py:gate_solve holds to STATE_TOL.  A scenario whose
window attempts end otherwise also differs ("attempts"): each tree's
_Workspace.window_solve is wrapped to record every attempt's outcome,
accepted or the kind of its WindowFailure reason, which run() discards.

The change tree then solves every scenario a second time within the same
import, so that each solve borrows the kernel tables, with their rows
and weights, and the collocations its first pass left idle in the
process-wide store; each scenario whose warm pass differs from its cold
one is printed as above, prefixed "warm".  After each pass a line gives
the bytes the tree's store holds, split by key shape: kernel rows and
weights, keyed (alpha, grid bytes) in linear_solver._STORE, and idle
collocations, keyed (operator, N, panels) in the same store, or in
linear_solver._IDLE in a tree that keeps them apart; beside them, the
lines of the tree's mlwave/*.py files, counted as `wc -l` counts them.

The Picard stop is absolute, so a window that needs max_iter iterations
to converge decides T_est by a few trailing bits.  For each tree a line
gives the count of accepted windows that used exactly their scenario's
max_iter iterations, and the scenarios they are in; then each scenario
whose accepted iteration counts differ between the trees is printed with
the windows that moved, old -> new, and one line gives the accepted
iterations each tree took in total, per pool and over all the pools,
parent -> change.  A line per pool then counts the window attempts by
outcome, parent -> change.  Three lines end the output: the counts of
scenarios that differ between the trees, of those whose status or T_est
changed, and of those whose warm pass differs.
Passing one tree twice checks that reruns in a fresh import are
byte-identical.  Nothing under bench/ is written.
"""

import collections
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

# the kind of a WindowFailure reason, by how the reason starts
REASONS = {"iterate left the trust ball": "trust-ball",
           "no contraction": "no-contraction",
           "iterate overflowed": "iterate-overflow",
           "nonlinearity produced non-finite": "non-finite-f"}


def scenarios():
    """(pool, k, solve kind, scenario document) of every pool entry, each
    box-power entry followed by its derived r = 3 entry, then of every
    entry of the other derived pools."""
    for w in wl.WORKLOADS:
        kind = "linear" if w == "linear-forced" else "semilinear"
        for k in range(wl.POOL_SIZE[w]):
            yield w, k, kind, wl.scenario(w, k)
            if w == "box-power":
                doc = wl.scenario(w, k)
                doc["nonlinearity"]["params"] = {"c": 0.5, "r": 3.0}
                yield "box-power-r3", k, kind, doc
    for k in range(wl.POOL_SIZE["box-power"]):
        doc = wl.scenario("box-power", k)
        doc["grid"]["t_end"] = 1.0
        yield "box-power-t1", k, "semilinear", doc
    for k in range(wl.POOL_SIZE["picard-blowup"]):
        doc = wl.scenario("picard-blowup", k)
        doc["u0"][0] = 12.0
        yield "picard-blowup-u12", k, "semilinear", doc


def load(src):
    """(cli, outcomes): the cli module of the mlwave package under src,
    freshly imported, with its _Workspace.window_solve wrapped to append
    each attempt's outcome to the list outcomes: "accepted", or the kind
    of the reason it fails with."""
    for name in [m for m in sys.modules if m.split(".")[0] == "mlwave"]:
        del sys.modules[name]
    sys.path.insert(0, str(Path(src).resolve()))
    try:
        import mlwave.cli
    finally:
        sys.path.pop(0)
    ss = sys.modules["mlwave.semilinear_solver"]
    solve, outcomes = ss._Workspace.window_solve, []

    def recorded(ws, *args):
        try:
            got = solve(ws, *args)
        except ss.WindowFailure as exc:
            outcomes.append(next((kind for start, kind in REASONS.items()
                                  if exc.reason.startswith(start)),
                                 exc.reason))
            raise
        outcomes.append("accepted")
        return got

    ss._Workspace.window_solve = recorded
    return mlwave.cli, outcomes


def solve_pool(cli, outcomes, work):
    """{(pool, k): {file name: bytes}} of every scenario, solved by the
    cli module cli, with "attempts", the tuple of outcomes its window
    attempts appended to outcomes."""
    os.makedirs(work)
    got = {}
    for w, k, kind, doc in scenarios():
        start = len(outcomes)
        config, out = os.path.join(work, "scenario.json"), \
            os.path.join(work, f"{w}-{k}")
        with open(config, "w") as fh:
            json.dump(doc, fh)
        with contextlib.redirect_stdout(io.StringIO()):
            try:
                rc = cli.main(["solve", kind, "--config", config,
                               "--out", out])
            except Exception as exc:    # a broken tree: compared, not fatal
                rc = f"raised {type(exc).__name__}: {exc}"
        got[w, k] = {"exit": str(rc).encode(),
                     "attempts": tuple(outcomes[start:])}
        for f in FILES[kind]:
            path = os.path.join(out, f)
            if os.path.exists(path):
                got[w, k][f] = Path(path).read_bytes()
    return got


def held_bytes(label, src):
    """Print the bytes the kernel tables and the idle collocations of the
    mlwave package imported last, from src, hold: a key of two items is a
    kernel table's, one of three a collocation's; and the newlines in
    src's mlwave/*.py files."""
    ls = sys.modules["mlwave.linear_solver"]
    held = {2: 0, 3: 0}
    for name in ("_STORE", "_IDLE"):
        for key, entry in getattr(ls, name, {}).items():
            held[len(key)] += entry.nbytes
    lines = sum(f.read_bytes().count(b"\n")
                for f in Path(src).glob("mlwave/*.py"))
    print(f"{label}: kernel store {held[2]} B, "
          f"idle collocations {held[3]} B, {lines} lines in mlwave/*.py")


def final_state(files, N):
    """u then dtu coefficients of trace.csv's last row, as the gate reads
    them, or None without a trace."""
    if "trace.csv" not in files:
        return None
    last = files["trace.csv"].decode().splitlines()[-1].split(",")
    return [float(v) for v in last[1:2 * N + 1]]


def state_change(a, b, N):
    """Largest change of the final state from a to b relative to
    max(1, max |state of a|); inf if only one has a state of that size."""
    x, y = final_state(a, N), final_state(b, N)
    if x is None and y is None:
        return 0.0
    if x is None or y is None or len(x) != len(y):
        return math.inf
    err = max((abs(u - v) for u, v in zip(x, y)), default=0.0)
    return err / max([1.0] + [abs(u) for u in x])


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


def iterations(files):
    """The iteration counts of the accepted windows in outcome.json."""
    if "outcome.json" not in files:
        return []
    return [w["iterations"]
            for w in json.loads(files["outcome.json"]).get("windows", [])]


def knife_edge(label, got, caps):
    """Print the count of accepted windows in got that used exactly their
    scenario's max_iter iterations, and the scenarios they are in."""
    at = {case: iterations(files).count(caps[case])
          for case, files in got.items()}
    hit = [f"{w} {k}" + (f" (x{n})" if n > 1 else "")
           for (w, k), n in at.items() if n]
    print(f"{label}: {sum(at.values())} accepted windows at max_iter"
          + (": " + ", ".join(hit) if hit else ""))


def iteration_moves(before, after):
    """Print each scenario whose accepted iteration counts differ, with
    the windows that moved; return how many there are."""
    moved = 0
    for case, files in before.items():
        a, b = iterations(files), iterations(after[case])
        if a == b:
            continue
        moved += 1
        notes = [f"window {i} {x} -> {y}"
                 for i, (x, y) in enumerate(zip(a, b)) if x != y]
        if len(a) != len(b):
            notes.append(f"{len(a)} -> {len(b)} windows")
        print(f"iterations {case[0]} {case[1]}: " + ", ".join(notes))
    return moved


def iteration_totals(before, after):
    """Print on one line the accepted iterations of each tree, per pool
    and over all pools, old -> new."""
    pools = {}
    for case, files in before.items():
        old, new = pools.get(case[0], (0, 0))
        pools[case[0]] = (old + sum(iterations(files)),
                          new + sum(iterations(after[case])))
    old, new = (sum(n) for n in zip(*pools.values()))
    print("accepted iterations: " + ", ".join(
        f"{w} {a} -> {b}" for w, (a, b) in pools.items())
        + f", all pools {old} -> {new}")


def attempt_counts(before, after):
    """Print a line per pool: its window attempts counted by outcome,
    old -> new."""
    pools = {}
    for case, files in before.items():
        old, new = pools.setdefault(case[0], (collections.Counter(),
                                              collections.Counter()))
        old.update(files["attempts"])
        new.update(after[case]["attempts"])
    for w, (old, new) in pools.items():
        kinds = ["accepted"] + sorted((old | new).keys() - {"accepted"})
        print(f"window attempts {w}: " + ", ".join(
            f"{kind} {old[kind]} -> {new[kind]}" for kind in kinds))


def compare(before, after, modes, label=""):
    """Print each scenario whose files differ from before to after, then
    the largest relative change per key; return (differing, moved), the
    counts of differing scenarios and of those whose status or T_est
    changed."""
    worst = {}
    differing = moved = 0
    for case, files in before.items():
        notes = [f for f, data in files.items()
                 if not f.endswith(".json") and after[case].get(f) != data]
        changed = set()
        for f in (f for f in files if f.endswith(".json")):
            for key, rel in json_diffs(json.loads(files[f]),
                                       json.loads(after[case].get(f, "{}"))):
                notes.append(f"{f}:{key} {rel:.2e}")
                worst[key] = max(worst.get(key, 0.0), rel)
                changed.add(key)
        if notes:
            differing += 1
            moved += bool(changed & {"status", "T_est"})
            rel = state_change(files, after[case], modes[case])
            worst["final state (gate scale)"] = max(
                worst.get("final state (gate scale)", 0.0), rel)
            print(f"{label}{case[0]} {case[1]}: " + ", ".join(notes)
                  + f", final state {rel:.2e} of scale")
    for key, rel in sorted(worst.items()):
        print(f"{label}largest relative change of {key}: {rel:.3e}")
    return differing, moved


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as work:
        before = solve_pool(*load(argv[0]), os.path.join(work, "a"))
        held_bytes("parent tree after its pass", argv[0])
        cli = load(argv[1])
        after = solve_pool(*cli, os.path.join(work, "b"))
        held_bytes("change tree after its cold pass", argv[1])
        warm = solve_pool(*cli, os.path.join(work, "c"))
        held_bytes("change tree after its warm pass", argv[1])
    modes = {(w, k): doc["N_modes"] for w, k, _, doc in scenarios()}
    cap = sys.modules["mlwave.semilinear_solver"].PicardConfig.max_iter
    caps = {(w, k): doc.get("picard", {}).get("max_iter", cap)
            for w, k, _, doc in scenarios()}
    knife_edge("parent tree", before, caps)
    knife_edge("change tree", after, caps)
    shifted = iteration_moves(before, after)
    print(f"{shifted} of {len(before)} scenarios change their accepted "
          "iteration counts")
    iteration_totals(before, after)
    attempt_counts(before, after)
    differing, moved = compare(before, after, modes)
    warm_differing, _ = compare(after, warm, modes, "warm ")
    print(f"{differing} of {len(before)} scenarios differ")
    print(f"{moved} of {len(before)} scenarios change status or T_est")
    print(f"{warm_differing} of {len(after)} scenarios differ between the "
          "change tree's cold and warm passes")
    return 1 if differing or warm_differing else 0


if __name__ == "__main__":
    sys.exit(main())
