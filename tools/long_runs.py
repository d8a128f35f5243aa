"""Time the long-horizon solves of ROADMAP.md in child processes.

usage: python tools/long_runs.py [--runs K] [--only NAME]... SRC [SRC2]

Each SRC is a directory holding the mlwave package.  Every scenario is
solved by `python -m mlwave.cli solve` in a child process with SRC on its
PYTHONPATH, K times per tree (default 2), the trees alternating in order
from one run to the next; --only, repeated, picks scenarios by name.  All four scenarios are on the interval [0, pi]
with alpha = 1.5, N = 16, u0 = 1/n^2 and u1 = 0.5/n^2:

  linear-5e3   forcing (1/n^2) sin 3t, dt = 1e-3, t_end = 5   (5000 steps)
  linear-2e4   the same, t_end = 20                           (20000 steps)
  sine-5e3     f(u) = 0.3 sin u, dt = 2e-3, t_end = 10        (5000 steps)
  sine-2e4     the same, t_end = 40                           (20000 steps)

A line per run gives the child's wall time, imports included, and its
peak resident set size (ru_maxrss from os.wait4).  With two trees, a line
per scenario then says whether the last runs of the two wrote the same
trace.csv and norms.csv bytes, and the exit status is 1 if any differ.
"""

import argparse
import json
import math
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

FILES = ("trace.csv", "norms.csv")


def scenarios():
    """{name: (solve kind, scenario document)} of the four long solves."""
    n = range(1, 17)
    base = {"alpha": 1.5,
            "operator": {"kind": "dirichlet_laplacian_interval",
                         "lengths": [math.pi]},
            "N_modes": 16,
            "u0": [1.0 / k ** 2 for k in n],
            "u1": [0.5 / k ** 2 for k in n]}
    forcing = {"kind": "separable", "g": [1.0 / k ** 2 for k in n],
               "h_name": "sinusoid",
               "h_params": {"amplitude": 1.0, "omega": 3.0}}
    sine = {"kind": "sine", "params": {"c": 0.3}}
    out = {}
    for name, t_end in (("5e3", 5.0), ("2e4", 20.0)):
        out[f"linear-{name}"] = ("linear", dict(
            base, forcing=forcing, grid={"t_end": t_end, "dt": 1e-3}))
    for name, t_end in (("5e3", 10.0), ("2e4", 40.0)):
        out[f"sine-{name}"] = ("semilinear", dict(
            base, nonlinearity=sine, grid={"t_end": t_end, "dt": 2e-3}))
    return out


def solve(src, kind, config, out):
    """(wall seconds, peak RSS in MB, exit status) of one child solve."""
    env = dict(os.environ, PYTHONPATH=str(Path(src).resolve()))
    t0 = time.perf_counter()
    child = subprocess.Popen(
        [sys.executable, "-m", "mlwave.cli", "solve", kind,
         "--config", config, "--out", out],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    _, status, usage = os.wait4(child.pid, 0)
    wall = time.perf_counter() - t0
    child.returncode = os.waitstatus_to_exitcode(status)
    # ru_maxrss counts kB on Linux
    return wall, usage.ru_maxrss / 1024.0, child.returncode


def main(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__.strip().splitlines()[0])
    parser.add_argument("trees", nargs="+", metavar="SRC")
    parser.add_argument("--runs", type=int, default=2)
    parser.add_argument("--only", action="append", metavar="NAME",
                        choices=sorted(scenarios()))
    args = parser.parse_args(argv)
    if len(args.trees) > 2 or args.runs < 1:
        parser.error("give one or two trees and at least one run")
    chosen = {k: v for k, v in scenarios().items()
              if not args.only or k in args.only}
    differ = 0
    with tempfile.TemporaryDirectory() as work:
        for name, (kind, doc) in chosen.items():
            config = os.path.join(work, f"{name}.json")
            with open(config, "w") as fh:
                json.dump(doc, fh)
            for r in range(args.runs):
                order = list(enumerate(args.trees))
                for k, src in order if r % 2 == 0 else order[::-1]:
                    out = os.path.join(work, f"{name}-{k}")
                    wall, rss, rc = solve(src, kind, config, out)
                    print(f"{name} run {r + 1} tree {k} ({src}): "
                          f"{wall:.2f} s, peak RSS {rss:.1f} MB, exit {rc}",
                          flush=True)
            if len(args.trees) == 2:
                notes = []
                for f in FILES:
                    got = [Path(work, f"{name}-{k}", f) for k in (0, 1)]
                    same = (all(p.exists() for p in got)
                            and got[0].read_bytes() == got[1].read_bytes())
                    differ += not same
                    notes.append(f"{f} {'identical' if same else 'DIFFERS'}")
                print(f"{name}: " + ", ".join(notes), flush=True)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
