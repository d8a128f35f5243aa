"""Record bench/reference.npz, the outputs the benchmark gates against.

    python3 bench/record.py

Runs every pool scenario once through mlwave.cli.main and stores the
final states and T_est.  Aborts if any solve fails: the workloads are
chosen so that none does.  Takes about two minutes on a 2-core Xeon.
"""

import json
import math
import pathlib
import sys
import tempfile

import run  # sets the BLAS thread variables before numpy loads

import numpy as np

import workloads as wl


def record_solves(mlwave, workload, workdir):
    kind = "linear" if workload == "linear-forced" else "semilinear"
    config = str(workdir / "scenario.json")
    out = str(workdir / "out")
    states, t_est = [], []
    for k in range(wl.POOL_SIZE[workload]):
        doc = wl.scenario(workload, k)
        pathlib.Path(config).write_text(json.dumps(doc))
        wall, rc, error, log = wl.solve(mlwave.cli.main, kind, config, out)
        if error is not None or rc != 0:
            sys.exit(f"{workload}[{k}] failed: {error or log}")
        got = wl.read_output(kind, out, doc)
        if got.status != wl.EXPECTED_STATUS[workload]:
            sys.exit(f"{workload}[{k}] ended {got.status}")
        states.append(got.final_state)
        t_est.append(math.nan if got.t_est is None else got.t_est)
        print(f"{workload}[{k}] {wall:.2f} s {got.status} "
              f"T_est={got.t_est}", flush=True)
    return np.array(states), np.array(t_est)


def main():
    mlwave = run.load_program()
    out = {"digest": np.array(wl.pool_digest())}
    with tempfile.TemporaryDirectory(dir=run.ROOT) as tmp:
        for workload in wl.WORKLOADS:
            states, t_est = record_solves(mlwave, workload,
                                          pathlib.Path(tmp))
            key = workload.replace("-", "_")
            out[key + "_state"] = states
            if workload == "picard-blowup":
                out[key + "_t_est"] = t_est
    np.savez(run.REFERENCE, **out)
    print(f"wrote {run.REFERENCE}")


if __name__ == "__main__":
    main()
