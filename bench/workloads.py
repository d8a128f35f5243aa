"""Seeded inputs of the benchmark workloads and the code that runs one op.

Every input comes from a fixed pool derived from POOL_SEED, so the reference
recorded in reference.npz covers every input a run can draw.  The run seed
chooses which pool entries a run uses and in what order; the program under
test only ever sees the generated scenario files.
"""

import contextlib
import hashlib
import io
import json
import math
import os
import time

import numpy as np

POOL_SEED = 1808_02434

WORKLOADS = ("linear-forced", "box-power", "picard-blowup")

LINEAR_ALPHAS = (1.1, 1.5, 1.9)
LINEAR_VARIANTS = 12        # pool entries per alpha
POOL_SIZE = {"linear-forced": LINEAR_VARIANTS * len(LINEAR_ALPHAS),
             "box-power": 24,
             "picard-blowup": 64}

EXPECTED_STATUS = {"linear-forced": "completed",
                   "box-power": "completed",
                   "picard-blowup": "maximal_time_detected"}

# Output gates.  Final solve states: 1e-8 of max(1, max |reference|), loose enough for a
# re-implemented kernel row at evaluator accuracy, tight enough that a 1e-4
# change in the nonlinearity shows.  T_est is a grid time.
STATE_TOL = 1e-8
T_EST_TOL = 1e-12


def _rng(*key):
    return np.random.default_rng([POOL_SEED, *key])


def _decaying(rng, N, scale):
    """N coefficients scale * U(-1, 1) / n^2."""
    n = np.arange(1, N + 1)
    return [float(v) for v in scale * rng.uniform(-1.0, 1.0, N) / n ** 2]


def scenario(workload, k):
    """Scenario document of pool entry k of a solve workload."""
    if workload == "linear-forced":
        rng = _rng(1, k)
        return {
            "alpha": LINEAR_ALPHAS[k % len(LINEAR_ALPHAS)],
            "operator": {"kind": "dirichlet_laplacian_interval",
                         "lengths": [math.pi]},
            "N_modes": 16,
            "u0": _decaying(rng, 16, 1.0),
            "u1": _decaying(rng, 16, 1.0),
            "forcing": {"kind": "separable", "g": _decaying(rng, 16, 1.0),
                        "h_name": "sinusoid",
                        "h_params": {"amplitude": 1.0, "omega": 3.0,
                                     "phase": 0.0}},
            "grid": {"t_end": 2.0, "dt": 0.05},
        }
    if workload == "box-power":
        rng = _rng(2, k)
        return {
            "alpha": 1.25,
            "operator": {"kind": "dirichlet_laplacian_box",
                         "lengths": [math.pi, math.pi]},
            "N_modes": 16,
            "u0": _decaying(rng, 16, 0.2),
            "u1": _decaying(rng, 16, 0.1),
            "nonlinearity": {"kind": "power",
                             "params": {"c": 1.0, "r": 2.0}},
            "grid": {"t_end": 0.1, "dt": 0.01},
        }
    if workload == "picard-blowup":
        rng = _rng(3, k)
        u0 = _decaying(rng, 8, 0.5)
        u0[0] = 20.0
        return {
            "alpha": 1.5,
            "operator": {"kind": "dirichlet_laplacian_interval",
                         "lengths": [math.pi]},
            "N_modes": 8,
            "u0": u0,
            "u1": "zero",
            "nonlinearity": {"kind": "power",
                             "params": {"c": 1.0, "r": 3.0}},
            "grid": {"t_end": 0.1, "dt": 0.0005},
        }
    raise ValueError(f"{workload} has no scenario pool")


def pool_digest():
    """Hash of every generated input; reference.npz stores the value it was
    recorded from, so a changed generator cannot gate against stale values."""
    h = hashlib.sha256()
    for w in WORKLOADS:
        for k in range(POOL_SIZE[w]):
            h.update(json.dumps(scenario(w, k), sort_keys=True).encode())
    return h.hexdigest()


def draw_order(workload, seed):
    """Endless seeded sequence of pool indices for one run."""
    rng = np.random.default_rng(seed)
    if workload == "linear-forced":
        # alpha cycles 1.1, 1.5, 1.9; each op draws its coefficients
        m = 0
        while True:
            yield (int(rng.integers(LINEAR_VARIANTS)) * len(LINEAR_ALPHAS)
                   + m % len(LINEAR_ALPHAS))
            m += 1
    else:
        while True:
            yield from (int(i) for i in rng.permutation(POOL_SIZE[workload]))


# ------------------------------------------------------------------ solve op

class SolveOutput:
    """What the gate reads back from one solve's artifacts."""

    def __init__(self, status, final_state, t_est, windows, bytes_out, work,
                 dt):
        self.status = status
        self.final_state = final_state      # u then dtu coefficients
        self.t_est = t_est
        self.windows = windows
        self.bytes_out = bytes_out
        self.work = work                    # modes x time nodes produced
        self.dt = dt


def solve(main, kind, config, out):
    """Run `mlwave solve <kind>` in process through `main`.

    Returns (wall seconds, exit code, error, captured stdout+stderr); error
    names the exception the call raised, if any, and the exit code is then
    None."""
    sink = io.StringIO()
    rc = error = None
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        t0 = time.perf_counter()
        try:
            rc = main(["solve", kind, "--config", config, "--out", out])
        except Exception as exc:    # any exception is a failed op
            error = f"{type(exc).__name__}: {exc}"
        wall = time.perf_counter() - t0
    return wall, rc, error, sink.getvalue()


def read_output(kind, out, scenario_doc):
    N = scenario_doc["N_modes"]
    doc_name = "summary.json" if kind == "linear" else "outcome.json"
    names = (doc_name, "trace.csv", "norms.csv")
    with open(os.path.join(out, doc_name)) as fh:
        doc = json.load(fh)
    with open(os.path.join(out, "trace.csv")) as fh:
        lines = fh.read().splitlines()
    last = np.array([float(v) for v in lines[-1].split(",")])
    return SolveOutput(
        status=doc["status"],
        final_state=last[1:2 * N + 1],
        t_est=doc.get("T_est"),
        windows=doc.get("windows", []),
        bytes_out=sum(os.path.getsize(os.path.join(out, f)) for f in names),
        work=N * (len(lines) - 1),
        dt=scenario_doc["grid"]["dt"])


def gate_solve(workload, got, ref_state, ref_t_est):
    """Reason the output disagrees with the reference, or None."""
    if got.status != EXPECTED_STATUS[workload]:
        return f"status {got.status!r}"
    if got.final_state.shape != ref_state.shape:
        return f"final state has {got.final_state.size} values"
    scale = max(1.0, float(np.max(np.abs(ref_state))))
    err = float(np.max(np.abs(got.final_state - ref_state)))
    if not err <= STATE_TOL * scale:
        return f"final state off by {err:.3e} (scale {scale:.3g})"
    if workload == "picard-blowup":
        if got.t_est is None or not (abs(got.t_est - ref_t_est)
                                     <= T_EST_TOL * max(1.0, ref_t_est)):
            return f"T_est {got.t_est} != {ref_t_est}"
    return None
