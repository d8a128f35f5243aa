"""Layered benchmark of mlwave.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

One client runs solves back to back in this process (a closed loop) for
about S seconds: an op is one in-process `mlwave solve` through
mlwave.cli.main.  Every op passes an output gate against
bench/reference.npz.  With --trace 0 the last stdout line carries the
end-to-end metrics; with --trace 1 each op runs once untraced and once with
spans around the program's public names, and the line carries the
per-layer metrics.  The line before it records the environment, raw
timings and sample counts.  See bench/README.md.
"""

import os

# One BLAS thread (at most nproc), set before numpy loads: the solves are
# scalar Python, and one thread keeps the timings steady.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import collections  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import pathlib  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402
from scipy.integrate import quad  # noqa: E402

import workloads as wl  # noqa: E402
from tracer import Tracer  # noqa: E402

BENCH = pathlib.Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
REFERENCE = BENCH / "reference.npz"
SETUP_PROBES = 5

# Host-speed calibration.  On a shared host the speed of every process
# drifts by up to +-25% over minutes.  A fixed piece of work, timed right
# before and right after each op, tracks that drift; the op's wall time is
# scaled by CALIB_REF_S over the mean of the two, so it reads as at the
# host speed at which the calibration takes CALIB_REF_S (about the fastest
# seen on a 2-core Xeon at 2.1 GHz).
CALIB_STEPS = 30_000
CALIB_QUADS = 60
CALIB_REF_S = 0.013


class BenchError(Exception):
    """The benchmark cannot run here; it prints no result."""


def load_program():
    if not (SRC / "mlwave" / "__init__.py").is_file():
        raise BenchError(f"no mlwave package under {SRC}")
    sys.path.insert(0, str(SRC))
    import mlwave
    import mlwave.cli
    if pathlib.Path(mlwave.__file__).resolve().parent != SRC / "mlwave":
        raise BenchError(f"imported mlwave from {mlwave.__file__}")
    return mlwave


def load_reference():
    if not REFERENCE.is_file():
        raise BenchError(f"missing {REFERENCE}")
    with np.load(REFERENCE) as z:
        ref = {k: z[k] for k in z.files}
    if str(ref["digest"]) != wl.pool_digest():
        raise BenchError("generated inputs differ from the ones "
                         "reference.npz was recorded from")
    return ref


def environment(mlwave):
    import scipy
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), None)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        got = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
        commit = got.stdout.strip() or None
    return {"nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "cpu_model": cpu,
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "mlwave": mlwave.__version__,
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
            "commit": commit}


def _calibration_step(x):
    return math.exp(-x) * math.cos(x) + x ** 1.5


def _calibration_integrand(v):
    return math.exp(-v) * math.cos(3.0 * v) * v ** 0.3


def calibrate():
    """Wall seconds of fixed work of the two kinds the solves spend their
    time in: Python float steps, and scipy.integrate.quad over a Python
    integrand."""
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(CALIB_STEPS):
        acc += _calibration_step(i * 1e-4)
    for j in range(CALIB_QUADS):
        acc += quad(_calibration_integrand, 0.0, 20.0 + j, limit=200)[0]
    wall = time.perf_counter() - t0
    if not math.isfinite(acc):
        raise BenchError("calibration work went non-finite")
    return wall


class Tally:
    """Op outcomes: failed (raised, exited non-zero, or failed the gate) and
    wrong (returned an output that disagrees with the reference)."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.reasons = collections.Counter()

    def add(self, failure, wrong=False):
        self.attempted += 1
        if failure is not None:
            self.failed += 1
            self.wrong += wrong
            self.reasons[failure] += 1


# ------------------------------------------------------------- solve ops

class SolveRunner:
    """Writes a pool scenario, runs it through a main function and gates
    the artifacts against the reference."""

    def __init__(self, workload, ref, workdir):
        self.workload = workload
        self.kind = "linear" if workload == "linear-forced" else "semilinear"
        key = workload.replace("-", "_")
        self.state = ref[key + "_state"]
        self.t_est = ref.get(key + "_t_est")
        self.config = str(workdir / "scenario.json")
        self.out = str(workdir / "out")

    def write(self, k):
        doc = wl.scenario(self.workload, k)
        with open(self.config, "w") as fh:
            json.dump(doc, fh)
        return doc

    def op(self, k, main, tally):
        """One solve of pool entry k: (wall seconds, output or None)."""
        doc = self.write(k)
        wall, rc, error, log = wl.solve(main, self.kind, self.config,
                                        self.out)
        if error is not None or rc != 0:
            last = log.strip().splitlines()[-1:] or [""]
            tally.add(error or f"exit {rc}: {last[0]}")
            return wall, None
        try:
            got = wl.read_output(self.kind, self.out, doc)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            tally.add(f"unreadable output: {exc}", wrong=True)
            return wall, None
        t_est = None if self.t_est is None else float(self.t_est[k])
        reason = wl.gate_solve(self.workload, got, self.state[k], t_est)
        tally.add(reason, wrong=reason is not None)
        return wall, (got if reason is None else None)


def solve_rounds(workload, seed, seconds, run_round):
    """Run one untimed warm-up op, then rounds (one alpha cycle on
    linear-forced, else one op) while the next is expected to end within
    `seconds`; at least one."""
    order = wl.draw_order(workload, seed)
    size = 3 if workload == "linear-forced" else 1
    run_round([next(order)], warm_up=True)
    start = time.perf_counter()
    rounds = 0
    while True:
        run_round([next(order) for _ in range(size)])
        rounds += 1
        elapsed = time.perf_counter() - start
        if elapsed * (rounds + 1) / rounds > seconds:
            return


def end_to_end(workload, seed, seconds, mlwave, ref, workdir):
    runner = SolveRunner(workload, ref, workdir)
    runner.write(next(wl.draw_order(workload, seed)))
    setup, setup_raw = setup_times(runner.config)
    tally = Tally()
    walls, scaled, rates = [], [], []
    calib = [calibrate()]

    def run_round(ks, warm_up=False):
        work = spent = 0.0
        for k in ks:
            wall, got = runner.op(k, mlwave.cli.main, tally)
            calib.append(calibrate())
            if warm_up:
                continue
            walls.append(wall)
            scaled.append(host_scaled(wall, calib[-2], calib[-1]))
            spent += scaled[-1]
            if got is not None:
                work += got.work
        if not warm_up:
            rates.append(work / spent)

    solve_rounds(workload, seed, seconds, run_round)
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "solve_s": metric(statistics.median(scaled), "s"),
        "mode_steps_per_s": metric(statistics.median(rates), "1/s"),
        "ok_frac": metric(1.0 - tally.failed / tally.attempted, "ratio"),
        "setup_s": metric(statistics.median(setup), "s"),
        "peak_rss_mb": metric(rss, "MB"),
    }
    info = {"timed_ops": len(walls),
            "rounds": len(rates),
            "raw_solve_s": statistics.median(walls),
            "calib_s": statistics.median(calib),
            "raw_setup_s": setup_raw}
    return tally, metrics, info


# ---------------------------------------------------------------- metrics

def host_scaled(wall, calib_before, calib_after):
    """wall at the host speed where the calibration takes CALIB_REF_S."""
    return wall * 2.0 * CALIB_REF_S / (calib_before + calib_after)


def setup_times(config):
    """Host-scaled and raw set-up times of SETUP_PROBES fresh interpreters,
    each between two calibrations."""
    cmd = [sys.executable, str(BENCH / "probe.py"), config]
    scaled, raw = [], []
    before = calibrate()
    for _ in range(SETUP_PROBES):
        got = subprocess.run(cmd, capture_output=True, text=True,
                             timeout=120)
        if got.returncode != 0:
            raise BenchError(f"set-up probe failed: {got.stderr.strip()}")
        after = calibrate()
        raw.append(float(got.stdout.strip().splitlines()[-1]))
        scaled.append(host_scaled(raw[-1], before, after))
        before = after
    return scaled, raw


def metric(value, unit):
    return {"value": float(value), "unit": unit}


SOLVE_TARGETS = (
    # (module, global the program calls through, span name)
    ("cli", "parse_scenario", "cli.parse_scenario"),
    ("cli", "solve_linear", "linear_solver.solve_linear"),
    ("linear_solver", "convolve_forcing", "linear_solver.convolve_forcing"),
    ("linear_solver", "_ml", "mittag_leffler.ml"),
    ("cli", "run", "semilinear_solver.run"),
    ("cli", "strong_solution_check",
     "semilinear_solver.strong_solution_check"),
    ("semilinear_solver", "apply_nonlinearity",
     "semilinear_solver.apply_nonlinearity"),
    ("semilinear_solver", "project", "spectral_operator.project"),
    ("semilinear_solver", "evaluate", "spectral_operator.evaluate"),
    ("semilinear_solver", "ml_bound_probe", "mittag_leffler.ml_bound_probe"),
    ("semilinear_solver", "classify", "criticality.classify"),
)
# _KernelTable.row builds one Mittag-Leffler row over the grid; it is a
# method, so it is swapped on the class.
KERNEL_ROW = ("linear_solver", "_KernelTable", "row",
              "mittag_leffler.kernel_row")

# Span metrics: (metric, span, "incl" | "self" | "calls"), per traced op.
SPAN_METRICS = (
    ("mittag_leffler.kernel_rows_s", "mittag_leffler.kernel_row", "incl"),
    ("mittag_leffler.kernel_rows", "mittag_leffler.kernel_row", "calls"),
    ("mittag_leffler.evals", "mittag_leffler.ml", "calls"),
    ("mittag_leffler.bound_probe_s", "mittag_leffler.ml_bound_probe", "incl"),
    ("linear_solver.solve_linear_s", "linear_solver.solve_linear", "incl"),
    ("linear_solver.convolve_forcing_s", "linear_solver.convolve_forcing",
     "incl"),
    ("semilinear_solver.run_s", "semilinear_solver.run", "incl"),
    ("semilinear_solver.picard_self_s", "semilinear_solver.run", "self"),
    ("semilinear_solver.apply_nonlinearity_s",
     "semilinear_solver.apply_nonlinearity", "incl"),
    ("semilinear_solver.apply_nonlinearity_calls",
     "semilinear_solver.apply_nonlinearity", "calls"),
    ("semilinear_solver.strong_check_s",
     "semilinear_solver.strong_solution_check", "incl"),
    ("spectral_operator.project_s", "spectral_operator.project", "self"),
    ("spectral_operator.project_calls", "spectral_operator.project", "calls"),
    ("spectral_operator.evaluate_s", "spectral_operator.evaluate", "incl"),
    ("spectral_operator.evaluate_calls", "spectral_operator.evaluate",
     "calls"),
    ("cli.parse_s", "cli.parse_scenario", "incl"),
    ("cli.write_s", "cli.main", "self"),
)

# Every per-layer metric with its unit.  A traced run reports all of them;
# one the workload never reaches reads 0 and is listed under not_reached.
PER_LAYER = {
    **{name: "count" if col == "calls" else "s"
       for name, _, col in SPAN_METRICS},
    "mittag_leffler.eval_us": "us",
    "mittag_leffler.eval_p99_us": "us",
    "linear_solver.propagator_s": "s",
    "semilinear_solver.nl_useful_frac": "ratio",
    "semilinear_solver.windows_accepted": "count",
    "semilinear_solver.picard_iters": "count",
    "cli.bytes_out": "bytes",
    "trace_overhead_frac": "ratio",
}


def traced(workload, seed, seconds, mlwave, ref, workdir):
    runner = SolveRunner(workload, ref, workdir)
    tracer = Tracer()
    targets = [(getattr(mlwave, mod), attr, name)
               for mod, attr, name in SOLVE_TARGETS]
    mod, cls, attr, name = KERNEL_ROW
    targets.append((getattr(getattr(mlwave, mod), cls), attr, name))
    traced_main = tracer.wrap(mlwave.cli.main, "cli.main")
    tally = Tally()
    walls = {False: 0.0, True: 0.0}
    outputs = []

    def run_round(ks, warm_up=False):
        for k in ks:
            if warm_up:
                runner.op(k, mlwave.cli.main, tally)
                continue
            # untraced and traced on the same input, alternating which
            # goes first, for the tracing overhead
            first = len(outputs) % 2 == 1
            for is_traced in (first, not first):
                if is_traced:
                    with tracer.patched(targets):
                        wall, got = runner.op(k, traced_main, tally)
                    outputs.append(got)
                else:
                    wall, got = runner.op(k, mlwave.cli.main, tally)
                walls[is_traced] += wall

    solve_rounds(workload, seed, seconds, run_round)
    n = len(outputs)
    totals = tracer.totals()
    values = {}
    for name, span, col in SPAN_METRICS:
        calls, incl, own = totals.get(span, (0, 0.0, 0.0))
        if calls:
            total = {"incl": incl, "self": own, "calls": calls}[col]
            values[name] = total / n
    if "linear_solver.solve_linear_s" in values:
        values["linear_solver.propagator_s"] = (
            values["linear_solver.solve_linear_s"]
            - values.get("linear_solver.convolve_forcing_s", 0.0))
    evals = tracer.durations("mittag_leffler.ml")
    if evals:
        values["mittag_leffler.eval_us"] = 1e6 * statistics.median(evals)
        values["mittag_leffler.eval_p99_us"] = \
            1e6 * float(np.quantile(evals, 0.99))
    done = [g for g in outputs if g is not None]
    if done:
        values["cli.bytes_out"] = sum(g.bytes_out for g in done) / len(done)
    nl_calls = totals.get("semilinear_solver.apply_nonlinearity", (0,))[0]
    if nl_calls:
        windows = [(w, g.dt) for g in done for w in g.windows]
        # an accepted window of W steps evaluates W rows per Picard
        # iteration and once more after convergence
        useful = sum((w["iterations"] + 1)
                     * round((w["end"] - w["start"]) / dt)
                     for w, dt in windows)
        values["semilinear_solver.nl_useful_frac"] = useful / nl_calls
        values["semilinear_solver.windows_accepted"] = len(windows) / n
        values["semilinear_solver.picard_iters"] = sum(
            w["iterations"] for w, _ in windows) / n
    values["trace_overhead_frac"] = walls[True] / walls[False] - 1.0
    return tally, values, {"traced_ops": n,
                           "untraced_ops": tally.attempted - n,
                           "traced_op_s": walls[True] / n}


# ------------------------------------------------------------------- main

def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None):
    args = parse_args(argv)
    try:
        mlwave = load_program()
        ref = load_reference()
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    workdir = ROOT / ".bench_run" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        not_reached = []
        if args.trace:
            tally, values, info = traced(
                args.workload, args.seed, args.seconds, mlwave, ref, workdir)
            not_reached = [name for name in PER_LAYER if name not in values]
            metrics = {name: metric(values.get(name, 0.0), unit)
                       for name, unit in PER_LAYER.items()}
        else:
            tally, metrics, info = end_to_end(
                args.workload, args.seed, args.seconds, mlwave, ref, workdir)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "env": environment(mlwave),
        "info": info, "not_reached": not_reached,
        "failures": dict(tally.reasons.most_common(12))}))
    print(json.dumps({"correct": tally.wrong == 0,
                      "attempted": tally.attempted,
                      "failed": tally.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
