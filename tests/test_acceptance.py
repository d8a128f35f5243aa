"""Acceptance gate: one test per criterion, tolerances pinned.

Every expected value is either a closed form, the extended-precision
oracle from conftest, or a rate frozen from the refinement studies in
the module tests.  Criteria 7 and 8 use borderline multi-mode data so
the startup-layer exponents are visible: a single mode scales like the
smooth envelope, only a mode continuum reproduces the sharp rates.
"""

import json
import math

import numpy as np

from mlwave import (
    ForcingSpec,
    LinearProblem,
    NonlinearitySpec,
    OperatorSpecConfig,
    PicardConfig,
    SemilinearProblem,
    SpectralField,
    MLQuery,
    discrete_caputo,
    exponent_table,
    growth_exponent,
    homogeneous_state,
    make_operator,
    ml_bound_probe,
    ml_e,
    ml_identity_residuals,
    rate_fit,
    self_convergence,
    solve_linear,
)
from mlwave.cli import main
from mlwave.mittag_leffler import _ml
from mlwave.semilinear_solver import run


def rel(a, b):
    return abs(a - b) / max(abs(b), 1e-300)


def interval_op():
    return make_operator(OperatorSpecConfig(
        kind="dirichlet_laplacian_interval", lengths=(math.pi,)))


def field(op, coeffs):
    arr = np.asarray(coeffs, dtype=float)
    return SpectralField(op, arr, len(arr))


def test_criterion_01_ml_closed_forms():
    worst = 0.0
    for x in np.linspace(-30.0, 5.0, 201):
        x = float(x)
        worst = max(worst, rel(ml_e(MLQuery(1.0, 1.0, x)), math.exp(x)))
    for x in np.linspace(0.0, 20.0, 201):
        x = float(x)
        worst = max(worst, rel(ml_e(MLQuery(2.0, 1.0, -x * x)), math.cos(x)))
        sinc = math.sin(x) / x if x else 1.0
        worst = max(worst, rel(ml_e(MLQuery(2.0, 2.0, -x * x)), sinc))
    assert worst <= 1e-10, f"max relative error {worst:.3e}"


def test_criterion_02_ml_oracle_agreement(oracle_row):
    worst = 0.0
    xs = np.linspace(-200.0, 0.0, 40)
    for alpha in np.linspace(1.1, 1.9, 5):
        for beta in np.linspace(0.5, 2.5, 5):
            ref = oracle_row(float(alpha), float(beta), xs)
            for x, rv in zip(xs, ref):
                got = ml_e(MLQuery(float(alpha), float(beta), float(x)))
                worst = max(worst, rel(got, rv))
    assert worst <= 1e-10, f"max relative error {worst:.3e}"


def test_criterion_03_ml_identity_orders():
    hs = (1e-3, 5e-4, 2.5e-4)
    min_order = math.inf
    for alpha in (1.25, 1.5, 1.75):
        for lam in (0.5, 1.0, 4.0):
            resids = [ml_identity_residuals(alpha, lam, 1.0, h) for h in hs]
            for coarse, fine in zip(resids, resids[1:]):
                for rc, rf in zip(coarse, fine):
                    if rc < 1e-13:      # round-off floor, order unmeasurable
                        continue
                    min_order = min(min_order, math.log2(rc / rf))
    assert min_order >= 1.9, f"min observed order {min_order:.3f}"


def test_criterion_04_ml_kernel_boundedness():
    for alpha in (1.2, 1.5, 1.8):
        for beta in (1.0, alpha, alpha - 1.0, 2.0):
            coarse = ml_bound_probe(alpha, beta, 1e6, 500)
            fine = ml_bound_probe(alpha, beta, 1e6, 1000)
            assert math.isfinite(fine) and fine > 0.0, (alpha, beta)
            drift = abs(fine - coarse) / max(fine, coarse)
            assert drift <= 0.01, (alpha, beta, drift)


def test_criterion_05_linear_closed_forms():
    op = interval_op()
    lam = op.eigenvalue(2)
    for alpha in (1.25, 1.5, 1.75):
        p = LinearProblem(op, alpha,
                          field(op, [0.0, 1.0]), field(op, [0.0, 0.5]),
                          ForcingSpec())
        for t in (0.3, 1.0, 2.7):
            u, dtu = homogeneous_state(p, t)
            x = -lam * t ** alpha
            want_u = _ml(alpha, 1.0, x) + 0.5 * t * _ml(alpha, 2.0, x)
            want_v = (-lam * t ** (alpha - 1.0) * _ml(alpha, alpha, x)
                      + 0.5 * _ml(alpha, 1.0, x))
            assert abs(u[1] - want_u) <= 1e-12, (alpha, t)
            assert abs(dtu[1] - want_v) <= 1e-12, (alpha, t)

    grid = np.linspace(0.0, 2.0, 201)
    for alpha in (1.25, 1.5, 1.75):
        p = LinearProblem(
            op, alpha, field(op, [0.0]), field(op, [0.0]),
            ForcingSpec(kind="separable", g=field(op, [2.0]),
                        h_name="constant", h_params={"value": 1.0}))
        trace = solve_linear(p, grid)
        exact = np.array([2.0 * t ** alpha
                          * _ml(alpha, alpha + 1.0, -t ** alpha)
                          for t in grid])
        err = float(np.max(np.abs(trace.u_coeffs[:, 0] - exact)))
        assert err <= 1e-8, (alpha, err)


def test_criterion_06_classical_limit():
    op = interval_op()
    p = LinearProblem(op, 2.0, field(op, [0.0, 1.0]), field(op, [0.0, 0.0]),
                      ForcingSpec())
    grid = np.linspace(0.0, 10.0, 1001)
    trace = solve_linear(p, grid)
    root = math.sqrt(op.eigenvalue(2))
    err_u = float(np.max(np.abs(trace.u_coeffs[:, 1] - np.cos(root * grid))))
    err_v = float(np.max(np.abs(trace.dtu_coeffs[:, 1]
                                + root * np.sin(root * grid))))
    assert err_u <= 1e-9, f"u error {err_u:.3e}"
    assert err_v <= 1e-9, f"dtu error {err_v:.3e}"


# borderline-data setup shared by criteria 7 and 8: mode continuum with
# an L2 (resp. V_gamma) boundary sequence so sup-type rates show through
LAYER_MODES = 400
LAYER_DELTA = 0.05


def _layer_times(alpha):
    lo = (LAYER_MODES / 5.0) ** (-2.0 / alpha)
    hi = 5.0 ** (-2.0 / alpha)
    head = np.array([0.5 * lo, 0.75 * lo])    # rate_fit drops the first two
    return np.concatenate((head, np.geomspace(lo, hi, 24))), (lo, hi)


def test_criterion_07_initial_layer_exponents():
    op = interval_op()
    lam = op.eigenvalues(LAYER_MODES)
    modes = np.arange(1, LAYER_MODES + 1)
    u1c = modes ** (-0.5 - LAYER_DELTA)
    for alpha in (1.25, 1.5, 1.75):
        beta = 1.0 - 1.0 / alpha
        sigma = 0.5 / alpha
        times, window = _layer_times(alpha)
        p = LinearProblem(op, alpha,
                          SpectralField(op, np.zeros(LAYER_MODES),
                                        LAYER_MODES),
                          SpectralField(op, u1c, LAYER_MODES),
                          ForcingSpec())
        v_dtu = np.empty(len(times))
        v_u = np.empty(len(times))
        for k, t in enumerate(times):
            u, dtu = homogeneous_state(p, float(t))
            v_dtu[k] = math.sqrt(float(
                np.sum(lam ** (-2.0 * beta) * (dtu - u1c) ** 2)))
            v_u[k] = math.sqrt(float(np.sum(lam ** (2.0 * sigma) * u ** 2)))
        fit_dtu = rate_fit(times, v_dtu, window)
        fit_u = rate_fit(times, v_u, window)
        assert abs(fit_dtu.exponent - alpha * beta) <= 0.1, \
            (alpha, fit_dtu.exponent, alpha * beta)
        assert abs(fit_u.exponent - (1.0 - alpha * sigma)) <= 0.1, \
            (alpha, fit_u.exponent, 1.0 - alpha * sigma)


def test_criterion_08_strong_derivative_envelope():
    op = interval_op()
    lam = op.eigenvalues(LAYER_MODES)
    modes = np.arange(1, LAYER_MODES + 1)
    for alpha in (1.25, 1.5, 1.75):
        gamma = 1.0 / alpha
        u0c = lam ** (-gamma) * modes ** (-0.5 - LAYER_DELTA)
        times, window = _layer_times(alpha)
        p = LinearProblem(op, alpha,
                          SpectralField(op, u0c, LAYER_MODES),
                          SpectralField(op, np.zeros(LAYER_MODES),
                                        LAYER_MODES),
                          ForcingSpec())
        vals = np.empty(len(times))
        for k, t in enumerate(times):
            u, _ = homogeneous_state(p, float(t))
            # no forcing, so the order-alpha derivative is -lam * u mode-wise
            vals[k] = math.sqrt(float(np.sum((lam * u) ** 2)))
        fit = rate_fit(times, vals, window)
        assert abs(fit.exponent + (alpha - 1.0)) <= 0.1, \
            (alpha, fit.exponent, -(alpha - 1.0))


def test_criterion_09_forcing_quadrature_order():
    op = interval_op()
    p = LinearProblem(
        op, 1.5, field(op, [0.5, -0.25]), field(op, [0.0, 0.3]),
        ForcingSpec(kind="separable", g=field(op, [1.0, 0.5]),
                    h_name="sinusoid",
                    h_params={"amplitude": 2.0, "omega": 3.0, "phase": 0.0}))

    def runner(dt):
        grid = np.arange(0, round(1.0 / dt) + 1) * dt
        return solve_linear(p, grid).u_coeffs[-1]

    report = self_convergence(runner, (4e-3, 2e-3, 1e-3))
    for order in report["orders"]:
        assert isinstance(order, float) and order >= 1.8, report["orders"]


def test_criterion_10_criticality_tables():
    rows = exponent_table("dirichlet_laplacian", (1, 2, 3, 4), q=4.0)
    assert [r["alpha0"] for r in rows] == [2.0, 1.5, 4.0 / 3.0, None]
    frac = exponent_table("spectral_fractional_power", (2,), s=0.75, q=4.0)
    assert frac[0]["alpha0"] == 1.5

    assert abs(growth_exponent(1.9, 3.0) - 3.3529411764705883) <= 1e-4
    assert abs(growth_exponent(1.999, 3.0) - 3.0) <= 1e-2
    assert growth_exponent(1.5, 3.0) == 9.0


def test_criterion_11_semilinear_fixed_points():
    op = interval_op()
    assert op.eigenvalue(1) == 1.0
    balanced = SemilinearProblem(
        op, 1.5, field(op, [1.0]), field(op, [0.0]),
        NonlinearitySpec("linear_shift", {"kappa": 1.0}))
    out = run(balanced, 5.0, PicardConfig(), 0.01)
    drift = float(np.max(np.abs(out.trace.u_coeffs[:, 0] - 1.0)))
    assert out.status == "completed"
    assert drift <= 1e-8, f"fixed-point drift {drift:.3e}"

    shifted = SemilinearProblem(
        op, 1.5, field(op, [1.0]), field(op, [0.0]),
        NonlinearitySpec("linear_shift", {"kappa": 0.5}))
    out = run(shifted, 1.0, PicardConfig(), 0.005)
    err = max(abs(float(u) - _ml(1.5, 1.0, -0.5 * t ** 1.5))
              for t, u in zip(out.trace.times, out.trace.u_coeffs[:, 0]))
    assert err <= 1e-6, f"shifted-rate error {err:.3e}"


def test_criterion_12_window_split_consistency():
    op = interval_op()
    u0 = field(op, [0.5, -0.25])
    u1 = field(op, [0.0, 0.3])
    p = SemilinearProblem(op, 1.5, u0, u1,
                          NonlinearitySpec("sine", {"c": 0.2}))
    one = run(p, 1.0, PicardConfig(window_init=1.0), 0.01)
    two = run(p, 1.0, PicardConfig(window_init=0.5), 0.01)
    assert len(one.windows) == 1
    assert len(two.windows) == 2
    dev = float(np.max(np.abs(one.trace.u_coeffs - two.trace.u_coeffs)))
    assert dev <= 1e-8, f"per-coefficient split deviation {dev:.3e}"


def test_criterion_13_residual_verification():
    # monomial halving factor
    for alpha in (1.25, 1.5, 1.75):
        errs = []
        for dt in (2e-3, 1e-3):
            t = np.arange(0, round(1.0 / dt) + 1) * dt
            got = discrete_caputo(t ** 3, alpha, dt)
            exact = 6.0 * t ** (3.0 - alpha) / math.gamma(4.0 - alpha)
            errs.append(float(np.max(np.abs(got[2:] - exact[2:]))))
        factor = errs[0] / errs[1]
        assert factor >= 1.8, (alpha, factor)

    # solver traces: residual sup over a fixed window never grows > 10%
    op = interval_op()
    p = LinearProblem(
        op, 1.5,
        field(op, [0.5, -0.25, 0.1, 0.05]),
        field(op, [0.0, 0.3, 0.0, -0.1]),
        ForcingSpec(kind="separable", g=field(op, [1.0, 0.5, 0.25, 0.125]),
                    h_name="sinusoid",
                    h_params={"amplitude": 1.0, "omega": 2.0, "phase": 0.1}))
    sups = []
    for dt in (2e-2, 1e-2, 5e-3):
        grid = np.arange(0, round(1.0 / dt) + 1) * dt
        trace = solve_linear(p, grid)
        keep = (grid >= 0.1) & (np.arange(len(grid)) >= 2)
        per_mode = []
        for n in range(4):
            resid = discrete_caputo(trace.u_coeffs[:, n], 1.5, dt)
            per_mode.append(float(np.max(
                np.abs(resid[keep] - trace.dalpha_coeffs[keep, n]))))
        sups.append(per_mode)
    for coarse, fine in zip(sups, sups[1:]):
        for n in range(4):
            assert fine[n] <= 1.1 * coarse[n], (n, coarse[n], fine[n])


def test_criterion_14_blowup_monitor():
    op = interval_op()
    cubic = SemilinearProblem(
        op, 1.5, field(op, [20.0]), field(op, [0.0]),
        NonlinearitySpec("power", {"c": 1.0, "r": 3.0}))
    ests = []
    for dt in (1e-3, 5e-4):
        out = run(cubic, 0.1, PicardConfig(), dt)
        assert out.status == "maximal_time_detected", (dt, out.status)
        assert out.T_est is not None and 0.0 < out.T_est < 0.1
        ests.append(out.T_est)
    spread = abs(ests[0] - ests[1]) / max(ests)
    assert spread <= 0.10, f"T_est spread {spread:.3f} over {ests}"

    quiet = SemilinearProblem(
        op, 1.5, field(op, [20.0, -5.0]), field(op, [0.0, 3.0]),
        NonlinearitySpec())
    out = run(quiet, 50.0, PicardConfig(), 0.01)
    assert out.status == "completed"
    assert out.T_est is None
    assert float(out.trace.times[-1]) == 50.0


def test_criterion_15_determinism(tmp_path):
    # same constant-forcing setup as the linear closed-form check
    scenario = {
        "alpha": 1.5,
        "operator": {"kind": "dirichlet_laplacian_interval",
                     "lengths": [math.pi]},
        "N_modes": 1,
        "u0": [0.0],
        "u1": [0.0],
        "forcing": {"kind": "separable", "g": [2.0],
                    "h_name": "constant", "h_params": {"value": 1.0}},
        "grid": {"t_end": 2.0, "dt": 0.01},
    }
    cfg = tmp_path / "scn.json"
    cfg.write_text(json.dumps(scenario))
    blobs = []
    for name in ("a", "b", "c", "d"):
        out = tmp_path / name
        assert main(["solve", "linear", "--config", str(cfg),
                     "--out", str(out)]) == 0
        blobs.append((out / "trace.csv").read_bytes())
    assert all(b == blobs[0] for b in blobs[1:]), \
        "trace.csv differs across reruns"
