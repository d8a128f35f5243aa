"""Semilinear solver: nonlinearity catalog, Picard windows, marching.

The pseudo-spectral projection values are frozen from trigonometric
closed forms (sin^3 x = (3 sin x - sin 3x)/4 against the orthonormal
sine basis).  Fixed-point runs are cross-checked against the linear
solver (f = 0 must agree bitwise, f = kappa*u must reproduce shifted
Mittag-Leffler relaxation).
"""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from mlwave import (
    ConfigError,
    DomainError,
    ForcingSpec,
    LinearProblem,
    NonlinearitySpec,
    OperatorSpecConfig,
    OverflowSignal,
    PicardConfig,
    SemilinearProblem,
    SpectralField,
    WindowFailure,
    apply_nonlinearity,
    make_operator,
    picard_window,
    run,
    solve_linear,
    strong_solution_check,
)
from mlwave import semilinear_solver, spectral_operator
from mlwave.mittag_leffler import _ml

PHI1_CUBED_C1 = 0.47746482927568606     # 3/(2 pi)
PHI1_CUBED_C3 = -0.15915494309189535    # -1/(2 pi)


def interval_op(length=math.pi):
    return make_operator(OperatorSpecConfig(
        kind="dirichlet_laplacian_interval", lengths=(length,)))


def box_op():
    return make_operator(OperatorSpecConfig(
        kind="dirichlet_laplacian_box", lengths=(1.0, 1.0, 1.0)))


def field(op, coeffs):
    c = np.asarray(coeffs, dtype=float)
    return SpectralField(op, c, len(c))


def problem(op, alpha, u0, u1, nl):
    return SemilinearProblem(op, alpha, field(op, u0), field(op, u1), nl)


class TestNonlinearitySpec:
    def test_unknown_kind(self):
        with pytest.raises(ConfigError, match="catalog"):
            NonlinearitySpec(kind="cubic").validate()

    def test_power_needs_supercritical_exponent(self):
        with pytest.raises(ConfigError):
            NonlinearitySpec("power", {"c": 1.0, "r": 1.0}).validate()
        with pytest.raises(ConfigError):
            NonlinearitySpec("power", {"c": 1.0, "r": 0.5}).validate()
        with pytest.raises(ConfigError):
            NonlinearitySpec("power", {"r": 3.0}).validate()

    def test_scalar_params_must_be_finite(self):
        with pytest.raises(ConfigError):
            NonlinearitySpec("linear_shift").validate()
        with pytest.raises(ConfigError):
            NonlinearitySpec("sine", {"c": math.inf}).validate()

    def test_custom_table_rules(self):
        good = {"s": [-2.0, -1.0, 0.0, 1.0, 2.0],
                "values": [-3.0, -1.0, 0.0, 1.0, 3.0]}
        NonlinearitySpec("custom", good).validate()
        with pytest.raises(ConfigError):
            NonlinearitySpec("custom", {"s": [0.0, 1.0],
                                        "values": [0.0]}).validate()
        with pytest.raises(ConfigError):
            NonlinearitySpec("custom", {"s": [0.0, 1.0, 1.0],
                                        "values": [0.0, 1.0, 2.0]}).validate()
        # table must bracket the origin and interpolate to f(0) = 0
        with pytest.raises(ConfigError):
            NonlinearitySpec("custom", {"s": [1.0, 2.0],
                                        "values": [0.0, 1.0]}).validate()
        with pytest.raises(ConfigError):
            NonlinearitySpec("custom", {"s": [-1.0, 1.0],
                                        "values": [0.0, 1.0]}).validate()
        with pytest.raises(ConfigError):
            NonlinearitySpec("custom", dict(good, r=1.0)).validate()

    def test_pointwise_application(self):
        v = np.array([-2.0, 0.0, 0.5])
        assert np.array_equal(NonlinearitySpec().apply(v), np.zeros(3))
        got = NonlinearitySpec("linear_shift", {"kappa": -1.5}).apply(v)
        assert np.array_equal(got, -1.5 * v)
        got = NonlinearitySpec("power", {"c": 2.0, "r": 3.0}).apply(v)
        assert np.allclose(got, [-16.0, 0.0, 0.25], rtol=0, atol=1e-15)
        got = NonlinearitySpec("sine", {"c": 2.0}).apply(v)
        assert np.allclose(got, 2.0 * np.sin(v), rtol=1e-15)

    def test_custom_interpolates_and_clamps(self):
        nl = NonlinearitySpec("custom", {"s": [-2.0, 0.0, 2.0],
                                         "values": [-1.0, 0.0, 1.0]})
        got = nl.apply(np.array([-10.0, -1.0, 0.5, 10.0]))
        assert np.allclose(got, [-1.0, -0.5, 0.25, 1.0], rtol=0, atol=1e-15)

    def test_growth_class(self):
        assert NonlinearitySpec().hypothesis == "Hf1"
        assert NonlinearitySpec().hf1 is None
        p = NonlinearitySpec("power", {"c": -2.0, "r": 3.0})
        assert p.hypothesis == "Hf1"
        assert p.hf1 == (3.0, 6.0)
        assert NonlinearitySpec("sine", {"c": 1.0}).hypothesis == "Hf2"
        assert NonlinearitySpec("linear_shift",
                                {"kappa": 1.0}).hypothesis == "Hf2"
        table = {"s": [-1.0, 0.0, 1.0], "values": [-2.0, 0.0, 2.0]}
        assert NonlinearitySpec("custom", table).hypothesis == "Hf2"
        declared = NonlinearitySpec("custom", dict(table, r=2.5))
        assert declared.hypothesis == "Hf1"
        r, c = declared.hf1
        assert r == 2.5 and c == 2.0

    def test_envelopes(self):
        p = NonlinearitySpec("power", {"c": 1.0, "r": 3.0})
        assert p.lipschitz_envelope(2.0) == pytest.approx(12.0, rel=1e-15)
        assert p.magnitude_envelope(2.0) == pytest.approx(8.0, rel=1e-15)
        s = NonlinearitySpec("sine", {"c": 2.0})
        assert s.lipschitz_envelope(7.0) == 2.0
        assert s.magnitude_envelope(0.5) == 1.0
        assert s.magnitude_envelope(3.0) == 2.0
        k = NonlinearitySpec("linear_shift", {"kappa": -3.0})
        assert k.lipschitz_envelope(5.0) == 3.0
        assert k.magnitude_envelope(2.0) == 6.0
        assert NonlinearitySpec().magnitude_envelope(100.0) == 0.0

    def test_custom_envelopes_from_table(self):
        nl = NonlinearitySpec("custom", {
            "s": [-2.0, -1.0, 0.0, 1.0, 2.0],
            "values": [-3.0, -1.0, 0.0, 1.0, 3.0]})
        # only the inner unit-slope panels touch the radius-0.5 ball
        assert nl.lipschitz_envelope(0.5) == 1.0
        assert nl.lipschitz_envelope(1.5) == 2.0
        assert nl.magnitude_envelope(1.5) == pytest.approx(2.0, abs=1e-12)
        assert nl.lipschitz_envelope(0.5) <= nl.lipschitz_envelope(1.5)


class TestApplyNonlinearity:
    def test_quadrature_floor(self):
        op = interval_op()
        u = field(op, [1.0, 0.0, 0.0, 0.0])
        with pytest.raises(DomainError, match="anti-aliasing"):
            apply_nonlinearity(NonlinearitySpec("sine", {"c": 1.0}), u, 15)

    def test_zero_is_exactly_zero(self):
        op = interval_op()
        u = field(op, [3.0, -1.0, 2.0])
        got = apply_nonlinearity(NonlinearitySpec(), u, 64)
        assert np.array_equal(got.coeffs, np.zeros(3))

    def test_linear_shift_is_diagonal(self):
        op = interval_op()
        u = field(op, [1.0, 0.0, -0.5, 0.0])
        got = apply_nonlinearity(
            NonlinearitySpec("linear_shift", {"kappa": 2.0}), u, 64)
        assert np.allclose(got.coeffs, 2.0 * u.coeffs, rtol=0, atol=1e-12)

    def test_cubed_mode_splits_into_first_and_third(self):
        op = interval_op()
        u = field(op, [1.0, 0.0, 0.0, 0.0])
        got = apply_nonlinearity(
            NonlinearitySpec("power", {"c": 1.0, "r": 3.0}), u, 64)
        assert got.coeffs[0] == pytest.approx(PHI1_CUBED_C1, abs=1e-13)
        assert got.coeffs[2] == pytest.approx(PHI1_CUBED_C3, abs=1e-13)
        assert abs(got.coeffs[1]) < 1e-13
        assert abs(got.coeffs[3]) < 1e-13

    def test_overflow_raises_signal(self):
        op = interval_op()
        u = field(op, [1e200, 0.0])
        with pytest.raises(OverflowSignal):
            apply_nonlinearity(
                NonlinearitySpec("power", {"c": 1.0, "r": 3.0}), u, 64)


class TestPicardConfig:
    def test_defaults_validate(self):
        PicardConfig().validate()

    @pytest.mark.parametrize("kw", [
        {"R_star": 0.0},
        {"tol": 0.0},
        {"max_iter": 0},
        {"window_init": 0.0},
        {"window_min": 2.0, "window_init": 1.0},
        {"blowup_threshold": -1.0},
        {"nonlinearity_quadrature": 3},
    ])
    def test_rejects(self, kw):
        with pytest.raises(ConfigError):
            PicardConfig(**kw).validate()

    def test_quadrature_floor_scales_with_truncation(self):
        op = interval_op()
        p = problem(op, 1.5, [0.1] * 8, [0.0] * 8,
                    NonlinearitySpec("sine", {"c": 0.1}))
        cfg = PicardConfig(nonlinearity_quadrature=16)
        with pytest.raises(ConfigError, match="anti-aliasing"):
            run(p, 0.1, cfg, 0.05)


class TestProblemValidation:
    def test_alpha_strictly_inside(self):
        op = interval_op()
        nl = NonlinearitySpec()
        for alpha in (1.0, 2.0, 2.5):
            with pytest.raises(DomainError):
                problem(op, alpha, [1.0], [0.0], nl).validate()
        problem(op, 1.5, [1.0], [0.0], nl).validate()

    def test_shared_checks_keep_their_messages(self):
        # one validation body for both problems; only the linear problem
        # admits the alpha = 2 limit
        op = interval_op()
        with pytest.raises(DomainError, match=r"\(1, 2\), got 2.0"):
            problem(op, 2.0, [1.0], [0.0], NonlinearitySpec()).validate()
        lin = LinearProblem(op, 2.0, field(op, [1.0]), field(op, [0.0]),
                            ForcingSpec())
        lin.validate()
        with pytest.raises(DomainError, match=r"\(1, 2\], got 2.5"):
            LinearProblem(op, 2.5, lin.u0, lin.u1, lin.forcing).validate()

    def test_truncation_mismatch(self):
        op = interval_op()
        p = SemilinearProblem(op, 1.5, field(op, [1.0, 0.0]),
                              field(op, [0.0]), NonlinearitySpec())
        with pytest.raises(DomainError):
            p.validate()

    def test_operator_mismatch(self):
        op = interval_op()
        other = make_operator(OperatorSpecConfig(
            kind="neumann_laplacian_shifted", lengths=(math.pi,),
            shift=1.0))
        p = SemilinearProblem(op, 1.5, field(other, [1.0]),
                              field(other, [0.0]), NonlinearitySpec())
        with pytest.raises(DomainError):
            p.validate()


class TestPicardWindow:
    def test_zero_forcing_converges_immediately(self):
        op = interval_op()
        p = problem(op, 1.5, [0.5, 0.0, -0.25], [0.0, 1.0, 0.0],
                    NonlinearitySpec())
        grid = np.linspace(0.0, 1.0, 101)
        res = picard_window(p, (0.0, 1.0), grid, PicardConfig(), None)
        assert res["iterations"] == 1
        assert res["contraction_estimate"] == 0.0
        lp = LinearProblem(op, 1.5, p.u0, p.u1, ForcingSpec())
        ref = solve_linear(lp, grid)
        assert np.array_equal(res["u_coeffs"], ref.u_coeffs)
        assert np.array_equal(res["dtu_coeffs"], ref.dtu_coeffs)
        assert np.array_equal(res["forcing_coeffs"], np.zeros((101, 3)))

    def test_window_must_sit_on_grid(self):
        op = interval_op()
        p = problem(op, 1.5, [1.0], [0.0], NonlinearitySpec())
        grid = np.linspace(0.0, 1.0, 101)
        with pytest.raises(DomainError, match="grid"):
            picard_window(p, (0.0, 0.505), grid, PicardConfig(), None)
        with pytest.raises(DomainError, match="one step"):
            picard_window(p, (0.5, 0.5), grid, PicardConfig(), None)

    def test_history_forcing_shape_checked(self):
        op = interval_op()
        p = problem(op, 1.5, [1.0], [0.0], NonlinearitySpec())
        grid = np.linspace(0.0, 1.0, 101)
        hist = SimpleNamespace(u_coeffs=np.zeros((51, 1)),
                               dtu_coeffs=np.zeros((51, 1)))
        with pytest.raises(DomainError, match="history forcing"):
            picard_window(p, (0.5, 1.0), grid, PicardConfig(), hist,
                          history_forcing=np.zeros((3, 1)))

    def test_linear_shift_relaxation(self):
        # f(u) = 0.5 u on the first mode shifts the decay rate to 0.5
        op = interval_op()
        p = problem(op, 1.5, [1.0], [0.0],
                    NonlinearitySpec("linear_shift", {"kappa": 0.5}))
        grid = np.linspace(0.0, 1.0, 201)
        res = picard_window(p, (0.0, 1.0), grid, PicardConfig(), None)
        exact = np.array([_ml(1.5, 1.0, -0.5 * t ** 1.5) for t in grid])
        assert np.max(np.abs(res["u_coeffs"][:, 0] - exact)) < 1e-6
        assert res["iterations"] > 1
        assert 0.0 < res["contraction_estimate"] < 1.0

    def test_exhausted_iterations_fail_the_window(self):
        op = interval_op()
        p = problem(op, 1.5, [1.0], [0.0],
                    NonlinearitySpec("power", {"c": 1.0, "r": 3.0}))
        grid = np.linspace(0.0, 1.0, 101)
        with pytest.raises(WindowFailure, match="iterations"):
            picard_window(p, (0.0, 1.0), grid, PicardConfig(max_iter=1),
                          None)

    def test_trust_ball_violation_fails_the_window(self):
        op = interval_op()
        p = problem(op, 1.5, [1.0], [0.0],
                    NonlinearitySpec("power", {"c": 1.0, "r": 3.0}))
        grid = np.linspace(0.0, 1.0, 101)
        with pytest.raises(WindowFailure, match="trust ball"):
            picard_window(p, (0.0, 1.0), grid, PicardConfig(R_star=0.5),
                          None)

    def test_split_window_continuation_matches_one_shot(self):
        op = interval_op()
        p = problem(op, 1.5, [1.0, 0.0], [0.0, 0.5],
                    NonlinearitySpec("sine", {"c": 0.2}))
        grid = np.linspace(0.0, 1.0, 101)
        cfg = PicardConfig(tol=1e-12)
        whole = picard_window(p, (0.0, 1.0), grid, cfg, None)
        first = picard_window(p, (0.0, 0.5), grid, cfg, None)
        hist = SimpleNamespace(u_coeffs=first["u_coeffs"],
                               dtu_coeffs=first["dtu_coeffs"])
        second = picard_window(p, (0.5, 1.0), grid, cfg, hist,
                               history_forcing=first["forcing_coeffs"])
        dev = np.max(np.abs(second["u_coeffs"] - whole["u_coeffs"][50:]))
        assert dev < 10 * cfg.tol
        dev = np.max(np.abs(second["dtu_coeffs"] - whole["dtu_coeffs"][50:]))
        assert dev < 10 * cfg.tol


class TestAdmission:
    def test_supercritical_rejects_lipschitz_kinds(self):
        # the 3-D box at alpha = 1.5 sits above the critical order
        op = box_op()
        p = problem(op, 1.5, [1e-3, 0.0], [0.0, 0.0],
                    NonlinearitySpec("sine", {"c": 1.0}))
        with pytest.raises(ConfigError, match="power growth bound"):
            run(p, 0.01, PicardConfig(), 0.005)

    def test_supercritical_growth_gate(self):
        op = box_op()
        ok = problem(op, 1.5, [1e-3, 0.0], [0.0, 0.0],
                     NonlinearitySpec("power", {"c": 1e-3, "r": 9.0}))
        out = run(ok, 0.01, PicardConfig(), 0.005)
        assert out.status == "completed"
        bad = problem(op, 1.5, [1e-3, 0.0], [0.0, 0.0],
                      NonlinearitySpec("power", {"c": 1e-3, "r": 9.5}))
        with pytest.raises(ConfigError, match="r\\*"):
            run(bad, 0.01, PicardConfig(), 0.005)

    def test_subcritical_admits_any_power(self):
        op = interval_op()
        p = problem(op, 1.5, [1e-3], [0.0],
                    NonlinearitySpec("power", {"c": 1.0, "r": 50.0}))
        out = run(p, 0.01, PicardConfig(), 0.005)
        assert out.status == "completed"


class TestRun:
    def test_grid_arguments_validated(self):
        op = interval_op()
        p = problem(op, 1.5, [1.0], [0.0], NonlinearitySpec())
        with pytest.raises(ConfigError, match="integral number"):
            run(p, 1.0, PicardConfig(), 0.3)
        with pytest.raises(ConfigError):
            run(p, -1.0, PicardConfig(), 0.1)
        with pytest.raises(ConfigError):
            run(p, 1.0, PicardConfig(), math.nan)

    def test_initial_data_overflow_is_a_config_error(self):
        op = interval_op()
        p = problem(op, 1.5, [1e200], [0.0],
                    NonlinearitySpec("power", {"c": 1.0, "r": 3.0}))
        with pytest.raises(ConfigError, match="initial data"):
            run(p, 1.0, PicardConfig(), 0.01)

    def test_zero_nonlinearity_matches_linear_solver_bitwise(self):
        op = interval_op()
        u0 = [0.5, 0.0, -0.25, 0.0]
        u1 = [0.0, 1.0, 0.0, 0.0]
        p = problem(op, 1.5, u0, u1, NonlinearitySpec())
        out = run(p, 10.0, PicardConfig(), 0.01)
        grid = np.linspace(0.0, 10.0, 1001)
        ref = solve_linear(LinearProblem(op, 1.5, p.u0, p.u1, ForcingSpec()),
                           grid)
        assert out.status == "completed"
        assert out.T_est is None
        assert np.array_equal(out.trace.u_coeffs, ref.u_coeffs)
        assert np.array_equal(out.trace.dtu_coeffs, ref.dtu_coeffs)
        assert np.array_equal(out.trace.dalpha_coeffs, ref.dalpha_coeffs)
        for key in ("u_Vgamma", "dtu_L2", "dalpha_Vminusgamma"):
            assert np.array_equal(out.trace.norm_series[key],
                                  ref.norm_series[key])
        assert all(w.iterations == 1 for w in out.windows)
        assert all(w.contraction_estimate == 0.0 for w in out.windows)

    def test_windows_tile_the_horizon(self):
        op = interval_op()
        p = problem(op, 1.5, [1.0], [0.0], NonlinearitySpec())
        out = run(p, 3.0, PicardConfig(window_init=0.5), 0.01)
        assert out.windows[0].start == 0.0
        assert out.windows[-1].end == 3.0
        for prev, nxt in zip(out.windows, out.windows[1:]):
            assert prev.end == nxt.start

    def test_balanced_shift_freezes_the_state(self):
        # kappa equal to the first eigenvalue cancels the stiffness term
        op = interval_op()
        p = problem(op, 1.5, [1.0], [0.0],
                    NonlinearitySpec("linear_shift", {"kappa": 1.0}))
        out = run(p, 5.0, PicardConfig(), 0.01)
        dev = np.max(np.abs(out.trace.u_coeffs[:, 0] - 1.0))
        assert dev < 1e-8

    def test_linear_shift_relaxation_full_march(self):
        op = interval_op()
        p = problem(op, 1.5, [1.0], [0.0],
                    NonlinearitySpec("linear_shift", {"kappa": 0.5}))
        out = run(p, 1.0, PicardConfig(), 0.005)
        t = out.trace.times
        exact = np.array([_ml(1.5, 1.0, -0.5 * s ** 1.5) for s in t])
        assert np.max(np.abs(out.trace.u_coeffs[:, 0] - exact)) < 1e-6

    def test_window_size_does_not_change_the_answer(self):
        op = interval_op()
        p = problem(op, 1.5, [1.0, 0.0], [0.0, 0.5],
                    NonlinearitySpec("sine", {"c": 0.2}))
        one = run(p, 1.0, PicardConfig(window_init=1.0), 0.01)
        many = run(p, 1.0, PicardConfig(window_init=0.25), 0.01)
        assert len(many.windows) > len(one.windows)
        dev = np.max(np.abs(one.trace.u_coeffs - many.trace.u_coeffs))
        assert dev < 10 * PicardConfig().tol

    def test_response_scales_linearly_in_small_forcing(self):
        op = interval_op()
        base = run(problem(op, 1.5, [1.0], [0.0], NonlinearitySpec()),
                   1.0, PicardConfig(), 0.01)
        devs = []
        for c in (0.01, 0.1):
            out = run(problem(op, 1.5, [1.0], [0.0],
                              NonlinearitySpec("sine", {"c": c})),
                      1.0, PicardConfig(), 0.01)
            devs.append(np.max(np.abs(out.trace.u_coeffs
                                      - base.trace.u_coeffs)))
        ratio = devs[1] / devs[0]
        assert 5.0 < ratio < 20.0

    def test_focusing_blowup_is_detected(self):
        op = interval_op()
        p = problem(op, 1.5, [20.0], [0.0],
                    NonlinearitySpec("power", {"c": 1.0, "r": 3.0}))
        out = run(p, 0.1, PicardConfig(), 1e-3)
        assert out.status == "maximal_time_detected"
        assert out.T_est is not None
        assert 0.0 < out.T_est < 0.1
        assert out.trace.times[-1] == out.T_est
        assert out.windows[0].start == 0.0
        assert out.windows[-1].end == pytest.approx(out.T_est, abs=1e-12)
        for prev, nxt in zip(out.windows, out.windows[1:]):
            assert prev.end == nxt.start
        for w in out.windows:
            assert 0.0 <= w.contraction_estimate < 1.0

    def test_zero_never_trips_the_monitor(self):
        op = interval_op()
        p = problem(op, 1.5, [1.0, 0.0, 0.0, 0.5], [0.0, 0.0, 0.0, 0.0],
                    NonlinearitySpec())
        out = run(p, 10.0, PicardConfig(), 0.01)
        assert out.status == "completed"
        assert out.strong_check is None


class TestStrongSolutionCheck:
    def test_missing_trace(self):
        outcome = SimpleNamespace(trace=None)
        p = problem(interval_op(), 1.5, [1.0], [0.0], NonlinearitySpec())
        got = strong_solution_check(outcome, p, 2.0, 3.0)
        assert got["verdict"] == "not-computed"

    def test_zero_solution_has_zero_norm(self):
        op = interval_op()
        p = problem(op, 1.5, [0.0], [0.0], NonlinearitySpec())
        out = run(p, 1.0, PicardConfig(), 0.01)
        got = strong_solution_check(out, p, 2.0, 3.0)
        assert got["verdict"] == "strong"
        assert got["norm"] == 0.0
        assert got["exponent"] == 4.0

    def test_subcritical_lipschitz_needs_no_norm(self):
        op = interval_op()
        p = problem(op, 1.5, [1.0], [0.0],
                    NonlinearitySpec("sine", {"c": 0.2}))
        out = run(p, 1.0, PicardConfig(), 0.01)
        got = strong_solution_check(out, p, 2.0, 3.0)
        assert got["verdict"] == "strong"
        assert got["norm"] is None
        assert "Lipschitz" in got["reason"]

    def test_power_run_reports_finite_norm(self):
        op = interval_op()
        p = problem(op, 1.5, [0.1], [0.0],
                    NonlinearitySpec("power", {"c": 1.0, "r": 3.0}))
        out = run(p, 1.0, PicardConfig(), 0.01)
        got = strong_solution_check(out, p, 2.0, 3.0)
        assert got["verdict"] == "strong"
        assert got["exponent"] == 4.0
        assert 0.0 < got["norm"] < 1.0
        assert got["time_horizon"] == 1.0

    def test_degenerate_exponent_rejected(self):
        op = interval_op()
        p = problem(op, 1.5, [0.1], [0.0],
                    NonlinearitySpec("power", {"c": 1.0, "r": 3.0}))
        out = run(p, 0.1, PicardConfig(), 0.01)
        with pytest.raises(DomainError):
            strong_solution_check(out, p, 2.0, 1.0)

    def test_blocked_sup_matches_one_block(self, monkeypatch):
        # a budget small enough that the 65 x 65 sup grid splits into
        # several basis blocks and the time rows into several products
        op = make_operator(OperatorSpecConfig(
            kind="dirichlet_laplacian_box", lengths=(math.pi, math.pi)))
        n = np.arange(1, 9)
        p = problem(op, 1.25, 0.2 / n ** 2, 0.1 / n ** 2,
                    NonlinearitySpec("power", {"c": 1.0, "r": 2.0}))
        out = run(p, 0.1, PicardConfig(), 0.01)
        whole = strong_solution_check(out, p, 2.0, 2.0)
        monkeypatch.setattr(spectral_operator, "_BASIS_MAX", 8 * 500)
        grid = semilinear_solver._sup_grid(op)
        assert len(list(op._blocks(p.N, grid))) > 1
        assert len(out.trace.times) > 8
        blocked = strong_solution_check(out, p, 2.0, 2.0)
        assert blocked["verdict"] == whole["verdict"] == "strong"
        assert abs(blocked["norm"] - whole["norm"]) <= 1e-14 * whole["norm"]
