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
from hypothesis import given, settings, strategies as st

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
from mlwave import (linear_solver, mittag_leffler, semilinear_solver,
                    spectral_operator)
from mlwave.linear_solver import _causal_sums, _toeplitz, _zero_led
from mlwave.mittag_leffler import _ml
from mlwave.spectral_operator import weighted_norm

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


CATALOG = {
    "interval": OperatorSpecConfig(kind="dirichlet_laplacian_interval",
                                   lengths=(math.pi,)),
    "box2": OperatorSpecConfig(kind="dirichlet_laplacian_box",
                               lengths=(1.0, 2.0)),
    "neumann": OperatorSpecConfig(kind="neumann_laplacian_shifted",
                                  lengths=(2.0,), shift=1.0),
    "fractional": OperatorSpecConfig(
        kind="spectral_fractional_power", power=0.5,
        base=OperatorSpecConfig(kind="dirichlet_laplacian_interval",
                                lengths=(math.pi,))),
}

NONLINEARITIES = {
    "power": NonlinearitySpec("power", {"c": 1.0, "r": 3.0}),
    "sine": NonlinearitySpec("sine", {"c": 0.7}),
    "custom": NonlinearitySpec("custom", {"s": [-4.0, -1.0, 0.0, 0.5, 4.0],
                                          "values": [-2.0, -1.5, 0.0, 0.25,
                                                     3.0]}),
}


def coefficient_rows(rows, N, seed=0):
    n = np.arange(1, N + 1)
    return np.random.default_rng(seed).uniform(-1.0, 1.0, (rows, N)) / n


def per_row(f, op, C, quad):
    """The per-row pseudo-spectral path: evaluate one row's field on the
    rule, apply f, project."""
    N = C.shape[1]
    out = []
    for c in C:
        u = SpectralField(op, c, N)
        out.append(spectral_operator.project(
            op, lambda x, u=u: f.apply(spectral_operator.evaluate(u, x)), N,
            quad).coeffs)
    return np.array(out)


def close(got, want, tol=1e-14):
    return np.max(np.abs(got - want)) <= tol * np.max(np.abs(want))


class TestBatchedCollocation:
    """apply_rows collocates every time row of a window at once: per run of
    rows, grid values by synthesis, f pointwise, weighted values back by
    analysis."""

    @pytest.mark.parametrize("kind", sorted(CATALOG))
    @pytest.mark.parametrize("nl", sorted(NONLINEARITIES))
    def test_rows_match_the_per_row_path(self, kind, nl):
        op = make_operator(CATALOG[kind])
        f = NONLINEARITIES[nl]
        N, quad = 6, 40
        C = coefficient_rows(5, N)
        got = semilinear_solver._collocate(
            f, op, C, N, spectral_operator._rule_panels(quad))
        assert close(got, per_row(f, op, C, quad))
        # apply_nonlinearity is one row of the same routine, with the
        # doubled rule's aliasing estimate as project reports it
        one = apply_nonlinearity(f, SpectralField(op, C[2], N), quad)
        ref = spectral_operator.project(
            op, lambda x: f.apply(spectral_operator.evaluate(
                SpectralField(op, C[2], N), x)), N, quad)
        assert close(one.coeffs, ref.coeffs)
        assert one.aliasing_est == pytest.approx(ref.aliasing_est, rel=0,
                                                 abs=1e-14)
        assert one.warnings == ref.warnings

    def test_under_resolved_row_warns_like_project(self):
        op = interval_op()
        u = field(op, [6.0, 0.0, 0.0, 4.0])
        got = apply_nonlinearity(NonlinearitySpec("sine", {"c": 1.0}), u, 16)
        assert got.aliasing_est > 1e-8
        assert got.warnings == (
            f"quadrature under-resolved: aliasing estimate "
            f"{got.aliasing_est:.3e} over 4 coefficients",)

    def test_blocks_and_row_runs_match_one_block(self, monkeypatch):
        # a budget of five rows' values on the 40 x 40 rule: the rows come
        # in blocks of five, and each row's coefficients are those of one
        # run, bit for bit
        op = make_operator(CATALOG["box2"])
        f = NONLINEARITIES["power"]
        N, panels = 4, 4
        C = coefficient_rows(12, N, seed=3)
        whole = semilinear_solver._collocate(f, op, C, N, panels)
        budget = 5 * 40 * 40
        monkeypatch.setattr(spectral_operator, "_VALUES_MAX", budget)
        sizes = []

        def spy(vals):
            sizes.append(vals.size)
            return f.apply(vals)

        got = semilinear_solver._collocate(SimpleNamespace(apply=spy), op,
                                           C, N, panels)
        assert sizes == [budget, budget, 2 * 40 * 40]
        assert np.array_equal(got, whole)

    def test_interval_rows_are_the_ascending_mode_sums(self):
        # Pool entry 23 of the picard-blowup benchmark has a window that
        # converges in exactly max_iter iterations at states near 2e5, so
        # its acceptance rests on rounding: on the interval the collocation
        # must stay this arithmetic, modes added in ascending order and one
        # dot product per eigenfunction, bit for bit.
        op = interval_op()
        f = NONLINEARITIES["power"]
        N, panels = 8, 4
        C = 1e5 * coefficient_rows(6, N, seed=23)
        got = semilinear_solver._collocate(f, op, C, N, panels)
        rule = op.rule(N, panels)
        phi = [op.eigenfunction(n, rule.nodes) for n in range(1, N + 1)]
        vals = C[:, :1] * phi[0]
        for n in range(1, N):
            vals += C[:, n:n + 1] * phi[n]
        fw = f.apply(vals) * rule.weights
        want = np.stack([np.vecdot(fw, p) for p in phi], axis=-1)
        assert np.array_equal(got, want)

    def test_one_overflowing_row_raises(self):
        op = make_operator(CATALOG["box2"])
        C = coefficient_rows(4, 5)
        C[2, 0] = 1e200
        with pytest.raises(OverflowSignal, match="non-finite"):
            semilinear_solver._collocate(NONLINEARITIES["power"], op, C, 5,
                                         4)

    def test_zero_kind_never_builds_a_rule(self):
        op = interval_op()
        got = apply_nonlinearity(NonlinearitySpec(), field(op, [1.0, 2.0]),
                                 64)
        assert np.array_equal(got.coeffs, np.zeros(2))
        assert op._rules == {}


def causal_sum(f, B, A):
    """The causal Volterra sum written out panel by panel: at node i in
    1..K, sum_{l < i} f[i-1-l] B[l] + f[i-l] A[l]."""
    return np.array([sum(f[i - 1 - l] * B[l] + f[i - l] * A[l]
                         for l in range(i)) for i in range(1, len(f))])


def table_sums(F, B, A):
    """_causal_sums of F against a table of the first K panels of (B, A),
    K + 1 the length of F's rows."""
    K = F.shape[-1] - 1
    led = _zero_led(np.stack([B[..., :K], A[..., :K]]))
    return _causal_sums(_toeplitz(led, K, K), F)


class TestBatchedCausalSums:
    """The window's Volterra sums over every mode at once match the
    per-mode panel loop and np.correlate."""

    @pytest.mark.parametrize("K", [1, 2, 37])
    def test_panel_sums_match_per_mode(self, K):
        rng = np.random.default_rng(K)
        F = rng.standard_normal((5, K + 1))
        B, A = rng.standard_normal((2, 2, 5, K + 3))
        got = table_sums(F, B, A)
        assert got.shape == (2, 5, K)
        for s in range(2):
            for m in range(5):
                want = causal_sum(F[m], B[s, m], A[s, m])
                scale = causal_sum(np.abs(F[m]), np.abs(B[s, m]),
                                   np.abs(A[s, m]))
                assert np.all(np.abs(got[s, m] - want) <= 1e-14 * scale)

    @settings(max_examples=60, derandomize=True, database=None,
              deadline=None)
    @given(P=st.integers(1, 60), K=st.integers(1, 60),
           lead=st.lists(st.integers(1, 3), max_size=2),
           modes=st.integers(1, 5), seed=st.integers(0, 2 ** 32 - 1))
    def test_plan_applies_like_a_fresh_sum(self, P, K, lead, modes, seed):
        # the view of a P-panel table sliced from P - K sums every forcing
        # byte for byte as a K-panel table does, and copies nothing
        K = min(K, P)
        rng = np.random.default_rng(seed)
        B, A = rng.standard_normal((2, *lead, modes, P))
        view = _toeplitz(_zero_led(np.stack([B, A]))[..., P - K:], K, K)
        assert not view.flags.owndata
        for _ in range(3):
            F = rng.standard_normal((modes, K + 1))
            assert (_causal_sums(view, F).tobytes()
                    == table_sums(F, B, A).tobytes())

    def test_one_plan_per_window_attempt(self, monkeypatch):
        # an attempt builds its window view, and its memory view after
        # t = 0, once; its iterations only sum against them
        calls = {"views": 0, "sums": 0}

        def counted(name, fn):
            def wrapped(*args):
                calls[name] += 1
                return fn(*args)
            return wrapped

        monkeypatch.setattr(semilinear_solver, "_toeplitz",
                            counted("views", semilinear_solver._toeplitz))
        monkeypatch.setattr(semilinear_solver, "_causal_sums",
                            counted("sums", semilinear_solver._causal_sums))
        attempts = []
        solve = semilinear_solver._Workspace.window_solve

        def attempt(self, ia, *args):
            before = dict(calls)
            try:
                return solve(self, ia, *args)
            finally:
                attempts.append((ia, calls["views"] - before["views"],
                                 calls["sums"] - before["sums"]))

        monkeypatch.setattr(semilinear_solver._Workspace, "window_solve",
                            attempt)
        # run to blow-up through rejected windows
        op = interval_op()
        out = run(problem(op, 1.5, [20.0, 0.1, -0.05, 0.02], [0.0] * 4,
                          NonlinearitySpec("power", {"c": 1.0, "r": 3.0})),
                  0.1, PicardConfig(), 0.0005)
        assert out.status == "maximal_time_detected"
        assert len(attempts) > len(out.windows)
        assert all(views == 1 + (ia > 0) for ia, views, _ in attempts)
        assert sum(sums for *_, sums in attempts) > 3 * len(attempts)

    @pytest.mark.parametrize("ia, W", [(1, 1), (3, 5), (40, 12)])
    def test_memory_term_matches_correlate(self, ia, W):
        # the memory of ia accepted samples: the table sliced from P - 1
        rng = np.random.default_rng(ia + W)
        P = ia + W + 2
        left, right = rng.standard_normal((2, 2, 4, P))
        F = rng.standard_normal((4, ia + 1))
        view = _toeplitz(_zero_led(np.stack([left, right]))[..., P - 1:],
                         W + 1, ia)
        got = _causal_sums(view, F)
        assert got.shape == (2, 4, W + 1)
        for s in range(2):
            for m in range(4):
                pairs = ((left[s, m, :ia + W], F[m, ia - 1::-1]),
                         (right[s, m, :ia + W], F[m, ia:0:-1]))
                want = sum(np.correlate(w, f, "valid") for w, f in pairs)
                scale = sum(np.correlate(np.abs(w), np.abs(f), "valid")
                            for w, f in pairs)
                assert np.all(np.abs(got[s, m] - want) <= 1e-14 * scale)


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


def reference_window(ws, ia, ib, F_hist, cfg, R_eff):
    """The window iterate written plainly, with the arithmetic of the
    stacked-norm loop: per iteration f(u) of the iterate by _collocate,
    the causal sums added to fresh copies of the base, and the norms of
    the change and of the iterate by weighted_norm over np.stack'ed
    pairs.  Returns window_solve's tuple, or the reason it fails with."""
    p = ws.p
    W, P = ib - ia, len(ws.kt.t) - 1

    def norms_of(U, DTU):
        return (weighted_norm(U, ws.lam, 1.0 / p.alpha)
                + weighted_norm(DTU, ws.lam, 0.0))

    def f_rows(U):
        return semilinear_solver._collocate(p.nonlinearity, p.op, U, p.N,
                                            ws.panels)

    with np.errstate(over="ignore", invalid="ignore"):
        base_u = ws.hom_u[ia:ib + 1].copy()
        base_dtu = ws.hom_dtu[ia:ib + 1].copy()
        if ia > 0:
            mem = _causal_sums(_toeplitz(ws.weights[..., P - 1:], W + 1, ia),
                               F_hist[:ia + 1].T)
            base_u += mem[0].T
            base_dtu += mem[1].T
        window = _toeplitz(ws.weights[..., P - W:], W, W)
        U, DTU = base_u.copy(), base_dtu.copy()
        Fw = np.empty((W + 1, p.N))
        Fw[0] = F_hist[ia]
        prev_d = None
        for it in range(1, cfg.max_iter + 1):
            try:
                Fw[1:] = f_rows(U[1:])
            except OverflowSignal as sig:
                return str(sig)
            new = _causal_sums(window, Fw.T)
            newU = base_u.copy()
            newU[1:] += new[0].T
            newDTU = base_dtu.copy()
            newDTU[1:] += new[1].T
            if not (np.all(np.isfinite(newU))
                    and np.all(np.isfinite(newDTU))):
                return "iterate overflowed"
            change, norms = norms_of(np.stack([newU - U, newU]),
                                     np.stack([newDTU - DTU, newDTU]))
            d = float(np.max(change))
            if float(np.max(norms)) > R_eff:
                return f"iterate left the trust ball of radius {R_eff:.3g}"
            contraction = 0.0 if prev_d is None else d / prev_d
            U, DTU = newU, newDTU
            if d < cfg.tol:
                Fw[1:] = f_rows(U[1:])
                return U, DTU, Fw, norms, it, contraction
            prev_d = d
    return (f"no contraction to tol={cfg.tol:g} after {cfg.max_iter} "
            "iterations")


class TestWindowIterate:
    """window_solve keeps the bits of the plain Picard loop, failures and
    their reasons included."""

    @settings(max_examples=60, derandomize=True, database=None,
              deadline=None)
    @given(box=st.booleans(), N=st.integers(1, 12),
           alpha=st.sampled_from((1.25, 1.5, 1.75)),
           nl=st.sampled_from((("power", 2.0), ("power", 3.0),
                               ("sine", None))),
           c=st.sampled_from((1.0, -0.5, 2.0)),
           # up to states whose f(u) overflows
           scale=st.one_of(st.floats(-3.0, 3.0), st.just(200.0)).map(
               lambda e: 10.0 ** e),
           M=st.integers(2, 12), start=st.integers(0, 11),
           width=st.integers(1, 12), max_iter=st.sampled_from((1, 3, 50)),
           R_star=st.sampled_from((None, 1.0, 1e6)),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_window_solve_is_the_plain_loop(self, box, N, alpha, nl, c,
                                            scale, M, start, width,
                                            max_iter, R_star, seed):
        kind, r = nl
        f = NonlinearitySpec(kind, {"c": c} if r is None else {"c": c, "r": r})
        op = make_operator(CATALOG["box2"]) if box else interval_op()
        rng = np.random.default_rng(seed)
        n = np.arange(1, N + 1)
        u0, u1 = scale * rng.uniform(-1.0, 1.0, (2, N)) / n ** 2
        p = problem(op, alpha, u0, u1, f)
        cfg = PicardConfig(R_star=R_star, max_iter=max_iter)
        grid = np.linspace(0.0, 0.05 * M, M + 1)
        ws = semilinear_solver._Workspace(p, grid, cfg)
        ia = min(start, M - 1)
        ib = min(ia + width, M)
        F_hist = scale * rng.uniform(-1.0, 1.0, (ia + 1, N))
        u, dtu = ws.hom_u[ia], ws.hom_dtu[ia]
        with np.errstate(over="ignore"):    # inf at the largest states
            R_eff = (R_star if R_star is not None else
                     8.0 * (float(weighted_norm(u, ws.lam, 1.0 / alpha)
                                  + weighted_norm(dtu, ws.lam, 0.0)) + 1.0))
            assert ws.trust_radius(cfg, u, dtu) == R_eff
        want = reference_window(ws, ia, ib, F_hist, cfg, R_eff)
        try:
            got = ws.window_solve(ia, ib, F_hist, cfg, R_eff)
        except WindowFailure as exc:
            assert exc.reason == want
            return
        assert not isinstance(want, str), want
        for g, w in zip(got[:4], want[:4]):
            assert g.tobytes() == w.tobytes()
        assert got[4:] == want[4:]


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

    @pytest.mark.parametrize("window", [(math.nan, 0.4), (0.0, math.inf),
                                        (-math.inf, 0.4), (0.2, math.nan)])
    def test_window_ends_must_be_finite(self, window):
        op = interval_op()
        p = problem(op, 1.5, [1.0], [0.0], NonlinearitySpec())
        grid = np.linspace(0.0, 1.0, 11)
        with pytest.raises(DomainError, match="not finite"):
            picard_window(p, window, grid, PicardConfig(), None)

    @pytest.mark.parametrize("window", [("x", 0.4), (None, 0.4), (0.0,),
                                        (0.0, 0.2, 0.4), None])
    def test_window_must_be_a_pair_of_times(self, window):
        op = interval_op()
        p = problem(op, 1.5, [1.0], [0.0], NonlinearitySpec())
        grid = np.linspace(0.0, 1.0, 11)
        with pytest.raises(DomainError, match="pair of times"):
            picard_window(p, window, grid, PicardConfig(), None)

    def test_later_window_needs_a_history(self):
        # the trust radius is centred on the history's row at t_a, so a
        # history is needed even when its forcing is supplied
        op = interval_op()
        p = problem(op, 1.5, [1.0], [0.0],
                    NonlinearitySpec("sine", {"c": 0.2}))
        grid = np.linspace(0.0, 1.0, 11)
        with pytest.raises(DomainError, match="needs a history"):
            picard_window(p, (0.2, 0.4), grid, PicardConfig(), None)
        with pytest.raises(DomainError, match="needs a history"):
            picard_window(p, (0.2, 0.4), grid, PicardConfig(), None,
                          history_forcing=np.zeros((3, 1)))

    @pytest.mark.parametrize("shapes", [((2, 1), (3, 1)), ((3, 1), (2, 1)),
                                        ((1, 1), (1, 1)), ((3, 2), (3, 1)),
                                        ((3, 1), (3,))])
    def test_short_history_rejected(self, shapes):
        # too few rows, or rows of another truncation
        op = interval_op()
        p = problem(op, 1.5, [1.0], [0.0],
                    NonlinearitySpec("sine", {"c": 0.2}))
        grid = np.linspace(0.0, 1.0, 11)
        hist = SimpleNamespace(u_coeffs=np.zeros(shapes[0]),
                               dtu_coeffs=np.zeros(shapes[1]))
        for forcing in (None, np.zeros((3, 1))):
            with pytest.raises(DomainError, match="of all modes"):
                picard_window(p, (0.2, 0.4), grid, PicardConfig(), hist,
                              history_forcing=forcing)

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

    def test_zero_nonlinearity_builds_no_weights_and_no_sums(self,
                                                             monkeypatch):
        # f = 0 forces no mode: the run asks for no moment rows and no
        # weights, and its windows make no memory or window sums
        calls = []
        betas = []

        def counted(name, fn):
            def wrapped(*args):
                calls.append(name)
                return fn(*args)
            return wrapped

        ml_rows = linear_solver.ml_rows

        def rows(alpha, bs, x, scalar):
            betas.extend(bs)
            return ml_rows(alpha, bs, x, scalar)

        monkeypatch.setattr(linear_solver, "ml_rows", rows)
        monkeypatch.setattr(linear_solver._KernelTable, "weights", counted(
            "weights", linear_solver._KernelTable.weights))
        for name in ("_toeplitz", "_causal_sums"):
            monkeypatch.setattr(semilinear_solver, name, counted(
                name, getattr(semilinear_solver, name)))
        a = 1.5
        n = np.arange(1, 9)
        p = problem(interval_op(), a, 1.0 / n ** 2, 0.5 / n ** 2,
                    NonlinearitySpec())
        out = run(p, 2.0, PicardConfig(window_init=0.5), 0.01)
        assert out.status == "completed" and len(out.windows) > 1
        assert calls == []
        assert set(betas) == {1.0, 2.0, a}

    def test_weights_built_once_per_eigenvalue(self, monkeypatch):
        # the square's spectrum repeats eigenvalues; the run asks its
        # kernel table once for the weights of every mode, and the weights
        # of each distinct eigenvalue are built once
        built = []
        asked = []
        moments = linear_solver.kernel_moments
        weights = linear_solver._KernelTable.weights

        def counted(alpha, t, row, deriv=False):
            got = moments(alpha, t, row, deriv)
            built.append((deriv, got[0].shape))
            return got

        def asking(kt, lam):
            asked.append(len(lam))
            return weights(kt, lam)

        monkeypatch.setattr(linear_solver, "kernel_moments", counted)
        monkeypatch.setattr(linear_solver._KernelTable, "weights", asking)
        op = make_operator(OperatorSpecConfig(
            kind="dirichlet_laplacian_box", lengths=(math.pi, math.pi)))
        N = 12
        n = np.arange(1, N + 1)
        p = problem(op, 1.25, 0.2 * (-1.0) ** n / n ** 2, 0.1 / n ** 2,
                    NonlinearitySpec("power", {"c": 1.0, "r": 2.0}))
        out = run(p, 0.1, PicardConfig(window_init=0.02), 0.01)
        distinct = len(set(op.eigenvalues(N)))
        assert out.status == "completed" and len(out.windows) > 2
        assert distinct < N
        assert built == [(False, (distinct, 11)), (True, (distinct, 11))]
        assert asked == [N]

    def test_cut_rows_integrate_each_grid_point_once(self, monkeypatch):
        # every mode has data and f(u) can force any of them, so the run
        # asks for the propagator's and the moments' betas at once: one
        # branch-cut pass over the grid points past the series (kappa
        # reaches 32), besides the window heuristic's bound probe
        passes = []
        probing = []
        cut_rows = mittag_leffler._cut_rows
        probe = semilinear_solver.ml_bound_probe

        def counted(alpha, bs, y, *args):
            if not probing:
                passes.append((bs, y.size))
            return cut_rows(alpha, bs, y, *args)

        def probed(*args):
            probing.append(True)
            try:
                return probe(*args)
            finally:
                probing.clear()

        monkeypatch.setattr(mittag_leffler, "_cut_rows", counted)
        monkeypatch.setattr(semilinear_solver, "ml_bound_probe", probed)
        a = 1.5
        op = interval_op()
        n = np.arange(1, 9)
        p = problem(op, a, 1.0 / n ** 2, 0.5 / n ** 2,
                    NonlinearitySpec("sine", {"c": 0.3}))
        out = run(p, 2.0, PicardConfig(), 0.05)
        kappa = (op.eigenvalues(8)[:, None]
                 * np.linspace(0.0, 2.0, 41) ** a) ** (1.0 / a)
        assert out.status == "completed"
        assert kappa.max() > 30.0
        assert passes == [((1.0, 2.0, a), int(np.sum(
            kappa > mittag_leffler._SERIES_CUTOFF)))]

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


class TestRunAliasing:
    """run re-projects each accepted window's rows on the doubled rule once
    and reports the largest change."""

    def test_smooth_run_does_not_warn(self):
        op = interval_op()
        p = problem(op, 1.5, [0.1, 0.05], [0.0, 0.0],
                    NonlinearitySpec("sine", {"c": 0.2}))
        out = run(p, 0.1, PicardConfig(), 0.01)
        assert 0.0 <= out.aliasing_est < 1e-8
        assert out.warnings == ()

    def test_under_resolved_run_warns(self):
        op = interval_op()
        f = NonlinearitySpec("sine", {"c": 0.2})
        p = problem(op, 1.5, [6.0, 0.0, 0.0, 4.0], [0.0] * 4, f)
        out = run(p, 0.1, PicardConfig(nonlinearity_quadrature=16), 0.01)
        assert out.status == "completed"
        assert out.aliasing_est > 1e-8
        assert out.warnings == (
            f"quadrature under-resolved: aliasing estimate "
            f"{out.aliasing_est:.3e} over 4 coefficients",)
        # the largest per-row estimate over the accepted rows
        rows = [apply_nonlinearity(f, field(op, c), 16).aliasing_est
                for c in out.trace.u_coeffs[1:]]
        assert out.aliasing_est == pytest.approx(max(rows), rel=1e-12)

    def test_zero_nonlinearity_reports_zero(self):
        op = interval_op()
        p = problem(op, 1.5, [1.0], [0.0], NonlinearitySpec())
        out = run(p, 0.5, PicardConfig(), 0.01)
        assert out.aliasing_est == 0.0
        assert out.warnings == ()


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
        # a budget of three rows' values on the 65 x 65 sup grid splits
        # the time rows into blocks; the sup matches one block and the
        # dense basis on the same grid
        op = make_operator(OperatorSpecConfig(
            kind="dirichlet_laplacian_box", lengths=(math.pi, math.pi)))
        n = np.arange(1, 9)
        p = problem(op, 1.25, 0.2 / n ** 2, 0.1 / n ** 2,
                    NonlinearitySpec("power", {"c": 1.0, "r": 2.0}))
        out = run(p, 0.1, PicardConfig(), 0.01)
        whole = strong_solution_check(out, p, 2.0, 2.0)
        monkeypatch.setattr(spectral_operator, "_VALUES_MAX", 3 * 65 * 65)
        assert len(out.trace.times) == 11
        blocked = strong_solution_check(out, p, 2.0, 2.0)
        assert blocked["verdict"] == whole["verdict"] == "strong"
        assert blocked["norm"] == whole["norm"]
        axes = np.meshgrid(*[np.linspace(0.0, math.pi, 65)] * 2,
                           indexing="ij")
        phi = op.basis(p.N, np.stack(axes, axis=-1)).reshape(-1, p.N)
        sup = np.abs(out.trace.u_coeffs @ phi.T).max(axis=1)
        dense = float(np.trapezoid(sup ** 2.0, out.trace.times)) ** 0.5
        assert abs(blocked["norm"] - dense) <= 1e-14 * dense
