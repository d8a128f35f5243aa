"""Linear solver: closed forms, invariants, and failure modes.

Frozen values were produced with an mpmath series oracle (40 digits) in
conftest style; the product-integration weights were separately
cross-checked against adaptive quadrature in the kernel-moment tests.
"""

import math

import numpy as np
import pytest

from mlwave import (
    ConfigError,
    DomainError,
    ForcingSpec,
    LinearProblem,
    NumericFailure,
    OperatorSpecConfig,
    SpectralField,
    convolve_forcing,
    eval_time_function,
    homogeneous_state,
    make_operator,
    solve_linear,
    strong_norm_probe,
)
from mlwave import linear_solver
from mlwave.mittag_leffler import _ml, ml_row

E_15_1_M1 = 0.39662936531808808449       # E_{1.5,1}(-1)
E_15_15_M1 = 0.70652803706417579426      # E_{1.5,1.5}(-1)
S3_CONST_T2 = 2.2987277900481273802      # 2*2^1.5*E_{1.5,2.5}(-2^1.5)
S3P_CONST_T2 = 0.68874358910838687769    # 2*2^0.5*E_{1.5,1.5}(-2^1.5)
S3_MODE2_T15 = 0.15422698656218715217    # 0.5*1.5^1.5*E_{1.5,2.5}(-4*1.5^1.5)


def interval_op(length=math.pi):
    return make_operator(OperatorSpecConfig(
        kind="dirichlet_laplacian_interval", lengths=(length,)))


def field(op, coeffs):
    c = np.asarray(coeffs, dtype=float)
    return SpectralField(op, c, len(c))


def problem(op, alpha, u0, u1, forcing=None):
    return LinearProblem(op, alpha, field(op, u0), field(op, u1),
                         forcing or ForcingSpec())


class TestTimeFunctions:
    def test_catalog(self):
        t = np.linspace(0.0, 3.0, 7)
        assert np.array_equal(
            eval_time_function("constant", {"value": 2.5}, t),
            np.full(7, 2.5))
        got = eval_time_function(
            "polynomial", {"coeffs": [1.0, -2.0, 0.5]}, t)
        assert np.allclose(got, 1.0 - 2.0 * t + 0.5 * t ** 2, rtol=1e-15)
        got = eval_time_function(
            "sinusoid", {"amplitude": 2.0, "omega": 3.0, "phase": 0.4}, t)
        assert np.allclose(got, 2.0 * np.sin(3.0 * t + 0.4), rtol=1e-15)
        got = eval_time_function(
            "exponential-decay", {"amplitude": 1.5, "rate": 0.7}, t)
        assert np.allclose(got, 1.5 * np.exp(-0.7 * t), rtol=1e-15)

    def test_unknown_name(self):
        with pytest.raises(ConfigError):
            eval_time_function("sawtooth", {}, np.array([0.0]))

    @pytest.mark.parametrize("name, params", [
        ("sinusoid", {"amplitude": "x", "omega": 1.0}),
        ("polynomial", {"coeffs": 3}),
        ("constant", {"value": None}),
        ("exponential-decay", {"amplitude": 1.0, "rate": [1.0, 2.0]}),
    ])
    def test_mistyped_parameter(self, name, params):
        # the value errors and type errors of the parameters are library
        # errors, directly and through a solve, which validate() lets by
        with pytest.raises(ConfigError, match="mistyped"):
            eval_time_function(name, params, np.array([0.0, 1.0]))
        op = interval_op()
        f = ForcingSpec(kind="separable", g=field(op, [1.0]), h_name=name,
                        h_params=params)
        with pytest.raises(ConfigError, match="mistyped"):
            solve_linear(problem(op, 1.5, [1.0], [0.0], f),
                         np.linspace(0.0, 1.0, 11))


class TestForcingValidation:
    def test_separable_needs_profile(self):
        with pytest.raises(ConfigError):
            ForcingSpec(kind="separable", h_name="constant",
                        h_params={"value": 1.0}).validate()

    def test_separable_exactly_one_time_route(self):
        op = interval_op()
        g = field(op, [1.0])
        with pytest.raises(ConfigError):
            ForcingSpec(kind="separable", g=g).validate()
        with pytest.raises(ConfigError):
            ForcingSpec(kind="separable", g=g, h_name="constant",
                        h_params={"value": 1.0},
                        h_samples=np.zeros(3)).validate()

    def test_unknown_time_function(self):
        op = interval_op()
        with pytest.raises(ConfigError):
            ForcingSpec(kind="separable", g=field(op, [1.0]),
                        h_name="square-wave").validate()

    def test_sample_length_mismatch(self):
        op = interval_op()
        f = ForcingSpec(kind="separable", g=field(op, [1.0]),
                        h_samples=np.ones(5))
        f.validate()
        with pytest.raises(ConfigError):
            f.values(np.linspace(0.0, 1.0, 4), 1)

    def test_tabulated_shape_and_finiteness(self):
        with pytest.raises(ConfigError):
            ForcingSpec(kind="tabulated", table=np.ones(4)).validate()
        with pytest.raises(ConfigError):
            ForcingSpec(kind="tabulated",
                        table=np.array([[1.0], [np.inf]])).validate()
        f = ForcingSpec(kind="tabulated", table=np.ones((3, 2)))
        f.validate()
        with pytest.raises(ConfigError):
            f.values(np.linspace(0.0, 1.0, 4), 2)

    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            ForcingSpec(kind="impulsive").validate()

    def test_tabulated_matches_separable_bitwise(self):
        op = interval_op()
        t = np.linspace(0.0, 2.0, 21)
        g = field(op, [0.3, -0.7])
        h = eval_time_function("sinusoid",
                               {"amplitude": 1.0, "omega": 2.0}, t)
        sep = ForcingSpec(kind="separable", g=g, h_samples=h)
        tab = ForcingSpec(kind="tabulated", table=np.outer(h, g.coeffs))
        assert np.array_equal(sep.values(t, 2), tab.values(t, 2))


class TestProblemValidation:
    def test_alpha_range(self):
        op = interval_op()
        for a in (1.0, 0.5, 2.5):
            with pytest.raises(DomainError):
                problem(op, a, [1.0], [0.0]).validate()
        problem(op, 2.0, [1.0], [0.0]).validate()

    def test_truncation_mismatch(self):
        op = interval_op()
        p = LinearProblem(op, 1.5, field(op, [1.0, 2.0]), field(op, [0.0]),
                          ForcingSpec())
        with pytest.raises(DomainError):
            p.validate()

    def test_forcing_profile_truncation(self):
        op = interval_op()
        f = ForcingSpec(kind="separable", g=field(op, [1.0, 2.0, 3.0]),
                        h_name="constant", h_params={"value": 1.0})
        with pytest.raises(DomainError):
            problem(op, 1.5, [1.0], [0.0], f).validate()

    def test_operator_mismatch(self):
        op = interval_op()
        other = make_operator(OperatorSpecConfig(
            kind="neumann_laplacian_shifted", lengths=(math.pi,),
            shift=0.5))
        p = LinearProblem(op, 1.5, field(other, [1.0]), field(op, [0.0]),
                          ForcingSpec())
        with pytest.raises(DomainError):
            p.validate()


class TestHomogeneousState:
    def test_single_mode_closed_form(self):
        p = problem(interval_op(), 1.5, [1.0], [0.0])
        u, dtu = homogeneous_state(p, 1.0)
        assert abs(u[0] - E_15_1_M1) < 1e-12
        assert abs(dtu[0] + E_15_15_M1) < 1e-12

    def test_initial_time_exact(self):
        p = problem(interval_op(), 1.7, [0.3, -0.4], [0.1, 0.9])
        u, dtu = homogeneous_state(p, 0.0)
        assert np.array_equal(u, [0.3, -0.4])
        assert np.array_equal(dtu, [0.1, 0.9])

    def test_u1_branch(self):
        a = 1.5
        p = problem(interval_op(), a, [0.0], [2.0])
        t = 0.7
        u, dtu = homogeneous_state(p, t)
        assert abs(u[0] - 2.0 * t * _ml(a, 2.0, -t ** a)) < 1e-14
        assert abs(dtu[0] - 2.0 * _ml(a, 1.0, -t ** a)) < 1e-14

    def test_classical_limit(self):
        p = problem(interval_op(), 2.0, [1.0], [0.5])
        for t in (0.3, 1.0, 4.0):
            u, dtu = homogeneous_state(p, t)
            assert abs(u[0] - (math.cos(t) + 0.5 * math.sin(t))) < 1e-9
            assert abs(dtu[0] - (-math.sin(t) + 0.5 * math.cos(t))) < 1e-9

    def test_negative_time(self):
        p = problem(interval_op(), 1.5, [1.0], [0.0])
        with pytest.raises(DomainError):
            homogeneous_state(p, -0.1)


class TestConvolveForcing:
    def test_zero_forcing(self):
        p = problem(interval_op(), 1.5, [1.0], [0.0])
        S3, S3p = convolve_forcing(p, np.linspace(0.0, 1.0, 11))
        assert not S3.any() and not S3p.any()

    def test_constant_forcing_closed_form(self):
        a = 1.5
        op = interval_op()
        f = ForcingSpec(kind="separable", g=field(op, [2.0]),
                        h_name="constant", h_params={"value": 1.0})
        p = problem(op, a, [0.0], [0.0], f)
        grid = np.linspace(0.0, 2.0, 41)
        S3, S3p = convolve_forcing(p, grid)
        assert abs(S3[-1, 0] - S3_CONST_T2) < 1e-12
        assert abs(S3p[-1, 0] - S3P_CONST_T2) < 1e-12
        for i in (7, 23):
            t = grid[i]
            assert abs(S3[i, 0] - 2.0 * t ** a * _ml(a, a + 1.0, -t ** a)) \
                < 1e-13
            assert abs(S3p[i, 0]
                       - 2.0 * t ** (a - 1.0) * _ml(a, a, -t ** a)) < 1e-13

    def test_vanishing_eigenvalue_limit(self):
        # shift 1e-12 stands in for lam = 0: the monomial integral
        a = 1.6
        op = make_operator(OperatorSpecConfig(
            kind="neumann_laplacian_shifted", lengths=(1.0,),
            shift=1e-12))
        f = ForcingSpec(kind="separable", g=field(op, [3.0]),
                        h_name="constant", h_params={"value": 1.0})
        p = problem(op, a, [0.0], [0.0], f)
        grid = np.linspace(0.0, 2.0, 21)
        S3, _ = convolve_forcing(p, grid)
        exact = 3.0 * grid ** a / math.gamma(a + 1.0)
        assert np.max(np.abs(S3[:, 0] - exact)) < 1e-9

    def test_smooth_forcing_second_order(self):
        a = 1.5
        op = interval_op()
        g = field(op, [1.0])

        def endpoint(m):
            f = ForcingSpec(kind="separable", g=g, h_name="sinusoid",
                            h_params={"amplitude": 1.0, "omega": 2.0})
            p = problem(op, a, [0.0], [0.0], f)
            S3, _ = convolve_forcing(p, np.linspace(0.0, 1.0, m + 1))
            return S3[-1, 0]

        ref = endpoint(2048)
        e1 = abs(endpoint(64) - ref)
        e2 = abs(endpoint(128) - ref)
        assert math.log2(e1 / e2) > 1.8

    def test_nonuniform_grid_rejected(self):
        p = problem(interval_op(), 1.5, [1.0], [0.0])
        with pytest.raises(DomainError):
            convolve_forcing(p, np.array([0.0, 0.1, 0.2, 0.4]))
        with pytest.raises(DomainError):
            convolve_forcing(p, np.array([0.5, 1.0, 1.5]))
        with pytest.raises(DomainError):
            convolve_forcing(p, np.array([0.0]))


class TestProductIntegration:
    def test_panel_sum_is_the_causal_sum(self):
        rng = np.random.default_rng(5)
        F, B, A = (rng.normal(size=(3, 12)), rng.normal(size=(3, 15)),
                   rng.normal(size=(3, 15)))
        K = F.shape[1] - 1
        led = linear_solver._zero_led(np.stack([B[:, :K], A[:, :K]]))
        got = linear_solver._causal_sums(linear_solver._toeplitz(led, K, K),
                                         F)
        want = [[sum(f[i - 1 - l] * b[l] + f[i - l] * a[l] for l in range(i))
                 for i in range(1, len(f))] for f, b, a in zip(F, B, A)]
        assert np.allclose(got, want, rtol=1e-14, atol=1e-14)

    def test_weights_built_once_per_eigenvalue(self, monkeypatch):
        # the square's spectrum repeats eigenvalues; each weights call
        # builds those of every distinct value once, in one batched build,
        # whatever the order the eigenvalues are asked in
        built = []
        moments = linear_solver.kernel_moments

        def counted(alpha, t, row, deriv=False):
            got = moments(alpha, t, row, deriv)
            built.append((deriv, got[0].shape))
            return got

        monkeypatch.setattr(linear_solver, "kernel_moments", counted)
        op = make_operator(OperatorSpecConfig(
            kind="dirichlet_laplacian_box", lengths=(math.pi, math.pi)))
        N = 12
        lam = op.eigenvalues(N)
        f = ForcingSpec(kind="separable", g=field(op, np.ones(N)),
                        h_name="constant", h_params={"value": 1.0})
        p = problem(op, 1.5, np.zeros(N), np.zeros(N), f)
        kt = linear_solver._KernelTable(1.5, np.linspace(0.0, 1.0, 11))
        convolve_forcing(p, kt.t, kt)
        distinct = len(set(lam))
        assert distinct < N
        assert built == [(False, (distinct, 11)), (True, (distinct, 11))]
        got = kt.weights(lam[::-1])
        assert built[2:] == [(False, (distinct, 11)), (True, (distinct, 11))]
        assert got.shape == (2, 2, N, 19)
        assert not got[..., :9].any()
        assert (got[:, :, ::-1].tobytes()
                == kt.weights(lam).tobytes())

    def test_batched_weights_equal_single_builds(self):
        # (left, right) = ((B, B'), (A, A')) of each eigenvalue, bit-equal
        # to a table that builds that eigenvalue alone, behind 39 zeros
        t = np.linspace(0.0, 2.0, 41)
        lam = (np.arange(1, 9) ** 2.0)[[3, 0, 7, 3, 5, 1]]
        for a in (1.1, 1.5, 1.9):
            got = linear_solver._KernelTable(a, t).weights(lam)
            assert got.shape == (2, 2, len(lam), 79)
            assert not got[..., :39].any()
            for i, v in enumerate(lam):
                want = linear_solver._KernelTable(a, t).weights([v])
                assert got[:, :, i].tobytes() == want[:, :, 0].tobytes()


class TestKernelTable:
    def test_rows_built_once_per_distinct_eigenvalue(self, monkeypatch):
        # the square's spectrum repeats eigenvalues: one build of the
        # requested betas over the distinct ones, rows equal to ml_row's
        built = []
        ml_rows = linear_solver.ml_rows

        def counted(alpha, betas, x, scalar):
            built.append((betas, x.shape))
            return ml_rows(alpha, betas, x, scalar)

        monkeypatch.setattr(linear_solver, "ml_rows", counted)
        op = make_operator(OperatorSpecConfig(
            kind="dirichlet_laplacian_box", lengths=(math.pi, math.pi)))
        lam = op.eigenvalues(12)
        distinct = len(set(lam))
        assert distinct < len(lam)
        a = 1.5
        kt = linear_solver._KernelTable(a, np.linspace(0.0, 40.0, 201))
        betas = (1.0, 2.0, a, a + 1.0, a + 2.0)
        got = kt.row(lam, betas)
        assert built == [(betas, (distinct, 201))]
        assert got.shape == (len(betas), len(lam), 201)
        for beta, rows in zip(betas, got):
            for v, row in zip(lam, rows):
                want = ml_row(a, beta, -v * kt.t ** a)
                assert row.tobytes() == want.tobytes()
                assert kt.row(v, (beta,))[0].tobytes() == want.tobytes()
        # a beta the table lacks is built alone, and only once
        d2 = kt.row(lam[::-1], (a - 1.0, a))
        kt.row(lam, (a - 1.0,))
        assert built[1:] == [((a - 1.0,), (distinct, 201))]
        assert d2[0, 0].tobytes() == ml_row(a, a - 1.0,
                                            -lam[-1] * kt.t ** a).tobytes()

    def test_rows_are_built_at_the_betas_asked_for(self, monkeypatch):
        # unforced: the propagator's rows alone; forcing on a mode without
        # initial data adds the moments' rows for that mode alone, after
        # the propagator's
        built = []
        ml_rows = linear_solver.ml_rows

        def counted(alpha, betas, x, scalar):
            built.append((betas, x.shape))
            return ml_rows(alpha, betas, x, scalar)

        monkeypatch.setattr(linear_solver, "ml_rows", counted)
        op = interval_op()
        grid = np.linspace(0.0, 1.0, 11)
        u0, u1 = [1.0, 0.5, 0.0], [0.2, 0.0, 0.0]
        solve_linear(problem(op, 1.5, u0, u1), grid)
        assert built == [((1.0, 2.0, 1.5), (2, 11))]
        built.clear()
        f = ForcingSpec(kind="separable", g=field(op, [0.0, 0.0, 1.0]),
                        h_name="constant", h_params={"value": 1.0})
        solve_linear(problem(op, 1.5, u0, u1, f), grid)
        assert built == [((1.0, 2.0, 1.5), (2, 11)),
                         ((1.5, 2.5, 3.5), (1, 11))]


class TestSolveLinear:
    def test_one_kernel_table_per_solve(self, monkeypatch):
        # 16 distinct eigenvalues, forced: one call builds every mode's rows
        # at beta = 1, 2, a (shared by the propagator and the derivative
        # weights), a + 1 and a + 2
        rows = []
        convolutions = []
        ml_rows = linear_solver.ml_rows
        convolve = linear_solver.convolve_forcing

        def counted_rows(alpha, betas, x, scalar):
            rows.append((betas, x.shape))
            return ml_rows(alpha, betas, x, scalar)

        def counted_convolve(*args):
            # the solver calls it through the module name
            convolutions.append(args)
            return convolve(*args)

        monkeypatch.setattr(linear_solver, "ml_rows", counted_rows)
        monkeypatch.setattr(linear_solver, "convolve_forcing",
                            counted_convolve)
        op = interval_op()
        n = np.arange(1, 17)
        f = ForcingSpec(kind="separable", g=field(op, 1.0 / n ** 2),
                        h_name="sinusoid",
                        h_params={"amplitude": 1.0, "omega": 3.0})
        p = problem(op, 1.5, 1.0 / n ** 2, 0.5 / n ** 2, f)
        solve_linear(p, np.linspace(0.0, 2.0, 41))
        assert rows == [((1.0, 2.0, 1.5, 2.5, 3.5), (16, 41))]
        assert len(convolutions) == 1

    def test_matches_homogeneous_state(self):
        p = problem(interval_op(), 1.4, [1.0, -0.5, 0.2], [0.3, 0.0, -0.1])
        grid = np.linspace(0.0, 3.0, 31)
        tr = solve_linear(p, grid)
        for i in (0, 1, 10, 30):
            u, dtu = homogeneous_state(p, float(grid[i]))
            assert np.max(np.abs(tr.u_coeffs[i] - u)) < 1e-12
            assert np.max(np.abs(tr.dtu_coeffs[i] - dtu)) < 1e-12

    def test_initial_rows_exact(self):
        op = interval_op()
        f = ForcingSpec(kind="separable", g=field(op, [1.0, 1.0]),
                        h_name="constant", h_params={"value": 1.0})
        p = problem(op, 1.5, [0.25, -0.5], [1.5, 2.5], f)
        tr = solve_linear(p, np.linspace(0.0, 1.0, 11))
        assert np.array_equal(tr.u_coeffs[0], [0.25, -0.5])
        assert np.array_equal(tr.dtu_coeffs[0], [1.5, 2.5])

    def test_derivative_identity(self):
        op = interval_op()
        f = ForcingSpec(kind="separable", g=field(op, [1.0, 0.5]),
                        h_name="exponential-decay",
                        h_params={"amplitude": 2.0, "rate": 1.0})
        p = problem(op, 1.5, [1.0, 0.2], [0.0, -0.3], f)
        grid = np.linspace(0.0, 2.0, 21)
        tr = solve_linear(p, grid)
        lam = op.eigenvalues(2)
        F = f.values(grid, 2)
        assert np.array_equal(tr.dalpha_coeffs,
                              -tr.u_coeffs * lam[None, :] + F)
        res = tr.dalpha_coeffs + tr.u_coeffs * lam[None, :] - F
        scale = np.max(np.abs(tr.u_coeffs * lam[None, :])) + np.max(np.abs(F))
        assert np.max(np.abs(res)) < 4e-16 * scale

    def test_constant_forcing_two_modes(self):
        a = 1.5
        op = interval_op()
        f = ForcingSpec(kind="separable", g=field(op, [2.0, 0.5]),
                        h_name="constant", h_params={"value": 1.0})
        p = problem(op, a, [0.0, 0.0], [0.0, 0.0], f)
        grid = np.linspace(0.0, 2.0, 41)
        tr = solve_linear(p, grid)
        assert abs(tr.u_coeffs[-1, 0] - S3_CONST_T2) < 1e-8
        assert abs(tr.u_coeffs[30, 1] - S3_MODE2_T15) < 1e-8

    def test_linearity(self):
        op = interval_op()
        grid = np.linspace(0.0, 2.0, 21)
        h = eval_time_function("sinusoid",
                               {"amplitude": 1.0, "omega": 1.5}, grid)
        fa = ForcingSpec(kind="tabulated", table=np.outer(h, [1.0, 0.0]))
        fb = ForcingSpec(kind="tabulated", table=np.outer(h, [0.0, 2.0]))
        fab = ForcingSpec(kind="tabulated", table=np.outer(h, [1.0, 2.0]))
        pa = problem(op, 1.5, [1.0, 0.0], [0.0, 0.5], fa)
        pb = problem(op, 1.5, [0.0, -2.0], [1.0, 0.0], fb)
        pab = problem(op, 1.5, [1.0, -2.0], [1.0, 0.5], fab)
        ta, tb, tab_ = (solve_linear(q, grid) for q in (pa, pb, pab))
        for attr in ("u_coeffs", "dtu_coeffs", "dalpha_coeffs"):
            lhs = getattr(ta, attr) + getattr(tb, attr)
            assert np.max(np.abs(lhs - getattr(tab_, attr))) < 1e-12

    def test_classical_limit_two_modes(self):
        op = interval_op()
        p = problem(op, 2.0, [1.0, 0.5], [0.5, -1.0])
        grid = np.linspace(0.0, 10.0, 401)
        tr = solve_linear(p, grid)
        rt = np.array([1.0, 2.0])     # sqrt eigenvalues 1, 4
        for n in range(2):
            exact_u = (p.u0.coeffs[n] * np.cos(rt[n] * grid)
                       + p.u1.coeffs[n] * np.sin(rt[n] * grid) / rt[n])
            assert np.max(np.abs(tr.u_coeffs[:, n] - exact_u)) < 1e-9

    def test_truncation_stability_bitwise(self):
        op = interval_op()
        grid = np.linspace(0.0, 1.5, 16)
        h = {"amplitude": 1.0, "omega": 2.0}
        fs = ForcingSpec(kind="separable", g=field(op, [0.3, 0.2, 0.1]),
                         h_name="sinusoid", h_params=h)
        fl = ForcingSpec(
            kind="separable", g=field(op, [0.3, 0.2, 0.1, 0.0, 0.0]),
            h_name="sinusoid", h_params=h)
        ps = problem(op, 1.5, [1.0, 0.5, 0.25], [0.1, 0.0, 0.2], fs)
        pl = problem(op, 1.5, [1.0, 0.5, 0.25, 0.0, 0.0],
                     [0.1, 0.0, 0.2, 0.0, 0.0], fl)
        ts = solve_linear(ps, grid, want_d2=True)
        tl = solve_linear(pl, grid, want_d2=True)
        for attr in ("u_coeffs", "dtu_coeffs", "dalpha_coeffs"):
            assert np.array_equal(getattr(ts, attr),
                                  getattr(tl, attr)[:, :3])
        assert np.array_equal(ts.d2u_coeffs[1:], tl.d2u_coeffs[1:, :3])

    def test_overflow_reports_time_index(self):
        op = make_operator(OperatorSpecConfig(
            kind="neumann_laplacian_shifted", lengths=(1.0,),
            shift=1e-6))
        p = problem(op, 1.5, [0.0], [1e308])
        with pytest.raises(NumericFailure) as exc:
            solve_linear(p, np.linspace(0.0, 4.0, 9))
        assert exc.value.time_index == 4
        assert "time index 4" in str(exc.value)

    def test_nonuniform_grid_rejected(self):
        p = problem(interval_op(), 1.5, [1.0], [0.0])
        with pytest.raises(DomainError):
            solve_linear(p, np.array([0.0, 0.1, 0.3]))

    def test_norm_series_initial_values(self):
        a = 1.5
        op = interval_op()
        f = ForcingSpec(kind="separable", g=field(op, [0.0, 1.0]),
                        h_name="constant", h_params={"value": 3.0})
        p = problem(op, a, [0.0, 0.5], [0.0, 2.0], f)
        tr = solve_linear(p, np.linspace(0.0, 1.0, 11))
        g = 1.0 / a
        assert abs(tr.norm_series["u_Vgamma"][0] - 4.0 ** g * 0.5) < 1e-14
        assert abs(tr.norm_series["dtu_L2"][0] - 2.0) < 1e-14
        # dalpha(0) mode 2 = -4*0.5 + 3 = 1, weighted by 4^-gamma
        assert abs(tr.norm_series["dalpha_Vminusgamma"][0]
                   - 4.0 ** (-g) * 1.0) < 1e-14


class TestSecondDerivative:
    def test_first_row_is_nan(self):
        p = problem(interval_op(), 1.5, [1.0], [0.0])
        tr = solve_linear(p, np.linspace(0.0, 1.0, 11), want_d2=True)
        assert np.isnan(tr.d2u_coeffs[0]).all()
        assert np.isfinite(tr.d2u_coeffs[1:]).all()

    def test_no_d2_by_default(self):
        p = problem(interval_op(), 1.5, [1.0], [0.0])
        tr = solve_linear(p, np.linspace(0.0, 1.0, 11))
        assert tr.d2u_coeffs is None

    def test_classical_limit(self):
        p = problem(interval_op(), 2.0, [1.0], [0.0])
        grid = np.linspace(0.0, 1.0, 101)
        tr = solve_linear(p, grid, want_d2=True)
        assert np.max(np.abs(tr.d2u_coeffs[1:, 0] + np.cos(grid[1:]))) < 1e-9

    def test_constant_forcing_kernel(self):
        a = 1.5
        op = interval_op()
        f = ForcingSpec(kind="separable", g=field(op, [2.0]),
                        h_name="constant", h_params={"value": 1.0})
        p = problem(op, a, [0.0], [0.0], f)
        grid = np.linspace(0.0, 2.0, 41)
        tr = solve_linear(p, grid, want_d2=True)
        exact = np.array([2.0 * t ** (a - 2.0) * _ml(a, a - 1.0, -t ** a)
                          for t in grid[1:]])
        assert np.max(np.abs(tr.d2u_coeffs[1:, 0] - exact)) < 1e-10

    @pytest.mark.parametrize("a", [1.1, 1.5, 1.9])
    def test_forced_row_is_the_per_mode_convolution(self, a):
        # with zero data and f(0) = 0 the d2 row is the convolution of the
        # forcing's steps with the M'0 steps, here against np.convolve
        op = interval_op()
        N = 6
        n = np.arange(1, N + 1)
        f = ForcingSpec(kind="separable", g=field(op, 1.0 / n ** 2),
                        h_name="sinusoid",
                        h_params={"amplitude": 1.0, "omega": 3.0})
        p = problem(op, a, np.zeros(N), np.zeros(N), f)
        grid = np.linspace(0.0, 2.0, 81)
        M = len(grid) - 1
        tr = solve_linear(p, grid, want_d2=True)
        dF = np.diff(f.values(grid, N), axis=0).T / (grid[1] - grid[0])
        W0 = linear_solver._KernelTable(a, grid).moment_steps(
            op.eigenvalues(N), deriv=True)[0]
        for m in range(N):
            want = np.convolve(dF[m], W0[m])[:M]
            scale = np.convolve(np.abs(dF[m]), np.abs(W0[m]))[:M]
            assert np.all(np.abs(tr.d2u_coeffs[1:, m] - want)
                          <= 1e-14 * scale)

    def test_d2_betas_in_one_request(self, monkeypatch):
        # forcing on mode 1 of 8, data on all: after the propagator's and
        # the moments' requests, the d2 row's betas the table lacks are
        # built once each, a - 1 alone for the forced mode, which holds
        # a + 1, and both for the unforced
        built = []
        ml_rows = linear_solver.ml_rows

        def counted(alpha, betas, x, scalar):
            built.append((betas, x.shape))
            return ml_rows(alpha, betas, x, scalar)

        monkeypatch.setattr(linear_solver, "ml_rows", counted)
        a = 1.5
        op = interval_op()
        n = np.arange(1, 9)
        f = ForcingSpec(kind="separable", g=field(op, [1.0] + [0.0] * 7),
                        h_name="sinusoid",
                        h_params={"amplitude": 1.0, "omega": 3.0})
        p = problem(op, a, 1.0 / n ** 2, 0.5 / n ** 2, f)
        tr = solve_linear(p, np.linspace(0.0, 2.0, 41), want_d2=True)
        assert built == [((1.0, 2.0, a, a + 1.0, a + 2.0), (1, 41)),
                         ((1.0, 2.0, a), (7, 41)),
                         ((a - 1.0,), (1, 41)),
                         ((a - 1.0, a + 1.0), (7, 41))]
        assert np.isfinite(tr.d2u_coeffs[1:]).all()

    def test_rough_initial_data_warns(self):
        op = interval_op()
        rough = [0.0] * 7 + [1.0]
        p = problem(op, 1.5, rough, [0.0] * 8)
        tr = solve_linear(p, np.linspace(0.0, 1.0, 11), want_d2=True)
        assert tr.warnings
        smooth = [1.0 / (n + 1) ** 2 for n in range(8)]
        p2 = problem(op, 1.5, smooth, [0.0] * 8)
        tr2 = solve_linear(p2, np.linspace(0.0, 1.0, 11), want_d2=True)
        assert not tr2.warnings


class TestStrongNormProbe:
    def test_zero_data_identically_zero(self):
        p = problem(interval_op(), 1.5, [0.0], [0.0])
        tr = solve_linear(p, np.linspace(0.0, 1.0, 11), want_d2=True)
        probe = strong_norm_probe(tr, p)
        assert not probe["strong_series"].any()
        assert probe["w21_integral"] == 0.0

    def test_missing_d2_marker(self):
        p = problem(interval_op(), 1.5, [1.0], [0.0])
        tr = solve_linear(p, np.linspace(0.0, 1.0, 11))
        probe = strong_norm_probe(tr, p)
        assert probe["w21_integral"] is None
        assert "not computed" in probe["note"]

    def test_w21_integral_classical(self):
        # alpha=2, u0-only: |d2u| = |cos t|, integral over [0,1] = sin 1
        p = problem(interval_op(), 2.0, [1.0], [0.0])
        tr = solve_linear(p, np.linspace(0.0, 1.0, 201), want_d2=True)
        probe = strong_norm_probe(tr, p)
        assert abs(probe["w21_integral"] - math.sin(1.0)) < 1e-3

    def test_envelope_sup_finite_and_stable(self):
        p = problem(interval_op(), 1.5, [1.0], [0.0])
        sups = []
        for m in (1000, 2000):
            tr = solve_linear(p, np.linspace(0.0, 1.0, m + 1))
            t = tr.times[1:]
            dal = np.sqrt((tr.dalpha_coeffs[1:] ** 2).sum(axis=1))
            keep = t >= 1e-4
            sups.append(float(np.max(t[keep] ** 0.5 * dal[keep])))
        assert 0.0 < sups[0] <= 2.0
        assert abs(sups[0] - sups[1]) < 0.02 * sups[1]
