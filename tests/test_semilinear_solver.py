"""Semilinear solver: nonlinearity catalog, Picard windows, marching.

The pseudo-spectral projection values are frozen from trigonometric
closed forms (sin^3 x = (3 sin x - sin 3x)/4 against the orthonormal
sine basis).  Fixed-point runs are cross-checked against the linear
solver (f = 0 must agree bitwise, f = kappa*u must reproduce shifted
Mittag-Leffler relaxation).
"""

import math
import sys
import threading
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from mlwave import (
    ConfigError,
    DomainError,
    ForcingSpec,
    LinearProblem,
    MLWaveError,
    NonlinearitySpec,
    OperatorSpecConfig,
    OverflowSignal,
    PicardConfig,
    SemilinearProblem,
    SpectralField,
    WindowFailure,
    apply_nonlinearity,
    deriv_kernel_moment,
    evaluate,
    kernel_moment,
    make_operator,
    ml_identity_residuals,
    picard_window,
    run,
    solve_linear,
    strong_solution_check,
)
from mlwave import (linear_solver, mittag_leffler, semilinear_solver,
                    spectral_operator)
from mlwave.linear_solver import (_causal_sums, _known_sums, _toeplitz,
                                  _toeplitz_table)
from mlwave.mittag_leffler import _ml
from mlwave.spectral_operator import synthesis, weighted_norm

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


def outcome_bytes(out):
    """What a run returns, its arrays as bytes."""
    tr = out.trace
    return (out.status, out.T_est, out.windows, out.aliasing_est,
            [getattr(tr, k).tobytes() for k in (
                "times", "u_coeffs", "dtu_coeffs", "dalpha_coeffs")],
            [tr.norm_series[k].tobytes() for k in sorted(tr.norm_series)])


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

    def test_power_envelopes_past_the_double_range_are_inf(self):
        # R^r past the double range reads as inf, not an OverflowError;
        # below it the values are the plain products, and c = 0 bounds
        # by 0 at any radius
        p = NonlinearitySpec("power", {"c": 1.0, "r": 400.0})
        assert p.magnitude_envelope(10.0) == math.inf
        assert p.lipschitz_envelope(10.0) == math.inf
        assert p.magnitude_envelope(0.5) == 0.5 ** 400.0
        assert p.lipschitz_envelope(2.0) == 400.0 * 2.0 ** 399.0
        zero = NonlinearitySpec("power", {"c": 0.0, "r": 400.0})
        assert zero.magnitude_envelope(10.0) == 0.0
        assert zero.lipschitz_envelope(10.0) == 0.0

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

    @pytest.mark.parametrize("quad", [math.inf, math.nan])
    def test_quadrature_must_be_finite(self, quad):
        u = field(interval_op(), [1.0, 0.0, 0.0, 0.0])
        for f in (NonlinearitySpec("sine", {"c": 1.0}), NonlinearitySpec()):
            with pytest.raises(DomainError, match="must be finite"):
                apply_nonlinearity(f, u, quad)

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
        got = semilinear_solver._Collocation(
            op, N, spectral_operator._rule_panels(quad))(f.apply, C)
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
        # a budget of five rows' values on the 40 x 40 rule gives blocks of
        # five rows, a budget below one row's values blocks of one, and
        # each row's coefficients are those of one run, bit for bit
        op = make_operator(CATALOG["box2"])
        f = NONLINEARITIES["power"]
        N, panels = 4, 4
        C = coefficient_rows(12, N, seed=3)
        whole = semilinear_solver._Collocation(op, N, panels)(f.apply, C)
        row = 40 * 40
        for budget, runs in ((5 * row, [5, 5, 2]), (row - 1, [1] * 12)):
            monkeypatch.setattr(spectral_operator, "_VALUES_MAX", budget)
            sizes = []

            def spy(vals, out=None):
                sizes.append(vals.size)
                return f.apply(vals, out=out)

            got = semilinear_solver._Collocation(op, N, panels)(spy, C)
            assert sizes == [rows * row for rows in runs]
            assert np.array_equal(got, whole)

    def test_interval_rows_match_the_ascending_mode_sums(self):
        # at the states near 1e5 of a picard-blowup run, the collocation
        # agrees row by row to 1e-14 of the row's largest coefficient with
        # this arithmetic: modes added in ascending order, one dot product
        # per eigenfunction
        op = interval_op()
        f = NONLINEARITIES["power"]
        N, panels = 8, 4
        C = 1e5 * coefficient_rows(6, N, seed=23)
        got = semilinear_solver._Collocation(op, N, panels)(f.apply, C)
        rule = op.rule(N, panels)
        phi = [op.eigenfunction(n, rule.nodes) for n in range(1, N + 1)]
        vals = C[:, :1] * phi[0]
        for n in range(1, N):
            vals += C[:, n:n + 1] * phi[n]
        fw = f.apply(vals) * rule.weights
        want = np.stack([np.vecdot(fw, p) for p in phi], axis=-1)
        assert np.all(np.abs(got - want).max(axis=1)
                      <= 1e-14 * np.abs(want).max(axis=1))

    def test_one_overflowing_row_raises(self):
        op = make_operator(CATALOG["box2"])
        C = coefficient_rows(4, 5)
        C[2, 0] = 1e200
        # the power nonlinearity of the 1e200 row overflows in numpy
        with pytest.warns(RuntimeWarning, match="overflow"), \
                pytest.raises(OverflowSignal, match="non-finite"):
            semilinear_solver._Collocation(op, 5, 4)(
                NONLINEARITIES["power"].apply, C)

    def test_non_finite_coefficients_raise(self):
        # a nan at one node of one row, and a row of finite values whose
        # analysis sums overflow: each leaves a coefficient non-finite
        C = coefficient_rows(3, 4)
        colloc = semilinear_solver._Collocation(interval_op(), 4, 4)

        def nan_at_a_node(vals, out=None):
            np.copyto(out, vals)
            out[1, 7] = np.nan
            return out

        def largest_double(vals, out=None):
            np.copyto(out, vals)
            out[2] = np.finfo(float).max
            return out

        for fmap in (nan_at_a_node, largest_double):
            with np.errstate(over="ignore"), \
                    pytest.raises(OverflowSignal, match="non-finite"):
                colloc(fmap, C)

    def test_zero_kind_never_builds_a_rule(self):
        op = interval_op()
        got = apply_nonlinearity(NonlinearitySpec(), field(op, [1.0, 2.0]),
                                 64)
        assert np.array_equal(got.coeffs, np.zeros(2))
        assert op._rules == {}


def plain_pointwise(f, vals):
    """f as the allocating expressions of each kind, the reference the
    maps written into out= buffers keep bit for bit."""
    p = f.params
    if f.kind == "zero":
        return np.zeros_like(vals)
    if f.kind == "linear_shift":
        return p["kappa"] * vals
    if f.kind == "power":
        mag, e = np.abs(vals), p["r"] - 1.0
        grow = mag if e == 1.0 else mag * mag if e == 2.0 else mag ** e
        return p["c"] * grow * vals
    if f.kind == "sine":
        return p["c"] * np.sin(vals)
    return np.interp(vals, np.asarray(p["s"]), np.asarray(p["values"]))


class TestBuffersKeepTheBits:
    """The pointwise maps and the collocation write into buffers, and give
    the bits of the allocating arithmetic whatever the buffers held."""

    VALUES = np.array([[-0.0, 0.0, np.inf, -np.inf],
                       [np.nan, 1e200, -1e200, 0.5],
                       [-3.25, 1e-300, 7.0, -2.0]])

    @pytest.mark.parametrize("f", [
        NonlinearitySpec(),
        NonlinearitySpec("linear_shift", {"kappa": -1.5}),
        *(NonlinearitySpec("power", {"c": -0.75, "r": r})
          for r in (1.0, 2.0, 3.0, 2.5)),
        NonlinearitySpec("sine", {"c": 0.7}),
        NONLINEARITIES["custom"],
    ], ids=["zero", "linear_shift", "power1", "power2", "power3",
            "power2.5", "sine", "custom"])
    def test_pointwise_into_out_is_the_allocating_map(self, f):
        fmap = f.pointwise()
        with np.errstate(all="ignore"):
            want = plain_pointwise(f, self.VALUES)
            fresh = fmap(self.VALUES)
            out = np.full_like(self.VALUES, 42.0)
            got = fmap(self.VALUES, out=out)
            applied = f.apply(self.VALUES, out=np.full_like(out, -1.0))
        assert got is out
        for arr in (fresh, got, applied):
            assert arr.tobytes() == want.tobytes()

    @pytest.mark.parametrize("r", [2.0, 3.0, 2.5, 1.5])
    def test_power_at_unit_c_is_the_three_pass_map(self, r):
        # c = 1 skips its product; x * 1.0 is x bit for bit, so the map
        # keeps the bits of |u|^(r-1), times c, times u, on signed zeros,
        # infinities, nans with and without payloads, subnormals and
        # values whose powers overflow
        nan = np.float64(np.nan)
        payload = np.array([0x7FF8_0000_DEAD_BEEF, 0xFFF8_0000_0000_0001],
                           dtype=np.uint64).view(float)
        vals = np.concatenate([
            [0.0, -0.0, np.inf, -np.inf, nan, -nan], payload,
            [5e-324, -5e-324, 2.2250738585072014e-308 / 3, -1e-310,
             1.3407807929942596e154, -1.4e154, 1e200, -1e300,
             1.7976931348623157e308, -1.7976931348623157e308, 0.5, -3.0]])
        e = r - 1.0
        with np.errstate(all="ignore"):
            grow = np.abs(vals)
            if e == 2.0:
                grow *= grow
            elif e != 1.0:
                grow **= e
            grow *= 1.0
            grow *= vals
            got = NonlinearitySpec("power", {"c": 1.0, "r": r}).pointwise()(
                vals, out=np.empty_like(vals))
        assert got.tobytes() == grow.tobytes()

    @pytest.mark.parametrize("kind", ["interval", "box2"])
    @pytest.mark.parametrize("first", [1, 8])
    def test_reused_buffers_give_one_shot_bits(self, kind, first,
                                               monkeypatch):
        # one collocation, its buffers first made by a call of 1 or 8
        # rows, then grown further and reused over calls of 5, 2,
        # 7 and 1 rows, one that overflows and 3 rows: each result is that
        # of a fresh one, and writing to a result changes no other.  Every
        # np.empty comes back filled with nan, so a read of a value never
        # written shows
        def poisoned(shape, dtype=float):
            return np.full(shape, np.nan if np.dtype(dtype).kind == "f"
                           else 1, dtype=dtype)

        monkeypatch.setattr(np, "empty", poisoned)
        op = make_operator(CATALOG[kind])
        f, N, panels = NONLINEARITIES["power"], 5, 4
        colloc = semilinear_solver._Collocation(op, N, panels)
        for seed, rows in enumerate((first, 5, 2, 7, 1)):
            C = 3.0 * coefficient_rows(rows, N, seed=seed)
            got = colloc(f.apply, C)
            want = semilinear_solver._Collocation(op, N, panels)(f.apply, C)
            assert got.tobytes() == want.tobytes()
            got[...] = np.nan
        C = coefficient_rows(1, N)
        C[0, 0] = 1e200
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(OverflowSignal, match="non-finite"):
            colloc(f.apply, C)
        C = coefficient_rows(3, N, seed=9)
        first = colloc(f.apply, C)
        first[...] = np.nan
        assert (colloc(f.apply, C).tobytes() == semilinear_solver._Collocation(
            op, N, panels)(f.apply, C).tobytes())


class TestAllocationGuard:
    """After its first iteration a window attempt allocates nothing as
    large as one row's grid values: its buffers and views are built once
    per attempt.  numpy's own small allocations per call (iterators, view
    objects) stay within a few kB, so the interval's rule is taken with
    600 nodes, a row of 4.8 kB."""

    @pytest.mark.parametrize("kind, quad", [("interval", 600),
                                            ("box2", None)])
    def test_iterations_allocate_no_row_of_grid_values(self, kind, quad,
                                                       monkeypatch):
        n = np.arange(1, 9)
        op = make_operator(CATALOG[kind])
        p = problem(op, 1.5, 1.0 / n ** 2, np.zeros(8),
                    NonlinearitySpec("power", {"c": 1.0, "r": 3.0}))
        cfg = PicardConfig(tol=1e-300, max_iter=8,
                           nonlinearity_quadrature=quad)
        W = 10
        ws = semilinear_solver._Workspace(p, np.linspace(0.0, 0.1, W + 1),
                                          cfg)
        F = ws.apply_rows(p.u0.coeffs[None])
        R = ws.trust_radius(cfg, p.u0.coeffs, p.u1.coeffs)
        # from the first iteration's sums on, the traced peak over the
        # traced memory there, at every later iteration's sums
        start, peaks = [], []
        sums = semilinear_solver._causal_sums

        def traced(*args):
            if start:
                peaks.append(tracemalloc.get_traced_memory()[1] - start[0])
            else:
                tracemalloc.reset_peak()
                start.append(tracemalloc.get_traced_memory()[0])
            return sums(*args)

        monkeypatch.setattr(semilinear_solver, "_causal_sums", traced)
        tracemalloc.start()
        try:
            ws.window_solve(0, W, F, cfg, R)
        except WindowFailure:
            pass
        finally:
            tracemalloc.stop()
        row_bytes = ws.colloc.w.size * 8
        assert len(peaks) >= 4
        assert max(peaks) < row_bytes


def causal_sum(f, B, A):
    """The causal Volterra sum written out panel by panel: at node i in
    1..K, sum_{l < i} f[i-1-l] B[l] + f[i-l] A[l]."""
    return np.array([sum(f[i - 1 - l] * B[l] + f[i - l] * A[l]
                         for l in range(i)) for i in range(1, len(f))])


def merged(B, A):
    """The (table, boundary) pair _KernelTable.weights lays out from the
    panel weights (B, A): C[0] = A[0], C[m] = B[m-1] + A[m], reversed
    before zeros, and B behind one zero."""
    C = A.copy()
    C[..., 1:] += B[..., :-1]
    boundary = np.zeros(B.shape[:-1] + (B.shape[-1] + 1,))
    boundary[..., 1:] = B
    return _toeplitz_table(C), boundary


def table_sums(F, B, A):
    """_known_sums of F at nodes 1..K over the merged weights of the
    first K panels of (B, A), K + 1 the length of F's rows."""
    K = F.shape[-1] - 1
    return _known_sums(merged(B[..., :K], A[..., :K]), F, 1, K)


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
        # the K by K view at lag 0 of a P-panel table sums every forcing
        # byte for byte as that of a K-panel table does, and copies nothing
        K = min(K, P)
        rng = np.random.default_rng(seed)
        B, A = rng.standard_normal((2, *lead, modes, P))
        view = _toeplitz(merged(B, A)[0], 0, K, K)
        assert not view.flags.owndata and not view.flags.writeable
        short = _toeplitz(merged(B[..., :K], A[..., :K])[0], 0, K, K)
        for _ in range(3):
            F = rng.standard_normal((modes, K))
            assert (_causal_sums(view, F).tobytes()
                    == _causal_sums(short, F).tobytes())

    def test_one_plan_per_window_attempt(self, monkeypatch):
        # an attempt builds its window view, and its memory view after
        # t = 0 unless a failed attempt from the same start built it,
        # once; its iterations only sum against them.  The memory's view
        # and sums are made in linear_solver (_known_sums), the window's
        # here: both modules' names are counted
        calls = {"views": 0, "sums": 0}

        def counted(name, fn):
            def wrapped(*args):
                calls[name] += 1
                return fn(*args)
            return wrapped

        for module in (semilinear_solver, linear_solver):
            monkeypatch.setattr(module, "_toeplitz",
                                counted("views", module._toeplitz))
            monkeypatch.setattr(module, "_causal_sums",
                                counted("sums", module._causal_sums))
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
        starts = [ia for ia, *_ in attempts]
        assert len(set(starts)) < len(starts)
        assert all(views == 1 + (ia > 0 and ia not in starts[:k])
                   for k, (ia, views, _) in enumerate(attempts))
        assert sum(sums for *_, sums in attempts) > 3 * len(attempts)

    @settings(max_examples=60, derandomize=True, database=None,
              deadline=None)
    @given(K=st.integers(1, 60), ia=st.integers(0, 59),
           W=st.integers(1, 60), seed=st.integers(0, 2 ** 32 - 1))
    def test_window_split_is_the_causal_sum(self, K, ia, W, seed):
        # the full-grid sum, and at the nodes of a window from ia the
        # terms in F[0..ia] (boundary and memory, as _Workspace.memory
        # makes them) plus the window's own sum against F[ia+1..ia+W],
        # are each the panel-by-panel sum
        ia = min(ia, K - 1)
        W = min(W, K - ia)
        rng = np.random.default_rng(seed)
        F = rng.standard_normal((3, K + 1))
        B, A = rng.standard_normal((2, 2, 3, K))
        weights = merged(B, A)
        full = _known_sums(weights, F, 1, K)
        known = _known_sums(weights, F[:, :ia + 1], ia, W + 1)
        split = known[..., 1:] + _causal_sums(
            _toeplitz(weights[0], 0, W, W), F[:, ia + 1:ia + W + 1])
        for s in range(2):
            for m in range(3):
                want = causal_sum(F[m], B[s, m], A[s, m])
                scale = causal_sum(np.abs(F[m]), np.abs(B[s, m]),
                                   np.abs(A[s, m]))
                assert np.all(np.abs(full[s, m] - want) <= 1e-14 * scale)
                # nodes ia + 1..ia + W, and node ia, whose sum is all known
                rows = slice(ia, ia + W)
                assert np.all(np.abs(split[s, m] - want[rows])
                              <= 1e-14 * scale[rows])
                if ia > 0:
                    assert (abs(known[s, m, 0] - want[ia - 1])
                            <= 1e-14 * scale[ia - 1])

    @pytest.mark.parametrize("ia, W", [(1, 1), (3, 5), (40, 12)])
    def test_memory_term_matches_correlate(self, ia, W):
        # the memory of the accepted samples F[1..ia]: the view at lag
        # ia - 1, whose row k pairs C[ia + k - j] with F[j]
        rng = np.random.default_rng(ia + W)
        P = ia + W + 2
        C = rng.standard_normal((2, 4, P))
        F = rng.standard_normal((4, ia + 1))
        view = _toeplitz(_toeplitz_table(C), ia - 1, W + 1, ia)
        got = _causal_sums(view, F[:, 1:])
        assert got.shape == (2, 4, W + 1)
        for s in range(2):
            for m in range(4):
                w, f = C[s, m, :ia + W], F[m, ia:0:-1]
                want = np.correlate(w, f, "valid")
                scale = np.correlate(np.abs(w), np.abs(f), "valid")
                assert np.all(np.abs(got[s, m] - want) <= 1e-14 * scale)

    @pytest.mark.parametrize("W", [1, 6, 12])
    def test_sums_into_buffers_are_the_allocating_sums(self, W):
        # the window's buffers, terms laid out (time, mode) and stale
        # contents included, give the bits of the allocating call
        rng = np.random.default_rng(W)
        P = W + 5
        table = _toeplitz_table(rng.standard_normal((2, 5, P)))
        F = rng.standard_normal((W + 1, 5))[1:].T
        view = _toeplitz(table, 0, W, W)
        terms = np.full((2, W, 5), np.nan)
        got = _causal_sums(view, F, terms.swapaxes(1, 2))
        assert np.shares_memory(got, terms)
        assert (np.ascontiguousarray(got).tobytes()
                == _causal_sums(view, F).tobytes())


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
        {"window_init": math.inf},
        {"max_iter": 2.5},
        {"max_iter": 50.0},
        {"max_iter": "50"},
        {"nonlinearity_quadrature": math.inf},
        {"nonlinearity_quadrature": math.nan},
    ])
    def test_rejects(self, kw):
        with pytest.raises(ConfigError):
            PicardConfig(**kw).validate()

    def test_integer_types_are_admitted(self):
        PicardConfig(max_iter=np.int64(5)).validate()
        PicardConfig(nonlinearity_quadrature=np.int64(40)).validate()

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
    stacked-norm loop, on the merged weights: the base holds every term
    of the sums in F[0..ia], the boundary's and, after t = 0, the memory
    view's; the iterate starts from it less the known end of the window's
    first panel, B[k-1] F[ia]; per iteration f(u) of the iterate by a
    fresh _Collocation, the window view's sums against Fw[1:], copied to
    contiguous mode rows, added to fresh copies of the base, and the
    norms of the change and of the iterate by weighted_norm over
    np.stack'ed pairs.  Returns window_solve's tuple, or the reason it
    fails with."""
    p = ws.p
    W = ib - ia
    table, boundary = ws.weights

    def norms_of(U, DTU):
        return (weighted_norm(U, ws.lam, 1.0 / p.alpha)
                + weighted_norm(DTU, ws.lam, 0.0))

    def f_rows(U):
        return semilinear_solver._Collocation(p.op, p.N, ws.panels)(
            p.nonlinearity.apply, U)

    with np.errstate(over="ignore", invalid="ignore"):
        base_u = ws.hom[0, ia:ib + 1].copy()
        base_dtu = ws.hom[1, ia:ib + 1].copy()
        mem = boundary[..., ia:ib + 1] * F_hist[0][:, None]
        if ia > 0:
            mem = mem + _causal_sums(_toeplitz(table, ia - 1, W + 1, ia),
                                     np.ascontiguousarray(F_hist[1:].T))
        base_u += mem[0].T
        base_dtu += mem[1].T
        window = _toeplitz(table, 0, W, W)
        edge = (boundary[..., 1:W + 1] * F_hist[ia][:, None]).swapaxes(1, 2)
        U, DTU = base_u.copy(), base_dtu.copy()
        U[1:] = base_u[1:] - edge[0]
        DTU[1:] = base_dtu[1:] - edge[1]
        Fw = np.empty((W + 1, p.N))
        Fw[0] = F_hist[ia]
        prev_d = None
        for it in range(1, cfg.max_iter + 1):
            try:
                Fw[1:] = f_rows(U[1:])
            except OverflowSignal as sig:
                return str(sig)
            new = _causal_sums(window, np.ascontiguousarray(Fw[1:].T))
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
        u, dtu = ws.hom[:, ia]
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


def poison_call(monkeypatch, call):
    """Make the maps NonlinearitySpec.pointwise returns from now on write
    inf everywhere on the call-th call, counted over all of them."""
    pointwise = NonlinearitySpec.pointwise
    calls = []

    def poisoned(spec):
        fmap = pointwise(spec)

        def counted(vals, out=None):
            got = fmap(vals, out=out)
            calls.append(len(vals))
            if len(calls) == call:
                got[...] = np.inf
            return got
        return counted

    monkeypatch.setattr(NonlinearitySpec, "pointwise", poisoned)


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

    @pytest.mark.parametrize("grid", [
        [0.0], np.linspace(0.0, 1.1, 12).reshape(3, 4),
        [0.0, 0.1, 0.3, 0.6]])
    def test_grid_is_checked_as_the_linear_solvers_are(self, grid):
        # a one-node grid once raised IndexError and a 2-D one TypeError;
        # the non-uniform grid was accepted for (0, 0.1), its first step,
        # although the kernel weights assume one step throughout
        op = interval_op()
        p = problem(op, 1.5, [1.0], [0.0],
                    NonlinearitySpec("sine", {"c": 0.2}))
        with pytest.raises(DomainError, match="grid"):
            picard_window(p, (0.0, 0.1), grid, PicardConfig(), None)

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

    def test_overflowing_history_is_refused(self):
        # without history_forcing, f(u) of the history's u rows is the
        # memory's forcing; rows whose f(u) overflows are refused, as run
        # refuses initial data that overflow
        p = problem(interval_op(), 1.5, [1.0, 0.5, 0.0, 0.0], [0.0] * 4,
                    NonlinearitySpec("power", {"c": 1.0, "r": 3.0}))
        hist = SimpleNamespace(u_coeffs=np.full((3, 4), 1e200),
                               dtu_coeffs=np.zeros((3, 4)))
        with pytest.raises(DomainError, match="history"):
            picard_window(p, (0.2, 0.4), np.linspace(0.0, 1.0, 11),
                          PicardConfig(), hist)

    def test_non_finite_forcing_at_the_accept_step_fails_the_window(
            self, monkeypatch):
        # the window 0..10 converges in 5 iterations; a map that returns
        # inf on the call after the last iteration's, which collocates
        # the accepted iterate, fails the window with the collocation's
        # reason: no OverflowSignal leaves picard_window or run
        p = problem(interval_op(), 1.5, [0.5, 0.1, -0.05, 0.02], [0.0] * 4,
                    NonlinearitySpec("power", {"c": 1.0, "r": 3.0}))
        grid = np.linspace(0.0, 0.1, 11)
        iters = picard_window(p, (0.0, 0.1), grid, PicardConfig(),
                              None)["iterations"]
        assert iters == 5
        # one call for the forcing at t = 0, one per iteration
        poison_call(monkeypatch, 1 + iters + 1)
        with pytest.raises(WindowFailure, match="non-finite"):
            picard_window(p, (0.0, 0.1), grid, PicardConfig(), None)
        # run's first window is one step, accepted at iteration 4: a
        # failure there is a maximal time at t = 0
        first = run(p, 0.1, PicardConfig(), 0.01).windows[0]
        assert (first.start, first.end, first.iterations) == (0.0, 0.01, 4)
        poison_call(monkeypatch, 1 + first.iterations + 1)
        out = run(p, 0.1, PicardConfig(), 0.01)
        assert (out.status, out.T_est) == ("maximal_time_detected", 0.0)

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


def scalar_entry_points():
    """{name: (call, finite arguments)}: public calls taking scalar float
    arguments, each of which is refused when it is not finite."""
    op = interval_op()
    box = make_operator(CATALOG["box2"])
    p = problem(op, 1.5, [0.5, 0.1], [0.0, 0.0],
                NonlinearitySpec("sine", {"c": 0.2}))
    grid = np.linspace(0.0, 0.4, 5)
    return {
        "kernel_moment": (lambda a, lam, h: kernel_moment(a, lam, h, 1),
                          (1.5, 2.0, 0.1)),
        "deriv_kernel_moment": (
            lambda a, lam, h: deriv_kernel_moment(a, lam, h, 0),
            (1.5, 2.0, 0.1)),
        "ml_identity_residuals": (ml_identity_residuals,
                                  (1.5, 2.0, 1.0, 0.01)),
        "eigenvalue": (op.eigenvalue, (3,)),
        "eigenfunction": (op.eigenfunction, (2, 0.5)),
        "box eigenfunction": (lambda n, x, y: box.eigenfunction(n, [x, y]),
                              (2, 0.3, 1.5)),
        "evaluate": (lambda x: evaluate(field(op, [1.0, 0.5]), x), (1.0,)),
        "box evaluate": (lambda x, y: evaluate(field(box, [1.0, 0.5]),
                                               [x, y]), (0.3, 1.5)),
        "picard_window": (lambda ta, tb: picard_window(
            p, (ta, tb), grid, PicardConfig(), None), (0.0, 0.2)),
    }


class TestNonFiniteScalars:
    CALLS = scalar_entry_points()

    @settings(max_examples=200, derandomize=True, database=None,
              deadline=None)
    @given(name=st.sampled_from(sorted(CALLS)), data=st.data())
    def test_non_finite_argument_raises_a_library_error(self, name, data):
        # any nan or infinity in any of the scalar arguments, alone or
        # with others, ends in an MLWaveError subclass, never in numpy's
        # or Python's own error nor in a nan result; the finite arguments
        # are taken
        call, args = self.CALLS[name]
        call(*args)
        bad = st.sampled_from((math.nan, math.inf, -math.inf))
        picks = data.draw(st.lists(st.one_of(st.none(), bad),
                                   min_size=len(args), max_size=len(args))
                          .filter(lambda v: any(x is not None for x in v)))
        with pytest.raises(MLWaveError):
            call(*(a if x is None else x for a, x in zip(args, picks)))


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

    @pytest.mark.parametrize("first", [8, semilinear_solver._EXTENT_MIN])
    def test_rows_built_only_as_far_as_the_run_reaches(self, monkeypatch,
                                                       first):
        # a blow-up run that stops at node 59 of 200 hands ml_rows each
        # node once, in order, and none past twice the node it stops at,
        # extending its first extent at least once; a run that completes
        # its 200 steps hands it each node once, in order, in more than
        # one call.  Each run's trace, windows and T_est are byte for
        # byte those of a run built on the whole grid at once.
        n = np.arange(1, 9)
        blowup = (problem(interval_op(), 1.5, [20.0, 0.1, -0.05, 0.02],
                          [0.0] * 4,
                          NonlinearitySpec("power", {"c": 1.0, "r": 3.0})),
                  0.1, 0.0005, "maximal_time_detected")
        sine = (problem(interval_op(), 1.5, 1.0 / n ** 2, 0.5 / n ** 2,
                        NonlinearitySpec("sine", {"c": 0.3})),
                2.0, 0.01, "completed")
        heads = []
        ml_rows = linear_solver.ml_rows

        def rows(alpha, bs, x, scalar):
            heads.append(x[0])
            return ml_rows(alpha, bs, x, scalar)

        monkeypatch.setattr(linear_solver, "ml_rows", rows)
        for p, T, dt, status in (blowup, sine):
            monkeypatch.setattr(semilinear_solver, "_EXTENT_MIN", first)
            heads.clear()
            lazy = run(p, T, PicardConfig(), dt)
            monkeypatch.setattr(semilinear_solver, "_EXTENT_MIN", 10 ** 6)
            heads_lazy, heads[:] = list(heads), []
            # the whole-grid run builds cold, not from the lazy run's rows
            linear_solver._STORE.clear()
            whole = run(p, T, PicardConfig(), dt)
            x = np.concatenate(heads_lazy)
            M = round(T / dt)
            assert lazy.status == status
            assert np.all(np.diff(x) < 0.0)
            assert len(heads_lazy) > 1
            if status == "completed":
                assert len(x) == M + 1
            else:
                stop = round(lazy.T_est / dt)
                assert stop < len(x) <= 2 * stop
            assert [len(h) for h in heads] == [M + 1]
            assert whole.T_est == lazy.T_est
            assert whole.windows == lazy.windows
            for key in ("times", "u_coeffs", "dtu_coeffs", "dalpha_coeffs"):
                assert (getattr(whole.trace, key).tobytes()
                        == getattr(lazy.trace, key).tobytes())
            for key, series in whole.trace.norm_series.items():
                assert (series.tobytes()
                        == lazy.trace.norm_series[key].tobytes())

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

    @staticmethod
    def one_pass_matches_the_windows(kind, amp, threshold, seed):
        """Run a catalog problem from a cold store, check that its one
        estimate after the loop is the largest of the per-window
        estimates on each accepted window's kept rows, and that the
        doubled rule's collocation holds no more rows than the widest of
        them; return whether the last window breached the threshold."""
        linear_solver._STORE.clear()
        op = make_operator(CATALOG[kind])
        f = NonlinearitySpec("power", {"c": 1.0,
                                       "r": 3.0 if kind == "interval"
                                       else 2.0})
        n = np.arange(1, 9)
        u0 = np.random.default_rng(seed).uniform(-0.5, 0.5, 8) / n ** 2
        u0[0] = amp
        p = problem(op, 1.5, u0, np.zeros(8), f)
        dt = 5e-4 if kind == "interval" else 5e-3
        cfg = PicardConfig(blowup_threshold=threshold)
        out = run(p, 0.1, cfg, dt)
        panels = spectral_operator._rule_panels(cfg.quadrature(p.N))
        fmap, U = f.pointwise(), out.trace.u_coeffs
        want, widest = 0.0, 0
        for w in out.windows:
            kept = U[round(w.start / dt) + 1:round(w.end / dt) + 1]
            # each row's f(u) is its own, so these are the run's rows
            F = semilinear_solver._Collocation(op, p.N, panels)(fmap, kept)
            try:
                got = semilinear_solver._aliasing(
                    semilinear_solver._Collocation(op, p.N, 2 * panels),
                    fmap, kept, F)
            except OverflowSignal:
                got = math.inf
            want, widest = max(want, got), max(widest, len(kept))
        assert out.aliasing_est == want
        doubled = linear_solver._STORE.get((op, p.N, 2 * panels))
        assert (doubled is None) == (not out.windows)
        assert doubled is None or doubled.rows <= widest
        norms = out.trace.norm_series
        return norms["u_Vgamma"][-1] + norms["dtu_L2"][-1] > threshold

    @settings(max_examples=12, derandomize=True, database=None,
              deadline=None)
    @given(kind=st.sampled_from(("interval", "box2")),
           amp=st.sampled_from((1.0, 5.0, 20.0)),
           threshold=st.sampled_from((1e8, 300.0, 60.0)),
           seed=st.integers(0, 2 ** 32 - 1))
    @example(kind="interval", amp=20.0, threshold=300.0, seed=0)
    def test_one_pass_is_the_largest_window_estimate(self, kind, amp,
                                                     threshold, seed):
        self.one_pass_matches_the_windows(kind, amp, threshold, seed)

    def test_one_pass_covers_a_breached_last_window(self):
        # the run stops inside its last window, whose rows past the
        # breach are not kept
        assert self.one_pass_matches_the_windows("interval", 20.0, 300.0, 0)


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

    @pytest.mark.parametrize("kind", ["interval", "box2"])
    def test_sup_grid_tables_are_built_once(self, kind, monkeypatch):
        # the sup grid's factor tables are the operator's, read-only,
        # built on the first check and the bytes of a build on the grid;
        # every check gives the norm of the old per-check build
        op = make_operator(CATALOG[kind])
        n = np.arange(1, 9)
        p = problem(op, 1.5, 0.2 / n ** 2, 0.1 / n ** 2,
                    NonlinearitySpec("power", {"c": 1.0, "r": 2.0}))
        out = run(p, 0.05, PicardConfig(), 0.01)
        nodes = 513 if op.dim == 1 else 65
        axes = [np.linspace(lo, hi, nodes) for lo, hi in op.domain_box]
        fresh = op.factors(p.N, axes)
        vals = synthesis(fresh, out.trace.u_coeffs)
        sup = np.abs(vals).reshape(len(vals), -1).max(axis=1)
        want = float(np.trapezoid(sup ** 2.0, out.trace.times)) ** 0.5
        built = []
        factors = op.factors

        def counted(N, at):
            built.append(N)
            return factors(N, at)

        monkeypatch.setattr(op, "factors", counted)
        for _ in range(3):
            assert strong_solution_check(out, p, 2.0, 2.0)["norm"] == want
        assert built == [p.N]
        held = op.uniform_factors(p.N, nodes)
        for got, arr in zip((*held.tables, held.index),
                            (*fresh.tables, fresh.index)):
            if arr is None:
                assert got is None
                continue
            assert got.tobytes() == arr.tobytes()
            with pytest.raises(ValueError, match="read-only"):
                got[...] = 0.0

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


class TestRepeatedRuns:
    """Runs in one process borrow, one after another, the kernel table
    of their grid, and share the bound probe's memo, and keep every bit
    of a run in a fresh process."""

    @staticmethod
    def cold():
        linear_solver._STORE.clear()
        mittag_leffler.ml_bound_probe.cache_clear()

    @staticmethod
    def rows_held():
        (kt,) = [e for e in linear_solver._STORE.values()
                 if isinstance(e, linear_solver._KernelTable)]
        return {build.arr.shape[-1] for build in kt._builds
                if build.betas is not None}

    def test_warm_runs_are_cold_runs_byte_for_byte(self):
        # a blow-up run stops near node 59 of 200 and leaves rows short of
        # the grid; a run that completes reads them cut to its first
        # prefix of 64 nodes, then extends them to node 200; the blow-up
        # run again reads those longer rows cut to its prefix
        power = NonlinearitySpec("power", {"c": 1.0, "r": 3.0})
        short = problem(interval_op(), 1.5, [20.0, 0.1, -0.05, 0.02],
                        [0.0] * 4, power)
        whole = problem(interval_op(), 1.5, [1.0, 0.1, -0.05, 0.02],
                        [0.0] * 4, power)

        def solve(p):
            return outcome_bytes(run(p, 0.1, PicardConfig(), 0.0005))

        self.cold()
        want_short = solve(short)
        self.cold()
        want_whole = solve(whole)
        assert want_short[0] == "maximal_time_detected"
        assert want_whole[0] == "completed"
        self.cold()
        assert solve(short) == want_short
        assert max(self.rows_held()) < 201
        assert solve(whole) == want_whole
        assert self.rows_held() == {201}
        assert solve(short) == want_short
        assert solve(whole) == want_whole
        assert mittag_leffler.ml_bound_probe.cache_info().currsize == 1


def at_once(work, count):
    """Run work(0), ..., work(count - 1) in threads at once, switching
    between them often, each joined within two minutes."""
    threads = [threading.Thread(target=work, args=(k,)) for k in range(count)]
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(switch)
    assert not any(t.is_alive() for t in threads)


class TestCollocationStore:
    """A run borrows the idle collocations of its operator's rule and
    doubled rule from the store and hands them back; their buffers and
    tiled weights carry over, and each call is given its pointwise map."""

    BOX = dict(alpha=1.25, T=0.1, dt=0.01)
    MAPS = [NonlinearitySpec("power", {"c": 1.0, "r": 2.0}),
            NonlinearitySpec("power", {"c": 0.5, "r": 3.0}),
            NonlinearitySpec("sine", {"c": 0.7}),
            NonlinearitySpec("power", {"c": 1.0, "r": 2.0})]

    @staticmethod
    def cold():
        linear_solver._STORE.clear()
        mittag_leffler.ml_bound_probe.cache_clear()

    def box_problem(self, f, scale=1.0):
        n = np.arange(1, 9)
        return problem(make_operator(CATALOG["box2"]), self.BOX["alpha"],
                       0.2 * scale / n ** 2, 0.1 * scale / n ** 2, f)

    def solve(self, p):
        return outcome_bytes(run(p, self.BOX["T"], PicardConfig(),
                                 self.BOX["dt"]))

    @staticmethod
    def idle():
        """The store's entries other than kernel tables."""
        return {k: e for k, e in linear_solver._STORE.items()
                if not isinstance(e, linear_solver._KernelTable)}

    def test_each_map_after_another_is_its_cold_run(self):
        cold = []
        for f in self.MAPS:
            self.cold()
            cold.append(self.solve(self.box_problem(f)))
        assert len(set(map(repr, cold))) == 3
        self.cold()
        held = None
        for f, want in zip(self.MAPS, cold):
            p = self.box_problem(f)
            assert self.solve(p) == want
            panels = spectral_operator._rule_panels(
                PicardConfig().quadrature(p.N))
            assert set(self.idle()) == {(p.op, p.N, panels),
                                        (p.op, p.N, 2 * panels)}
            # the same collocations, lent again and handed back
            if held is not None:
                assert self.idle() == held
            held = self.idle()

    def test_concurrent_runs_give_serial_bytes(self):
        # three threads, more than the cores, solve different maps on one
        # operator at once, each several times, switching often; a run
        # that finds the collocations lent builds its own, and every run
        # reads whole kernel rows
        maps = self.MAPS[:3]
        serial = []
        for f in maps:
            self.cold()
            serial.append(self.solve(self.box_problem(f)))
        self.cold()
        start = threading.Barrier(len(maps))
        got = [[] for _ in maps]
        failed = []

        def work(k):
            try:
                start.wait()
                for _ in range(4):
                    got[k].append(self.solve(self.box_problem(maps[k])))
            except Exception as exc:    # reported by the main thread
                failed.append(exc)

        at_once(work, len(maps))
        assert not failed
        for want, runs in zip(serial, got):
            assert runs == [want] * 4
        assert len(self.idle()) == 2

    def test_concurrent_runs_extending_one_grid_give_serial_bytes(self):
        # three runs on one grid from a cold store: they stop near nodes
        # 59 and 100, or complete, so each extends the kernel rows its own
        # way while the others read and extend them
        power = NonlinearitySpec("power", {"c": 1.0, "r": 3.0})
        probs = [problem(interval_op(), 1.5, [u, 0.1, -0.05, 0.02],
                         [0.0] * 4, power) for u in (20.0, 1.0, 12.0)]

        def solve(p):
            return outcome_bytes(run(p, 0.1, PicardConfig(), 0.0005))

        serial = []
        for p in probs:
            self.cold()
            serial.append(solve(p))
        for _ in range(6):
            self.cold()
            start = threading.Barrier(len(probs))
            got, failed = [None] * len(probs), []

            def work(k):
                try:
                    start.wait()
                    got[k] = solve(probs[k])
                except Exception as exc:    # reported by the main thread
                    failed.append(exc)

            at_once(work, len(probs))
            assert not failed
            assert got == serial

    def test_repeated_windows_leave_one_idle_collocation_per_rule(self):
        p = self.box_problem(self.MAPS[1])
        grid = np.linspace(0.0, 0.1, 11)
        cfg = PicardConfig()
        panels = spectral_operator._rule_panels(cfg.quadrature(p.N))
        first = None
        for _ in range(3):
            got = picard_window(p, (0.0, 0.05), grid, cfg, None)
            assert set(self.idle()) == {(p.op, p.N, panels)}
            if first is None:
                first = got
            for key in ("u_coeffs", "dtu_coeffs", "forcing_coeffs"):
                assert got[key].tobytes() == first[key].tobytes()
        # a failed window hands them back too
        with pytest.raises(WindowFailure):
            picard_window(p, (0.0, 0.05), grid,
                          PicardConfig(max_iter=1, tol=1e-300), None)
        assert len(self.idle()) == 1

    def test_only_an_aliasing_estimate_builds_the_doubled_rule(self):
        # picard_window makes no aliasing estimate, so it neither borrows
        # nor builds the doubled rule's collocation; a run that accepts a
        # window estimates its aliasing there
        p = self.box_problem(self.MAPS[1])
        cfg = PicardConfig()
        panels = spectral_operator._rule_panels(cfg.quadrature(p.N))
        picard_window(p, (0.0, 0.05), np.linspace(0.0, 0.1, 11), cfg, None)
        assert set(p.op._rules) == {(p.N, panels)}
        assert set(self.idle()) == {(p.op, p.N, panels)}
        assert run(p, self.BOX["T"], cfg, self.BOX["dt"]).windows
        assert set(p.op._rules) == {(p.N, panels), (p.N, 2 * panels)}
        assert set(self.idle()) == {(p.op, p.N, panels),
                                    (p.op, p.N, 2 * panels)}

    def test_buffers_hold_the_rows_windows_asked_for(self, monkeypatch):
        # a blow-up run on a 200-step grid stops near node 59: each idle
        # collocation holds buffers for the most rows a call asked of it,
        # the bytes of a new one asked for that many, not for the longest
        # window the grid admits
        bind = semilinear_solver._Collocation.bind
        asked = {}

        def recorded(colloc, fmap, C, out):
            asked[colloc.key] = max(asked.get(colloc.key, 0), len(C))
            return bind(colloc, fmap, C, out)

        monkeypatch.setattr(semilinear_solver._Collocation, "bind", recorded)
        p = problem(interval_op(), 1.5, [20.0, 0.1, -0.05, 0.02], [0.0] * 4,
                    NonlinearitySpec("power", {"c": 1.0, "r": 3.0}))
        out = run(p, 0.1, PicardConfig(), 0.0005)
        assert out.status == "maximal_time_detected"
        assert set(self.idle()) == set(asked)
        for key, colloc in self.idle().items():
            rows = asked[key]
            assert colloc.rows == rows < 200
            fresh = semilinear_solver._Collocation(*key)
            bind(fresh, np.positive, np.zeros((rows, p.N)),
                 np.empty((rows, p.N)))
            assert colloc.nbytes == fresh.nbytes

    def test_runs_on_equal_listed_entries_share_their_collocations(self):
        # each run makes its operator from a new entry whose lengths are a
        # list: the entries are equal, so the runs borrow one collocation
        # per rule
        n = np.arange(1, 9)
        for _ in range(5):
            op = make_operator(OperatorSpecConfig(
                kind="dirichlet_laplacian_box", lengths=[1.0, 2.0]))
            self.solve(problem(op, self.BOX["alpha"], 0.2 / n ** 2,
                               0.1 / n ** 2, self.MAPS[0]))
        assert len(self.idle()) == 2

    def test_store_stays_under_its_budget(self, monkeypatch):
        # a budget below what six runs on two operators keep: kernel
        # entries and idle collocations are evicted least recently used
        # first, and every run keeps its cold bytes
        cap = 1_000_000
        monkeypatch.setattr(linear_solver, "_STORE_BYTES", cap)
        store = linear_solver._STORE
        hand_back, evicted = linear_solver._hand_back, set()

        def checked(key, obj):
            before = dict(store)
            hand_back(key, obj)
            evicted.update(
                "kernel" if isinstance(e, linear_solver._KernelTable)
                else "idle" for k, e in before.items() if k not in store)

        for module in (linear_solver, semilinear_solver):
            monkeypatch.setattr(module, "_hand_back", checked)
        power = NonlinearitySpec("power", {"c": 1.0, "r": 3.0})
        interval = problem(interval_op(), 1.5, [1.0, 0.1, -0.05, 0.02],
                           [0.0] * 4, power)
        box = self.box_problem(power, scale=0.5)
        runs = [(box, 0.1, 0.01), (interval, 0.1, 0.0005),
                (box, 0.1, 0.005), (interval, 0.05, 0.0005),
                (box, 0.1, 0.01), (interval, 0.1, 0.0005)]
        cold = []
        for p, T, dt in runs:
            self.cold()
            cold.append(outcome_bytes(run(p, T, PicardConfig(), dt)))
        self.cold()
        for (p, T, dt), want in zip(runs, cold):
            assert outcome_bytes(run(p, T, PicardConfig(), dt)) == want
            assert sum(e.nbytes for e in store.values()) <= cap
        assert evicted == {"idle", "kernel"}
        # idle collocations of both operators are held again by later runs
        assert {k[0] for k in self.idle()} == {box.op, interval.op}
        # an object alone past the budget is never held, one at it is
        self.cold()
        linear_solver._hand_back("past", SimpleNamespace(nbytes=cap + 1))
        at = SimpleNamespace(nbytes=cap)
        linear_solver._hand_back("at", at)
        assert dict(store) == {"at": at}

    def test_idle_collocations_outlive_an_older_kernel_entry(self,
                                                             monkeypatch):
        # one least-recently-used order over kernel entries and idle
        # collocations: past the budget, the kernel entry a run last used
        # before it handed its collocations back goes first, and they stay
        p = self.box_problem(self.MAPS[0])
        lam, later = p.op.eigenvalues(p.N), np.linspace(0.0, 1.0, 101)

        def table():
            kt = linear_solver._KernelTable.lend(1.5, later)
            kt.weights(lam)
            linear_solver._hand_back(kt.key, kt)

        table()
        size = sum(e.nbytes for e in linear_solver._STORE.values())
        self.cold()
        self.solve(p)
        idle = self.idle()
        assert len(idle) == 2
        held = sum(e.nbytes for e in linear_solver._STORE.values())
        monkeypatch.setattr(linear_solver, "_STORE_BYTES", held + size - 1)
        table()
        assert self.idle() == idle
        assert [k for k in linear_solver._STORE if k not in idle] == [
            (1.5, later.tobytes())]
