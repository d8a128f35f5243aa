import importlib.util
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from scipy.integrate import quad
from scipy.special import rgamma

from mlwave import (
    AccuracyError,
    DomainError,
    MLPrecision,
    MLQuery,
    MLWaveError,
    NumericOverflowError,
    deriv_kernel_moment,
    kernel_moment,
    ml_bound_probe,
    ml_e,
    ml_identity_residuals,
    ml_row,
    ml_rows,
)
from mlwave import mittag_leffler
from mlwave.mittag_leffler import (_cut_rows, _ml, _reduce_beta, _sinpi,
                                   kernel_moments)

from conftest import integer_alpha_ref, ml_ref, ml_ref_row, taylor_ref



def prop(examples):
    """Deterministic hypothesis settings that write no example database."""
    return settings(max_examples=examples, derandomize=True, database=None,
                    deadline=None)


def rel(a, b):
    return abs(a - b) / max(abs(b), 1e-300)


class TestClosedFormPoints:
    def test_value_at_origin_is_one_for_beta_one(self):
        assert ml_e(MLQuery(1.5, 1.0, 0.0)) == 1.0

    def test_cosine_case(self):
        assert rel(ml_e(MLQuery(2.0, 1.0, -4.0)), math.cos(2.0)) < 1e-14

    def test_exponential_case(self):
        assert rel(ml_e(MLQuery(1.0, 1.0, 1.0)), math.e) < 1e-14

    def test_frozen_reference_point(self):
        # independently computed extended-precision value, frozen
        assert rel(ml_e(MLQuery(1.5, 1.5, -2.0)), 0.4134096590549082) < 1e-12

    def test_origin_reciprocal_gamma_sweep(self):
        for alpha in (0.3, 0.7, 1.0, 1.3, 1.7, 2.0):
            for beta in (-1.5, -0.25, 0.5, 1.0, 2.5):
                got = ml_e(MLQuery(alpha, beta, 0.0))
                want = float(ml_ref(alpha, beta, 0.0))
                assert abs(got - want) <= 1e-12 * max(1.0, abs(want))


class TestOracleAgreement:
    @pytest.mark.parametrize("alpha", [0.4, 0.8, 1.0, 1.2, 1.5, 1.8, 2.0])
    def test_negative_axis_rows(self, alpha):
        betas = [0.5, 1.0, alpha, alpha + 1.0]
        xs = -np.logspace(-2, 4, 12)
        for beta in betas:
            ref = ml_ref_row(alpha, beta, xs)
            for x, rv in zip(xs, ref):
                got = _ml(alpha, float(beta), float(x))
                assert rel(got, rv) < 1e-10, (alpha, beta, x)

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5, 2.0])
    def test_positive_axis_rows(self, alpha):
        for beta in (0.5, 1.0, alpha + 0.5):
            for x in np.logspace(-1, 2, 8):
                if x ** (1.0 / alpha) > 250.0:
                    continue
                got = _ml(alpha, float(beta), float(x))
                assert rel(got, ml_ref(alpha, beta, float(x))) < 1e-10

    def test_negative_beta_band(self):
        for alpha in (1.15, 1.55, 1.95):
            for beta in (-1.5, -0.25, 0.1):
                for x in -np.logspace(-1, 3, 8):
                    got = _ml(alpha, beta, float(x))
                    assert rel(got, ml_ref(alpha, beta, float(x))) < 1e-10

    def test_integer_alpha_negative_beta(self):
        for alpha in (1.0, 2.0):
            for beta in (-1.5, -1.0, -0.25, 0.1):
                for x in (-0.5, -8.0, -30.0, -200.0):
                    got = _ml(alpha, beta, float(x))
                    assert rel(got, ml_ref(alpha, beta, float(x))) < 1e-10

    def test_far_negative_axis(self):
        for alpha, beta in ((1.2, 2.0), (1.7, 0.7), (0.6, 1.0)):
            for x in (-1e5, -1e6):
                got = _ml(alpha, beta, x)
                assert rel(got, ml_ref(alpha, beta, x)) < 1e-10


class TestSeriesBand:
    # alphas of the tools/ml_diff.py sweep: 1 and 2, the alpha of a known
    # cancelling point near a zero of E (-7.8e-6 at x = -2.4048, beta =
    # 0.5508), the smallest, and the one whose cancelling point past 1e-12
    # has the least sum of |terms|, 1.88e3 |E|
    ALPHAS = (1.0, 2.0, 0.6868799416180951, 0.20894890242695224,
              1.3118410277840893)

    def test_within_1e_12_where_the_terms_do_not_cancel(self):
        # the power series sums terms whose magnitudes add to S; their
        # rounding alone is about 1e-16 S, so where S >= 1e3 |E| the
        # certificate by the last term can pass a value past 1e-12 (the
        # known gap); everywhere else the value must be within 1e-12
        spec = importlib.util.spec_from_file_location(
            "ml_diff", Path(__file__).resolve().parent.parent / "tools"
            / "ml_diff.py")
        ml_diff = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(ml_diff)
        checked = 0
        for group, a, b, x in ml_diff.points():
            if group != "series" or a not in self.ALPHAS:
                continue
            want = ml_ref(a, b, x)
            if ml_diff.cancellation(a, b, x, want) >= 1e3:
                continue
            assert rel(ml_e(MLQuery(a, b, x)), want) <= 1e-12, (a, b, x)
            checked += 1
        assert checked > 400


class TestBoundednessProbe:
    def test_classical_exponential_sup(self):
        # (1+x) e^{-x} peaks at x = 0 with value 1
        assert abs(ml_bound_probe(1.0, 1.0, 100.0, 64) - 1.0) < 1e-12

    def test_probe_stable_under_refinement(self):
        for alpha, beta in ((1.5, 1.0), (1.9, 1.9)):
            c1 = ml_bound_probe(alpha, beta, 1e4, 256)
            c2 = ml_bound_probe(alpha, beta, 1e4, 512)
            assert math.isfinite(c1) and c1 > 0
            assert abs(c2 - c1) <= 0.01 * c1

    def test_grid_boundedness_invariant(self):
        for alpha in (1.2, 1.5, 1.8):
            for beta in (1.0, alpha, alpha - 1.0, 2.0):
                c_grid = ml_bound_probe(alpha, beta, 1e6, 512) * 1.01
                for x in np.logspace(-2, 6, 40):
                    v = (1.0 + x) * abs(_ml(alpha, beta, -float(x)))
                    assert v <= c_grid


    def test_probe_is_computed_once_per_arguments(self, monkeypatch):
        # a pure function of its four arguments: a repeated call reads the
        # first one's value, a refusal is raised again each time
        rows = []
        row = mittag_leffler.ml_row

        def counted(*args):
            rows.append(args[:2])
            return row(*args)

        monkeypatch.setattr(mittag_leffler, "ml_row", counted)
        first = ml_bound_probe(1.5, 1.5, 1e3, 64)
        assert ml_bound_probe(1.5, 1.5, 1e3, 64) == first
        assert rows == [(1.5, 1.5)]
        ml_bound_probe(1.5, 1.5, 1e3, 65)
        assert len(rows) == 2
        for _ in range(2):
            with pytest.raises(DomainError, match="x_max"):
                ml_bound_probe(1.5, 1.5, -1.0, 64)
        assert ml_bound_probe.cache_info().currsize == 2


class TestDerivativeIdentities:
    def test_residuals_small_at_moderate_step(self):
        r = ml_identity_residuals(1.5, 1.0, 1.0, 1e-4)
        assert all(v <= 1e-6 for v in r)

    def test_residuals_small_steep_case(self):
        r = ml_identity_residuals(1.2, 5.0, 0.3, 1e-5)
        assert all(v <= 1e-5 for v in r)

    def test_classical_limit_of_second_identity(self):
        # alpha -> 2: d/dt [t E_{2,2}(-t^2)] = cos t
        a = 2.0 - 1e-9
        _, r2, _ = ml_identity_residuals(a, 1.0, math.pi / 2, 1e-4)
        assert r2 <= 1e-6

    def test_central_difference_order(self):
        hs = [1e-3, 5e-4, 2.5e-4]
        for alpha in (1.25, 1.5, 1.75):
            for lam in (0.5, 1.0, 4.0):
                rs = [ml_identity_residuals(alpha, lam, 1.0, h) for h in hs]
                for j in range(3):
                    r0, r1 = rs[0][j], rs[1][j]
                    if r1 < 1e-13:       # round-off floor, order unmeasurable
                        continue
                    order = math.log2(r0 / r1)
                    assert order >= 1.9, (alpha, lam, j, order)

    def test_step_too_large_rejected(self):
        with pytest.raises(DomainError):
            ml_identity_residuals(1.5, 1.0, 0.1, 0.05)


class TestKernelMoments:
    def test_monomial_case_k0(self):
        from scipy.special import gamma
        assert rel(kernel_moment(1.5, 0.0, 1.0, 0), 1.0 / gamma(2.5)) < 1e-13

    def test_monomial_case_k1(self):
        from scipy.special import gamma
        want = 1.0 / (2.5 * gamma(1.5))
        assert rel(kernel_moment(1.5, 0.0, 1.0, 1), want) < 1e-13

    def test_against_adaptive_quadrature(self):
        for lam in (0.5, 5.0, 50.0):
            for k in (0, 1):
                for alpha, h in ((1.5, 0.5), (1.2, 1.0), (1.8, 0.25)):
                    val, _ = quad(
                        lambda s: s ** k * s ** (alpha - 1.0)
                        * _ml(alpha, alpha, -lam * s ** alpha),
                        0.0, h, epsabs=1e-14, epsrel=1e-11, limit=200)
                    got = kernel_moment(alpha, lam, h, k)
                    assert rel(got, val) < 1e-9, (alpha, lam, h, k)

    def test_derivative_kernel_against_quadrature(self):
        # integrand is weakly singular at 0, split the first panel
        for lam in (0.5, 5.0):
            for alpha, h in ((1.5, 0.5), (1.3, 1.0)):
                for k in (0, 1):
                    val, _ = quad(
                        lambda s: s ** k * s ** (alpha - 2.0)
                        * _ml(alpha, alpha - 1.0, -lam * s ** alpha),
                        0.0, h, epsabs=1e-14, epsrel=1e-11, limit=400,
                        points=[h * 1e-6, h * 1e-3])
                    got = deriv_kernel_moment(alpha, lam, h, k)
                    assert rel(got, val) < 1e-8, (alpha, lam, h, k)

    def test_lambda_zero_derivative_moment(self):
        from scipy.special import gamma
        # int_0^h s^(a-2)/Gamma(a-1) ds = h^(a-1)/Gamma(a)
        a, h = 1.5, 0.7
        assert rel(deriv_kernel_moment(a, 0.0, h, 0),
                   h ** (a - 1.0) / gamma(a)) < 1e-13

    @pytest.mark.parametrize("deriv", [False, True])
    def test_grid_moments_match_the_scalar_views(self, deriv):
        # one routine serves the kernel-table rows and the public views
        a, lam = 1.4, 3.0
        t = np.linspace(0.0, 2.0, 21)
        m0, m1 = kernel_moments(a, t, lambda b: ml_row(a, b, -lam * t ** a),
                                deriv)
        view = deriv_kernel_moment if deriv else kernel_moment
        for i in range(1, len(t)):
            for k, m in ((0, m0), (1, m1)):
                want = view(a, lam, float(t[i]), k)
                # ml_row and _ml agree to the evaluator's tolerance
                assert abs(m[i] - want) <= 1e-12 * abs(want), (i, k)

    def test_views_share_one_argument_check(self):
        for view in (kernel_moment, deriv_kernel_moment):
            for args in ((1.0, 1.0, 1.0, 0), (1.5, -1.0, 1.0, 0),
                         (1.5, 1.0, 0.0, 0), (1.5, 1.0, 1.0, 2)):
                with pytest.raises(DomainError):
                    view(*args)


class TestValidation:
    def test_alpha_out_of_range(self):
        with pytest.raises(DomainError):
            ml_e(MLQuery(2.5, 1.0, -1.0))
        with pytest.raises(DomainError):
            ml_e(MLQuery(0.0, 1.0, -1.0))

    def test_nonfinite_rejected(self):
        with pytest.raises(DomainError):
            ml_e(MLQuery(1.5, math.nan, -1.0))

    @pytest.mark.parametrize("moment", [kernel_moment, deriv_kernel_moment])
    @pytest.mark.parametrize("lam, h", [(math.nan, 0.1), (2.0, math.nan)])
    def test_nonfinite_moment_arguments_rejected(self, moment, lam, h):
        # a nan once reached the scalar evaluator, which raised ValueError
        with pytest.raises(DomainError, match="finite"):
            moment(1.5, lam, h, 0)

    @pytest.mark.parametrize("lam, t, h", [(math.nan, 1.0, 0.01),
                                           (2.0, math.nan, 0.01),
                                           (2.0, 1.0, math.nan)])
    def test_nonfinite_identity_arguments_rejected(self, lam, t, h):
        with pytest.raises(DomainError, match="finite"):
            ml_identity_residuals(1.5, lam, t, h)

    def test_overflow_on_large_positive_argument(self):
        with pytest.raises(NumericOverflowError):
            ml_e(MLQuery(0.25, 1.0, 100.0))

    def test_precision_invariants(self):
        with pytest.raises(DomainError):
            ml_e(MLQuery(1.5, 1.0, -1.0), MLPrecision(rel_tol=2.0))

    def test_scalar_evaluator_refuses_non_finite_argument(self):
        # a nan once reached int(nan) on the x > 0 branch, and inf
        # overflowed there
        for alpha, beta, x in ((1.5, 1.0, math.nan), (2.0, 4.0, math.nan),
                               (1.5, 1.0, math.inf), (1.5, 1.0, -math.inf)):
            with pytest.raises(DomainError, match="finite"):
                _ml(alpha, beta, x)

    def test_determinism(self):
        q = MLQuery(1.37, 0.81, -123.456)
        vals = {ml_e(q) for _ in range(5)}
        assert len(vals) == 1


def row_betas(alpha):
    return (1.0, 2.0, alpha - 1.0, alpha, alpha + 1.0, alpha + 2.0)


# arguments in [-1e6, 0], log-spread so every route is drawn
neg_args = st.lists(
    st.one_of(st.just(0.0),
              st.floats(-2.0, 6.0).map(lambda e: -(10.0 ** e))),
    min_size=1, max_size=12)


class TestMlRow:
    @prop(60)
    @given(alpha=st.floats(1.01, 1.999), which=st.integers(0, 5),
           xs=neg_args)
    def test_matches_scalar(self, alpha, which, xs):
        beta = row_betas(alpha)[which]
        got = ml_row(alpha, beta, np.array(xs))
        for x, g in zip(xs, got):
            want = _ml(alpha, beta, x)
            assert abs(g - want) <= 1e-12 * max(1.0, abs(want)), \
                (alpha, beta, x, g, want)

    @prop(40)
    @given(alpha=st.floats(1.01, 1.999), which=st.integers(0, 5),
           xs=neg_args, data=st.data())
    def test_elements_independent(self, alpha, which, xs, data):
        beta = row_betas(alpha)[which]
        x = np.array(xs)
        row = ml_row(alpha, beta, x)
        for i in range(len(x)):
            assert (ml_row(alpha, beta, x[i:i + 1]).tobytes()
                    == row[i:i + 1].tobytes())
        perm = np.array(data.draw(st.permutations(range(len(x)))))
        assert ml_row(alpha, beta, x[perm]).tobytes() == row[perm].tobytes()
        longer = np.concatenate([x, -np.logspace(-1, 5, 7)])
        assert ml_row(alpha, beta, longer)[:len(x)].tobytes() == row.tobytes()

    @pytest.mark.parametrize("alpha", [1.1, 1.5, 1.9])
    def test_long_row_is_chunk_independent(self, alpha):
        # long enough that both array routes work in several chunks
        x = -np.concatenate([np.logspace(-4, 0.5, 2500),
                             np.logspace(0.5, 6, 1500)])
        x = np.concatenate([x, x[::-1]])
        for beta in (alpha, alpha + 2.0):
            row = ml_row(alpha, beta, x)
            assert row[:4000].tobytes() == row[:3999:-1].tobytes()
            for i in (0, 1999, 2500, 3200, 3999):
                assert (ml_row(alpha, beta, x[i:i + 1]).tobytes()
                        == row[i:i + 1].tobytes())

    @pytest.mark.parametrize("alpha", [1.1, 1.5, 1.9])
    def test_oracle_rows(self, alpha):
        xs = -np.logspace(-2, 4, 12)
        for beta in row_betas(alpha):
            ref = ml_ref_row(alpha, beta, xs)
            got = ml_row(alpha, beta, xs)
            for x, g, rv in zip(xs, got, ref):
                assert rel(g, rv) < 1e-10, (alpha, beta, x)

    def test_uncertified_points_fall_back(self, monkeypatch):
        # w = a - beta + 1 = 64.5 lies past _CUT_WMAX, where the r^w e^-r
        # bulk nears the cut-off r = 200 and the pass certifies nothing,
        # not even within the stall limit; the rows' asymptotic series
        # answers at these y, after one pass and without the scalar route
        a, beta = 1.5, -62.0
        y = np.logspace(4, 7, 40)
        [(val, ok)] = _cut_rows(a, (beta,), y)
        assert not ok.any() and np.isnan(val).all()
        calls, passes = [], []
        cut_rows = mittag_leffler._cut_rows

        def counted(*args):
            passes.append(args[1])
            return cut_rows(*args)

        def scalar(alpha, b, x):
            calls.append(x)
            return _ml(alpha, b, x)

        monkeypatch.setattr(mittag_leffler, "_cut_rows", counted)
        got = ml_row(a, beta, -y, scalar)
        assert calls == [] and passes == [(beta,)]
        for yi, g in zip(y, got):
            want, good = mittag_leffler._asym(a, beta, yi, 1e-12, 400)
            assert good and g == want
            assert np.float64(_ml(a, beta, -yi)).tobytes() == g.tobytes()

    def test_scalar_routes_fall_back(self):
        # positive arguments and integer alpha outside the series band
        # have no array route
        calls = []

        def scalar(alpha, b, x):
            calls.append((alpha, x))
            return _ml(alpha, b, x)

        ml_row(1.5, 1.0, np.array([0.0, -1.0, 2.0, -100.0]), scalar)
        ml_row(2.0, 1.0, np.array([-1.0, -400.0]), scalar)
        assert calls == [(1.5, 2.0), (2.0, -400.0)]

    def test_shape_and_validation(self):
        x = -np.arange(6.0).reshape(2, 3)
        got = ml_row(1.5, 1.0, x)
        assert got.shape == (2, 3) and got[0, 0] == 1.0
        with pytest.raises(DomainError):
            ml_row(2.5, 1.0, x)
        with pytest.raises(DomainError):
            ml_row(1.5, 1.0, np.array([-1.0, np.nan]))


# arguments on every route: zero, the series band, the branch cut, and
# positive values for the scalar route
any_args = st.lists(
    st.one_of(st.just(0.0),
              st.floats(-2.0, 6.0).map(lambda e: -(10.0 ** e)),
              st.floats(0.01, 4.0)),
    min_size=1, max_size=12)


class TestMlRows:
    @prop(60)
    @given(alpha=st.floats(1.01, 1.999), xs=any_args)
    def test_equals_stacked_rows(self, alpha, xs):
        x = np.array(xs)
        betas = row_betas(alpha)
        want = np.stack([ml_row(alpha, beta, x) for beta in betas])
        assert ml_rows(alpha, betas, x).tobytes() == want.tobytes()
        assert ml_rows(alpha, betas[::-1], x).tobytes() == \
            want[::-1].tobytes()

    @pytest.mark.parametrize("alpha", [1.0, 2.0])
    def test_integer_alpha_equals_stacked_rows(self, alpha):
        # no branch cut at integer alpha: every point past the series
        # band takes the scalar route; at beta 0 and -1 the leading series
        # terms sit on Gamma poles and the series sums the others only
        x = np.array([0.0, -0.5, -30.0, -400.0, -2e3, 1.5])
        betas = (1.0, 2.0, alpha, alpha + 1.0, alpha + 2.0, 0.0, -1.0)
        want = np.stack([ml_row(alpha, beta, x) for beta in betas])
        assert ml_rows(alpha, betas, x).tobytes() == want.tobytes()

    @pytest.mark.parametrize("alpha", [1.1, 1.5, 1.9])
    def test_branch_cut_once_per_reduced_beta(self, alpha, monkeypatch):
        # one pass over the branch cut, at each distinct reduced b once
        calls = []
        cut_rows = mittag_leffler._cut_rows

        def counted(a, bs, y, *rest):
            calls.append(bs)
            return cut_rows(a, bs, y, *rest)

        monkeypatch.setattr(mittag_leffler, "_cut_rows", counted)
        betas = (1.0, 2.0, alpha, alpha + 1.0, alpha + 2.0)
        got = ml_rows(alpha, betas, -np.logspace(-1, 5, 40))
        assert len(calls) == 1
        assert sorted(calls[0]) == sorted(
            {_reduce_beta(alpha, b)[0] for b in betas})
        assert len(calls[0]) == 3
        monkeypatch.undo()
        for row, beta in zip(got, betas):
            assert row.tobytes() == \
                ml_row(alpha, beta, -np.logspace(-1, 5, 40)).tobytes()

    def test_series_terms_built_once(self, monkeypatch):
        # the per-beta Gamma table depends on (alpha, beta) alone: a second
        # request at the same betas reuses it without one Gamma call
        calls = []
        lgam_sgn = mittag_leffler.lgam_sgn

        def counted(g):
            calls.append(g)
            return lgam_sgn(g)

        monkeypatch.setattr(mittag_leffler, "lgam_sgn", counted)
        mittag_leffler._series_terms.cache_clear()
        alpha = 1.3
        betas = (1.0, 2.0, alpha, alpha + 1.0, alpha + 2.0, -1.0)
        x = -np.linspace(0.05, 5.0, 30)
        first = mittag_leffler._taylor_rows(alpha, betas, x)
        assert calls
        calls.clear()
        again = mittag_leffler._taylor_rows(alpha, betas, x)
        assert calls == []
        assert again.tobytes() == first.tobytes()
        for beta in betas:
            for table in mittag_leffler._series_terms(alpha, beta):
                assert not table.flags.writeable
                with pytest.raises(ValueError):
                    table[0] = 0

    @prop(40)
    @given(alpha=st.floats(1.01, 1.999),
           fracs=st.lists(st.floats(0.0, 1.0, exclude_min=True),
                          min_size=1, max_size=5),
           ys=st.lists(st.floats(0.7, 6.0).map(lambda e: 10.0 ** e),
                       min_size=1, max_size=8))
    def test_cut_pass_values_independent_of_other_b(self, alpha, fracs, ys):
        # b anywhere in (a - 1.5, a + 0.5], grouped and ordered at will
        bs = tuple(alpha - 1.5 + 2.0 * f for f in fracs)
        y = np.array(ys)
        got = _cut_rows(alpha, bs, y)
        for k, b in enumerate(bs):
            [(val, ok)] = _cut_rows(alpha, (b,), y)
            assert got[k][0].tobytes() == val.tobytes()
            assert got[k][1].tobytes() == ok.tobytes()
        back = _cut_rows(alpha, bs[::-1], y)[::-1]
        for (v1, ok1), (v2, ok2) in zip(got, back):
            assert v1.tobytes() == v2.tobytes()
            assert ok1.tobytes() == ok2.tobytes()

    @prop(60)
    @given(alpha=st.floats(1.01, 1.99), xs=any_args,
           seams=st.lists(st.tuples(st.sampled_from(("series", "asym",
                                                     "kappa30")),
                                    st.floats(-1e-3, 1e-3)),
                          max_size=6))
    def test_handoff_to_scalar_evaluator(self, alpha, xs, seams):
        # every route, and both sides of the scalar evaluator's route
        # boundaries (kappa = series_cutoff, y = asym_cutoff, kappa = 30)
        at = {"series": mittag_leffler._SERIES_CUTOFF ** alpha,
              "asym": mittag_leffler._ASYM_CUTOFF,
              "kappa30": 30.0 ** alpha}
        x = np.array(xs + [-at[k] * (1.0 + d) for k, d in seams])
        betas = row_betas(alpha)
        for beta, row in zip(betas, ml_rows(alpha, betas, x)):
            for xi, g in zip(x, row):
                want = _ml(alpha, beta, float(xi))
                assert abs(g - want) <= 1e-12 * max(1.0, abs(want)), \
                    (alpha, beta, xi, g, want)

    @pytest.mark.parametrize("alpha", [1.01, 1.5, 1.99])
    def test_cut_at_the_ends_of_w(self, alpha):
        # w = a - b + 1 at 0.5 and near 2.5, the ends the fixed lower
        # limit of the cut must serve: each value is within 1e-12 of the
        # oracle or handed to the scalar route
        calls = []

        def scalar(a, b, x):
            calls.append((b, x))
            return _ml(a, b, x)

        xs = -np.logspace(np.log10(5.0 ** alpha * 1.001), 5, 12)
        betas = (alpha + 0.5, alpha - 1.5 + 1e-6)
        got = ml_rows(alpha, betas, xs, scalar)
        for beta, row in zip(betas, got):
            for x, g, want in zip(xs, row, ml_ref_row(alpha, beta, xs)):
                if (beta, x) in calls:
                    continue
                assert abs(g - want) <= 1e-12 * max(1.0, abs(want)), \
                    (alpha, beta, x, g, want)

    def test_uncertified_count_on_a_fixed_sweep(self):
        # a fixed sweep over the cut's b range, a close to 1 included; the
        # per-b panels, whose lower limit was -46/w, left 56 of its 9600
        # points uncertified; the cell panels in s, with a denominator free
        # of cancellation, leave none
        bad = 0
        for a in (1.001, 1.003, 1.01, 1.5, 1.99, 1.999):
            bs = tuple(np.linspace(a - 1.5, a + 0.5, 9)[1:].tolist())
            y = np.logspace(np.log10(5.0 ** a), 6, 200)
            bad += sum(int((~ok).sum()) for _, ok in _cut_rows(a, bs, y))
        assert bad == 0

    @pytest.mark.parametrize("alpha", [1.001, 1.01])
    def test_cut_zone_accuracy_near_one(self, alpha):
        # near a = 1 the resonance is narrow, and the denominator r^2a +
        # 2 y r^a cos pi a + y^2 of the integral in v cancelled there: on
        # these points it certified values 1.3e-11 (a = 1.001) and 3.1e-12
        # (a = 1.01) off
        y = np.logspace(np.log10(5.0 ** alpha * 1.0001),
                        np.log10(30.0 ** alpha), 25)
        bs = (1.0, alpha, 2.0 - alpha)
        for b, (val, ok) in zip(bs, _cut_rows(alpha, bs, y)):
            assert ok.any()
            for yi, v in zip(y[ok], val[ok]):
                want = float(taylor_ref(alpha, b, -yi))
                assert rel(v, want) < 1e-12, (alpha, b, yi, v, want)

    @prop(40)
    @given(alpha=st.floats(1.01, 1.999), k=st.integers(2, 12),
           offs=st.lists(st.sampled_from((-0.5, 0.5)).flatmap(
               lambda side: st.floats(-1e-9, 1e-9).map(
                   lambda d: side + d)), min_size=1, max_size=6),
           others=st.lists(st.floats(0.7, 6.0).map(lambda e: 10.0 ** e),
                           max_size=6),
           data=st.data())
    def test_point_bytes_across_cells(self, alpha, k, offs, others, data):
        # points on both sides of a cell boundary v* = k +- 0.5 take the
        # panels of different cells; each value and its certificate are
        # the same alone, in any batch and next to its neighbours
        bs = (1.0, alpha, alpha - 1.0)
        y = np.concatenate([np.exp(alpha * (k + np.array(offs))), others])
        got = _cut_rows(alpha, bs, y)
        for i in range(len(y)):
            alone = _cut_rows(alpha, bs, y[i:i + 1])
            for (v, ok), (v1, ok1) in zip(got, alone):
                assert v[i:i + 1].tobytes() == v1.tobytes()
                assert ok[i:i + 1].tobytes() == ok1.tobytes()
        perm = np.array(data.draw(st.permutations(range(len(y)))))
        for (v, ok), (vp, okp) in zip(got, _cut_rows(alpha, bs, y[perm])):
            assert v[perm].tobytes() == vp.tobytes()
            assert ok[perm].tobytes() == okp.tobytes()

    @pytest.mark.parametrize("alpha,y", [
        (5e-324, 2.0), (1e-3, 1e6), (0.5, 1e-3), (1.5, 1e-300)])
    def test_extreme_resonance_is_left_uncertified(self, alpha, y):
        # v* = log(y)/a outside [0, _CUT_SPLIT], or not finite: no value
        # is certified and nothing raises
        for _, ok in _cut_rows(alpha, (1.0, 0.0), np.array([y])):
            assert not ok.any()

    def test_shape(self):
        x = -np.arange(6.0).reshape(2, 3)
        got = ml_rows(1.5, (1.0, 2.0, 2.5), x)
        assert got.shape == (3, 2, 3)
        assert ml_rows(1.5, (), x).shape == (0, 2, 3)
        with pytest.raises(DomainError):
            ml_rows(1.5, (1.0, math.nan), x)


class TestNearTwoAsymptotics:
    @pytest.mark.parametrize("alpha,beta,y", [
        (1.999, 1.0, 100.0), (1.999, 1.999, 60.0), (1.9995, 2.0, 400.0),
        (1.999, 3.999, 1000.0)])
    def test_values(self, alpha, beta, y):
        # the asymptotic series diverges off the double range here; the
        # branch cut takes over
        got = ml_e(MLQuery(alpha, beta, -y))
        assert rel(got, ml_ref(alpha, beta, -y)) < 1e-12

    @prop(40)
    @given(alpha=st.floats(1.998, 2.0, exclude_max=True),
           beta=st.floats(-1.0, 4.0),
           ly=st.floats(math.log10(50.0), 4.0))
    def test_no_overflow_escapes(self, alpha, beta, ly):
        try:
            v = ml_e(MLQuery(alpha, beta, -(10.0 ** ly)))
        except MLWaveError:
            return
        assert math.isfinite(v)


class TestIntegerAlphaLargeArgument:
    """Integer beta past the closed forms, where the asymptotic series does
    not certify: the recurrence up from the closed forms answers where its
    error bound certifies, and the point is refused elsewhere."""

    @pytest.mark.parametrize("alpha,beta,y", [
        (2.0, 4.0, 1300.5), (2.0, 4.0, 1354.24), (2.0, 4.0, 1395.01),
        (2.0, 5.0, 5e3), (2.0, 6.0, 1e5), (2.0, 7.0, 1e6),
        (1.0, 5.0, 36.5), (1.0, 5.0, 100.0), (1.0, 6.0, 1e3),
        (1.0, 8.0, 1e6)])
    def test_against_oracle(self, alpha, beta, y):
        got = ml_e(MLQuery(alpha, beta, -y))
        assert rel(got, ml_ref(alpha, beta, -y)) < 1e-12

    def test_row_route(self):
        # ml_row hands integer alpha to the scalar evaluator point by point
        xs = -np.array([1301.0, 1600.0, 2.5e4])
        got = ml_row(2.0, 4.0, xs)
        for g, x in zip(got, xs):
            assert rel(g, ml_ref(2.0, 4.0, float(x))) < 1e-12

    @pytest.mark.parametrize("alpha,beta,y", [
        (1.0, 100.0, 40.0), (2.0, 80.0, 1301.0), (1.0, 53.0, 37.0),
        (2.0, 67.0, 2274.0)])
    def test_large_beta_is_accurate_or_refused(self, alpha, beta, y):
        # beta beyond y (m = 1) or sqrt(y) (m = 2): each step of the
        # recurrence cancels, so a value must still meet the tolerance
        try:
            got = ml_e(MLQuery(alpha, beta, -y))
        except AccuracyError:
            return
        assert rel(got, ml_ref(alpha, beta, -y)) < 1e-12


# alpha 1 or 2, and with it y = -x log-uniform from kappa = 5 to twice the
# integer-alpha series' limit: y = 36 at alpha = 1, 1300 at alpha = 2
_INTEGER_ALPHA = st.shared(st.sampled_from((1.0, 2.0)), key="integer alpha")
_PAST_THE_TAYLOR_BAND = _INTEGER_ALPHA.flatmap(lambda a: st.floats(
    a * math.log(5.0), math.log(72.0 if a == 1.0 else 2600.0)).map(
        lambda ly: -math.exp(ly)))


class TestIntegerAlphaSeries:
    """alpha in {1, 2} past the Taylor band: the Pochhammer series up to
    y = 36 or 1300, the asymptotic series past them.  Each value is
    within 1e-12 of the hypergeometric oracle, or refused."""

    @prop(200)
    @given(alpha=_INTEGER_ALPHA,
           beta=st.floats(-6.0, 6.0).filter(lambda b: b != round(b)),
           x=_PAST_THE_TAYLOR_BAND)
    # a series sum once lifted above beta = 0.25 and stepped back down by
    # E_{1,b} = 1/Gamma(b) + x E_{1,b+1}, each step multiplying its
    # rounding by |x|: 6.3e-8 off
    @example(alpha=1.0, beta=-5.001101911843869, x=-35.74759763954261)
    def test_within_1e_12_of_the_oracle_or_refused(self, alpha, beta, x):
        assume((-x) ** (1.0 / alpha) > 5.0)
        try:
            got = ml_e(MLQuery(alpha, beta, x))
        except AccuracyError:
            return
        assert rel(got, float(integer_alpha_ref(alpha, beta, x))) < 1e-12


class TestSinPi:
    """The branch cut's sin(pi b) and sin(pi (b - a)) vanish exactly at the
    integers; math.sin(math.pi * n) is about 1.2e-16 n, which y times
    swamps the integrand's numerator on the d2 row beta = a - 1."""

    def test_exact_at_integers(self):
        for n in range(-4, 5):
            assert _sinpi(float(n)) == 0.0
        assert _sinpi(0.5) == 1.0 and _sinpi(-0.5) == -1.0
        assert _sinpi(1.5) == -1.0 and _sinpi(-1.5) == 1.0
        for x in (0.3, 1.25, -2.7, 3.9):
            assert _sinpi(x) == pytest.approx(math.sin(math.pi * x),
                                              rel=1e-14, abs=1e-15)

    @pytest.mark.parametrize("alpha, y", [(1.1309, 8.87e5), (1.7, 5e5),
                                          (1.5, 1e5), (1.05, 1e6),
                                          (1.3, 2e5), (1.9, 3e5)])
    def test_d2_row_at_large_argument(self, alpha, y):
        beta = alpha - 1.0
        want = ml_ref(alpha, beta, -y)
        assert rel(_ml(alpha, beta, -y), want) < 1e-12
        assert rel(ml_row(alpha, beta, np.array([-y]))[0], want) < 1e-12


class TestNegativeBeta:
    """beta <= alpha - 1.5 is integrated on the branch cut as it stands
    (no step E_{a,b-a} = 1/Gamma(b-a) + x E_{a,b}, which multiplies the
    error by |x|), and every route certifies such a value against rel_tol
    with the residue pair's rounding included."""

    @pytest.mark.parametrize("route", ["row", "scalar"])
    def test_accurate_or_refused(self, route):
        def ev(alpha, beta, x):
            return (ml_row(alpha, beta, np.array([x]))[0] if route == "row"
                    else _ml(alpha, beta, x))

        x = -5e4
        assert rel(ev(1.9, -2.5, x), ml_ref(1.9, -2.5, x)) < 1e-12
        # near a = 2 these values sit close to a zero of the residue
        # pair's cosine, and its rounding (1e-12 to 2e-11 of the value)
        # cannot meet rel_tol
        for alpha, beta, x in ((1.998, -0.7, -174166.19),
                               (1.99, -0.7, -1e6)):
            with pytest.raises(AccuracyError):
                ev(alpha, beta, x)

    @pytest.mark.parametrize("alpha", [0.3, 0.7, 1.01, 1.15, 1.5, 1.9])
    def test_rows_against_oracle(self, alpha):
        # one to three steps of alpha below the solver rows' range, up to
        # |x| = 1e5, where a step up in beta would amplify the error 1e15x
        xs = -np.logspace(math.log10(5.0 ** alpha) + 0.01, 5, 9)
        for beta in (alpha - 1.6, -1.5, -3.0):
            got = ml_row(alpha, beta, xs)
            for x, g in zip(xs, got):
                want = ml_ref(alpha, beta, float(x))
                assert rel(g, want) < 1e-12, (alpha, beta, x)
                assert rel(_ml(alpha, beta, float(x)), want) < 1e-12

    def test_below_the_cut_range_is_refused(self):
        # the integrand's r^(1-b) e^-r bulk would reach the cut-off r = 200
        with pytest.raises(AccuracyError):
            ml_e(MLQuery(1.5, -70.0, -100.0))
        with pytest.raises(AccuracyError):
            ml_row(1.5, -70.0, np.array([-100.0]))

    @prop(80)
    @given(alpha=st.floats(1.01, 1.99), beta=st.floats(-3.0, 4.0),
           x=st.floats(-1e5, 0.0, exclude_max=True))
    def test_recurrence(self, alpha, beta, x):
        # E_{a,b}(x) = 1/Gamma(b) + x E_{a,a+b}(x), which _cut uses to
        # reduce beta, between two independently evaluated values.  alpha
        # and beta go on a 2^-40 grid so that alpha + beta is exact: its
        # rounding alone would move E_{a,a+b} by |dE/dbeta| ulp, up to
        # 1e-12 of the scale near a zero of 1/Gamma(b - a)
        alpha, beta = (round(v * 2.0 ** 40) * 2.0 ** -40
                       for v in (alpha, beta))
        try:
            lhs = _ml(alpha, beta, x)
            upper = _ml(alpha, alpha + beta, x)
        except AccuracyError:
            return
        g = float(rgamma(beta))
        scale = max(abs(g), abs(x * upper))
        assert abs(lhs - (g + x * upper)) <= 1e-12 * scale


class TestOneBranchCut:
    """The scalar evaluator is the rows at its one point, so both give the
    same bits on every route at non-integer alpha and x < 0."""

    @prop(300)
    @given(alpha=st.floats(0.0, 2.0, exclude_min=True),
           beta=st.one_of(st.floats(-3.0, 4.0), st.tuples(
               st.sampled_from((-1.0, 1.0)), st.floats(-3.0, 308.0)).map(
                   lambda t: t[0] * 10.0 ** t[1])),
           x=st.floats(-1e6, 10.0))
    @example(alpha=5e-324, beta=0.0, x=-2.0)       # v* = log(2)/a is inf
    # r^(1 - beta) of the residue terms, or x^(1 - k) of the closed form
    # E_{1,k}(x) = x^(1 - k) e^x, past the double range on its own
    @example(alpha=1.5, beta=-62.0, x=-1e9)
    @example(alpha=1.0, beta=-200.5, x=-1e3)
    @example(alpha=2.0, beta=-300.5, x=-1e6)
    @example(alpha=1.0, beta=-200.0, x=-1e3)
    # a power-series term past the double range while kappa is not
    @example(alpha=0.7204604879566386, beta=-165.0, x=90.92926068034703)
    # beta far past alpha + 0.5, where the cut steps beta down by alpha
    @example(alpha=1.5, beta=1e7, x=-20.0)
    @example(alpha=1.5, beta=1e7, x=-100.0)
    @example(alpha=1.5, beta=1e9, x=-100.0)
    # 1/Gamma(beta) and x/Gamma(alpha + beta) below the series' e^-700
    # floor of a term
    @example(alpha=1.5, beta=170.0, x=-1.0)
    @example(alpha=1.5, beta=0.0, x=-5e-324)
    def test_ml_e_is_finite_or_refused(self, alpha, beta, x):
        try:
            v = ml_e(MLQuery(alpha, beta, x))
        except MLWaveError:
            return
        assert math.isfinite(v)

    def test_far_negative_beta_is_refused_promptly(self):
        # the integer-a series would sum about 1e12 terms before its
        # divisors beta + j turn positive; in a fresh interpreter, so a
        # hang fails this test alone
        code = ("from mlwave.errors import MLWaveError\n"
                "from mlwave.mittag_leffler import MLQuery, ml_e\n"
                "try:\n"
                "    ml_e(MLQuery(2.0, -1989798789822.2288, "
                "-44.72511194337896))\n"
                "except MLWaveError:\n"
                "    print('refused')\n")
        env = dict(os.environ, PYTHONPATH=str(
            Path(mittag_leffler.__file__).resolve().parents[1]))
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=30)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "refused"

    def test_huge_beta_is_refused_promptly(self):
        # the branch cut steps beta down by alpha to alpha + 0.5, about
        # 7e11 steps here, each lifted back with a Gamma call; in a fresh
        # interpreter, so a hang fails this test alone
        code = ("import numpy as np\n"
                "from mlwave.errors import MLWaveError\n"
                "from mlwave.mittag_leffler import MLQuery, ml_e, ml_rows\n"
                "for call in (lambda: ml_e(MLQuery(1.5, 1e12, -20.0)),\n"
                "             lambda: ml_rows(1.5, (1e12,),\n"
                "                             np.array([-100.0]))):\n"
                "    try:\n"
                "        call()\n"
                "    except MLWaveError:\n"
                "        print('refused')\n")
        env = dict(os.environ, PYTHONPATH=str(
            Path(mittag_leffler.__file__).resolve().parents[1]))
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=30)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["refused", "refused"]

    def test_closed_form_past_the_power_range(self):
        # E_{1,-200}(-1000) = (-1000)^201 e^-1000, where (-1000)^201 alone
        # overflows (mpmath, 60 digits)
        got = ml_e(MLQuery(1.0, -200.0, -1e3))
        assert got == pytest.approx(-5.0759588975494567653e168, rel=1e-14)

    @prop(400)
    @given(alpha=st.floats(0.1, 1.999), frac=st.floats(0.0, 1.0,
                                                        exclude_min=True),
           lk=st.floats(-2.0, 3.0))
    @example(alpha=1.5, frac=0.5, lk=math.log10(5.0))   # the series cutoff
    @example(alpha=1.5, frac=0.5, lk=math.log10(50.0 ** (1.0 / 1.5)))
    @example(alpha=1.2, frac=0.5, lk=math.log10(30.0))
    def test_scalar_equals_row_on_every_route(self, alpha, frac, lk):
        # every route at non-integer alpha and x < 0, kappa = 10^lk from
        # the series band through the cut to the asymptotic zone: _ml is
        # the rows at one point, so both give the same bits or both refuse
        if alpha == 1.0:
            return
        beta = alpha - 1.5 + (5.5 - alpha) * frac
        y = (10.0 ** lk) ** alpha
        try:
            want = _ml(alpha, beta, -y)
        except AccuracyError:
            with pytest.raises(AccuracyError):
                ml_row(alpha, beta, np.array([-y]))
            return
        got = ml_row(alpha, beta, np.array([-y]))[0]
        assert np.float64(want).tobytes() == got.tobytes(), \
            (alpha, beta, y, want, got)
