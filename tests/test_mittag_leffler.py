import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad
from scipy.special import rgamma

from mlwave import (
    DEFAULT_PRECISION,
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
from mlwave.mittag_leffler import (_cut, _cut_rows, _ml, _reduce_beta,
                                   _sinpi, kernel_moments)

from conftest import ml_ref, ml_ref_row



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

    def test_overflow_on_large_positive_argument(self):
        with pytest.raises(NumericOverflowError):
            ml_e(MLQuery(0.25, 1.0, 100.0))

    def test_precision_invariants(self):
        with pytest.raises(DomainError):
            ml_e(MLQuery(1.5, 1.0, -1.0), MLPrecision(rel_tol=2.0))

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

    def test_uncertified_points_fall_back(self):
        # a close to 1: the resonance at v* = log(y)/a is narrow and for
        # kappa just above the series cutoff the fixed rule's estimate
        # rejects some points
        a, beta = 1.001, 1.001
        y = np.logspace(np.log10(5.0 ** a * 1.0001), 2, 40)
        [(_, ok)] = _cut_rows(a, (beta,), y)
        assert not ok.all()
        calls = []

        def scalar(alpha, b, x):
            calls.append(x)
            return _ml(alpha, b, x)

        got = ml_row(a, beta, -y, scalar)
        assert sorted(calls) == sorted((-y[~ok]).tolist())
        for x, g in zip(-y, got):
            assert abs(g - _ml(a, beta, x)) <= 1e-12 * max(1.0, abs(g))

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

        def counted(a, bs, y):
            calls.append(bs)
            return cut_rows(a, bs, y)

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
        # points uncertified
        bad = 0
        for a in (1.001, 1.003, 1.01, 1.5, 1.99, 1.999):
            bs = tuple(np.linspace(a - 1.5, a + 0.5, 9)[1:].tolist())
            y = np.logspace(np.log10(5.0 ** a), 6, 200)
            bad += sum(int((~ok).sum()) for _, ok in _cut_rows(a, bs, y))
        assert bad <= 56

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
        assert rel(_cut(alpha, beta, y, DEFAULT_PRECISION.rel_tol),
                   want) < 1e-12
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
    """The scalar evaluator integrates the branch cut with the row pass at
    its one point, so both give the same bits wherever _ml takes the cut."""

    @prop(300)
    @given(alpha=st.floats(0.0, 2.0, exclude_min=True),
           beta=st.floats(-3.0, 4.0), x=st.floats(-1e6, 10.0))
    def test_ml_e_is_finite_or_refused(self, alpha, beta, x):
        try:
            v = ml_e(MLQuery(alpha, beta, x))
        except MLWaveError:
            return
        assert math.isfinite(v)

    @prop(400)
    @given(alpha=st.floats(1.01, 1.99), frac=st.floats(0.0, 1.0,
                                                        exclude_min=True),
           t=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
    def test_scalar_equals_row_on_the_cut(self, alpha, frac, t):
        # kappa in (series_cutoff, 30) and y below asym_cutoff, where _ml
        # goes straight to the cut; beta in (a - 1.5, 4].  kappa keeps off
        # the series cutoff itself, where both take the power series, whose
        # scalar and array sums differ in their last bits
        beta = alpha - 1.5 + (5.5 - alpha) * frac
        top = min(30.0, 50.0 ** (1.0 / alpha)) * (1.0 - 1e-9)
        y = (5.0 * (1.0 + 1e-9) + (top - 5.0) * t) ** alpha
        try:
            want = _ml(alpha, beta, -y)
        except AccuracyError:
            with pytest.raises(AccuracyError):
                ml_row(alpha, beta, np.array([-y]))
            return
        got = ml_row(alpha, beta, np.array([-y]))[0]
        assert np.float64(want).tobytes() == got.tobytes(), \
            (alpha, beta, y, want, got)
