"""mlwave._gamma against mpmath, by value.

Each double argument is evaluated again in mpmath at 120 bits: log|Gamma|
must lie within 1e-14 max(1, |log Gamma|) of it, the sign must match, and
1/Gamma must lie within 1e-14 relative wherever it is a normal double; a
subnormal 1/Gamma within 1e-12 relative and one subnormal step, an
underflowing one at zero and an overflowing one at the signed infinity.
At the poles, +-0, +-inf and nan the values are fixed (EXACT), the signed
zeros included: those of the Cephes port this module replaced.
"""

import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mlwave._gamma import lgam_sgn, rgamma
from mlwave.mittag_leffler import _SERIES_CUTOFF, _series_terms, _term_count

ALPHAS = (1.001, 1.1, 1.25, 1.5, 1.9, 1.999)
LG_TOL = 1e-14
RG_TOL = 1e-14
MIN_NORMAL = 2.2250738585072014e-308


def solver_betas(alpha):
    """The betas of the propagator and moment rows, 0 and -1, which put
    Gamma poles among the series terms, and 0.5."""
    return (1.0, 2.0, alpha, alpha + 1.0, alpha + 2.0, 0.0, -1.0, 0.5)


def is_pole(x):
    return x < 0.0 and x == math.floor(x)


def reference(x):
    """(log|Gamma(x)|, sign of Gamma(x), 1/Gamma(x)) of the double x in
    mpmath; (inf, nan, 0) at the poles and (inf, +-1, 0) at +-0."""
    if is_pole(x) or x == 0.0:
        return math.inf, math.copysign(1.0, x) if x == 0.0 else math.nan, 0
    with mp.workprec(120):
        g = mp.gamma(mp.mpf(x))
        return mp.log(abs(g)), float(mp.sign(g)), 1 / g


def assert_lgam_close(got, want, x):
    if math.isinf(want) or math.isinf(float(want)):
        assert got == float(want), (x, got, want)
    else:
        assert abs(got - want) <= LG_TOL * max(1.0, abs(want)), \
            (x, got, float(want))


def assert_rgamma_close(got, want, x):
    w = float(want)
    if MIN_NORMAL <= abs(w) < math.inf:
        assert abs(got - want) <= RG_TOL * abs(want), (x, got, w)
    elif math.isinf(w):
        assert got == w, (x, got, w)
    else:
        assert abs(got - want) <= 1e-12 * abs(want) + 5e-324, (x, got, w)


def assert_like_mpmath(xs):
    for x in np.asarray(xs, dtype=float).tolist():
        lg, sg = lgam_sgn(x)
        want_lg, want_sg, want_rg = reference(x)
        assert_lgam_close(lg, want_lg, x)
        assert sg == want_sg or math.isnan(sg) and math.isnan(want_sg), x
        assert_rgamma_close(rgamma(x), want_rg, x)


@pytest.mark.parametrize("alpha", ALPHAS)
def test_series_arguments(alpha):
    # alpha n + beta over the longest power series (x > 0 up to the double
    # range) and beta - alpha k over the asymptotic series at its term cap
    n = np.arange(_term_count(708.0, alpha))
    k = np.arange(1, 400)
    for beta in solver_betas(alpha):
        assert_like_mpmath(alpha * n + beta)
        assert_like_mpmath(beta - alpha * k)


@settings(max_examples=2000, derandomize=True, database=None, deadline=None)
@given(st.floats(-2.0 ** 31, 2.0 ** 31, exclude_min=True, exclude_max=True))
def test_any_finite_argument_below_two_to_the_31(x):
    assert_like_mpmath([x])


# x, log|Gamma(x)|, sign, 1/Gamma(x) where no reference is evaluated
INF, NAN = math.inf, math.nan
EXACT = [(0.0, INF, 1.0, 0.0), (-0.0, INF, -1.0, -0.0), (INF, INF, 1.0, 0.0),
         (-INF, -INF, NAN, 0.0), (NAN, NAN, NAN, NAN), (-3.0, INF, NAN, 0.0),
         (-4.0, INF, NAN, 0.0), (-33.0, INF, NAN, 0.0),
         (-34.0, INF, NAN, 0.0), (1e306, INF, 1.0, 0.0)]
# the points named first, the points where the math module raises, then the
# branch limits of the Cephes routines the module replaced
EDGES = [0.0, -0.0, 4.0, -4.0, 171.62, 171.63, -171.5, -180.5,
         math.inf, -math.inf, math.nan, -3.0, 5e-324, -5e-324, 1e-9, -1e-9,
         1e-309, -1e-309, 171.7, 172.0, 1e306,
         13.0, -34.0, 33.0, -33.0, 143.01608, 1000.0, 1e8, 2.556348e305]
# finite values the Cephes port returned as 0 or inf: 1/Gamma past Gamma's
# overflow at 171.62, near -0 and below -170.65 next to the poles, and
# log|Gamma| at subnormal x
NEAR_RANGE = (np.linspace(171.63, 178.0, 40).tolist()
              + (-np.logspace(-323, -309, 15)).tolist()
              + np.linspace(-170.75, -170.65, 7).tolist()
              + [-176.0 + 2.0 ** -45, -175.0 - 2.0 ** -45])


def same_double(a, b):
    return np.float64(a).view(np.int64) == np.float64(b).view(np.int64) \
        or math.isnan(a) and math.isnan(b)


def test_edge_points_neither_warn_nor_raise():
    xs = EDGES + NEAR_RANGE + [math.nextafter(v, t) for v in (4.0, -4.0)
                               for t in (-math.inf, math.inf)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for v in xs:
            lgam_sgn(v)
            rgamma(v)
    for x, *want in EXACT:
        got = lgam_sgn(x) + (rgamma(x),)
        assert all(map(same_double, got, want)), (x, got, want)
    assert_like_mpmath([v for v in xs if not any(
        same_double(v, e[0]) for e in EXACT)])
    assert rgamma(-5e-324) == -5e-324


def test_true_sign_below_minus_two_to_the_31():
    # x in (-n, -n + 1) has Gamma of sign (-1)^n; here n = 2^31 + 1, whose
    # parity C's int conversion loses
    x = -2.0 ** 31 - 0.5
    assert lgam_sgn(x)[1] == -1.0


def test_numpy_scalars_give_python_floats():
    lg, sg = lgam_sgn(np.float64(2.5))
    assert type(lg) is float and type(sg) is float
    assert type(rgamma(np.float64(-2.5))) is float


def test_series_row_tables_match_mpmath():
    # the tables the series rows cache: the terms off the poles, their
    # signs times (-1)^n and log|Gamma|
    for alpha in ALPHAS:
        n = np.arange(_term_count(_SERIES_CUTOFF, alpha))
        for beta in solver_betas(alpha):
            kept, sg, lg = _series_terms(alpha, beta)
            g = (alpha * n + beta).tolist()
            assert kept.tolist() == [i for i in n.tolist()
                                     if not is_pole(g[i])]
            for i, s, v in zip(kept.tolist(), sg.tolist(), lg.tolist()):
                want_lg, want_sg, _ = reference(g[i])
                assert s == want_sg * (-1.0) ** i, (alpha, beta, i)
                assert_lgam_close(v, want_lg, g[i])
