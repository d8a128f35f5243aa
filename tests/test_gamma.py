"""mlwave._gamma against scipy.special: the same doubles, bit for bit.

The port replays Cephes in Python, so these tests compare the int64 bit
patterns of every result with scipy's (nan equal to nan), the signed zeros
and infinities of rgamma(+-0) and rgamma(+-inf) included.  The one known
difference: off the integers below x = -2^31 scipy's sign of Gamma comes
from a wrapped C int, and the port keeps the true sign there.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mlwave._gamma import lgam_sgn, rgamma
from mlwave.mittag_leffler import _SERIES_CUTOFF, _series_terms, _term_count

special = pytest.importorskip("scipy.special")

ALPHAS = (1.001, 1.1, 1.25, 1.5, 1.9, 1.999)


def solver_betas(alpha):
    """The betas of the propagator and moment rows, 0 and -1, which put
    Gamma poles among the series terms, and 0.5."""
    return (1.0, 2.0, alpha, alpha + 1.0, alpha + 2.0, 0.0, -1.0, 0.5)


def assert_bits_equal(got, want):
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    same = (got.view(np.int64) == want.view(np.int64)) | (
        np.isnan(got) & np.isnan(want))
    bad = np.flatnonzero(~same)
    assert bad.size == 0, [(got[i], want[i]) for i in bad[:5]]


def assert_like_scipy(x):
    x = np.asarray(x, dtype=float)
    lg, sg = zip(*(lgam_sgn(v) for v in x.tolist()))
    with np.errstate(all="ignore"):
        assert_bits_equal(lg, special.gammaln(x))
        assert_bits_equal(sg, special.gammasgn(x))
        assert_bits_equal([rgamma(v) for v in x.tolist()], special.rgamma(x))


@pytest.mark.parametrize("alpha", ALPHAS)
def test_series_arguments(alpha):
    # alpha n + beta over the longest power series (x > 0 up to the double
    # range) and beta - alpha k over the asymptotic series at its term cap
    n = np.arange(_term_count(708.0, alpha))
    k = np.arange(1, 400)
    for beta in solver_betas(alpha):
        assert_like_scipy(alpha * n + beta)
        assert_like_scipy(beta - alpha * k)


@settings(max_examples=2000, derandomize=True, database=None, deadline=None)
@given(st.floats(-2.0 ** 31, 2.0 ** 31, exclude_min=True, exclude_max=True))
def test_any_finite_argument_below_two_to_the_31(x):
    assert_like_scipy([x])


# the points named first, then the branch limits of the Cephes routines
EDGES = [0.0, -0.0, 4.0, -4.0, 171.62, 171.63, -171.5, -180.5,
         math.inf, -math.inf, math.nan, -3.0, 5e-324, -5e-324, 1e-9, -1e-9,
         13.0, -34.0, 33.0, -33.0, 143.01608, 1000.0, 1e8, 2.556348e305]


def test_edge_points_neither_warn_nor_raise():
    xs = EDGES + [math.nextafter(v, t) for v in (4.0, -4.0)
                  for t in (-math.inf, math.inf)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for v in xs:
            lgam_sgn(v)
            rgamma(v)
    assert_like_scipy(xs)


def test_true_sign_below_minus_two_to_the_31():
    # x in (-n, -n + 1) has Gamma of sign (-1)^n; here n = 2^31 + 1, whose
    # parity C's int conversion loses
    x = -2.0 ** 31 - 0.5
    assert lgam_sgn(x)[1] == -1.0


def test_numpy_scalars_give_python_floats():
    lg, sg = lgam_sgn(np.float64(2.5))
    assert type(lg) is float and type(sg) is float
    assert type(rgamma(np.float64(-2.5))) is float


def test_series_row_tables_match_scipy():
    # the tables the series rows cache: terms off the poles, their signs
    # times (-1)^n and log|Gamma|
    for alpha in ALPHAS:
        n = np.arange(_term_count(_SERIES_CUTOFF, alpha))
        for beta in solver_betas(alpha):
            kept, sg, lg = _series_terms(alpha, beta)
            g = alpha * n + beta
            keep = ~np.isnan(special.gammasgn(g))
            assert np.array_equal(kept, n[keep])
            assert_bits_equal(lg, special.gammaln(g[keep]))
            assert_bits_equal(sg, special.gammasgn(g[keep])
                              * np.where(kept % 2, -1.0, 1.0))
