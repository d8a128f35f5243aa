"""Extended-precision reference oracles shared by the test suite.

Independent mpmath routes with complementary domains:

  * taylor_ref: direct summation of the defining series with a shared
    Gamma table per (alpha, beta) row.  Exact but needs working precision
    proportional to kappa = |x|^(1/alpha); used for kappa <= 250.
  * asym_ref: asymptotic expansion with exact mp Gammas plus the
    exponential terms, truncated at the smallest regular term; rigorous
    once that term is negligible; used for kappa >= 60 at non-integer alpha
    (at alpha in {1, 2} every regular term sits on a Gamma pole).
  * integer_alpha_ref: confluent-hypergeometric closed forms for alpha in
    {1, 2}, any argument size.

The bands overlap for kappa in [60, 250], where both run and must agree to
1e-18; since 60^a < 250^a for every a, the union covers the whole axis for
every alpha in (0, 2].  None of this code touches the production evaluator.

The autouse fixture `cold_process` starts every test as a fresh process
would: the store of idle kernel tables and collocations, the bound
probe's memo and the operator memo are empty, so a test that counts
builds sees every build of its own.
"""

import math

import mpmath as mp
import pytest

from mlwave import linear_solver, mittag_leffler, spectral_operator


@pytest.fixture(autouse=True)
def cold_process():
    linear_solver._STORE.clear()
    mittag_leffler.ml_bound_probe.cache_clear()
    spectral_operator._operator.cache_clear()


def taylor_ref(alpha, beta, x, extra_dps=30):
    kappa = abs(x) ** (1.0 / alpha)
    nmax = int(8 + 6 * kappa / alpha + 80)
    # peak term ~ e^kappa while the value can be as small as ~e^-kappa
    dps = extra_dps + int(2.2 * kappa / math.log(10)) + 10
    with mp.workdps(dps):
        a = mp.mpf(alpha)
        b = mp.mpf(beta)
        xm = mp.mpf(x)
        s = mp.mpf(0)
        p = mp.mpf(1)
        for n in range(nmax):
            s += p * mp.rgamma(b + a * n)
            p *= xm
        return s


def asym_ref(alpha, beta, x, dps=60):
    """Valid once the smallest regular term is below 1e-22 of the value;
    raises otherwise so a test can never silently trust a bad reference."""
    y = abs(x)
    with mp.workdps(dps):
        a = mp.mpf(alpha)
        b = mp.mpf(beta)
        yy = mp.mpf(y)
        s = mp.mpf(0)
        prev = mp.inf
        err = mp.inf
        p = mp.mpf(1)
        iy = 1 / yy
        sign_flip = x < 0
        for k in range(1, 2000):
            p *= iy
            z = b - a * k
            g = mp.rgamma(z)
            zf = float(z)
            near_pole = zf <= 0.5 and abs(zf - round(zf)) <= 0.25
            if sign_flip:
                term = p * g if (k % 2 == 1) else -p * g
            else:
                term = -p * g
            m = abs(term)
            if not near_pole:
                if m >= prev:
                    err = m
                    break
                prev = m
                if m <= mp.mpf(10) ** (-(dps + 10)) * max(abs(s), mp.mpf(10) ** -300):
                    err = m
                    s += term
                    break
            s += term
        e = mp.mpf(0)
        k1a = yy ** (1 / a)
        ia = mp.pi / a
        if x < 0:
            if 1.0 < alpha <= 2.0:
                e = (2 / a) * yy ** ((1 - b) / a) * mp.exp(k1a * mp.cos(ia)) \
                    * mp.cos(k1a * mp.sin(ia) + (1 - b) * ia)
            elif alpha == 1.0:
                e = yy ** (1 - b) * mp.exp(-yy) * mp.cos(mp.pi * (1 - b))
        else:
            e = (1 / a) * yy ** ((1 - b) / a) * mp.exp(k1a)
        total = s + e
        if not err <= mp.mpf(10) ** (-22) * max(abs(total), mp.mpf(10) ** -280):
            raise ValueError(
                "asymptotic reference not certified at (%g,%g,%g)"
                % (alpha, beta, x))
        return total


def integer_alpha_ref(alpha, beta, x, dps=50):
    """Exact route for alpha in {1, 2} via confluent hypergeometrics:
    sum x^n/G(n+b) = 1F1(1;b;x)/G(b) and
    sum x^n/G(2n+b) = sqrt(pi) 2^(1-b) 1F2(1;b/2,(b+1)/2;x/4)/(G(b/2)G((b+1)/2)),
    lifting past non-positive b with E(b) = 1/G(b) + x E(b+alpha)."""
    a = int(round(alpha))
    with mp.workdps(dps):
        b = mp.mpf(beta)
        z = mp.mpf(x)
        lifts = 0
        while b <= 0.26:
            b += a
            lifts += 1
        if a == 1:
            val = mp.hyp1f1(1, b, z) * mp.rgamma(b)
        else:
            val = mp.sqrt(mp.pi) * mp.mpf(2) ** (1 - b) \
                * mp.hyp1f2(1, b / 2, (b + 1) / 2, z / 4) \
                * mp.rgamma(b / 2) * mp.rgamma((b + 1) / 2)
        for _ in range(lifts):
            b -= a
            val = mp.rgamma(b) + z * val
        return val


def ml_ref(alpha, beta, x):
    """Best-available reference as float, cross-checked where both routes run."""
    if x == 0.0:
        return float(mp.rgamma(beta))
    kappa = abs(x) ** (1.0 / alpha)
    is_int = alpha in (1.0, 2.0)
    have_taylor = kappa <= 250.0
    have_asym = kappa >= 60.0 and not is_int
    if not (have_taylor or have_asym or is_int):
        raise ValueError("no oracle route for (%g,%g,%g)" % (alpha, beta, x))
    vals = []
    if is_int:
        vals.append(integer_alpha_ref(alpha, beta, x))
    if have_taylor:
        vals.append(taylor_ref(alpha, beta, x))
    if have_asym:
        vals.append(asym_ref(alpha, beta, x))
    if len(vals) == 2:
        scale = max(abs(vals[0]), abs(vals[1]), mp.mpf(10) ** -300)
        assert abs(vals[0] - vals[1]) / scale < mp.mpf(10) ** -18, \
            "oracle disagreement at (%g,%g,%g)" % (alpha, beta, x)
    return float(vals[0])


def ml_ref_row(alpha, beta, xs):
    """Row oracle sharing one Gamma table across all x with common
    (alpha, beta); falls back to ml_ref outside the Taylor band."""
    xs = [float(v) for v in xs]
    in_band = [i for i, v in enumerate(xs) if abs(v) ** (1.0 / alpha) <= 250.0]
    out = [None] * len(xs)
    if in_band:
        kap = max(abs(xs[i]) for i in in_band) ** (1.0 / alpha)
        nmax = int(8 + 6 * kap / alpha + 80)
        dps = 30 + int(2.2 * kap / math.log(10)) + 10
        with mp.workdps(dps):
            a = mp.mpf(alpha)
            b = mp.mpf(beta)
            gam = [mp.rgamma(b + a * n) for n in range(nmax)]
            for i in in_band:
                xm = mp.mpf(xs[i])
                s = mp.mpf(0)
                p = mp.mpf(1)
                for n in range(nmax):
                    s += p * gam[n]
                    p *= xm
                out[i] = float(s)
    for i in range(len(xs)):
        if out[i] is None:
            out[i] = ml_ref(alpha, beta, xs[i])
    return out


@pytest.fixture(scope="session")
def oracle():
    return ml_ref


@pytest.fixture(scope="session")
def oracle_row():
    return ml_ref_row
