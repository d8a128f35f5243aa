"""Two-parameter Mittag-Leffler evaluation on the real axis.

E_{a,b}(x) = sum_n x^n / Gamma(a n + b) is the kernel of every propagator
in this package.  The evaluator targets near machine precision (default
rel_tol 1e-12) for a in (0, 2], real b, and real x, with the solvers only
ever asking for x <= 0.

Route order on the negative axis (y = -x, kappa = y^(1/a)):

  kappa <= 5               power series, log-space terms over a fixed
                           count, certified by its last term
  a exactly 1 or 2         closed forms (exp / cos families) where they
                           exist, else a double-double Pochhammer series
                           or the asymptotic series below
  otherwise, in order:
    cut at 1e-13           real branch-cut integral in s = log(r) - v*,
                           v* = log(y)/a the resonance: a rational part
                           R_b(s), built once per unit lattice cell of v*,
                           against exp(-kappa e^s), on composite
                           Gauss-Legendre panels with an embedded error
                           estimate within 1e-13 of the integral; v*
                           outside [0, 600] is not certified
    asymptotic             where y >= 50 or kappa >= 30: asymptotic series
                           + exponential terms, accepted only when a
                           smallest-term error bound certifies the
                           requested tolerance
    cut at 1e-8            the same estimate within the stall limit
    refuse                 AccuracyError

The cancellation amplitude of the alternating series is e^kappa, hence the
series cutoff (_SERIES_CUTOFF, like _ASYM_CUTOFF a fixed constant) lives in
kappa space; an |x|-space cutoff fails for a < 1.  For x > 0 the series
runs over the terms kappa needs, up to kappa = 708.

Each route is written once, as array code over many points and betas
(ml_rows); the scalar evaluator _ml is that code at one point, and a
row's value is _ml's at that point, bit for bit.  The branch cut runs in
one pass over every reduced beta, lifted to the betas that share one.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from ._gamma import lgam_sgn, rgamma
from .errors import AccuracyError, DomainError, NumericOverflowError

__all__ = [
    "MLQuery",
    "MLPrecision",
    "DEFAULT_PRECISION",
    "ml_e",
    "ml_row",
    "ml_rows",
    "ml_bound_probe",
    "ml_identity_residuals",
    "kernel_moment",
    "kernel_moments",
    "moment_betas",
    "deriv_kernel_moment",
]


@dataclass(frozen=True)
class MLQuery:
    """One evaluation point (alpha, beta, x) of E_{alpha,beta}."""

    alpha: float
    beta: float
    x: float

    def validate(self):
        if not (math.isfinite(self.alpha) and math.isfinite(self.beta)
                and math.isfinite(self.x)):
            raise DomainError("MLQuery fields must be finite")
        if not 0.0 < self.alpha <= 2.0:
            raise DomainError(f"alpha must lie in (0, 2], got {self.alpha}")


@dataclass(frozen=True)
class MLPrecision:
    """Evaluation policy: the relative tolerance the routes certify."""

    rel_tol: float = 1e-12

    def validate(self):
        if not 0.0 < self.rel_tol < 1.0:
            raise DomainError("rel_tol must lie in (0, 1)")


DEFAULT_PRECISION = MLPrecision()
_EPS = float(np.finfo(float).eps)
# The route thresholds, one set since the scalar evaluator is the rows:
# kappa = |x|^(1/alpha) up to which the pure power series runs, the |x| past
# which the asymptotic expansion is tried after the cut, and the term cap.
# Accuracy is certified by each route, not assumed from the thresholds.
_SERIES_CUTOFF = 5.0
_ASYM_CUTOFF = 50.0
_MAX_TERMS = 20000
_CHUNK = 1 << 14                   # doubles: 128 KB per (points x nodes) array


# ----------------------------------------------------------- power series

def _term_count(kappa, alpha):
    """Power-series terms for kappa: the terms peak near alpha n = kappa
    and are spent 10 sqrt(kappa) + 30 further on; at most _MAX_TERMS."""
    n = (kappa + 10.0 * math.sqrt(kappa) + 30.0) / alpha
    return min(int(min(n, _MAX_TERMS)) + 24, _MAX_TERMS)


@functools.lru_cache(maxsize=256)
def _series_terms(alpha, beta, count=None):
    """The series terms off the Gamma poles among the first count, by
    default the rows', as read-only arrays: n, the sign of (-1)^n
    Gamma(alpha n + beta) and log|Gamma(alpha n + beta)|.  The Gamma calls
    are scalar Python.  A call at x > 0 skips the cache (__wrapped__)."""
    n = np.arange(_term_count(_SERIES_CUTOFF, alpha) if count is None
                  else count)
    lg, sg = np.array([lgam_sgn(g) for g in (alpha * n + beta).tolist()]).T
    sg[n % 2 == 1] *= -1.0
    keep = np.abs(sg) == 1.0                 # the sign is nan at the poles
    terms = n[keep], sg[keep], lg[keep]
    for t in terms:
        t.flags.writeable = False
    return terms


@np.errstate(over="ignore", invalid="ignore")
def _taylor_rows(alpha, betas, x, rel_tol=DEFAULT_PRECISION.rel_tol,
                 count=None):
    """The power series at each beta of betas, one (len(betas), len(x))
    array, for x < 0 with kappa <= _SERIES_CUTOFF over the cutoff's term
    count, or at one x > 0 over count terms: log-space terms, so that no
    element depends on another or on the other betas.  n log|x| is formed
    once per chunk of x for every beta, and each element's terms summed
    along its own contiguous row (numpy's pairwise order).  A finite sum
    whose last term exceeds rel_tol of it and e^-700 is refused."""
    if count is None:                # the rows, x < 0: cached tables
        count = _term_count(_SERIES_CUTOFF, alpha)
        terms = [_series_terms(alpha, beta) for beta in betas]
    else:                            # one x > 0: (-1)^n taken out
        terms = [(n, np.where(n % 2 == 1, -sg, sg), lg) for n, sg, lg in (
            _series_terms.__wrapped__(alpha, beta, count) for beta in betas)]
    n = np.arange(count)
    out = np.empty((len(betas), len(x)))
    step = max(1, _CHUNK // len(n))
    for lo in range(0, len(x), step):
        lx = np.log(np.abs(x[lo:lo + step, None]))
        nlx = lx * n
        for row, beta, (kept, sg, lg) in zip(out, betas, terms):
            # a beta with poles among its terms sums the others only
            e = (nlx if len(kept) == len(n) else lx * kept) - lg
            # terms below e^-700 add e^-700 instead, which cannot move
            # any sum above 1e-280, and exp is far slower where its
            # result is subnormal
            np.maximum(e, -700.0, out=e)
            np.exp(e, out=e)
            e *= sg
            s = row[lo:lo + step] = e.sum(axis=1)
            size = np.abs(s)
            last = e[:, -1] if len(kept) else math.inf
            bad = np.abs(last) > np.maximum(rel_tol * size,
                                            math.exp(-700.0))
            if bad.any():
                raise AccuracyError(
                    f"power series for E_{{{alpha},{beta}}}("
                    f"{x[lo:lo + step][bad][0]}) did not converge within "
                    f"{count} terms")
            # a sum below that is taken again, its terms scaled by the
            # largest one (terms below e^-800 are 0 in doubles)
            tiny = (size < 1e-280).nonzero()[0]
            if tiny.size:
                e = lx[tiny] * kept - lg
                top = e.max(axis=1, initial=-800.0)
                e = np.exp(np.maximum(e - top[:, None], -700.0)) * sg
                row[lo + tiny] = e.sum(axis=1) * np.exp(top)
    return out


# ------------------------------------------------- asymptotic + residues

def _power_exp(c, r, p, e):
    """c r^p e^e, r > 0.  Where a float r ** p or exp(e) overflows, as c
    (r^(p/h) e^(e/h))^h, h the power of two that keeps both factors within
    e^350 (a few h ulps off), or NumericOverflowError."""
    try:
        return c * r ** p * (np if isinstance(r, np.ndarray) else math).exp(e)
    except OverflowError:
        pass
    try:
        h = 2 ** math.ceil(math.log2(max(abs(p * math.log(r)), abs(e)) / 350))
        return c * (r ** (p / h) * math.exp(e / h)) ** h
    except OverflowError:
        raise NumericOverflowError(f"{r:g}^{p:g} e^{e:g} overflows") from None


def _exp_terms(alpha, beta, y):
    """Exponential (residue) contributions to E_{a,b}(-y), y > 0 (a float
    or an array), and a first-order bound of their rounding.  a in
    (1,2]: conjugate pair on the principal sheet, whose phase and exponent
    (r = y^(1/a) times O(1)) carry about (4 + ln(y) / 2a) r eps.  a == 1:
    the pair degenerates onto the negative axis, Stokes half-weight."""
    if alpha < 1.0:
        return 0.0, 0.0
    xp = np if isinstance(y, np.ndarray) else math
    r = y ** (1.0 / alpha)
    if alpha == 1.0:
        return (_power_exp(1.0, r, 1.0 - beta, -y)
                * math.cos(math.pi * (1.0 - beta)), 0.0)
    th = math.pi / alpha
    amp = _power_exp(2.0 / alpha, r, 1.0 - beta, r * math.cos(th))
    return (amp * xp.cos(r * math.sin(th) + (1.0 - beta) * th),
            _EPS * (1.0 + r) * (4.0 + xp.log(y) / (2.0 * alpha)) * abs(amp))


def _asym(alpha, beta, y, rel_tol, kmax, pole_tol=0.25):
    """Algebraic asymptotic series plus exponential terms, with a certified
    error bound (see _strict for the residue pair's rounding).  Returns
    (value, ok); a term beyond the double range ends the sum uncertified.

    Terms whose Gamma argument lands within pole_tol of a non-positive
    integer are added to the sum but excluded from the convergence
    bookkeeping: they are spuriously tiny (reciprocal Gamma has a zero
    there) and would otherwise fake an early smallest-term break.  For
    integer alpha the pole distance is constant in k and exact, so callers
    there pass a dust-level pole_tol instead of the drift guard.
    """
    s = 0.0
    c = 0.0
    prev = math.inf
    err = math.inf
    ly = math.log(y)
    for k in range(1, kmax):
        z = beta - alpha * k
        lg, sg = lgam_sgn(z)
        if sg != 1.0 and sg != -1.0:
            continue        # exact pole, the term vanishes
        # log space: y^-k underflows and 1/Gamma overflows long before
        # their product leaves the double range
        lt = -k * ly - lg
        if lt > 709.0:
            break           # the series diverges off the double range
        term = sg * math.exp(lt)
        if k % 2 == 0:
            term = -term
        regular = z > 0.5 or abs(z - round(z)) > pole_tol
        m = abs(term)
        if regular and m >= prev:
            err = m         # first omitted regular term bounds the remainder
            break
        last = regular and m <= 1e-19 * max(abs(s), 1e-300)
        prev = m if regular else prev
        yk = term - c
        t = s + yk
        c = (t - s) - yk
        s = t
        if last:
            err = m
            break
    e, e_err = _exp_terms(alpha, beta, y)
    total = s + e
    # the first omitted term bounds the truncation within a factor 4
    err += 0.25 * e_err if _strict(alpha, beta) else 0.0
    return total, err <= 0.25 * rel_tol * max(abs(total), 1e-300)


# -------------------------------------------------- branch-cut quadrature

def _sinpi(x):
    """sin(pi x), exactly 0 at the integers: x is first reduced to the
    nearest integer n, exactly, since math.sin(math.pi * n) is about
    1.2e-16 n."""
    n = round(x)
    s = math.sin(math.pi * (x - n))
    return -s if n % 2 else s


def _strict(alpha, beta):
    """Whether non-integer alpha routes count the residue rounding in their
    certificate: below beta > alpha - 1.5, the range of the solver rows."""
    return beta <= alpha - 1.5 and alpha not in (1.0, 2.0)


def _reduce_beta(alpha, beta):
    """(b, down): b = beta - down alpha <= alpha + 0.5.  Any lower b is
    integrated as it is: an up-step E_{a,b-a} = 1/Gamma(b-a) + x E_{a,b}
    would multiply the error by |x|.  Past _MAX_TERMS steps, counted in
    closed form, AccuracyError; below, b keeps the bits of its steps."""
    if (beta - alpha - 0.5) / alpha > _MAX_TERMS:
        raise AccuracyError(f"E_{{{alpha},{beta}}} needs more than "
                            f"{_MAX_TERMS} lifts of beta")
    b = beta
    down = 0
    while b > alpha + 0.5:
        b -= alpha
        down += 1
    return b, down


def _lift_beta(alpha, b, down, x, val):
    """Undo _reduce_beta on val = E_{a,b}(x); scalars or arrays alike."""
    for _ in range(down):          # E_{a,b+a} = (E_{a,b} - 1/Gamma(b)) / x
        val = (val - rgamma(b)) / x
        b += alpha
    return val


# Gauss-Legendre nodes on [-1, 1]: every branch-cut panel is integrated by
# the fine rule and checked against the coarse one on the same panel.
_GL_FINE = np.polynomial.legendre.leggauss(20)
_GL_COARSE = np.polynomial.legendre.leggauss(12)
# The nodes of both rules side by side, and as the two columns of a matrix
# the weights of the fine rule and of fine minus coarse, so one product
# gives a panel's integral and its error estimate.
_GL_NODES = np.concatenate([_GL_FINE[0], _GL_COARSE[0]])
_GL_WEIGHTS = np.zeros((len(_GL_NODES), 2))
_GL_WEIGHTS[:len(_GL_FINE[0])] = _GL_FINE[1][:, None]
_GL_WEIGHTS[len(_GL_FINE[0]):, 1] = -_GL_COARSE[1]
# Panel breakpoints in v = log r that do not move with y or b: fractions of
# the lower limit across the e^(v w) tail, then unit steps over the e^-r
# decay up to r = 200, where e^-200 is dwarfed.  Every cut has
# w = a - b + 1 >= 0.5, so one lower limit, e^(v w) below 1e-20 of
# anything at w = 0.5, serves every b; past w = 60 the r^w e^-r bulk nears
# r = 200 and the cut certifies nothing.  Both ends are widened by half a
# lattice cell (see _cut_rows).
_CUT_VMIN = -92.0
_CUT_VMAX = 5.3
_CUT_WMAX = 60.0
_CUT_FIXED = np.concatenate([
    _CUT_VMIN * np.array([1.0, 0.6, 0.35, 0.18, 0.1, 0.05]),
    [-3.0, -1.5, 0.0, 1.0, 2.0, 3.0, 4.0, _CUT_VMAX]])
_CUT_FIXED[[0, -1]] += (-0.5, 0.5)
_CUT_GRADE = 2.0                   # ratio of successive resonance offsets
_CUT_CERT = 1e-13                  # the certified estimate, of |integral|
_CUT_STALL = 1e-8                  # the stall limit after the asymptotics
# The largest v* and w v* the cut takes: past them kappa = e^v*, kappa^w / y
# or e^(w s) over the e^-r bulk leave the normal double range.  The cut
# serves kappa > 5, so v* > 1.6, and w <= 2.5 on the solver rows.
_CUT_SPLIT = 600.0


@functools.lru_cache(maxsize=64)
def _cut_cell(alpha, bs, cell):
    """The panels of one lattice cell of v* and the part of the integrand
    that does not depend on y: (e^s, R), e^s and each R_b of bs laid out as
    (panel, node), cached as read-only arrays.

    The panels in s = v - v* are cut at the resonance offsets, graded
    geometrically from the distance pi|a-1|/a of the poles from the real
    axis, and at _CUT_FIXED - cell, clipped to its ends; empty panels are
    dropped.  R_b(s) = e^(w s) (e^(a s) sin pi b + sin pi (b - a)) / D(s)
    times the panel's half width, with D(s) = (e^(a s) + cos pi a)^2 +
    sin^2 pi a, which does not cancel at the resonance near a = 1."""
    a = alpha
    d0 = min(math.pi * abs(a - 1.0) / a, 0.5)
    grade = d0 * _CUT_GRADE ** np.arange(
        max(1, math.ceil(math.log(2.0 / d0, _CUT_GRADE))))
    fixed = _CUT_FIXED - cell
    bp = np.concatenate([fixed, -grade[::-1], [0.0], grade])
    bp = np.unique(np.clip(bp, fixed[0], fixed[-1]))
    h = 0.5 * np.diff(bp)[:, None]
    s = bp[:-1, None] + h + h * _GL_NODES
    ea = np.exp(a * s)
    den = ea + math.cos(math.pi * a)
    den *= den
    den += _sinpi(a) ** 2
    rs = []
    for b in bs:
        r = ea * _sinpi(b)
        r += _sinpi(b - a)
        r *= np.exp((a - b + 1.0) * s)
        r *= h
        r /= den
        rs.append(r)
    es = np.exp(s)
    for t in [es] + rs:
        t.flags.writeable = False
    return es, tuple(rs)


def _cut_rows(alpha, bs, y, rel_tol=DEFAULT_PRECISION.rel_tol):
    """The branch-cut values of E_{alpha,b}(-y) for an array y > 0, at non-
    integer alpha, for each reduced b in bs (see _reduce_beta), before any
    lift.  Returns one (values, certified) pair per b: the values with the
    residue pair added, nan where the point fails even the stall limit,
    and certified where it passes _CUT_CERT.

    With r = e^v, E_{a,b}(-y) is the residue pair plus (1/pi) times the
    integral over v of e^(v w - r) (r^a sin pi b + y sin pi (b - a)) /
    (r^2a + 2 y r^a cos pi a + y^2), w = a - b + 1.  In s = v - v*, where
    v* = log(y)/a is the point's resonance and kappa = e^v*, the integrand
    is (kappa^w / y) R_b(s) e^(-kappa e^s), and R_b (see _cut_cell) does
    not depend on y.  So the points are grouped by the lattice cell
    round(v*) and each cell's panels and R_b are built once, and kept for
    later calls; the panels cover [_CUT_VMIN - v*, _CUT_VMAX - v*] for
    every point of the cell.  Each point pays one exp(-kappa e^s), shared
    by every b, and per b one product and its reduction by the weights.

    Per point, the fine rule gives the integral I and the sum over panels
    of |fine - coarse| the estimate; the value's error bound is (estimate +
    eps |I|) / pi, plus the residue pair's rounding where _strict(a, b).  A
    value passes a limit when the estimate is within it of |I|, w is
    within _CUT_WMAX, v* and w v* lie in [0, _CUT_SPLIT] and, for strict b,
    the bound is within rel_tol of the value.  Arrays are laid out as
    (point, panel, node), and each point's (panel, node) block is reduced
    by its own matrix product with the weights, so a value depends on its
    own point and b alone, whichever cell and chunk it falls in."""
    a = alpha
    val = np.full((len(bs),) + y.shape, np.nan)
    est = np.full(val.shape, np.nan)
    buf = np.empty((2, _CHUNK))
    # a non-finite integrand only costs certification
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        vs = np.log(y) / a
        cells = np.rint(vs)
        live = (vs >= 0.0) & (vs <= _CUT_SPLIT)
        for cell in np.unique(cells[live]):
            es, rs = _cut_cell(a, bs, cell)
            members = np.flatnonzero(live & (cells == cell))
            step = max(1, _CHUNK // es.size)
            for lo in range(0, len(members), step):
                pts = members[lo:lo + step]
                e, f = buf[:, :len(pts) * es.size].reshape(
                    (2, len(pts)) + es.shape)
                np.multiply(-np.exp(vs[pts])[:, None, None], es, out=e)
                np.exp(e, out=e)
                for k, rb in enumerate(rs):
                    np.multiply(e, rb, out=f)
                    g = f @ _GL_WEIGHTS
                    val[k, pts] = g[..., 0].sum(axis=1)
                    est[k, pts] = np.abs(g[..., 1]).sum(axis=1)
        out = []
        for b, iv, err in zip(bs, val, est):
            w = a - b + 1.0
            scale = np.exp((1.0 - b) * vs)            # kappa^w / y
            iv *= scale
            err *= scale
            res, res_err = _exp_terms(a, b, y)
            value = iv / math.pi + res
            ok = (w <= _CUT_WMAX) & (w * vs <= _CUT_SPLIT)
            if _strict(a, b):
                bound = (err + _EPS * np.abs(iv)) / math.pi + res_err
                ok &= bound <= rel_tol * np.abs(value)
            value[~(ok & (err <= _CUT_STALL * np.abs(iv)))] = np.nan
            out.append((value, ok & (err <= _CUT_CERT * np.abs(iv))))
        return out


# -------------------------------------------- double-double integer alpha

def _two_sum(x, y):
    s = x + y
    bb = s - x
    return s, (x - (s - bb)) + (y - bb)


def _split(x):
    c = 134217729.0 * x            # 2^27 + 1
    hi = c - (c - x)
    return hi, x - hi


def _two_prod(x, y):
    p = x * y
    xh, xl = _split(x)
    yh, yl = _split(y)
    return p, ((xh * yh - p) + xh * yl + xl * yh) + xl * yl


def _dd_add(ah, al, bh, bl):
    s, e = _two_sum(ah, bh)
    return _two_sum(s, e + (al + bl))


def _dd_mul_d(ah, al, b):
    p, e = _two_prod(ah, b)
    return _two_sum(p, e + al * b)


def _dd_div_d(ah, al, b):
    q1 = ah / b
    p, e = _two_prod(q1, b)
    return _two_sum(q1, ((ah - p) - e + al) / b)


def _dd_series(step, beta, x, nmax=2600):
    """E_{step,beta}(x) = (1/Gamma(beta)) sum_n x^n / poch(beta, step n) for
    step in {1, 2}, term recurrence carried in double-double arithmetic.
    Needs beta > 0 (the recurrence divides by beta + j).

    The divisor beta + j must be exact: once j outgrows beta's low mantissa
    bits a plain running `d += 1` sheds them, and that coherent ulp drift
    costs ~13 digits after e^kappa cancellation.  So the divisor is formed
    as a two_sum pair each time and the low part folded in to first order
    (second order is < 1e-32, below the double-double floor)."""
    th, tl = 1.0, 0.0
    sh, sl = 1.0, 0.0
    j = 0.0
    kappa = abs(x) ** (1.0 / step)
    for _ in range(nmax):
        th, tl = _dd_mul_d(th, tl, x)
        for _ in range(step):
            dh, dl = _two_sum(j, beta)
            th, tl = _dd_div_d(th, tl, dh)
            if dl != 0.0:
                ch, cl = _dd_mul_d(th, tl, dl / dh)
                th, tl = _dd_add(th, tl, -ch, -cl)
            j += 1.0
        sh, sl = _dd_add(sh, sl, th, tl)
        if abs(th) < 1e-35 * max(abs(sh), 1e-300) and j + beta > kappa + 10.0:
            break
    return (sh + sl) * rgamma(beta)


def _integer_alpha_neg(m, beta, x, rel_tol):
    """E_{m,beta}(x) for m in {1, 2} and x < 0 outside the Taylor band."""
    y = -x
    limit = 36.0 if m == 1 else 1300.0
    top = 4.0 if m == 1 else 3.0
    if beta == round(beta) and beta > top and y > limit:
        # the asymptotic series does not certify integer beta here: climb
        # from a closed form (good to a few ulps; the trig of sqrt(y) to
        # sqrt(y) ulps) by E_{m,b+m} = (E_{m,b} - 1/Gamma(b)) / x, bounding
        # the error to first order.  It stays small while E_{m,b} is small
        # next to 1/Gamma(b) (b < y for m = 1, b^2 < y for m = 2); past
        # that the difference cancels and the asymptotic series refuses.
        b = beta - math.ceil((beta - top) / m) * m
        val = _integer_alpha_neg(m, b, x, rel_tol)
        rt = math.sqrt(y)
        err = 8.0 * _EPS * (abs(val) if m == 1 else (1.0 + rt) / rt ** (b - 1))
        while b < beta:
            g = rgamma(b)
            val = (val - g) / x
            err = (err + 4.0 * _EPS * abs(g)) / y + 3.0 * _EPS * abs(val)
            b += m
        if err <= 0.25 * rel_tol * abs(val):
            return val
    # closed forms first; integer beta <= 1 reduces exactly because the
    # leading terms sit on Gamma poles: E_{1,k}(x) = x^(1-k) e^x and
    # E_{2,k}(x) = x^ceil((1-k)/2) E_{2,1 or 2}(x)
    if m == 1 and beta == round(beta) and beta <= 4.0:
        k = int(round(beta))
        if k <= 1:
            return (-1.0) ** (1 - k) * _power_exp(1.0, y, 1 - k, x)
        if k == 2:
            return -math.expm1(x) / y
        if k == 3:
            return (math.exp(x) - 1.0 - x) / (x * x)
        return (math.exp(x) - 1.0 - x - 0.5 * x * x) / (x ** 3)
    if m == 2 and beta == round(beta) and beta <= 3.0:
        k = int(round(beta))
        rt = math.sqrt(y)
        if k == 3:
            return (1.0 - math.cos(rt)) / y
        shift = (2 - k) // 2 if k % 2 == 0 else (1 - k) // 2
        base = math.cos(rt) if k % 2 == 1 else math.sin(rt) / rt
        return (-1.0) ** shift * _power_exp(base, y, shift, 0.0)
    if y > limit:
        v, ok = _asym(m, beta, y, rel_tol, _MAX_TERMS, pole_tol=1e-8)
        if not ok:
            raise AccuracyError(
                f"asymptotic series for E_{{{m},{beta}}}({x}) not certified")
        return v
    # lift beta above the Pochhammer pole zone, undo afterwards
    lifts = 0
    b = beta
    while b <= 0.25:
        if lifts == _MAX_TERMS:
            raise AccuracyError(f"E_{{{m},{beta}}}({x}) needs more than "
                                f"{_MAX_TERMS} lifts of beta")
        b += m
        lifts += 1
    val = _dd_series(m, b, x)
    for _ in range(lifts):
        b -= m
        val = rgamma(b) + x * val
    return val


# ------------------------------------------------------------- dispatcher

def _ml(alpha, beta, x, prec=DEFAULT_PRECISION):
    """E_{alpha,beta}(x) for validated inputs: the evaluator the solvers
    call directly, and the scalar route of ml_rows.  For x <= 0 it is the
    rows at the one point, whose scalar route there is the integer-alpha
    code; for x > 0 the power series over the terms kappa needs."""
    rel_tol = prec.rel_tol
    if x <= 0.0:
        return float(_rows(alpha, (beta,), np.array([x]), lambda a, b, v:
                           _integer_alpha_neg(int(a), b, v, rel_tol),
                           rel_tol)[0, 0])
    if math.log(x) / alpha > math.log(708.0):
        raise NumericOverflowError(
            f"E_{{{alpha},{beta}}}({x}) exceeds the double range")
    return float(_taylor_rows(alpha, (beta,), np.array([x]), rel_tol,
                              _term_count(x ** (1.0 / alpha), alpha))[0, 0])


def ml_e(q: MLQuery, p: MLPrecision = DEFAULT_PRECISION) -> float:
    """Evaluate E_{alpha,beta}(x).

    Deterministic (fixed summation orders everywhere).  The series, the
    asymptotic series and the branch cut within 1e-13 of its integral
    certify p.rel_tol (for beta <= alpha - 1.5 with the residue pair's
    rounding).  A cut value where neither certifies is only checked against
    the 1e-8 stall limit of its estimate; within 0.01 of alpha = 1, at
    kappa 5 to 30, such values were within 7.5e-14 of extended-precision
    references (a test pins 1e-12).  Raises
    DomainError on invalid parameters, NumericOverflowError when the value
    or one of its terms exceeds the double range, and AccuracyError where
    no route certifies a value.
    """
    q.validate()
    p.validate()
    val = _ml(q.alpha, q.beta, q.x, p)
    if not math.isfinite(val):
        raise NumericOverflowError(
            f"E_{{{q.alpha},{q.beta}}}({q.x}) is not finite in double "
            "precision")
    return val


# ------------------------------------------------------------- array rows

@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _rows(alpha, betas, x, scalar, rel_tol):
    """ml_rows at the tolerance rel_tol; a non-finite value, as kappa past
    the double range or a lift past it, raises no numpy warning."""
    for beta in betas:
        MLQuery(alpha, beta, 0.0).validate()
    x = np.asarray(x, dtype=float)
    if not np.isfinite(x).all():
        raise DomainError("ml_rows arguments must be finite")
    xf = x.ravel()
    out = np.empty((len(betas), xf.size))
    zero = xf == 0.0
    neg = (xf < 0.0).nonzero()[0]
    kappa = (-xf[neg]) ** (1.0 / alpha)
    band = kappa <= _SERIES_CUTOFF
    series, cut, kappa = neg[band], neg[~band], kappa[~band]
    y = -xf[cut]
    rest = (xf > 0.0).nonzero()[0]      # the scalar route's points
    reduced = {}                   # beta -> (b, down) at non-integer alpha
    if alpha in (1.0, 2.0):
        rest = np.union1d(rest, cut)
    elif cut.size:
        reduced = {beta: _reduce_beta(alpha, beta) for beta in betas}
    bs = tuple(dict.fromkeys(b for b, _ in reduced.values()))
    cuts = dict(zip(bs, _cut_rows(alpha, bs, y, rel_tol))) if bs else {}
    if series.size:
        out[:, series] = _taylor_rows(alpha, betas, xf[series], rel_tol)
    for row, beta in zip(out, betas):
        row[zero] = rgamma(beta)
        if beta in reduced:
            b, down = reduced[beta]
            val, ok = cuts[b]
            stalled = np.isnan(val)
            row[cut] = val = _lift_beta(alpha, b, down, -y, val)
            for k in (~(ok & np.isfinite(val))).nonzero()[0]:
                yk = float(y[k])
                if yk >= _ASYM_CUTOFF or kappa[k] >= 30.0:
                    v, good = _asym(alpha, beta, yk, rel_tol, 400)
                    if good:
                        row[cut[k]] = v
                        continue
                if stalled[k]:
                    raise AccuracyError(f"no route certifies E_{{{alpha},"
                                        f"{beta}}}({-yk})")
        for i in rest:
            row[i] = scalar(alpha, beta, float(xf[i]))
    return out.reshape((len(betas),) + x.shape)


def ml_rows(alpha, betas, x, scalar=_ml):
    """E_{alpha,beta} at every element of the array x, for each beta in
    betas: an array of shape (len(betas),) + x.shape.

    The routes, in the module docstring's order, are chosen per element
    once for every beta; x > 0, and at integer alpha the points past the
    series, go to scalar(alpha, beta, x_i), one call per element.  The
    branch cut is integrated in one pass over the distinct reduced b of
    _reduce_beta and lifted to each beta that shares one.  Each value
    depends on its own element and beta only, never on the length or
    order of x or on the other betas, and is _ml's at that element, bit
    for bit.  Like _ml, non-finite values are returned, not raised.
    """
    return _rows(alpha, betas, x, scalar, DEFAULT_PRECISION.rel_tol)


def ml_row(alpha, beta, x, scalar=_ml):
    """E_{alpha,beta} at every element of the array x: the one-beta case
    of ml_rows."""
    return ml_rows(alpha, (beta,), x, scalar)[0]


# ------------------------------------------------------- derived contracts

@functools.lru_cache(maxsize=64, typed=True)
def ml_bound_probe(alpha: float, beta: float, x_max: float,
                   n_grid: int) -> float:
    """Empirical sup of (1 + x) |E_{a,b}(-x)| over a logarithmic grid on
    [0, x_max]; a lower estimate of the uniform decay constant.  A pure
    function of its arguments, so each value is computed once per process
    (a refusal is raised again each time)."""
    if not 0.0 < alpha < 2.0:
        raise DomainError("alpha must lie in (0, 2)")
    if x_max <= 0.0:
        raise DomainError("x_max must be positive")
    if n_grid < 2:
        raise DomainError("n_grid must be >= 2")
    sup = abs(rgamma(beta))           # x = 0 endpoint
    lo = math.log10(x_max) - 8.0
    hi = math.log10(x_max)
    if n_grid > 2:
        xg = 10.0 ** (lo + (hi - lo) * np.arange(n_grid - 1) / (n_grid - 2))
    else:
        xg = np.array([x_max])
    v = (1.0 + xg) * np.abs(ml_row(alpha, beta, -xg))
    return max(sup, float(v.max()))


def ml_identity_residuals(alpha: float, lam: float, t: float, h: float):
    """Absolute residuals of the three derivative identities linking the
    homogeneous propagators, left sides by central difference of step h:

      d/dt E_{a,1}(-lam t^a)            = -lam t^(a-1) E_{a,a}(-lam t^a)
      d/dt [t E_{a,2}(-lam t^a)]        = E_{a,1}(-lam t^a)
      d/dt [t^(a-1) E_{a,a}(-lam t^a)]  = t^(a-2) E_{a,a-1}(-lam t^a)
    """
    if not 1.0 < alpha < 2.0:
        raise DomainError("alpha must lie in (1, 2)")
    if not all(0.0 < v < math.inf for v in (lam, t, h)):
        raise DomainError("lam, t, h must be positive and finite")
    if h > t / 4.0:
        raise DomainError("central-difference step too large relative to t")

    a = alpha

    def e(beta, s):
        return _ml(a, beta, -lam * s ** a)

    tm, tp = t - h, t + h
    cd1 = (e(1.0, tp) - e(1.0, tm)) / (2.0 * h)
    r1 = abs(cd1 - (-lam * t ** (a - 1.0) * e(a, t)))
    cd2 = (tp * e(2.0, tp) - tm * e(2.0, tm)) / (2.0 * h)
    r2 = abs(cd2 - e(1.0, t))
    cd3 = (tp ** (a - 1.0) * e(a, tp) - tm ** (a - 1.0) * e(a, tm)) / (2.0 * h)
    r3 = abs(cd3 - t ** (a - 2.0) * e(a - 1.0, t))
    return r1, r2, r3


def kernel_moments(alpha, t, row, deriv=False):
    """(M0, M1): the moments int_0^t s^k K(s) ds, k = 0, 1, of the forcing
    kernel K = s^(a-1) E_{a,a}(-lam s^a), or with deriv of its derivative's
    kernel s^(a-2) E_{a,a-1}(-lam s^a); row(beta) is E_{a,beta}(-lam t^a),
    a kernel-table row over a grid t or a scalar at one t.

      M0  = t^a E_{a,a+1}       M1  = t^(a+1) [E_{a,a+1} - E_{a,a+2}]
      M'0 = t^(a-1) E_{a,a}     M'1 = t^a [E_{a,a} - E_{a,a+1}]

    The reciprocal-Gamma difference identity collapses the series of M1
    and M'1 to these forms term by term (the raw series cancels)."""
    a = alpha
    ba, ba1, ba2 = moment_betas(a)
    p0, p1, b0, b1 = ((a - 1.0, a, ba, ba1) if deriv
                      else (a, a + 1.0, ba1, ba2))
    e0 = row(b0)
    return t ** p0 * e0, t ** p1 * (e0 - row(b1))


def moment_betas(alpha):
    """The betas of every row kernel_moments reads, with deriv or not."""
    return alpha, alpha + 1.0, alpha + 2.0


def _moment(alpha, lam, h, k, p, deriv):
    if not 1.0 < alpha <= 2.0:
        raise DomainError("alpha must lie in (1, 2]")
    if not 0.0 <= lam < math.inf:
        raise DomainError("lam must be nonnegative and finite")
    if not 0.0 < h < math.inf:
        raise DomainError("h must be positive and finite")
    if k not in (0, 1):
        raise DomainError("k must be 0 or 1")
    z = -lam * h ** alpha
    return kernel_moments(alpha, h, lambda beta: _ml(alpha, beta, z, p),
                          deriv)[k]


def kernel_moment(alpha: float, lam: float, h: float, k: int,
                  p: MLPrecision = DEFAULT_PRECISION) -> float:
    """M_k = int_0^h s^k s^(a-1) E_{a,a}(-lam s^a) ds, k in {0, 1}; the
    closed forms are those of kernel_moments."""
    return _moment(alpha, lam, h, k, p, deriv=False)


def deriv_kernel_moment(alpha: float, lam: float, h: float, k: int,
                        p: MLPrecision = DEFAULT_PRECISION) -> float:
    """M'_k = int_0^h s^k s^(a-2) E_{a,a-1}(-lam s^a) ds, k in {0, 1}, the
    moments of the differentiated kernel (integrable for a > 1); the closed
    forms are those of kernel_moments."""
    return _moment(alpha, lam, h, k, p, deriv=True)
