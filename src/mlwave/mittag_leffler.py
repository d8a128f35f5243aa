"""Two-parameter Mittag-Leffler evaluation on the real axis.

E_{a,b}(x) = sum_n x^n / Gamma(a n + b) is the kernel of every propagator
in this package.  The evaluator targets near machine precision (default
rel_tol 1e-12) for a in (0, 2], real b, and real x, with the solvers only
ever asking for x <= 0.

Regime map on the negative axis (y = -x, kappa = y^(1/a)):

  kappa <= 5               power series, log-space terms, Kahan summation
  y >= 50 or kappa >= 30   asymptotic series + exponential terms, accepted
                           only when a smallest-term error bound certifies
                           the requested tolerance
  a exactly 1 or 2         closed forms (exp / cos families) where they
                           exist, else a double-double Pochhammer series
  otherwise                real branch-cut integral (weighted rational
                           density against e^-r) on a fixed composite
                           Gauss-Legendre rule with an embedded error
                           estimate

The cancellation amplitude of the alternating series is e^kappa, hence the
series cutoff (_SERIES_CUTOFF, like _ASYM_CUTOFF a fixed constant) lives in
kappa space; an |x|-space cutoff fails for a < 1.

ml_rows evaluates whole rows, one array of points at several betas, with
array code: the power series over a fixed term count, and the branch cut
in one pass over every reduced beta, lifted to the betas that share one.
The scalar evaluator takes the same pass at its one point, so both give
the same bits there.  Rows keep a cut value only where the estimate is
within 1e-13 of the integral; the rest, and the routes without an array
form, go to the scalar evaluator, which accepts an estimate up to 1e-8 of
the integral.  ml_row is the one-beta case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln, gammasgn, rgamma

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
# The route thresholds, the same for the scalar evaluator and the rows:
# kappa = |x|^(1/alpha) up to which the pure power series runs, the |x| past
# which the asymptotic expansion is tried first, and the series' term cap.
# Accuracy is certified by each route, not assumed from the thresholds.
_SERIES_CUTOFF = 5.0
_ASYM_CUTOFF = 50.0
_MAX_TERMS = 20000


# ----------------------------------------------------------- power series

def _kappa(y, alpha):
    """y^(1/alpha), y >= 0, or inf past the double range (small alpha)."""
    try:
        return y ** (1.0 / alpha)
    except OverflowError:
        return math.inf


def _term_count(kappa, alpha):
    """Power-series terms for kappa: the terms peak near alpha n = kappa
    and are spent 10 sqrt(kappa) + 30 further on; at most _MAX_TERMS."""
    n = (kappa + 10.0 * math.sqrt(kappa) + 30.0) / alpha
    return min(int(min(n, _MAX_TERMS)) + 24, _MAX_TERMS)


def _taylor(alpha, beta, x, rel_tol):
    """Kahan-compensated power series; every term through exp/log so large
    Gamma arguments neither overflow nor underflow.  Poles of Gamma are
    detected through gammasgn and skipped."""
    if x == 0.0:
        return float(rgamma(beta))
    ax = abs(x)
    lax = math.log(ax)
    kappa = _kappa(ax, alpha)
    if x > 0.0 and kappa > 708.0:
        raise NumericOverflowError(
            f"E_{{{alpha},{beta}}}({x}) exceeds the double range")
    nmax = _term_count(kappa, alpha)
    s = 0.0
    c = 0.0
    small_run = 0
    converged = False
    last = math.inf
    for n in range(nmax):
        g = alpha * n + beta
        sg = float(gammasgn(g))
        # gammasgn is nan at exact non-positive integers (Gamma poles)
        if sg != 1.0 and sg != -1.0:
            continue
        term = sg * math.exp(n * lax - float(gammaln(g)))
        if x < 0.0 and (n % 2 == 1):
            term = -term
        yk = term - c
        t = s + yk
        c = (t - s) - yk
        s = t
        last = abs(term)
        if last <= rel_tol * 1e-3 * max(abs(s), 1e-300) and g > kappa + 10.0:
            small_run += 1
            if small_run >= 4:
                converged = True
                break
        else:
            small_run = 0
    if not converged and last > rel_tol * max(abs(s), 1e-300):
        raise AccuracyError(
            f"power series for E_{{{alpha},{beta}}}({x}) did not converge "
            f"within {nmax} terms")
    return s


# ------------------------------------------------- asymptotic + residues

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
        return (r ** (1.0 - beta) * xp.exp(-y)
                * math.cos(math.pi * (1.0 - beta)), 0.0)
    th = math.pi / alpha
    amp = (2.0 / alpha) * r ** (1.0 - beta) * xp.exp(r * math.cos(th))
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
        sg = float(gammasgn(z))
        if sg != 1.0 and sg != -1.0:
            continue        # exact pole, the term vanishes
        # log space: y^-k underflows and 1/Gamma overflows long before
        # their product leaves the double range
        lt = -k * ly - float(gammaln(z))
        if lt > 709.0:
            break           # the series diverges off the double range
        term = sg * math.exp(lt)
        if k % 2 == 0:
            term = -term
        near_pole = z <= 0.5 and abs(z - round(z)) <= pole_tol
        m = abs(term)
        if not near_pole:
            if m >= prev:
                err = m     # first omitted regular term bounds the remainder
                break
            if m <= 1e-19 * max(abs(s), 1e-300):
                err = m
                yk = term - c
                t = s + yk
                c = (t - s) - yk
                s = t
                break
            prev = m
        yk = term - c
        t = s + yk
        c = (t - s) - yk
        s = t
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
    would multiply the error by |x|."""
    b = beta
    down = 0
    while b > alpha + 0.5:
        b -= alpha
        down += 1
    return b, down


def _lift_beta(alpha, b, down, x, val):
    """Undo _reduce_beta on val = E_{a,b}(x); scalars or arrays alike."""
    for _ in range(down):          # E_{a,b+a} = (E_{a,b} - 1/Gamma(b)) / x
        val = (val - float(rgamma(b))) / x
        b += alpha
    return val


# Gauss-Legendre nodes on [-1, 1]: every branch-cut panel is integrated by
# the fine rule and checked against the coarse one on the same panel.
_GL_FINE = np.polynomial.legendre.leggauss(20)
_GL_COARSE = np.polynomial.legendre.leggauss(12)
# The nodes of both rules side by side, and their weights as the two
# columns of a matrix, so one product gives a panel's fine and coarse sums.
_GL_NODES = np.concatenate([_GL_FINE[0], _GL_COARSE[0]])
_GL_WEIGHTS = np.zeros((len(_GL_NODES), 2))
_GL_WEIGHTS[:len(_GL_FINE[0]), 0] = _GL_FINE[1]
_GL_WEIGHTS[len(_GL_FINE[0]):, 1] = _GL_COARSE[1]
# Panel breakpoints in v = log r that do not move with y or b: fractions of
# the lower limit across the e^(v w) tail, then unit steps over the e^-r
# decay up to r = 200, where e^-200 is dwarfed.  Every cut has
# w = a - b + 1 >= 0.5, so one lower limit, e^(v w) below 1e-20 of
# anything at w = 0.5, serves every b; past w = 60 the r^w e^-r bulk nears
# r = 200 and the cut certifies nothing.
_CUT_VMIN = -92.0
_CUT_VMAX = 5.3
_CUT_WMAX = 60.0
_CUT_FIXED = np.concatenate([
    _CUT_VMIN * np.array([1.0, 0.6, 0.35, 0.18, 0.1, 0.05]),
    [-3.0, -1.5, 0.0, 1.0, 2.0, 3.0, 4.0, _CUT_VMAX]])
_CUT_GRADE = 2.0                   # ratio of successive resonance offsets
_CUT_CERT = 1e-13                  # a row's accepted estimate, of |integral|
_CUT_STALL = 1e-8                  # the scalar's, of |integral|
_CHUNK = 1 << 14                   # doubles: 128 KB per (points x nodes) array


def _cut_rows(alpha, bs, y, limit=_CUT_CERT,
              rel_tol=DEFAULT_PRECISION.rel_tol):
    """The branch-cut values of E_{alpha,b}(-y) for an array y > 0, at non-
    integer alpha, for each reduced b in bs (see _reduce_beta), before any
    lift.  Returns one (values, certified) pair per b, the values with the
    residue pair added.

    With r = e^v, E_{a,b}(-y) is the residue pair plus (1/pi) times the
    integral over v of e^(v w - r) (r^a sin pi b + y sin pi (b - a)) /
    (r^2a + 2 y r^a cos pi a + y^2), w = a - b + 1, whose denominator is
    at least y^2 sin^2 pi a > 0.  It is integrated over [_CUT_VMIN,
    _CUT_VMAX] on panels cut at the fixed breakpoints above and at offsets
    s = v - v* from each point's resonance v* = log(y)/a, graded
    geometrically down to the distance pi|a-1|/a of its poles from the
    real axis.  Per point, the fine rule gives the integral I and the sum
    over panels of |fine - coarse| the estimate; the value's error bound is
    (estimate + eps |I|) / pi, plus the residue pair's rounding where
    _strict(a, b).  A value is certified when the estimate is within limit
    of |I|, w is within _CUT_WMAX and, for strict b, the bound within
    rel_tol of the value.

    Nothing of the panels depends on b, so the nodes, r = e^v, r^a and the
    denominator are built once per chunk for every b; only the numerator
    and r^w e^-r are per b.  Arrays are laid out as (point, panel, node),
    and each point's (panel, node) block is reduced by its own matrix
    product with the weights, so a value depends on its own point and b
    alone."""
    a = alpha
    consts = [(_sinpi(b), _sinpi(b - a), a - b + 1.0) for b in bs]
    ca = math.cos(math.pi * a)
    d0 = min(math.pi * abs(a - 1.0) / a, 0.5)
    grade = d0 * _CUT_GRADE ** np.arange(
        max(1, math.ceil(math.log(2.0 / d0, _CUT_GRADE))))
    offsets = np.concatenate([-grade[::-1], [0.0], grade])
    nodes = len(_GL_NODES) * (len(_CUT_FIXED) + len(offsets) - 1)
    step = max(1, _CHUNK // nodes)
    val = np.empty((len(bs),) + y.shape)
    est = np.empty(val.shape)
    # a non-finite integrand only costs certification
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for lo in range(0, len(y), step):
            yc = y[lo:lo + step, None]
            bp = np.concatenate(
                [np.broadcast_to(_CUT_FIXED, (len(yc), len(_CUT_FIXED))),
                 np.log(yc) / a + offsets], axis=1)
            bp = np.sort(np.clip(bp, _CUT_VMIN, _CUT_VMAX), axis=1)
            h = 0.5 * np.diff(bp, axis=1)
            v = (bp[:, :-1] + h)[:, :, None] + h[:, :, None] * _GL_NODES
            yc = yc[:, :, None]
            ra = np.exp(a * v)
            den = ra + 2.0 * ca * yc
            den *= ra
            den += yc * yc
            r = np.exp(v)
            for k, (sb, sba, w) in enumerate(consts):
                f = ra * sb
                f += yc * sba
                e = v * w
                e -= r
                f *= np.exp(e, out=e)
                f /= den
                fine, coarse = (f @ _GL_WEIGHTS).transpose(2, 0, 1) * h
                val[k, lo:lo + step] = fine.sum(axis=1)
                est[k, lo:lo + step] = np.abs(fine - coarse).sum(axis=1)
        out = []
        for b, (_, _, w), iv, err in zip(bs, consts, val, est):
            res, res_err = _exp_terms(a, b, y)
            value = iv / math.pi + res
            ok = (err <= limit * np.abs(iv)) & (w <= _CUT_WMAX)
            if _strict(a, b):
                bound = (err + _EPS * np.abs(iv)) / math.pi + res_err
                ok &= bound <= rel_tol * np.abs(value)
            out.append((value, ok))
        return out


def _cut(alpha, beta, y, rel_tol):
    """The branch cut at the one point y: _cut_rows' pass and certificate,
    with the scalar's stall limit on the estimate, lifted to beta."""
    b, down = _reduce_beta(alpha, beta)
    [(val, ok)] = _cut_rows(alpha, (b,), np.array([y]), _CUT_STALL, rel_tol)
    if not ok[0]:
        raise AccuracyError(
            f"branch cut for E_{{{alpha},{beta}}}({-y}) not certified")
    return _lift_beta(alpha, b, down, -y, float(val[0]))


# -------------------------------------------- double-double integer alpha

def _two_sum(x, y):
    s = x + y
    bb = s - x
    e = (x - (s - bb)) + (y - bb)
    return s, e


def _split(x):
    c = 134217729.0 * x            # 2^27 + 1
    hi = c - (c - x)
    return hi, x - hi


def _two_prod(x, y):
    p = x * y
    xh, xl = _split(x)
    yh, yl = _split(y)
    e = ((xh * yh - p) + xh * yl + xl * yh) + xl * yl
    return p, e


def _dd_add(ah, al, bh, bl):
    s, e = _two_sum(ah, bh)
    e += al + bl
    return _two_sum(s, e)


def _dd_mul_d(ah, al, b):
    p, e = _two_prod(ah, b)
    e += al * b
    return _two_sum(p, e)


def _dd_div_d(ah, al, b):
    q1 = ah / b
    p, e = _two_prod(q1, b)
    r = ((ah - p) - e + al) / b
    return _two_sum(q1, r)


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
    return (sh + sl) * float(rgamma(beta))


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
            g = float(rgamma(b))
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
            return x ** (1 - k) * math.exp(x)
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
        return x ** shift * base
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
        b += m
        lifts += 1
    val = _dd_series(m, b, x)
    for _ in range(lifts):
        b -= m
        val = float(rgamma(b)) + x * val
    return val


# ------------------------------------------------------------- dispatcher

def _ml(alpha, beta, x, prec=DEFAULT_PRECISION):
    """E_{alpha,beta}(x) for validated inputs: the evaluator the solvers
    call directly, and the scalar fallback of ml_row."""
    rel_tol = prec.rel_tol
    if x == 0.0:
        return float(rgamma(beta))
    if x > 0.0:
        return _taylor(alpha, beta, x, rel_tol)
    y = -x
    kappa = _kappa(y, alpha)
    if kappa <= _SERIES_CUTOFF:
        return _taylor(alpha, beta, x, rel_tol)
    if alpha == 1.0 or alpha == 2.0:
        return _integer_alpha_neg(int(alpha), beta, x, rel_tol)
    if y >= _ASYM_CUTOFF or kappa >= 30.0:
        v, ok = _asym(alpha, beta, y, rel_tol, 400)
        if ok:
            return v
    return _cut(alpha, beta, y, rel_tol)


def ml_e(q: MLQuery, p: MLPrecision = DEFAULT_PRECISION) -> float:
    """Evaluate E_{alpha,beta}(x).

    Deterministic (fixed summation orders everywhere).  The series and
    asymptotic routes certify p.rel_tol, and so does the branch cut for
    beta <= alpha - 1.5.  For beta > alpha - 1.5 a branch-cut value is only
    checked against the 1e-8 stall limit of its quadrature estimate; within
    0.01 of alpha = 1, at kappa 5 to 13, it misses p.rel_tol by up to 5e-11
    against extended-precision references.  Raises DomainError on invalid
    parameters, NumericOverflowError when the value exceeds the double
    range (large positive x) and AccuracyError where no route certifies a
    value.
    """
    q.validate()
    p.validate()
    val = _ml(q.alpha, q.beta, q.x, p)
    if not math.isfinite(val):
        raise NumericOverflowError(
            f"E_{{{q.alpha},{q.beta}}}({q.x}) is not finite in double precision")
    return val


# ------------------------------------------------------------- array rows

def _taylor_rows(alpha, betas, x):
    """_taylor for x < 0 with kappa <= _SERIES_CUTOFF at each beta of betas,
    as one (len(betas), len(x)) array: the same log-space terms over the
    term count the cutoff itself needs, so that no element depends on
    another or on the other betas.  n log|x| is formed once per chunk of
    x for every beta.  Each element's terms are summed along its own
    contiguous row (numpy's pairwise order)."""
    n = np.arange(_term_count(_SERIES_CUTOFF, alpha))
    out = np.empty((len(betas), len(x)))
    terms = []
    for beta in betas:
        g = alpha * n + beta
        sg = gammasgn(g)
        sg[n % 2 == 1] *= -1.0
        # gammasgn is nan at exact non-positive integers (Gamma poles)
        keep = np.abs(sg) == 1.0
        terms.append((None if keep.all() else n[keep], sg[keep],
                      gammaln(g[keep])))
    step = max(1, _CHUNK // len(n))
    for lo in range(0, len(x), step):
        lx = np.log(-x[lo:lo + step, None])
        nlx = lx * n
        for row, (kept, sg, lg) in zip(out, terms):
            # a beta with poles among its terms sums the others only
            e = (nlx if kept is None else lx * kept) - lg
            # terms below e^-700 add e^-700 instead, which cannot move
            # any sum above 1e-286, and exp is far slower where its
            # result is subnormal
            np.maximum(e, -700.0, out=e)
            np.exp(e, out=e)
            e *= sg
            row[lo:lo + step] = e.sum(axis=1)
    return out


def ml_rows(alpha, betas, x, scalar=_ml):
    """E_{alpha,beta} at every element of the array x, for each beta in
    betas: an array of shape (len(betas),) + x.shape.

    The routes are chosen per element once for every beta:

      x == 0                         1/Gamma(beta)
      x < 0, kappa <= _SERIES_CUTOFF power series, fixed term count
      x < 0, non-integer alpha       branch cut (_cut_rows), kept where
                                     certified
      anything else                  scalar(alpha, beta, x_i), one call per
                                     element

    The branch cut is integrated in one pass over the distinct reduced b
    of _reduce_beta and lifted to each beta that shares one.  Each value
    depends on its own element and beta only, never on the length or
    order of x or on the other betas, and agrees with _ml to the
    evaluator's tolerance.  Like _ml, non-finite values are returned, not
    raised.
    """
    for beta in betas:
        MLQuery(alpha, beta, 0.0).validate()
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise DomainError("ml_rows arguments must be finite")
    xf = x.ravel()
    out = np.empty((len(betas), xf.size))
    zero = xf == 0.0
    neg = xf < 0.0
    kappa = np.zeros(xf.shape)
    with np.errstate(over="ignore"):     # inf past the double range
        kappa[neg] = (-xf[neg]) ** (1.0 / alpha)
    series = neg & (kappa <= _SERIES_CUTOFF)
    cut = np.flatnonzero(neg & ~series)
    y = -xf[cut]
    reduced = {}                   # beta -> (b, down) at non-integer alpha
    if alpha not in (1.0, 2.0) and cut.size:
        reduced = {beta: _reduce_beta(alpha, beta) for beta in betas}
    bs = tuple(dict.fromkeys(b for b, _ in reduced.values()))
    cuts = dict(zip(bs, _cut_rows(alpha, bs, y))) if bs else {}
    if series.any():
        out[:, series] = _taylor_rows(alpha, betas, xf[series])
    for row, beta in zip(out, betas):
        row[zero] = float(rgamma(beta))
        done = zero | series
        if beta in reduced:
            b, down = reduced[beta]
            val, ok = cuts[b]
            with np.errstate(over="ignore", invalid="ignore",
                             divide="ignore"):
                val = _lift_beta(alpha, b, down, -y, val)
            ok = ok & np.isfinite(val)
            row[cut[ok]] = val[ok]
            done[cut[ok]] = True
        for i in np.flatnonzero(~done):
            row[i] = scalar(alpha, beta, float(xf[i]))
    return out.reshape((len(betas),) + x.shape)


def ml_row(alpha, beta, x, scalar=_ml):
    """E_{alpha,beta} at every element of the array x: the one-beta case
    of ml_rows."""
    return ml_rows(alpha, (beta,), x, scalar)[0]


# ------------------------------------------------------- derived contracts

def ml_bound_probe(alpha: float, beta: float, x_max: float, n_grid: int) -> float:
    """Empirical sup of (1 + x) |E_{a,b}(-x)| over a logarithmic grid on
    [0, x_max]; a lower estimate of the uniform decay constant."""
    if not 0.0 < alpha < 2.0:
        raise DomainError("alpha must lie in (0, 2)")
    if x_max <= 0.0:
        raise DomainError("x_max must be positive")
    if n_grid < 2:
        raise DomainError("n_grid must be >= 2")
    sup = abs(float(rgamma(beta)))           # x = 0 endpoint
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
    if lam <= 0.0 or t <= 0.0 or h <= 0.0:
        raise DomainError("lam, t, h must be positive")
    if h > t / 4.0:
        raise DomainError("central-difference step too large relative to t")

    a = alpha
    p = DEFAULT_PRECISION

    def e(beta, s):
        return _ml(a, beta, -lam * s ** a, p)

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
    if lam < 0.0:
        raise DomainError("lam must be nonnegative")
    if h <= 0.0:
        raise DomainError("h must be positive")
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
