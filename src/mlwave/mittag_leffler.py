"""Two-parameter Mittag-Leffler evaluation on the real axis.

E_{a,b}(x) = sum_n x^n / Gamma(a n + b) is the kernel of every propagator
in this package.  The evaluator targets near machine precision (default
rel_tol 1e-12) for a in (0, 2], real b, and real x, with the solvers only
ever asking for x <= 0.

Regime map on the negative axis (y = -x, kappa = y^(1/a)):

  kappa <= series_cutoff   power series, log-space terms, Kahan summation
  large y or kappa         asymptotic series + exponential terms, accepted
                           only when a smallest-term error bound certifies
                           the requested tolerance
  a exactly 1 or 2         closed forms (exp / cos families) where they
                           exist, else a double-double Pochhammer series
  otherwise                real branch-cut integral (weighted rational
                           density against e^-r) via adaptive quadrature

The cancellation amplitude of the alternating series is e^kappa, hence the
series cutoff lives in kappa space; an |x|-space cutoff fails for a < 1.

ml_row evaluates a whole (alpha, beta) row at once with array code: the
power series over a fixed term count and the branch cut on a fixed
composite Gauss-Legendre rule with an embedded error estimate.  Points the
estimate does not certify, and the routes without an array form, go to
the scalar evaluator above, which stays the reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad
from scipy.special import gammaln, gammasgn, rgamma

from .errors import AccuracyError, DomainError, NumericOverflowError

__all__ = [
    "MLQuery",
    "MLPrecision",
    "DEFAULT_PRECISION",
    "ml_e",
    "ml_row",
    "ml_bound_probe",
    "ml_identity_residuals",
    "kernel_moment",
    "kernel_moments",
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
    """Evaluation policy.

    series_cutoff bounds kappa = |x|^(1/alpha) for the pure power series;
    asym_cutoff is the |x| threshold past which the asymptotic expansion is
    attempted first.  Both are tunable defaults, accuracy is certified
    internally rather than assumed from the thresholds.
    """

    rel_tol: float = 1e-12
    series_cutoff: float = 5.0
    asym_cutoff: float = 50.0
    max_terms: int = 20000

    def validate(self):
        if not 0.0 < self.rel_tol < 1.0:
            raise DomainError("rel_tol must lie in (0, 1)")
        if not self.series_cutoff < self.asym_cutoff:
            raise DomainError("series_cutoff must be below asym_cutoff")
        if self.max_terms < 1:
            raise DomainError("max_terms must be >= 1")


DEFAULT_PRECISION = MLPrecision()
_EPS = float(np.finfo(float).eps)


# ----------------------------------------------------------- power series

def _taylor(alpha, beta, x, rel_tol, max_terms):
    """Kahan-compensated power series; every term through exp/log so large
    Gamma arguments neither overflow nor underflow.  Poles of Gamma are
    detected through gammasgn and skipped."""
    if x == 0.0:
        return float(rgamma(beta))
    ax = abs(x)
    lax = math.log(ax)
    kappa = ax ** (1.0 / alpha)
    if x > 0.0 and kappa > 708.0:
        raise NumericOverflowError(
            f"E_{{{alpha},{beta}}}({x}) exceeds the double range")
    nmax = min(int((kappa + 10.0 * math.sqrt(kappa) + 30.0) / alpha) + 24,
               max_terms)
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

_CUT_VMAX = 5.3                    # r = 200, e^-200 dwarfed


def _cut_setup(alpha, beta):
    """Constants of the branch-cut integrand for a reduced beta:
    (sin pi b, sin pi (b - a), cos pi a, w = a - b + 1, vmin)."""
    w = alpha - beta + 1.0         # at least 0.5
    if w > 60.0:                   # the r^w e^-r bulk nears r = 200
        raise AccuracyError(f"beta={beta} is below the branch cut's range")
    return (math.sin(math.pi * beta), math.sin(math.pi * (beta - alpha)),
            math.cos(math.pi * alpha), w,
            -46.0 / w)             # e^(v w) below 1e-20 of anything


def _strict(alpha, beta):
    """Whether non-integer alpha routes count the residue rounding in their
    certificate: below beta > alpha - 1.5, the range of the solver rows."""
    return beta <= alpha - 1.5 and alpha not in (1.0, 2.0)


def _cut_core(alpha, beta, y):
    """Branch-cut integral for E_{a,b}(-y), non-integer a in (0,2) and
    b <= a+0.5.  Log substitution r = e^v keeps the domain compact; the
    denominator is bounded below by y^2 sin^2(pi a) > 0.  Returns the
    value and a bound on its absolute error: quad's estimate, the
    integral's rounding and the residue pair's."""
    a = alpha
    sb, sba, ca, w, vmin = _cut_setup(a, beta)

    def g(v):
        r = math.exp(v)
        ra = r ** a
        den = ra * ra + 2.0 * y * ra * ca + y * y
        return math.exp(-r + v * w) * (ra * sb + y * sba) / den

    vmax = _CUT_VMAX
    vstar = math.log(y) / a        # resonance location
    pts = sorted({p for p in (vstar - 1.0, vstar - 0.3, vstar,
                              vstar + 0.3, vstar + 1.0, 0.0)
                  if vmin < p < vmax})
    iv, est = quad(g, vmin, vmax, points=pts, limit=300,
                   epsabs=1e-300, epsrel=5e-14)
    if est > 1e-8 * max(abs(iv), 1e-250):
        raise AccuracyError(
            f"branch-cut quadrature stalled for E_{{{alpha},{beta}}}({-y})")
    e, e_err = _exp_terms(a, beta, y)
    return iv / math.pi + e, (est + _EPS * abs(iv)) / math.pi + e_err


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


def _cut(alpha, beta, y, rel_tol):
    b, down = _reduce_beta(alpha, beta)
    val, err = _cut_core(alpha, b, y)
    if _strict(alpha, b) and not err <= rel_tol * abs(val):
        raise AccuracyError(
            f"branch cut for E_{{{alpha},{beta}}}({-y}) not certified")
    return _lift_beta(alpha, b, down, -y, val)


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


def _integer_alpha_neg(m, beta, x, rel_tol, max_terms):
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
        val = _integer_alpha_neg(m, b, x, rel_tol, max_terms)
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
        v, ok = _asym(m, beta, y, rel_tol, max_terms, pole_tol=1e-8)
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
        return _taylor(alpha, beta, x, rel_tol, prec.max_terms)
    y = -x
    kappa = y ** (1.0 / alpha)
    if kappa <= prec.series_cutoff:
        return _taylor(alpha, beta, x, rel_tol, prec.max_terms)
    if alpha == 1.0 or alpha == 2.0:
        return _integer_alpha_neg(int(alpha), beta, x, rel_tol, prec.max_terms)
    if y >= prec.asym_cutoff or kappa >= 30.0:
        v, ok = _asym(alpha, beta, y, rel_tol, min(prec.max_terms, 400))
        if ok:
            return v
    return _cut(alpha, beta, y, rel_tol)


def ml_e(q: MLQuery, p: MLPrecision = DEFAULT_PRECISION) -> float:
    """Evaluate E_{alpha,beta}(x).

    Deterministic (fixed summation orders everywhere); relative accuracy
    p.rel_tol against extended-precision references on x in [-1e6, 10].
    Raises DomainError on invalid parameters and NumericOverflowError when
    the value exceeds the double range (large positive x).
    """
    q.validate()
    p.validate()
    val = _ml(q.alpha, q.beta, q.x, p)
    if not math.isfinite(val):
        raise NumericOverflowError(
            f"E_{{{q.alpha},{q.beta}}}({q.x}) is not finite in double precision")
    return val


# ------------------------------------------------------------- array rows

# Gauss-Legendre nodes on [-1, 1]: every branch-cut panel is integrated by
# the fine rule and checked against the coarse one on the same panel.
_GL_FINE = np.polynomial.legendre.leggauss(20)
_GL_COARSE = np.polynomial.legendre.leggauss(12)
_GL_NODES = np.concatenate([_GL_FINE[0], _GL_COARSE[0]])
_GL_WEIGHTS = np.concatenate([_GL_FINE[1], _GL_COARSE[1]])
_NF = len(_GL_FINE[0])
# Panel breakpoints in v = log r that do not move with y: fractions of vmin
# across the e^(v w) tail, then unit steps over the e^-r decay.
_CUT_TAIL = np.array([1.0, 0.6, 0.35, 0.18, 0.08])
_CUT_BODY = np.array([-3.0, -1.5, 0.0, 1.0, 2.0, 3.0, 4.0, _CUT_VMAX])
_CUT_GRADE = 2.0                   # ratio of successive resonance offsets
_CUT_CERT = 1e-13                  # accepted estimate, relative to |integral|
_CHUNK = 1 << 17                   # doubles per (points x nodes) temporary


def _taylor_row(alpha, beta, x, prec):
    """_taylor for x < 0 with kappa <= series_cutoff, as one array: the same
    log-space terms over the term count the cutoff itself needs, so that no
    element depends on another.  Each element's terms are summed along
    its own contiguous row (numpy's pairwise order)."""
    c = prec.series_cutoff
    nmax = min(int((c + 10.0 * math.sqrt(c) + 30.0) / alpha) + 24,
               prec.max_terms)
    n = np.arange(nmax)
    g = alpha * n + beta
    sg = gammasgn(g)
    sg[n % 2 == 1] *= -1.0
    # gammasgn is nan at exact non-positive integers (Gamma poles)
    keep = np.abs(sg) == 1.0
    n, sg, lg = n[keep], sg[keep], gammaln(g[keep])
    out = np.empty(x.shape)
    step = max(1, _CHUNK // max(1, len(n)))
    for lo in range(0, len(x), step):
        e = np.log(-x[lo:lo + step, None]) * n - lg
        # terms below e^-700 are dropped: they cannot move any sum above
        # 1e-288, and exp is far slower where its result is subnormal
        gone = e < -700.0
        e[gone] = -700.0
        e = np.exp(e) * sg
        e[gone] = 0.0
        out[lo:lo + step] = e.sum(axis=1)
    return out


def _cut_row(alpha, beta, y):
    """_cut for an array y > 0 at non-integer alpha.  Returns (values,
    certified).

    The integrand of _cut_core is integrated over the same [vmin, vmax] on
    panels cut at the y-independent breakpoints above and at offsets
    s = v - v* from each point's resonance v* = log(y)/a, graded
    geometrically down to the distance pi|a-1|/a of its poles from the real
    axis.  Per point, the fine rule gives the value and the sum over panels
    of |fine - coarse| the error estimate; a point is certified when that
    estimate is below _CUT_CERT of the integral.  Arrays are laid out as
    (point, panel, node) and summed along their contiguous last axis, so a
    point's value depends on its own block alone."""
    a = alpha
    b, down = _reduce_beta(a, beta)
    sb, sba, ca, w, vmin = _cut_setup(a, b)
    d0 = min(math.pi * abs(a - 1.0) / a, 0.5)
    grade = d0 * _CUT_GRADE ** np.arange(
        max(1, math.ceil(math.log(2.0 / d0, _CUT_GRADE))))
    offsets = np.concatenate([-grade[::-1], [0.0], grade])
    fixed = np.concatenate([vmin * _CUT_TAIL, _CUT_BODY])
    nodes = len(_GL_NODES) * (len(fixed) + len(offsets) - 1)
    step = max(1, _CHUNK // nodes)
    val = np.empty(y.shape)
    est = np.empty(y.shape)
    # a non-finite integrand only costs certification
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for lo in range(0, len(y), step):
            yc = y[lo:lo + step, None]
            bp = np.concatenate(
                [np.broadcast_to(fixed, (len(yc), len(fixed))),
                 np.log(yc) / a + offsets], axis=1)
            bp = np.sort(np.clip(bp, vmin, _CUT_VMAX), axis=1)
            h = 0.5 * np.diff(bp, axis=1)
            v = (bp[:, :-1] + h)[:, :, None] + h[:, :, None] * _GL_NODES
            yc = yc[:, :, None]
            ra = np.exp(a * v)
            den = ra + 2.0 * ca * yc
            den *= ra
            den += yc * yc
            f = ra * sb
            f += yc * sba
            ra = np.exp(v)
            v *= w
            v -= ra
            f *= np.exp(v)
            f /= den
            f *= _GL_WEIGHTS
            fine = f[:, :, :_NF].sum(axis=2) * h
            coarse = f[:, :, _NF:].sum(axis=2) * h
            val[lo:lo + step] = fine.sum(axis=1)
            est[lo:lo + step] = np.abs(fine - coarse).sum(axis=1)
        ok = est <= _CUT_CERT * np.abs(val)
        val = val / math.pi + _exp_terms(a, b, y)[0]
        val = _lift_beta(a, b, down, -y, val)
    return val, ok & np.isfinite(val)


def ml_row(alpha, beta, x, scalar=_ml):
    """E_{alpha,beta} at every element of the array x.

    The route is chosen per element up front:

      x == 0                         1/Gamma(beta)
      x < 0, kappa <= series_cutoff  power series, fixed term count
      x < 0, non-integer alpha,      branch cut on a fixed Gauss-Legendre
      beta > alpha - 1.5             rule, kept where certified
      anything else                  scalar(alpha, beta, x_i), one call per
                                     element

    Each value depends on its own element only, never on the length or
    order of x, and agrees with _ml to the evaluator's tolerance.  Like
    _ml, non-finite values are returned, not raised.
    """
    MLQuery(alpha, beta, 0.0).validate()
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise DomainError("ml_row arguments must be finite")
    xf = x.ravel()
    out = np.empty(xf.shape)
    done = xf == 0.0
    out[done] = float(rgamma(beta))
    neg = xf < 0.0
    kappa = np.zeros(xf.shape)
    kappa[neg] = (-xf[neg]) ** (1.0 / alpha)
    prec = DEFAULT_PRECISION
    series = neg & (kappa <= prec.series_cutoff)
    if series.any():
        out[series] = _taylor_row(alpha, beta, xf[series], prec)
        done |= series
    cut = neg & ~series
    if alpha not in (1.0, 2.0) and not _strict(alpha, beta) and cut.any():
        idx = np.flatnonzero(cut)
        val, ok = _cut_row(alpha, beta, -xf[idx])
        out[idx[ok]] = val[ok]
        done[idx[ok]] = True
    for i in np.flatnonzero(~done):
        out[i] = scalar(alpha, beta, float(xf[i]))
    return out.reshape(x.shape)


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
    p0, p1, b0, b1 = ((a - 1.0, a, a, a + 1.0) if deriv
                      else (a, a + 1.0, a + 1.0, a + 2.0))
    e0 = row(b0)
    return t ** p0 * e0, t ** p1 * (e0 - row(b1))


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
