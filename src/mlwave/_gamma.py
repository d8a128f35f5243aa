"""log|Gamma|, the sign of Gamma and 1/Gamma in plain double arithmetic.

A port of the Cephes routines lgam_sgn, Gamma, stirf and rgamma (S. L.
Moshier, Methods and Programs for Mathematical Functions, Prentice Hall,
1989) in the form scipy.special 1.17 evaluates them:

  lgam_sgn   (gammaln(x), gammasgn(x)): Cephes lgam, whose branches are
             the reflection below -34, the recurrence to [2, 3) with a
             rational approximation below 13, and Stirling's series above;
             the sign is nan at the poles (the non-positive integers and
             -inf) and +-1 at +-0
  rgamma     1/Gamma(x): Cephes rgamma (recurrences to [0, 1] and a
             Chebyshev series) for 0 < |x| < 4, else 1/Gamma(x) by Cephes
             Gamma; +-0 at +-0, 0 at the poles and past the overflow of
             Gamma, +-inf where Gamma underflows

Every operation is the one the C code performs, in its order, through the
same libm functions that Python's math module calls, so on glibc the
results are the scipy doubles bit for bit (Python never contracts a
multiply-add into an FMA).  The one known exception is x < -2^31 off the
integers, where C converts floor(x) to an int that wraps, so scipy's
signs there follow no parity; this port keeps the true sign of Gamma.
Nothing here warns or raises on a float argument.
"""

import math

__all__ = ["lgam_sgn", "rgamma"]

_INF = math.inf
_NAN = math.nan
_LS2PI = 0.91893853320467274178     # log(sqrt(2 pi))
_LOGPI = 1.14472988584940017414     # log(pi)
_SQTPI = 2.50662827463100050242     # sqrt(2 pi)
_MAXLGM = 2.556348e305              # lgam overflows past this
_MAXGAM = 171.624376956302725       # Gamma overflows past this
_MAXSTIR = 143.01608                # stirf splits its power past this

# lgam: Stirling's series of log Gamma (A), and log Gamma(2 + x) on [0, 1)
# as x B(x) / C(x), C monic with its leading 1 left out
_A = (8.11614167470508450300E-4, -5.95061904284301438324E-4,
      7.93650340457716943945E-4, -2.77777777730099687205E-3,
      8.33333333333331927722E-2)
_B = (-1.37825152569120859100E3, -3.88016315134637840924E4,
      -3.31612992738871184744E5, -1.16237097492762307383E6,
      -1.72173700820839662146E6, -8.53555664245765465627E5)
_C = (-3.51815701436523470549E2, -1.70642106651881159223E4,
      -2.20528590553854454839E5, -1.13933444367982507207E6,
      -2.53252307177582951285E6, -2.01889141433532773231E6)
# Gamma: Gamma(2 + x) on [0, 1) as P(x) / Q(x), and Stirling's series
_P = (1.60119522476751861407E-4, 1.19135147006586384913E-3,
      1.04213797561761569935E-2, 4.76367800457137231464E-2,
      2.07448227648435975150E-1, 4.94214826801497100753E-1,
      9.99999999999999996796E-1)
_Q = (-2.31581873324120129819E-5, 5.39605580493303397842E-4,
      -4.45641913851797240494E-3, 1.18139785222060435552E-2,
      3.58236398605498653373E-2, -2.34591795718243348568E-1,
      7.14304917030273074085E-2, 1.00000000000000000320E0)
_STIR = (7.87311395793093628397E-4, -2.29549961613378126380E-4,
         -2.68132617805781232825E-3, 3.47222221605458667310E-3,
         8.33333333333482257126E-2)
# rgamma: Chebyshev coefficients of 1/(x Gamma(x)) - 1 on [0, 1]
_R = (3.13173458231230000000E-17, -6.70718606477908000000E-16,
      2.20039078172259550000E-15, 2.47691630348254132600E-13,
      -6.60074100411295197440E-12, 5.13850186324226978840E-11,
      1.08965386454418662084E-9, -3.33964630686836942556E-8,
      2.68975996440595483619E-7, 2.96001177518801696639E-6,
      -8.04814124978471142852E-5, 4.16609138709688864714E-4,
      5.06579864028608725080E-3, -6.41925436109158228810E-2,
      -4.98558728684003594785E-3, 1.27546015610523951063E-1)


def _polevl(x, coef):
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _chbevl(x, coef):
    b0 = coef[0]
    b1 = b2 = 0.0
    for c in coef[1:]:
        b2 = b1
        b1 = b0
        b0 = x * b1 - b2 + c
    return 0.5 * (b0 - b2)


def _lgam(x):
    """Cephes lgam: log|Gamma(x)|, inf at the poles.  Its polynomials are
    written out in _polevl's order: the series terms call it at every
    term, and the loop would cost a third of the call."""
    if not math.isfinite(x):
        return x
    if x < -34.0:
        q = -x
        w = _lgam(q)
        p = float(math.floor(q))
        if p == q:
            return _INF
        z = q - p
        if z > 0.5:
            p += 1.0
            z = p - q
        z = q * math.sin(math.pi * z)
        if z == 0.0:
            return _INF
        return _LOGPI - math.log(z) - w
    if x < 13.0:
        z = 1.0
        p = 0.0
        u = x
        while u >= 3.0:
            p -= 1.0
            u = x + p
            z *= u
        while u < 2.0:
            if u == 0.0:
                return _INF
            z /= u
            p += 1.0
            u = x + p
        z = abs(z)
        if u == 2.0:
            return math.log(z)
        x += p - 2.0
        b0, b1, b2, b3, b4, b5 = _B
        c0, c1, c2, c3, c4, c5 = _C
        num = ((((b0 * x + b1) * x + b2) * x + b3) * x + b4) * x + b5
        den = (((((x + c0) * x + c1) * x + c2) * x + c3) * x + c4) * x + c5
        return math.log(z) + x * num / den
    if x > _MAXLGM:
        return _INF
    q = (x - 0.5) * math.log(x) - x + _LS2PI
    if x > 1.0e8:
        return q
    p = 1.0 / (x * x)
    if x >= 1000.0:
        q += ((7.9365079365079365079365e-4 * p
               - 2.7777777777777777777778e-3) * p
              + 0.0833333333333333333333) / x
    else:
        a0, a1, a2, a3, a4 = _A
        q += ((((a0 * p + a1) * p + a2) * p + a3) * p + a4) / x
    return q


def _sgn(x):
    """scipy's gammasgn at an x that is not positive: the sign of Gamma(x),
    nan at the poles."""
    if x == 0.0:
        return math.copysign(1.0, x)
    if not math.isfinite(x):
        return _NAN
    fx = math.floor(x)
    if x == fx:
        return _NAN
    return -1.0 if fx % 2 else 1.0


def lgam_sgn(x):
    """(log|Gamma(x)|, sign of Gamma(x)): scipy's (gammaln(x),
    gammasgn(x)) for a real x."""
    x = float(x)
    return _lgam(x), 1.0 if x > 0.0 else _sgn(x)


def _stirf(x):
    """Cephes stirf: Gamma(x) by Stirling's formula, 33 <= x."""
    if x >= _MAXGAM:
        return _INF
    w = 1.0 / x
    w = 1.0 + w * _polevl(w, _STIR)
    y = math.exp(x)
    if x > _MAXSTIR:                 # x^(x - 1/2) alone would overflow
        v = x ** (0.5 * x - 0.25)
        y = v * (v / y)
    else:
        y = x ** (x - 0.5) / y
    return _SQTPI * y * w


def _gamma(x):
    """Cephes Gamma for a finite non-zero x that is no pole."""
    q = abs(x)
    if q > 33.0:
        if x > 0.0:
            return _stirf(x)
        i = math.floor(q)
        p = float(i)
        sgngam = 1.0 if i % 2 else -1.0
        z = q - p
        if z > 0.5:
            p += 1.0
            z = q - p
        z = q * math.sin(math.pi * z)
        if z == 0.0:
            return sgngam * _INF
        return sgngam * (math.pi / (abs(z) * _stirf(q)))
    z = 1.0
    while x >= 3.0:
        x -= 1.0
        z *= x
    while x < 0.0:
        if x > -1.0e-9:
            return z / ((1.0 + 0.5772156649015329 * x) * x)
        z /= x
        x += 1.0
    while x < 2.0:
        if x < 1.0e-9:
            return z / ((1.0 + 0.5772156649015329 * x) * x)
        z /= x
        x += 1.0
    if x == 2.0:
        return z
    x -= 2.0
    return z * _polevl(x, _P) / _polevl(x, _Q)


def rgamma(x):
    """scipy's rgamma: 1/Gamma(x) for a real x, 0 at the poles."""
    x = float(x)
    if x == 0.0 or math.isnan(x):
        return x
    if math.isinf(x) or x < 0.0 and x == math.floor(x):
        return 0.0
    if abs(x) >= 4.0:
        g = _gamma(x)
        return math.copysign(_INF, g) if g == 0.0 else 1.0 / g
    # Cephes rgamma: recur into [0, 1], where 1/Gamma(w) = w (1 + R(w))
    z = 1.0
    w = x
    while w > 1.0:
        w -= 1.0
        z *= w
    while w < 0.0:
        z /= w
        w += 1.0
    if w == 1.0:
        return 1.0 / z
    return w * (1.0 + _chbevl(4.0 * w - 2.0, _R)) / z
