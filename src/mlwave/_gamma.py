"""log|Gamma|, the sign of Gamma and 1/Gamma from Python's math module.

  lgam_sgn   (log|Gamma(x)|, sign of Gamma(x)): math.lgamma, the sign from
             the parity of floor(x); log|Gamma| is inf at the poles (the
             non-positive integers) and past the double range, and the
             sign is nan at the poles, at -inf and at nan, +-1 at +-0
  rgamma     1/Gamma(x): 1/math.gamma(x) where Gamma is a normal double
             that math.gamma does not overflow, sign * exp(-log|Gamma|)
             past that overflow, and x/Gamma(x + 1) below -170, where
             Gamma underflows; +-0 at +-0, 0 at the poles and at +-inf,
             +-inf where 1/Gamma overflows

Against mpmath, log|Gamma| is within 1e-14 max(1, |log Gamma|) and 1/Gamma
within 1e-14 relative wherever it is a normal double (tests/test_gamma.py).
Nothing here warns or raises on a float argument.
"""

import math

__all__ = ["lgam_sgn", "rgamma"]

_TINY = -708.0       # log|Gamma| above this: Gamma is a normal double
_BIG = 709.7         # and below this: math.gamma does not overflow


def lgam_sgn(x):
    """(log|Gamma(x)|, sign of Gamma(x)) for a real x."""
    x = float(x)
    if not math.isfinite(x):
        return x, 1.0 if x > 0.0 else math.nan
    if x > 0.0:
        sign = 1.0
    elif x == 0.0:
        sign = math.copysign(1.0, x)
    else:
        fx = math.floor(x)
        sign = math.nan if fx == x else -1.0 if fx % 2 else 1.0
    try:
        return math.lgamma(x), sign
    except (ValueError, OverflowError):     # a pole, or past the doubles
        return math.inf, sign


def rgamma(x):
    """1/Gamma(x) for a real x, 0 at the poles."""
    x = float(x)
    lg, sign = lgam_sgn(x)
    if math.isnan(sign):                    # a pole, -inf or nan
        return x if math.isnan(x) else 0.0
    if _TINY < lg < _BIG:
        return 1.0 / math.gamma(x)
    if lg > 0.0:                            # 1/Gamma below the normals
        return sign * math.exp(-lg)
    g = math.gamma(x + 1.0)                 # x < -170: 1/Gamma = x/Gamma(x+1)
    return x / g if g else sign * math.inf
