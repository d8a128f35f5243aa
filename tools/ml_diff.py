"""Compare the Mittag-Leffler evaluator of two source trees on a fixed sweep.

usage: python tools/ml_diff.py PARENT_SRC CHANGE_SRC

Each SRC is a directory holding the mlwave package.  Both trees evaluate
`ml_e` at the same points, in this one process, one tree after the other:
a seeded grid of 7936 points (31 alphas, 1 and 2 among them; per alpha the
six solver betas 1, 2, a, a + 1, a + 2, a - 1 and two drawn from [-3, 4];
per (alpha, beta) 28 arguments x < 0 log-uniform in |x| from 1e-3 to 1e6
and 4 arguments x > 0 log-uniform from 1e-2 to 50), then a few points of
extreme beta, then 128 points of the integer-alpha Pochhammer series from
a generator of their own (alpha 1 and 2 in turn, beta uniform in [-6,
0.25] and y log-uniform from kappa = 5 to the series' limit).  The points
are grouped by the route their position asks for (y = -x, kappa =
y^(1/alpha)):

  series      x < 0, kappa <= 5
  positive    x > 0
  pochhammer  alpha 1 or 2 past the series, y <= 36 or 1300 (the
              Pochhammer series' limits at alpha 1 and 2)
  integer     alpha 1 or 2 past those limits
  cut         other x < 0 with y < 50 and kappa < 30
  asymptotic  other x < 0 with y >= 50 or kappa >= 30
  extreme     the extreme-beta points

Per group it prints how many finite values differ between the trees and
the largest relative change, the points refused (an MLWaveError) or
failing (any other exception) on one side only, the slowest point's time
on each side (the least of three calls, so caches are warm), and on each
side how many values lie beyond 1e-12 relative of
`tests/conftest.py:ml_ref` (the extreme points, and points where the
reference raises, are skipped).  Each point beyond 1e-12 on either side
is then listed with its relative error on both sides; a series point also
with the sum of the power series' |terms| over |E| (in mpmath), the
cancellation its value is summed through.  Nothing is written.
"""

import gc
import math
import sys
import time
from pathlib import Path

import mpmath as mp
import numpy as np

ROOT = Path(__file__).resolve().parent.parent
EXTREME = [(1.5, 1e7, -20.0), (1.5, 1e7, -100.0), (1.5, 1e9, -100.0),
           (0.7204604879566386, -165.0, 90.92926068034703),
           (2.0, -1989798789822.2288, -44.72511194337896)]
REF_TOL = 1e-12
REPEAT = 3                          # calls per point; the least time counts
LIMIT = {1.0: 36.0, 2.0: 1300.0}    # the Pochhammer series' y at alpha 1, 2


def points():
    """(group, alpha, beta, x) of every sweep point, in a fixed order."""
    rng = np.random.default_rng(20)
    alphas = np.concatenate([[1.0, 2.0], rng.uniform(0.2, 2.0, 29)])
    out = []
    for a in alphas.tolist():
        betas = [1.0, 2.0, a, a + 1.0, a + 2.0, a - 1.0]
        betas += rng.uniform(-3.0, 4.0, 2).tolist()
        for b in betas:
            xs = np.concatenate([-10.0 ** rng.uniform(-3.0, 6.0, 28),
                                 10.0 ** rng.uniform(-2.0, math.log10(50.0),
                                                     4)])
            out += [(group(a, x), a, b, x) for x in xs.tolist()]
    out += [("extreme",) + p for p in EXTREME]
    rng = np.random.default_rng(36)
    for a in [1.0, 2.0] * 64:
        b = float(rng.uniform(-6.0, 0.25))
        x = -math.exp(rng.uniform(a * math.log(5.0), math.log(LIMIT[a])))
        out.append((group(a, x), a, b, x))
    return out


def group(a, x):
    if x > 0.0:
        return "positive"
    y = -x
    kappa = y ** (1.0 / a)
    if kappa <= 5.0:
        return "series"
    if a in LIMIT:
        return "pochhammer" if y <= LIMIT[a] else "integer"
    return "asymptotic" if y >= 50.0 or kappa >= 30.0 else "cut"


def load(src):
    """The mittag_leffler module of the mlwave package under src, freshly
    imported, and that package's MLWaveError."""
    for name in [m for m in sys.modules if m.split(".")[0] == "mlwave"]:
        del sys.modules[name]
    sys.path.insert(0, str(Path(src).resolve()))
    try:
        import mlwave.errors
        import mlwave.mittag_leffler
    finally:
        sys.path.pop(0)
    return mlwave.mittag_leffler, mlwave.errors.MLWaveError


def evaluate(src, pts):
    """[(value or "refused"/"failed: ...", seconds)] of ml_e at pts; the
    seconds are the least of REPEAT calls, with the garbage collector off,
    so that a pause of the process is not charged to one point."""
    ml, refusal = load(src)
    out = []
    gc.disable()
    try:
        for _, a, b, x in pts:
            best = math.inf
            for _ in range(REPEAT):
                t0 = time.perf_counter()
                try:
                    v = ml.ml_e(ml.MLQuery(a, b, x))
                except refusal:
                    v = "refused"
                except Exception as exc:    # a bare error: reported, not fatal
                    v = f"failed: {type(exc).__name__}"
                best = min(best, time.perf_counter() - t0)
            out.append((v, best))
    finally:
        gc.enable()
    return out


def references(pts):
    """ml_ref at each point, None where it raises and at the extreme-beta
    points; the points of one (alpha, beta) in the oracle's Taylor band
    share one Gamma table (ml_ref_row)."""
    sys.path.insert(0, str(ROOT / "tests"))
    try:
        from conftest import ml_ref, ml_ref_row
    finally:
        sys.path.pop(0)
    out = [None] * len(pts)
    rows = {}
    for i, (name, a, b, x) in enumerate(pts):
        if name != "extreme":
            rows.setdefault((a, b), []).append(i)
    for (a, b), idx in rows.items():
        band = [i for i in idx if abs(pts[i][3]) ** (1.0 / a) <= 250.0]
        for i, v in zip(band, ml_ref_row(a, b, [pts[i][3] for i in band])):
            out[i] = v
        for i in set(idx) - set(band):
            try:
                out[i] = ml_ref(a, b, pts[i][3])
            except Exception:           # no route of the oracle certifies
                pass
    return out


def rel(u, v):
    return 0.0 if u == v else abs(u - v) / max(abs(u), abs(v))


def cancellation(a, b, x, value):
    """The sum over n of |x^n / Gamma(a n + b)| over |value|, in mpmath,
    with the term count of tests/conftest.py:taylor_ref."""
    count = int(8 + 6 * abs(x) ** (1.0 / a) / a + 80)
    with mp.workdps(30):
        y, am = abs(mp.mpf(x)), mp.mpf(a)
        total = mp.fsum(y ** n * abs(mp.rgamma(b + am * n))
                        for n in range(count))
    return float(total / abs(value))


def report(name, idx, pts, before, after, refs):
    """Print one group's summary line, its one-sided outcomes and its
    points beyond REF_TOL."""
    differ, worst, where = 0, 0.0, None
    one_sided, past = [], []
    beyond = [0, 0]
    for i in idx:
        (u, _), (v, _) = before[i], after[i]
        if isinstance(u, float) and isinstance(v, float):
            if u != v and math.isfinite(u) and math.isfinite(v):
                differ += 1
                if rel(u, v) > worst:
                    worst, where = rel(u, v), pts[i][1:]
        elif isinstance(u, float) or isinstance(v, float) or u != v:
            one_sided.append((pts[i][1:], u, v))
        if refs[i] is None:
            continue
        errs = [rel(w, refs[i]) if isinstance(w, float) else w
                for w in (u, v)]
        for side, e in enumerate(errs):
            if isinstance(e, float) and e > REF_TOL:
                beyond[side] += 1
        if any(isinstance(e, float) and e > REF_TOL for e in errs):
            past.append((i, errs))
    slow = [max((out[i][1] for i in idx), default=0.0)
            for out in (before, after)]
    print(f"{name}: {len(idx)} points, {differ} values differ, largest "
          f"relative change {worst:.3e}" + (f" at {where}" if where else "")
          + f"; {len(one_sided)} one-sided outcomes; slowest point "
          f"{slow[0] * 1e3:.2f} / {slow[1] * 1e3:.2f} ms; beyond "
          f"{REF_TOL:g} of ml_ref {beyond[0]} / {beyond[1]} (of "
          f"{sum(refs[i] is not None for i in idx)} with a reference)")
    for p, u, v in one_sided:
        print(f"  {name} {p}: parent {u!r}, change {v!r}")
    for i, errs in past:
        _, a, b, x = pts[i]
        print(f"  {name} beyond {REF_TOL:g} {(a, b, x)}: " + ", ".join(
            f"{side} {e:.3e}" if isinstance(e, float) else f"{side} {e}"
            for side, e in zip(("parent", "change"), errs))
            + (f"; sum|terms|/|E| {cancellation(a, b, x, refs[i]):.3e}"
               if name == "series" else ""))


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    pts = points()
    before = evaluate(argv[0], pts)
    after = evaluate(argv[1], pts)
    refs = references(pts)
    for name in ("series", "positive", "pochhammer", "integer", "cut",
                 "asymptotic", "extreme"):
        idx = [i for i, p in enumerate(pts) if p[0] == name]
        report(name, idx, pts, before, after, refs)
    print(f"{len(pts)} points, parent then change")
    return 0


if __name__ == "__main__":
    sys.exit(main())
