"""Picard continuation for the semilinear problem D_t^alpha u + Au = f(u).

The solver marches adaptive time windows over a fixed uniform grid.  On
each window the mild-solution map is iterated to a fixed point: the
memory integral over already-accepted nodes is a constant of the window,
while the window's own Volterra term is re-assembled from f(u) of the
current iterate.  Windows halve on contraction failure and grow back on
success; a persistent collapse or a norm past the blow-up threshold is
reported as detection of a maximal existence time, never as a proof.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from functools import partial
from numbers import Integral

import numpy as np

from .criticality import Unbounded, classify
from .errors import ConfigError, DomainError, MLWaveError, OverflowSignal
from .linear_solver import (ModalProblem, SolutionTrace, _KernelTable,
                            _causal_sums, _check_grid, _hand_back,
                            _known_sums, _lend, _norm_series, _toeplitz,
                            _unforced_rows)
from .mittag_leffler import ml_bound_probe
from .spectral_operator import (SpectralField, _aliasing_warnings,
                                _analysis_steps, _buffers, _row_runs,
                                _rule_panels, _synthesis_steps, synthesis)
# not called here: module names that `bench/run.py --trace 1` wraps
from .spectral_operator import evaluate, project  # noqa: F401

__all__ = [
    "NONLINEARITY_KINDS",
    "NonlinearitySpec",
    "PicardConfig",
    "RunOutcome",
    "SemilinearProblem",
    "WindowFailure",
    "WindowRecord",
    "apply_nonlinearity",
    "picard_window",
    "run",
    "strong_solution_check",
]

NONLINEARITY_KINDS = ("zero", "linear_shift", "power", "sine", "custom")


class WindowFailure(MLWaveError):
    """A Picard window did not contract; the caller shrinks the window."""

    def __init__(self, reason):
        super().__init__(reason)
        self.reason = reason


def _power_bound(c, rho, e):
    """c rho^e for c, rho >= 0: 0 where c is, inf where rho^e overflows."""
    try:
        return c * rho ** e if c else 0.0
    except OverflowError:
        return math.inf


@dataclass(frozen=True)
class NonlinearitySpec:
    """Pointwise nonlinearity f(u) with f(0) = 0.

    Catalog: zero; linear_shift f(u) = kappa*u; power f(u) = c*|u|^(r-1)*u
    with r > 1 (its derivative bound constant is C = |c|*r by
    construction); sine f(u) = c*sin(u); custom, a tabulated odd-style
    profile interpolated linearly (clamped outside the table).

    The growth class is derived from the kind: power declares a growth
    exponent r (checked against the criticality bound on admission), the
    globally Lipschitz kinds declare monotone envelopes instead.  A custom
    table may declare a growth exponent via params["r"].
    """

    kind: str = "zero"
    params: dict = dc_field(default_factory=dict)

    def validate(self):
        p = self.params
        if self.kind == "zero":
            return
        if self.kind == "linear_shift":
            if not math.isfinite(float(p.get("kappa", math.nan))):
                raise ConfigError("linear_shift needs a finite kappa")
            return
        if self.kind == "power":
            c = float(p.get("c", math.nan))
            r = float(p.get("r", math.nan))
            if not math.isfinite(c):
                raise ConfigError("power nonlinearity needs a finite c")
            if not (math.isfinite(r) and r > 1.0):
                raise ConfigError(
                    f"power nonlinearity needs r > 1, got {p.get('r')}")
            return
        if self.kind == "sine":
            if not math.isfinite(float(p.get("c", math.nan))):
                raise ConfigError("sine nonlinearity needs a finite c")
            return
        if self.kind == "custom":
            s = np.asarray(p.get("s", ()), dtype=float)
            v = np.asarray(p.get("values", ()), dtype=float)
            if s.ndim != 1 or s.shape != v.shape or len(s) < 2:
                raise ConfigError(
                    "custom nonlinearity needs matching 1-D s/values tables")
            if not (np.all(np.isfinite(s)) and np.all(np.isfinite(v))):
                raise ConfigError("custom table must be finite")
            if np.any(np.diff(s) <= 0.0):
                raise ConfigError("custom table abscissae must increase")
            at0 = np.interp(0.0, s, v)
            if not (s[0] <= 0.0 <= s[-1]) or at0 != 0.0:
                raise ConfigError(
                    "custom nonlinearity must bracket 0 with f(0) = 0")
            if "r" in p and not float(p["r"]) > 1.0:
                raise ConfigError("declared growth exponent must be > 1")
            return
        raise ConfigError(
            f"unknown nonlinearity kind {self.kind!r}; "
            f"catalog: {NONLINEARITY_KINDS}")

    @property
    def hypothesis(self) -> str:
        """Growth class: "Hf1" (power bound, exponent r) or "Hf2"
        (monotone Lipschitz envelopes)."""
        if self.kind in ("zero", "power"):
            return "Hf1"
        if self.kind == "custom" and "r" in self.params:
            return "Hf1"
        return "Hf2"

    @property
    def hf1(self):
        """(r, C) of the declared power growth bound, or None."""
        if self.kind == "power":
            c = abs(float(self.params["c"]))
            r = float(self.params["r"])
            return r, c * r
        if self.kind == "custom" and "r" in self.params:
            r = float(self.params["r"])
            return r, float(self.params.get("C", self.lipschitz_envelope(1.0)))
        return None

    def apply(self, vals, out=None):
        """Pointwise f on an array of field values, into out if given."""
        return self.pointwise()(np.asarray(vals, dtype=float), out=out)

    def pointwise(self):
        """f as a map of float arrays, its params read once, here.  Given
        out=, a map writes f of its input there, not into the input
        itself, and returns it; without, it returns a new array."""
        p = self.params
        if self.kind == "zero":
            return lambda vals, out=None: np.positive(np.zeros_like(vals),
                                                      out=out)
        if self.kind == "linear_shift":
            kappa = float(p["kappa"])
            return lambda vals, out=None: np.multiply(kappa, vals, out=out)
        if self.kind == "power":
            c, e = float(p["c"]), float(p["r"]) - 1.0

            def power(vals, out=None):
                grow = np.abs(vals, out=out)
                # the exponents 1 and 2 as products, bit-equal to the
                # general pow
                if e == 2.0:
                    grow *= grow
                elif e != 1.0:
                    grow **= e
                # x * 1.0 is x bit for bit, nan and inf included
                if c != 1.0:
                    grow *= c
                grow *= vals
                return grow
            return power
        if self.kind == "sine":
            c = float(p["c"])
            return lambda vals, out=None: np.multiply(
                c, np.sin(vals, out=out), out=out)
        s = np.asarray(p["s"], dtype=float)
        v = np.asarray(p["values"], dtype=float)
        # np.interp has no out=: its result is copied there
        return lambda vals, out=None: np.positive(np.interp(vals, s, v),
                                                  out=out)

    def lipschitz_envelope(self, rho) -> float:
        """Monotone bound Q1(rho) on the local Lipschitz constant over the
        ball of radius rho (sup-over-ball construction)."""
        rho = abs(float(rho))
        p = self.params
        if self.kind == "zero":
            return 0.0
        if self.kind == "linear_shift":
            return abs(float(p["kappa"]))
        if self.kind == "power":
            c, r = abs(float(p["c"])), float(p["r"])
            return _power_bound(c * r, rho, r - 1.0)
        if self.kind == "sine":
            return abs(float(p["c"]))
        s = np.asarray(p["s"], dtype=float)
        v = np.asarray(p["values"], dtype=float)
        slopes = np.abs(np.diff(v) / np.diff(s))
        inside = (np.abs(s[:-1]) <= rho) | (np.abs(s[1:]) <= rho)
        return float(np.max(slopes[inside])) if inside.any() else 0.0

    def magnitude_envelope(self, rho) -> float:
        """Monotone bound Q2(rho) on sup |f| over the ball of radius rho."""
        rho = abs(float(rho))
        p = self.params
        if self.kind == "zero":
            return 0.0
        if self.kind == "linear_shift":
            return abs(float(p["kappa"])) * rho
        if self.kind == "power":
            return _power_bound(abs(float(p["c"])), rho, float(p["r"]))
        if self.kind == "sine":
            return abs(float(p["c"])) * min(rho, 1.0)
        grid = np.linspace(-rho, rho, 257)
        return float(np.max(np.abs(self.apply(grid))))


@dataclass(frozen=True)
class SemilinearProblem(ModalProblem):
    nonlinearity: NonlinearitySpec

    def validate(self):
        super().validate()
        self.nonlinearity.validate()


@dataclass(frozen=True)
class PicardConfig:
    R_star: float | None = None        # None: re-centered per window
    tol: float = 1e-10
    max_iter: int = 50
    window_init: float = 1.0
    window_min: float = 1e-6
    blowup_threshold: float = 1e8
    nonlinearity_quadrature: int | None = None

    def validate(self):
        if self.R_star is not None and not self.R_star > 0.0:
            raise ConfigError("R_star must be positive")
        if not self.tol > 0.0:
            raise ConfigError("tol must be positive")
        if not isinstance(self.max_iter, Integral) or self.max_iter < 1:
            raise ConfigError("max_iter must be an integer >= 1")
        if not (self.window_min > 0.0 and 0.0 < self.window_init < math.inf):
            raise ConfigError("window sizes must be positive and finite")
        if not self.window_min < self.window_init:
            raise ConfigError("window_min must be below window_init")
        if not self.blowup_threshold > 0.0:
            raise ConfigError("blowup_threshold must be positive")
        if self.nonlinearity_quadrature is not None and not (
                4 <= self.nonlinearity_quadrature < math.inf):
            raise ConfigError("nonlinearity_quadrature must be finite, >= 4")

    def quadrature(self, N):
        """Collocation nodes per axis for N modes: nonlinearity_quadrature,
        or max(4N, 40) when it is unset."""
        return (self.nonlinearity_quadrature
                if self.nonlinearity_quadrature is not None
                else max(4 * N, 40))


@dataclass(frozen=True)
class WindowRecord:
    start: float
    end: float
    iterations: int
    contraction_estimate: float


@dataclass(frozen=True)
class RunOutcome:
    """status "completed" carries the requested horizon; status
    "maximal_time_detected" carries the last completed time T_est (an
    observation at the configured threshold, not an analytic blow-up
    time).  windows tile [0, min(T_end, T_est)]."""

    status: str
    T_end: float
    T_est: float | None
    windows: tuple
    trace: SolutionTrace
    strong_check: dict | None = None
    aliasing_est: float = 0.0       # largest over the accepted windows
    warnings: tuple = ()


_NON_FINITE = "nonlinearity produced non-finite values"


class _Collocation:
    """Coefficients of f(u) for each coefficient row u of C on the
    composite rule with `panels` panels per axis, by a pointwise map
    fmap(values, out=) each call is given, with the rule's weights and
    factor tables.  Per run of rows: grid values by synthesis, f
    pointwise, weighted, back by analysis, in buffers kept for the most
    rows a call has asked for (at most one run's).  A call raises
    OverflowSignal for the blow-up monitor when a coefficient is not
    finite: a non-finite value of f leaves every coefficient of its row
    non-finite, and so does an analysis sum that overflows.  Callers that
    expect overflow silence numpy's overflow warnings around the call.
    key is (op, N, panels), under which the store keeps it idle between
    runs; nbytes is what its buffers hold."""

    def __init__(self, op, N, panels):
        _, self.w, self.factors = op.rule(N, panels)
        self.key, self.N = (op, N, panels), N
        self.rows = self.nbytes = 0

    def bind(self, fmap, C, out):
        """A call that writes the coefficients of fmap on the rows C, as
        they are when it is made, to out, and checks none of them: the
        steps of each run of rows, built here, once.  C is C-contiguous,
        so that its views stay views; out may be strided, such as the
        transpose of mode-major rows, and the last analysis step writes
        there directly."""
        steps = []
        for rows in _row_runs(len(C), self.w.size):
            n = len(C[rows])
            if n > self.rows:
                # synthesis's and analysis's buffers, f's values and the
                # weights tiled: one flat product
                grid = (n,) + self.w.shape
                self.rows, self.bufs = n, (
                    *_buffers(self.factors, n), np.empty(grid),
                    np.empty(grid))
                self.bufs[-1][...] = self.w
                syn, ana, *more = self.bufs
                self.nbytes = sum(b.nbytes for b in (*syn, *ana, *more)
                                  if b is not None)
            syn, ana, *more = self.bufs
            vals, w = (b[:n] for b in more)
            syn = [b if b is None else b[:n] for b in syn]
            steps += _synthesis_steps(self.factors, C[rows], syn)
            steps += [partial(fmap, syn[-1], out=vals),
                      partial(np.multiply, vals, w, out=vals)]
            steps += _analysis_steps(self.factors, vals, [
                b[:n] for b in ana[:-1]] + [out[rows]])

        def collocate():
            for step in steps:
                step()
        return collocate

    def __call__(self, fmap, C):
        out = np.empty((len(C), self.N))
        # a non-finite value of f makes nans in the analysis sums, which
        # the check below reports
        with np.errstate(invalid="ignore"):
            self.bind(fmap, np.ascontiguousarray(C), out)()
        if not np.isfinite(out).all():
            raise OverflowSignal(_NON_FINITE)
        return out


def _aliasing(doubled, fmap, C, F):
    """Largest change of the coefficients F of fmap(C) when the
    _Collocation `doubled`, on the doubled rule, redoes them."""
    with np.errstate(over="ignore", invalid="ignore"):
        F2 = doubled(fmap, C)
    return float(np.abs(np.subtract(F2, F, out=F2), out=F2).max())


def apply_nonlinearity(f: NonlinearitySpec, u: SpectralField,
                       quad_points: int) -> SpectralField:
    """Pseudo-spectral composition: collocate u, apply f pointwise,
    project back to the leading N coefficients, all as one row of the
    solver's batched collocation.  The projection is redone on the doubled
    rule for aliasing_est, with a warning past 1e-8 as `project` gives.
    Non-finite pointwise values raise OverflowSignal."""
    f.validate()
    panels = _rule_panels(quad_points, u.N)
    if f.kind == "zero":
        # quadrature of the zero function is exactly zero
        return SpectralField(u.op, np.zeros(u.N), u.N)
    C = u.coeffs[None, :]
    with np.errstate(over="ignore", invalid="ignore"):
        c = _Collocation(u.op, u.N, panels)(f.apply, C)
    aliasing = _aliasing(_Collocation(u.op, u.N, 2 * panels), f.apply, C, c)
    return SpectralField(u.op, c[0], u.N, aliasing_est=aliasing,
                         warnings=_aliasing_warnings(aliasing, u.N))


# ------------------------------------------------------- window machinery

_EXTENT_MIN = 64    # steps a workspace builds first (see _Workspace)


class _Workspace:
    """Per-run caches: the kernel table on a prefix of the grid, and over
    that prefix the merged product-integration weights of every mode, the
    pair (table, boundary) of _KernelTable.weights (None for f = 0, which
    forces no mode), and the homogeneous part; the pointwise map of f,
    and the collocations of the run's rule and, for its aliasing
    estimate, of its doubled rule, with their buffers (None until
    borrowed, and for f = 0); the V_gamma norm's weights lam^(2 gamma).
    The store lends the table and the collocations, and release hands
    them back.

    The prefix is first _EXTENT_MIN steps (all of a shorter grid): below
    about that many nodes a row build is mostly the cost of the call.  A
    window past its end extends it to the window's end or to twice the
    window's start, whichever is further, capped at the grid, so it grows
    geometrically and, once windows are short, to at most twice the last
    accepted node.  An extension builds the new nodes' rows only; the
    weights and the homogeneous part are rebuilt from the rows, and each
    of their values depends on its own nodes alone, so the bits are those
    of a build on the whole grid."""

    def __init__(self, p: SemilinearProblem, grid, cfg: PicardConfig):
        self.p = p
        self.N = p.N
        self.lam = p.op.eigenvalues(p.N)
        # the combined norm's weights, (2, 1, N): weighted_norm's at
        # theta = 1/alpha for u, ones for dtu
        self.vweights = np.ones((2, 1, p.N))
        self.vweights[0] = self.lam ** (2.0 * abs(1.0 / p.alpha))
        self.quad = cfg.quadrature(p.N)
        if self.quad < 4 * p.N:
            raise ConfigError(
                f"nonlinearity_quadrature={self.quad} is below the "
                f"anti-aliasing floor 4N={4 * p.N}")
        self.panels = _rule_panels(self.quad)
        # f(u) can force every mode, unless f = 0
        self.forced = p.nonlinearity.kind != "zero"
        self.M = M = len(grid) - 1
        # the longest window a run takes
        self.steps_cap = min(M, max(1, round(cfg.window_init
                                             / (grid[1] - grid[0]))))
        # the last window start's memory term, (ia, sums), for its retries
        self.memo = -1, None
        # an empty prefix, which the first reach extends
        self.kt = _KernelTable.lend(p.alpha, grid, 0)
        self.reach(0, min(M, _EXTENT_MIN))
        self.fmap = p.nonlinearity.pointwise()
        self.colloc = self.borrow(1) if self.forced else None
        self.doubled = None

    def borrow(self, k):
        """The collocation of the rule with k times the run's panels that
        the store holds idle, its buffers and tiled weights kept, or a new
        one.  It is the workspace's alone until release."""
        key = (self.p.op, self.N, k * self.panels)
        return _lend(key) or _Collocation(*key)

    def release(self):
        """Hand the kernel table and the collocations the workspace
        borrowed back to the store, for later runs on the grid and the
        operator."""
        for held in (self.kt, self.colloc, self.doubled):
            if held is not None:
                _hand_back(held.key, held)

    def reach(self, ia, ib):
        """Extend the prefix to cover the window ia..ib, if it ends before
        ib: to ib or to 2 ia, whichever is further, capped at the grid;
        then rebuild the homogeneous part, (u, dtu) rows stacked, and the
        weights over it."""
        if ib >= len(self.kt.t):
            self.kt.extend(min(self.M, max(ib, 2 * ia)) + 1)
            self.hom = np.array(_unforced_rows(
                self.kt, self.lam, self.p.u0.coeffs, self.p.u1.coeffs,
                np.full(self.N, self.forced)))
            self.weights = self.kt.weights(self.lam) if self.forced else None

    def apply_rows(self, U_rows):
        """f(u) coefficients for a stack of coefficient rows."""
        if self.colloc is None:
            return np.zeros_like(U_rows)
        return self.colloc(self.fmap, U_rows)

    def aliasing(self, U_rows, F_rows, chunk):
        """Aliasing estimate of the rows' f(u) coefficients F_rows: their
        largest change on the doubled rule, inf if f overflows there,
        taken over runs of at most chunk rows, so that the doubled rule's
        buffers hold no more.  Each row's collocation is its own, so the
        value does not depend on chunk."""
        if not (self.forced and len(U_rows)):
            return 0.0
        if self.doubled is None:
            self.doubled = self.borrow(2)
        try:
            return max(_aliasing(self.doubled, self.fmap,
                                 U_rows[lo:lo + chunk], F_rows[lo:lo + chunk])
                       for lo in range(0, len(U_rows), chunk))
        except OverflowSignal:
            return math.inf

    def combined_norms(self, UD, weights, out):
        """Per-row ||u||_{V_gamma} + ||dtu||_{L2} of UD, whose axis -3
        holds (u rows, dtu rows): weighted_norm's sums over the same
        contiguous mode rows, so the same bits.  weights is self.vweights
        broadcast to UD's shape; out is the pair of buffers the squares
        and the norms go to, shaped UD.shape and UD.shape[:-1]; the
        combined norms are written over the u norms."""
        sq, root = out
        np.square(UD, out=sq)
        sq *= weights
        root = np.add.reduce(sq, axis=-1, out=root)
        np.sqrt(root, out=root)
        return np.add(root[..., 0, :], root[..., 1, :], out=root[..., 0, :])

    def trust_radius(self, cfg, u, dtu):
        """cfg.R_star, or 8 (c0 + 1) re-centred on the combined norm c0 of
        the state (u, dtu) a window starts from."""
        if cfg.R_star is not None:
            return cfg.R_star
        UD = np.array((u, dtu))[:, None]
        c0 = self.combined_norms(UD, self.vweights, (
            np.empty(UD.shape), np.empty(UD.shape[:-1])))
        return 8.0 * (float(c0[0]) + 1.0)

    def memory(self, ia, W, F_hist):
        """The memory term of a window of W steps from node ia, (u, dtu)
        rows by modes: every term of the causal sums at nodes ia..ia + W
        in the accepted forcing F_hist, rows 0..ia, every mode at once
        (_known_sums), so the window's own sums need only its new
        samples.  A run's history up to ia is fixed once a window starts
        there, and a sum's rows do not depend on how many there are, so a
        retry from ia, which is shorter, reads the first rows of the sums
        of the attempt before."""
        start, sums = self.memo
        if start != ia or sums.shape[1] <= W:
            sums = _known_sums(self.weights, F_hist[:ia + 1].T, ia,
                               W + 1).swapaxes(1, 2)
            self.memo = ia, sums
        return sums[:, :W + 1]

    def window_solve(self, ia, ib, F_hist, cfg, R_eff):
        """Fixed-point iteration on nodes ia..ib given accepted forcing
        history F_hist (rows 0..ia).  Returns (U, DTU, F, norms,
        iterations, contraction) over the window nodes, norms the combined
        norms of the accepted rows, or raises WindowFailure.  The attempt
        builds every view and buffer its iterations use, once: the
        collocation bound to write f(u) of the iterate's u rows straight
        into contiguous mode rows FwT, the causal sums' buffer and the
        norm pass's.  Every term of the sums in F[0..ia] is known before
        the first iteration, so the fixed part holds them all (see
        memory), and an iteration adds to it the window's own sums, one
        Toeplitz dot per row of the merged table against FwT's rows.  No
        iteration tests f(u): a non-finite coefficient makes every sum
        non-finite, so the iterate's own test fails in the same
        iteration, and then gives the collocation's reason.  Fw[1:] is
        filled from FwT once, when the f(u) of the accepted iterate is
        known to be finite."""
        self.reach(ia, ib)
        W = ib - ia
        Fw = np.empty((W + 1, self.N))
        Fw[0] = F_hist[ia]
        # the norm pass's pair, (change, iterate) by (u, dtu), whose
        # iterate is the current one, each a contiguous block; the pass's
        # weights and buffers; the largest change and norm
        pair = np.empty((2, 2, W + 1, self.N))
        change, cur = pair
        weights = np.empty(pair.shape)
        weights[...] = self.vweights
        norm_bufs = np.empty(pair.shape), np.empty(pair.shape[:-1])
        top = np.empty(2)
        prev_d = None
        # one errstate per attempt: an overflow of f(u) or of the sums
        # ends it through the finiteness checks
        with np.errstate(over="ignore", invalid="ignore"):
            # (u, dtu) rows of the window's fixed part
            base = self.hom[:, ia:ib + 1].copy()
            if self.forced:
                base += self.memory(ia, W, F_hist)
            # the next iterate; row 0, the window's start, stays the fixed
            # part's in it and in the current one
            cur[...] = base
            new = base.copy()
            if self.forced:
                # the first iterate leaves out the known end F[ia] of the
                # window's first panel, B[k-1] F[ia] at row k, the known
                # sums of that one sample: it is the sums over accepted
                # panels alone, so the iterates are those of the Picard
                # loop that sums whole window panels (a head start moves
                # T_est where a window ends at the iteration cap)
                edge = _known_sums(self.weights, Fw[0][:, None], 1, W)
                np.subtract(base[:, 1:], edge.swapaxes(1, 2),
                            out=cur[:, 1:])
                # every iteration's sums read this one view of the
                # window's table, against f(u) in contiguous mode rows,
                # since a strided dot is slower on long windows; the
                # analysis writes them through their transpose.  The sums
                # are laid out as the fixed part, (time, mode) rows, and
                # row 0 holds -0.0, so one add onto the whole contiguous
                # fixed part keeps its start row (x + -0.0 is x, signed
                # zeros included)
                window = _toeplitz(self.weights[0], 0, W, W)
                S = np.empty(base.shape)
                S[:, 0] = -0.0
                sums, FwT = S[:, 1:].swapaxes(1, 2), np.empty((self.N, W))
                f_rows = self.colloc.bind(self.fmap, cur[0, 1:], FwT.T)
            else:
                # f = 0 forces no mode and makes no sums
                Fw[1:] = 0.0
            for it in range(1, cfg.max_iter + 1):
                if self.forced:
                    f_rows()
                    _causal_sums(window, FwT, sums)
                    np.add(base, S, out=new)
                np.subtract(new, cur, out=change)
                np.copyto(cur, new)
                norms = self.combined_norms(pair, weights, norm_bufs)
                d, big = np.maximum.reduce(norms, axis=1, out=top).tolist()
                # a non-finite iterate leaves its largest norm non-finite
                if not math.isfinite(big) and not np.isfinite(new).all():
                    raise WindowFailure(
                        _NON_FINITE if self.forced
                        and not np.isfinite(FwT).all()
                        else "iterate overflowed")
                if big > R_eff:
                    raise WindowFailure(
                        f"iterate left the trust ball of radius {R_eff:.3g}")
                contraction = 0.0 if prev_d is None else d / prev_d
                if d < cfg.tol:
                    if self.forced:
                        f_rows()
                        if not np.isfinite(FwT).all():
                            raise WindowFailure(_NON_FINITE)
                        Fw[1:] = FwT.T
                    return cur[0], cur[1], Fw, norms[1], it, contraction
                prev_d = d
            raise WindowFailure(
                f"no contraction to tol={cfg.tol:g} after {cfg.max_iter} "
                "iterations")


def _node_index(t, dt, value, what):
    if not math.isfinite(value):
        raise DomainError(f"{what}={value} is not finite")
    i = int(round(value / dt))
    if not (0 <= i < len(t)) or abs(t[i] - value) > 1e-9 * max(1.0, t[-1]):
        raise DomainError(f"{what}={value} does not lie on the grid")
    return i


def picard_window(p: SemilinearProblem, window, grid, cfg: PicardConfig,
                  history, history_forcing=None):
    """One fixed-point window solve on window=(t_a, t_b).

    history is a trace covering the nodes up to t_a, needed when t_a > 0:
    its u and dtu rows at t_a centre the trust radius, and its u rows
    rebuild the memory forcing unless history_forcing, rows 0..ia, is
    supplied.  Returns a dict with the window nodes' times, u/dtu/f
    coefficient rows, the iteration count and the final contraction
    ratio.  Raises WindowFailure when the window does not contract, and
    DomainError when the grid is not uniform from 0, as solve_linear's,
    or f(u) of the history's u rows overflows."""
    p.validate()
    cfg.validate()
    t, dt = _check_grid(grid)
    try:
        ta, tb = (float(v) for v in window)
    except (TypeError, ValueError, OverflowError) as exc:
        raise DomainError(
            f"window must be a pair of times, got {window!r}") from exc
    ia = _node_index(t, dt, ta, "window start")
    ib = _node_index(t, dt, tb, "window end")
    if ib <= ia:
        raise DomainError("window must contain at least one step")
    hu, hdtu = p.u0.coeffs[None, :], p.u1.coeffs[None, :]
    if ia > 0:
        if history is None:
            raise DomainError("a window after t = 0 needs a history")
        hu = np.asarray(history.u_coeffs, dtype=float)
        hdtu = np.asarray(history.dtu_coeffs, dtype=float)
        if any(h.ndim != 2 or len(h) <= ia or h.shape[1] != p.N
               for h in (hu, hdtu)):
            raise DomainError("history must hold rows 0..t_a of all modes")
    ws = _Workspace(p, t, cfg)
    try:
        if history_forcing is not None:
            F_hist = np.asarray(history_forcing, dtype=float)
            if F_hist.shape != (ia + 1, p.N):
                raise DomainError("history forcing must cover rows 0..t_a")
        else:
            try:
                with np.errstate(over="ignore", invalid="ignore"):
                    F_hist = ws.apply_rows(hu[:ia + 1])
            except OverflowSignal as sig:
                raise DomainError(
                    f"the history's u rows overflow the nonlinearity: {sig}"
                ) from sig
        R_eff = ws.trust_radius(cfg, hu[ia], hdtu[ia])
        U, DTU, Fw, _, iters, contraction = ws.window_solve(
            ia, ib, F_hist, cfg, R_eff)
    finally:
        ws.release()
    return {
        "times": t[ia:ib + 1],
        "u_coeffs": U,
        "dtu_coeffs": DTU,
        "forcing_coeffs": Fw,
        "iterations": iters,
        "contraction_estimate": contraction,
    }


def _admit(p: SemilinearProblem):
    """Criticality gate: growth declarations checked against the regime
    before any marching."""
    nl = p.nonlinearity
    if nl.kind == "zero":
        return
    regime = classify(p.op, p.alpha)
    allowance = regime.r_star
    if nl.hypothesis == "Hf2":
        if not regime.subcritical:
            raise ConfigError(
                "a globally Lipschitz nonlinearity class is only admitted "
                f"below the critical order (alpha0={regime.alpha0}); this "
                f"problem has alpha={p.alpha} with q_A={regime.q_A}. "
                "Declare a power growth bound instead.")
        return
    r, _ = nl.hf1
    if isinstance(allowance, Unbounded):
        return
    if r > allowance:
        raise ConfigError(
            f"growth exponent r={r} exceeds the admissible bound "
            f"r*={allowance:.6g} for alpha={p.alpha}, q_A={regime.q_A}")


def run(p: SemilinearProblem, T_end: float, cfg: PicardConfig,
        dt: float) -> RunOutcome:
    """March Picard windows over a uniform grid with step dt up to T_end.

    Window sizing starts from the smallness-condition heuristic
    (R / (2 C Q2(R)))^(1/(alpha-1)) capped by window_init, halves on
    failure and grows 1.5x on success.  Maximal-time detection: the
    combined norm ||u||_{V_gamma} + ||dtu||_{L2} crosses
    blowup_threshold, or the window collapses below window_min (or a
    single step).  T_est is the last time on the returned trace."""
    p.validate()
    cfg.validate()
    if not (T_end > 0.0 and math.isfinite(T_end)):
        raise ConfigError("T_end must be positive and finite")
    if not (dt > 0.0 and math.isfinite(dt)):
        raise ConfigError("dt must be positive and finite")
    M = round(T_end / dt)
    if M < 1 or abs(M * dt - T_end) > 1e-12 * max(1.0, T_end):
        raise ConfigError("T_end must be an integral number of dt steps")
    _admit(p)
    grid = np.linspace(0.0, T_end, M + 1)
    ws = _Workspace(p, grid, cfg)

    U = np.empty((M + 1, p.N))
    DTU = np.empty((M + 1, p.N))
    F = np.empty((M + 1, p.N))
    U[0] = p.u0.coeffs
    DTU[0] = p.u1.coeffs
    c_est = max(1.0, ml_bound_probe(p.alpha, p.alpha, 1e3, 64))

    def heuristic_window(R):
        q2 = p.nonlinearity.magnitude_envelope(R)
        if q2 <= 0.0:
            return cfg.window_init
        w = (R / (2.0 * c_est * q2)) ** (1.0 / (p.alpha - 1.0))
        return min(cfg.window_init, w)

    windows = []
    status = "completed"
    T_est = None
    # the most rows an accepted window kept
    widest = 0
    i = 0
    try:
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                F[0] = ws.apply_rows(U[0:1])[0]
        except OverflowSignal as sig:
            raise ConfigError(
                f"nonlinearity overflows already on the initial data: {sig}"
            ) from sig
        window_time = heuristic_window(ws.trust_radius(cfg, U[0], DTU[0]))
        steps = max(1, min(M, round(window_time / dt)))
        while i < M:
            steps = min(steps, M - i)
            ib = i + steps
            R_eff = ws.trust_radius(cfg, U[i], DTU[i])
            try:
                Uw, DTUw, Fw, norms, iters, contraction = ws.window_solve(
                    i, ib, F[:i + 1], cfg, R_eff)
            except WindowFailure:
                if steps == 1 or (steps // 2) * dt < cfg.window_min:
                    status = "maximal_time_detected"
                    T_est = grid[i]
                    break
                steps //= 2
                continue
            U[i + 1:ib + 1] = Uw[1:]
            DTU[i + 1:ib + 1] = DTUw[1:]
            F[i + 1:ib + 1] = Fw[1:]
            breach = np.where(norms[1:] > cfg.blowup_threshold)[0]
            end = i + 1 + int(breach[0]) if breach.size else ib
            windows.append(WindowRecord(grid[i], grid[end], iters,
                                        contraction))
            widest = max(widest, end - i)
            i = end
            if breach.size:
                status = "maximal_time_detected"
                T_est = grid[end]
                break
            steps = min(ws.steps_cap, max(1, round(steps * 1.5)))
        # one estimate over every accepted row, as the largest of the
        # accepted windows' would be
        aliasing = ws.aliasing(U[1:i + 1], F[1:i + 1], widest)
    finally:
        ws.release()

    last = i if status == "maximal_time_detected" else M
    tt = grid[:last + 1]
    Uf, DTUf, Ff = U[:last + 1], DTU[:last + 1], F[:last + 1]
    DAL = -Uf * ws.lam[None, :] + Ff
    trace = SolutionTrace(tt, Uf, DTUf, DAL, None,
                          _norm_series(Uf, DTUf, DAL, ws.lam, p.alpha))
    return RunOutcome(status=status, T_end=T_end, T_est=T_est,
                      windows=tuple(windows), trace=trace,
                      aliasing_est=aliasing,
                      warnings=_aliasing_warnings(aliasing, p.N))


def strong_solution_check(outcome: RunOutcome, p: SemilinearProblem,
                          q: float, r: float) -> dict:
    """Desk-scale strong-solution verdict.

    Subcritical globally Lipschitz problems are strong with no norm
    computation.  Otherwise the discrete L^{q(r-1)}-in-time norm of the
    spatial sup of u is reported; a finite value supports the verdict."""
    trace = outcome.trace
    if trace is None or len(trace.times) < 2:
        return {"verdict": "not-computed",
                "reason": "no trace to examine"}
    if p.nonlinearity.hypothesis == "Hf2":
        regime = classify(p.op, p.alpha)
        if regime.subcritical:
            return {"verdict": "strong",
                    "reason": "globally Lipschitz class below the critical "
                              "order: weak energy solutions are strong",
                    "norm": None,
                    "exponent": None,
                    "time_horizon": float(trace.times[-1])}
    s = float(q) * (float(r) - 1.0)
    if not s > 0.0:
        raise DomainError(f"q(r-1) must be positive, got {s}")
    # the spatial sup per time row on a uniform tensor grid, per run of rows
    nodes = 513 if p.op.dim == 1 else 65
    factors = p.op.uniform_factors(p.N, nodes)
    sup_vals = np.empty(len(trace.times))
    for rows in _row_runs(len(sup_vals), nodes ** p.op.dim):
        vals = synthesis(factors, trace.u_coeffs[rows])
        np.maximum.reduce(np.abs(vals, out=vals).reshape(len(vals), -1),
                          axis=1, out=sup_vals[rows])
    norm = float(np.trapezoid(sup_vals ** s, trace.times)) ** (1.0 / s)
    verdict = "strong" if math.isfinite(norm) else "inconclusive"
    return {"verdict": verdict,
            "reason": "finite L^{q(r-1)} bound of the spatial sup"
                      if verdict == "strong" else "norm overflowed",
            "norm": norm,
            "exponent": s,
            "time_horizon": float(trace.times[-1])}

