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

import numpy as np

from .criticality import Unbounded, classify
from .errors import ConfigError, DomainError, MLWaveError, OverflowSignal
from .linear_solver import (ModalProblem, SolutionTrace, _KernelTable,
                            _causal_sums, _norm_series, _toeplitz,
                            _unforced_rows)
from .mittag_leffler import ml_bound_probe
from .spectral_operator import (SpectralField, _aliasing_warnings,
                                _row_runs, _rule_panels, analysis, synthesis,
                                synthesis_blas)
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

    def apply(self, vals):
        """Pointwise f on an array of field values."""
        vals = np.asarray(vals, dtype=float)
        if self.kind == "zero":
            return np.zeros_like(vals)
        p = self.params
        if self.kind == "linear_shift":
            return float(p["kappa"]) * vals
        if self.kind == "power":
            c, e = float(p["c"]), float(p["r"]) - 1.0
            mag = np.abs(vals)
            # the exponents 1 and 2 as products, bit-equal to the general pow
            grow = (mag if e == 1.0 else mag * mag if e == 2.0
                    else mag ** e)
            return c * grow * vals
        if self.kind == "sine":
            return float(p["c"]) * np.sin(vals)
        return np.interp(vals, np.asarray(p["s"], dtype=float),
                         np.asarray(p["values"], dtype=float))

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
            return c * r * rho ** (r - 1.0)
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
            return abs(float(p["c"])) * rho ** float(p["r"])
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
        if self.max_iter < 1:
            raise ConfigError("max_iter must be >= 1")
        if not (self.window_init > 0.0 and self.window_min > 0.0):
            raise ConfigError("window sizes must be positive")
        if not self.window_min < self.window_init:
            raise ConfigError("window_min must be below window_init")
        if not self.blowup_threshold > 0.0:
            raise ConfigError("blowup_threshold must be positive")
        if (self.nonlinearity_quadrature is not None
                and self.nonlinearity_quadrature < 4):
            raise ConfigError("nonlinearity_quadrature must be >= 4")

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


def _collocate(f, op, C, N, panels, values=synthesis):
    """Coefficients of f(u) for each coefficient row u of C on the
    composite rule with `panels` panels per axis: per run of rows, grid
    values by `values` (synthesis, or synthesis_blas for a diagnostic),
    f pointwise, weighted values back by analysis.  Non-finite values of
    f raise OverflowSignal for the blow-up monitor; callers that expect
    overflow silence numpy's warnings around the call."""
    _, w, factors = op.rule(N, panels)
    out = np.empty((len(C), N))
    for rows in _row_runs(len(C), w.size):
        vals = f.apply(values(factors, C[rows]))
        if not np.isfinite(vals).all():
            raise OverflowSignal("nonlinearity produced non-finite values")
        out[rows] = analysis(factors, vals * w)
    return out


def _aliasing(f, op, C, F, N, panels):
    """Largest change of the coefficients F of f(C) on the rule with
    `panels` panels when they are redone on the doubled rule, whose grid
    values are summed in BLAS order (synthesis_blas)."""
    with np.errstate(over="ignore", invalid="ignore"):
        F2 = _collocate(f, op, C, N, 2 * panels, synthesis_blas)
    return float(np.abs(F2 - F).max())


def apply_nonlinearity(f: NonlinearitySpec, u: SpectralField,
                       quad_points: int) -> SpectralField:
    """Pseudo-spectral composition: collocate u, apply f pointwise,
    project back to the leading N coefficients, all as one row of the
    solver's batched collocation.  The projection is redone on the doubled
    rule for aliasing_est, with a warning past 1e-8 as `project` gives.
    Non-finite pointwise values raise OverflowSignal."""
    f.validate()
    if quad_points < 4 * u.N:
        raise DomainError(
            f"quad_points={quad_points} is below the anti-aliasing floor "
            f"4N={4 * u.N}")
    if f.kind == "zero":
        # quadrature of the zero function is exactly zero
        return SpectralField(u.op, np.zeros(u.N), u.N)
    panels = _rule_panels(quad_points)
    C = u.coeffs[None, :]
    with np.errstate(over="ignore", invalid="ignore"):
        c = _collocate(f, u.op, C, u.N, panels)
    aliasing = _aliasing(f, u.op, C, c, u.N, panels)
    return SpectralField(u.op, c[0], u.N, aliasing_est=aliasing,
                         warnings=_aliasing_warnings(aliasing, u.N))


# ------------------------------------------------------- window machinery

class _Workspace:
    """Per-run caches: the kernel table over the global grid, the zero-led
    product-integration weights of every mode on it (None for f = 0,
    which forces no mode), the homogeneous part, the collocation rule's
    resolution and the V_gamma norm's weights lam^(2 gamma)."""

    def __init__(self, p: SemilinearProblem, grid, cfg: PicardConfig):
        self.p = p
        self.N = p.N
        self.lam = p.op.eigenvalues(p.N)
        # weighted_norm's weights at theta = 1/alpha
        self.vweights = self.lam ** (2.0 * abs(1.0 / p.alpha))
        self.kt = _KernelTable(p.alpha, grid)
        self.quad = cfg.quadrature(p.N)
        if self.quad < 4 * p.N:
            raise ConfigError(
                f"nonlinearity_quadrature={self.quad} is below the "
                f"anti-aliasing floor 4N={4 * p.N}")
        self.panels = _rule_panels(self.quad)
        # f(u) can force every mode, unless f = 0
        forcing = p.nonlinearity.kind != "zero"
        self.hom_u, self.hom_dtu = _unforced_rows(
            self.kt, self.lam, p.u0.coeffs, p.u1.coeffs,
            np.full(p.N, forcing))
        self.weights = self.kt.weights(self.lam) if forcing else None

    def apply_rows(self, U_rows):
        """f(u) coefficients for a stack of coefficient rows."""
        if self.p.nonlinearity.kind == "zero":
            return np.zeros_like(U_rows)
        return _collocate(self.p.nonlinearity, self.p.op, U_rows, self.N,
                          self.panels)

    def aliasing(self, U_rows, F_rows):
        """Aliasing estimate of the rows' f(u) coefficients F_rows: their
        largest change on the doubled rule, inf if f overflows there."""
        if self.p.nonlinearity.kind == "zero":
            return 0.0
        try:
            return _aliasing(self.p.nonlinearity, self.p.op, U_rows, F_rows,
                             self.N, self.panels)
        except OverflowSignal:
            return math.inf

    def combined_norms(self, UD):
        """Per-row ||u||_{V_gamma} + ||dtu||_{L2} of the pair UD = (u rows,
        dtu rows), which it squares in place: weighted_norm's sums over
        the same contiguous mode rows, so the same bits."""
        np.square(UD, out=UD)
        UD[0] *= self.vweights
        root = np.sqrt(UD.sum(axis=-1))
        return root[0] + root[1]

    def trust_radius(self, cfg, u, dtu):
        """cfg.R_star, or 8 (c0 + 1) re-centred on the combined norm c0 of
        the state (u, dtu) a window starts from."""
        if cfg.R_star is not None:
            return cfg.R_star
        return 8.0 * (float(self.combined_norms(np.array([u, dtu]))) + 1.0)

    def window_solve(self, ia, ib, F_hist, cfg, R_eff):
        """Fixed-point iteration on nodes ia..ib given accepted forcing
        history F_hist (rows 0..ia).  Returns (U, DTU, F, norms,
        iterations, contraction) over the window nodes, norms the combined
        norms of the accepted rows, or raises WindowFailure."""
        W = ib - ia
        P = len(self.kt.t) - 1
        base_u = self.hom_u[ia:ib + 1].copy()
        base_dtu = self.hom_dtu[ia:ib + 1].copy()
        Fw = np.empty((W + 1, self.N))
        Fw[0] = F_hist[ia]
        # the norm pass's one buffer: (u, dtu) by (change, iterate)
        pair = np.empty((2, 2, W + 1, self.N))
        prev_d = None
        # f = 0 forces no mode and makes no sums; else every iteration's
        # sums read this one view of the window's table
        forced = self.weights is not None
        if forced:
            window = _toeplitz(self.weights[..., P - W:], W, W)
        # one errstate per attempt: an overflow of f(u) or of the sums
        # ends it through the finiteness checks
        with np.errstate(over="ignore", invalid="ignore"):
            if ia > 0 and forced:
                # the memory of the accepted panels, every mode at once
                memory = _toeplitz(self.weights[..., P - 1:], W + 1, ia)
                mem = _causal_sums(memory, F_hist[:ia + 1].T)
                base_u += mem[0].T
                base_dtu += mem[1].T
            U = base_u.copy()
            DTU = base_dtu.copy()
            for it in range(1, cfg.max_iter + 1):
                try:
                    Fw[1:] = self.apply_rows(U[1:])
                except OverflowSignal as sig:
                    raise WindowFailure(str(sig)) from sig
                newU = base_u.copy()
                newDTU = base_dtu.copy()
                if forced:
                    new = _causal_sums(window, Fw.T)
                    newU[1:] += new[0].T
                    newDTU[1:] += new[1].T
                if not (np.isfinite(newU).all()
                        and np.isfinite(newDTU).all()):
                    raise WindowFailure("iterate overflowed")
                np.subtract(newU, U, out=pair[0, 0])
                pair[0, 1] = newU
                np.subtract(newDTU, DTU, out=pair[1, 0])
                pair[1, 1] = newDTU
                change, norms = self.combined_norms(pair)
                d = float(change.max())
                if norms.max() > R_eff:
                    raise WindowFailure(
                        f"iterate left the trust ball of radius {R_eff:.3g}")
                contraction = 0.0 if prev_d is None else d / prev_d
                U, DTU = newU, newDTU
                if d < cfg.tol:
                    Fw[1:] = self.apply_rows(U[1:])
                    return U, DTU, Fw, norms, it, contraction
                prev_d = d
            raise WindowFailure(
                f"no contraction to tol={cfg.tol:g} after {cfg.max_iter} "
                "iterations")


def _node_index(t, value, what):
    if not math.isfinite(value):
        raise DomainError(f"{what}={value} is not finite")
    i = int(round(value / (t[1] - t[0])))
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
    ratio.  Raises WindowFailure when the window does not contract."""
    p.validate()
    cfg.validate()
    t = np.asarray(grid, dtype=float)
    try:
        ta, tb = (float(v) for v in window)
    except (TypeError, ValueError, OverflowError) as exc:
        raise DomainError(
            f"window must be a pair of times, got {window!r}") from exc
    ia = _node_index(t, ta, "window start")
    ib = _node_index(t, tb, "window end")
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
    if history_forcing is not None:
        F_hist = np.asarray(history_forcing, dtype=float)
        if F_hist.shape != (ia + 1, p.N):
            raise DomainError("history forcing must cover rows 0..t_a")
    else:
        with np.errstate(over="ignore", invalid="ignore"):
            F_hist = ws.apply_rows(hu[:ia + 1])
    R_eff = ws.trust_radius(cfg, hu[ia], hdtu[ia])
    U, DTU, Fw, _, iters, contraction = ws.window_solve(ia, ib, F_hist, cfg,
                                                        R_eff)
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
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            F[0] = ws.apply_rows(U[0:1])[0]
    except OverflowSignal as sig:
        raise ConfigError(
            f"nonlinearity overflows already on the initial data: {sig}"
        ) from sig

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
    aliasing = 0.0
    i = 0
    window_time = heuristic_window(ws.trust_radius(cfg, U[0], DTU[0]))
    steps_cap = max(1, round(cfg.window_init / dt))
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
        windows.append(WindowRecord(grid[i], grid[end], iters, contraction))
        kept = slice(1, end - i + 1)
        aliasing = max(aliasing, ws.aliasing(Uw[kept], Fw[kept]))
        i = end
        if breach.size:
            status = "maximal_time_detected"
            T_est = grid[end]
            break
        steps = min(steps_cap, max(1, round(steps * 1.5)))

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
    # the spatial sup per time row on a uniform tensor grid, per run of
    # rows, the grid values in BLAS order
    axes = [np.linspace(lo, hi, 513 if p.op.dim == 1 else 65)
            for lo, hi in p.op.domain_box]
    factors = p.op.factors(p.N, axes)
    sup_vals = np.empty(len(trace.times))
    for rows in _row_runs(len(sup_vals), math.prod(map(len, axes))):
        vals = synthesis_blas(factors, trace.u_coeffs[rows])
        sup_vals[rows] = np.abs(vals.reshape(len(vals), -1)).max(axis=1)
    norm = float(np.trapezoid(sup_vals ** s, trace.times)) ** (1.0 / s)
    verdict = "strong" if math.isfinite(norm) else "inconclusive"
    return {"verdict": verdict,
            "reason": "finite L^{q(r-1)} bound of the spatial sup"
                      if verdict == "strong" else "norm overflowed",
            "norm": norm,
            "exponent": s,
            "time_horizon": float(trace.times[-1])}

