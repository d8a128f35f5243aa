"""Mild solutions of the linear problem D_t^alpha u + A u = f(t), expanded
mode by mode.

Each coefficient obeys a scalar relaxation equation whose solution is a
combination of Mittag-Leffler propagators plus a weakly singular Volterra
convolution with the forcing.  The convolution uses piecewise-linear
product integration: the forcing density is interpolated on the uniform
grid and integrated exactly against the kernel s^(alpha-1) E_aa(-lam s^a)
through the closed-form kernel moments, so constant-in-time forcing is
reproduced to evaluator precision and smooth forcing at second order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigError, DomainError, NumericFailure
from .mittag_leffler import _ml, kernel_moments, ml_rows, moment_betas
from .spectral_operator import SpectralField, weighted_norm

__all__ = [
    "TIME_FUNCTIONS",
    "ForcingSpec",
    "LinearProblem",
    "SolutionTrace",
    "eval_time_function",
    "homogeneous_state",
    "convolve_forcing",
    "solve_linear",
    "strong_norm_probe",
]

TIME_FUNCTIONS = ("constant", "polynomial", "sinusoid", "exponential-decay")


def eval_time_function(name, params, t):
    """Named scalar time factors usable in separable forcing."""
    t = np.asarray(t, dtype=float)
    p = params or {}
    try:
        if name == "constant":
            return np.full(t.shape, float(p["value"]))
        if name == "polynomial":
            out = np.zeros(t.shape)
            for c in reversed(list(p["coeffs"])):
                out = out * t + float(c)
            return out
        if name == "sinusoid":
            return float(p["amplitude"]) * np.sin(
                float(p["omega"]) * t + float(p.get("phase", 0.0)))
        if name == "exponential-decay":
            return float(p["amplitude"]) * np.exp(-float(p["rate"]) * t)
    except KeyError as exc:
        raise ConfigError(
            f"time function {name!r} needs parameter {exc.args[0]!r}"
        ) from exc
    except (TypeError, ValueError) as exc:
        raise ConfigError(
            f"time function {name!r} has a mistyped parameter: {exc}"
        ) from exc
    raise ConfigError(
        f"unknown time function {name!r}; catalog: {TIME_FUNCTIONS}")


@dataclass(frozen=True)
class ForcingSpec:
    """Forcing f(t) in coefficient space.

    kind "zero": no forcing.  kind "separable": spatial profile g times a
    scalar time factor, either named from TIME_FUNCTIONS (h_name/h_params)
    or tabulated on the solve grid (h_samples).  kind "tabulated": full
    per-mode series, shape (len(grid), N).
    """

    kind: str = "zero"
    g: SpectralField | None = None
    h_name: str | None = None
    h_params: dict | None = None
    h_samples: np.ndarray | None = None
    table: np.ndarray | None = None

    def validate(self):
        if self.kind == "zero":
            return
        if self.kind == "separable":
            if self.g is None:
                raise ConfigError("separable forcing needs a spatial profile")
            has_name = self.h_name is not None
            has_samples = self.h_samples is not None
            if has_name == has_samples:
                raise ConfigError(
                    "separable forcing needs exactly one of a named time "
                    "function or tabulated samples")
            if has_name and self.h_name not in TIME_FUNCTIONS:
                raise ConfigError(
                    f"unknown time function {self.h_name!r}; "
                    f"catalog: {TIME_FUNCTIONS}")
            if has_samples and not np.all(np.isfinite(self.h_samples)):
                raise ConfigError("time samples must be finite")
            return
        if self.kind == "tabulated":
            if self.table is None or np.ndim(self.table) != 2:
                raise ConfigError("tabulated forcing needs a 2-D table")
            if not np.all(np.isfinite(self.table)):
                raise ConfigError("forcing table must be finite")
            return
        raise ConfigError(f"unknown forcing kind {self.kind!r}")

    def values(self, times, N):
        """Per-mode forcing matrix, shape (len(times), N)."""
        M1 = len(times)
        if self.kind == "zero":
            return np.zeros((M1, N))
        if self.kind == "separable":
            c = np.zeros(N)
            m = min(N, self.g.N)
            c[:m] = self.g.coeffs[:m]
            if self.h_name is not None:
                h = eval_time_function(self.h_name, self.h_params,
                                       np.asarray(times))
            else:
                h = np.asarray(self.h_samples, dtype=float)
                if h.shape != (M1,):
                    raise ConfigError(
                        f"time samples have length {h.shape}, grid needs "
                        f"{M1}")
            return np.outer(h, c)
        tab = np.asarray(self.table, dtype=float)
        if tab.shape != (M1, N):
            raise ConfigError(
                f"forcing table shape {tab.shape} does not match "
                f"(grid, modes) = ({M1}, {N})")
        return tab.copy()


@dataclass(frozen=True)
class ModalProblem:
    """What both problems check: alpha in (1, 2), or (1, 2] where admitted,
    and initial data on op with one truncation order."""

    op: object
    alpha: float
    u0: SpectralField
    u1: SpectralField
    admits_alpha_two: ClassVar[bool] = False

    def validate(self):
        top = "]" if self.admits_alpha_two else ")"
        if not (1.0 < self.alpha < 2.0 or top == "]" and self.alpha == 2.0):
            raise DomainError(
                f"alpha must lie in (1, 2{top}, got {self.alpha}")
        if self.u0.N != self.u1.N:
            raise DomainError("u0 and u1 must share the truncation order")
        for f in (self.u0, self.u1):
            if f.op is not self.op and f.op.name != self.op.name:
                raise DomainError("initial data live on a different operator")

    @property
    def N(self):
        return self.u0.N


@dataclass(frozen=True)
class LinearProblem(ModalProblem):
    forcing: ForcingSpec
    admits_alpha_two: ClassVar[bool] = True

    def validate(self):
        super().validate()
        self.forcing.validate()
        if self.forcing.kind == "separable" and self.forcing.g.N != self.u0.N:
            raise DomainError("forcing profile must share the truncation")


@dataclass(frozen=True)
class SolutionTrace:
    """Trace on a uniform grid: rows are time nodes, columns modes.
    norm_series holds the reported norm time series keyed by name.
    d2u_coeffs row 0 is NaN by construction (the kernel is singular at 0)
    whenever second derivatives were requested."""

    times: np.ndarray
    u_coeffs: np.ndarray
    dtu_coeffs: np.ndarray
    dalpha_coeffs: np.ndarray
    d2u_coeffs: np.ndarray | None
    norm_series: dict
    warnings: tuple = ()


def _check_grid(times):
    t = np.asarray(times, dtype=float)
    if t.ndim != 1 or len(t) < 2:
        raise DomainError("grid needs at least two nodes")
    if t[0] != 0.0:
        raise DomainError("grid must start at 0")
    steps = np.diff(t)
    dt = float(steps[0])
    if dt <= 0.0 or not np.all(np.abs(steps - dt) <= 1e-12 * max(dt, 1.0)):
        raise DomainError("only uniform increasing grids are supported")
    return t, dt


def _propagate(u0, u1, lam, t, ta1, e1, e2, eaa):
    """The unforced mode evolution, the one formula every solver uses:
    u   = u0 E_{a,1}(-lam t^a) + u1 t E_{a,2}(-lam t^a)
    dtu = -u0 lam t^(a-1) E_{a,a}(-lam t^a) + u1 E_{a,1}(-lam t^a)
    with ta1 = t^(a-1) and the e arrays the Mittag-Leffler values; all
    arguments broadcast (modes at one time, or time rows by modes)."""
    return u0 * e1 + u1 * t * e2, -u0 * lam * ta1 * eaa + u1 * e1


def _propagator_betas(alpha):
    """The betas of the rows _propagate takes: e1, e2 and eaa."""
    return 1.0, 2.0, alpha


def homogeneous_state(p: LinearProblem, t: float):
    """Coefficients (u, dtu) of the unforced evolution at one time."""
    p.validate()
    if t < 0.0:
        raise DomainError("time must be nonnegative")
    a = p.alpha
    lam = p.op.eigenvalues(p.N)
    if t == 0.0:
        return p.u0.coeffs.copy(), p.u1.coeffs.copy()
    e1, e2, eaa = ml_rows(a, _propagator_betas(a), -lam * t ** a, _ml)
    return _propagate(p.u0.coeffs, p.u1.coeffs, lam, t, t ** (a - 1.0),
                      e1, e2, eaa)


class _KernelTable:
    """Both solvers' product-integration layer on one uniform grid: Mittag-
    Leffler rows over the grid offsets, cached per eigenvalue and beta, and
    the weights built from them; the one owner of the weights and of their
    layout.  Rows come from ml_rows with this module's _ml as its scalar
    fallback, so a wrapper around _ml sees every point the array routes
    leave to it.  The batching rule: a consumer asks in one call for every
    beta it will read of a mode, and for no other, since one ml_rows call
    integrates the branch cut once for all of its betas."""

    def __init__(self, alpha, times):
        self.alpha = alpha
        self.t = np.asarray(times, dtype=float)
        self.ta = self.t ** alpha
        self._rows = {}

    def row(self, lam, betas):
        """E_{a,beta}(-lam t^a) over the grid for each beta of betas and
        each eigenvalue of lam, a scalar or an array: shape (len(betas),)
        + np.shape(lam) + t.shape.  Each row the table lacks is built once:
        the eigenvalues are grouped by the betas they lack, one ml_rows
        call per group."""
        lam = np.asarray(lam, dtype=float)
        keys = lam.ravel().tolist()
        have = self._rows
        groups = {}
        for v in dict.fromkeys(keys):
            need = tuple(b for b in dict.fromkeys(betas) if (v, b) not in have)
            if need:
                groups.setdefault(need, []).append(v)
        for need, new in groups.items():
            got = ml_rows(self.alpha, need,
                          -np.array(new)[:, None] * self.ta, _ml)
            for b, rows in zip(need, got):
                have.update(zip([(v, b) for v in new], rows))
        return np.array([[have[v, b] for v in keys] for b in betas]).reshape(
            (len(betas),) + lam.shape + self.t.shape)

    def moment_steps(self, lam, deriv):
        """Per-panel increments of the moments (M0, M1), or (M'0, M'1), of
        one eigenvalue, or of each of an array of them (one row each)."""
        m0, m1 = kernel_moments(self.alpha, self.t,
                                lambda beta: self.row(lam, (beta,))[0],
                                deriv)
        m0[..., 0] = m1[..., 0] = 0.0
        return np.diff(m0), np.diff(m1)

    def weights(self, lam):
        """Product-integration weights of each eigenvalue of the array lam
        on the grid's P panels, as one zero-led (2, 2, len(lam), 2P - 1)
        stack (left, right): left = (B, B') and right = (A, A'), where
        panel l, at index P - 1 + l behind P - 1 zeros, contributes
        f_left B[l] + f_right A[l] against s^(a-1)E_aa (B, A) and against
        s^(a-2)E_{a,a-1} (B', A').  Sliced from index P - K, the stack is
        the table of a K-panel grid, and _toeplitz of the slice serves
        every causal sum over K panels; sliced from index P - 1, it serves
        the sums against accepted samples.  Built from the moment
        differences so that sum(B + A) telescopes to the exact integral of
        the kernel, making constant forcing exact.  Each call builds the
        weights once per distinct eigenvalue, from rows asked for in one
        call; the arithmetic is elementwise, so each eigenvalue's weights
        are those of a build of it alone."""
        uniq, inv = np.unique(np.ravel(lam), return_inverse=True)
        self.row(uniq, moment_betas(self.alpha))
        dt = float(self.t[1] - self.t[0])
        ell = np.arange(1, len(self.t))
        got = np.empty((2, 2, len(uniq), len(ell)))
        for k, deriv in enumerate((False, True)):
            w0, mm1 = self.moment_steps(uniq, deriv)
            got[1, k] = ell * w0 - mm1 / dt
            got[0, k] = w0 - got[1, k]
        return _zero_led(got[:, :, inv])


def _zero_led(w):
    """The P entries on the last axis of w behind P - 1 zeros."""
    P = w.shape[-1]
    out = np.zeros(w.shape[:-1] + (2 * P - 1,))
    out[..., P - 1:] = w
    return out


def _toeplitz(w, count, J):
    """Zero-copy Toeplitz view of the last axis of w: row k of the count
    rows holds w[..., k:k + J]."""
    return sliding_window_view(w[..., :count + J - 1], J, axis=-1)


def _causal_sums(view, F):
    """The causal Volterra sums of every mode row of F (samples at nodes
    0..J) against the _toeplitz view (left, right) of a weight stack: row
    k is sum_j left[k, j] F[n, J-1-j] + right[k, j] F[n, J-j], which for
    a K-panel table (J = K) is the sum at node i = k + 1 over its panels
    l < i, F[n, i-1-l] B[l] + F[n, i-l] A[l]."""
    left, right = view
    return (np.vecdot(left, np.ascontiguousarray(F[:, -2::-1])[:, None, :])
            + np.vecdot(right, np.ascontiguousarray(F[:, :0:-1])[:, None, :]))


def _unforced_rows(kt: _KernelTable, lam, u0, u1, forced):
    """Unforced (U, DTU) on the table's grid, time rows by mode columns,
    with the initial data exact in row 0.  Modes whose data vanish stay
    zero and build no rows; those of the mask forced, whose weights the
    caller reads too, build the moments' rows in the same call."""
    t, a = kt.t, kt.alpha
    M1 = len(t)
    U = np.zeros((M1, len(lam)))
    DTU = np.zeros((M1, len(lam)))
    live = (u0 != 0.0) | (u1 != 0.0)
    kt.row(lam[live & forced], _propagator_betas(a) + moment_betas(a))
    live = np.flatnonzero(live)
    ta1 = np.zeros(M1)
    ta1[1:] = t[1:] ** (a - 1.0)
    rows = kt.row(lam[live], _propagator_betas(a)).swapaxes(1, 2)
    # callers check the result for non-finite values; no numpy warning
    with np.errstate(over="ignore", invalid="ignore"):
        U[:, live], DTU[:, live] = _propagate(
            u0[live], u1[live], lam[live], t[:, None], ta1[:, None], *rows)
    U[0] = u0
    DTU[0] = u1
    return U, DTU


def convolve_forcing(p: LinearProblem, grid, kt: _KernelTable | None = None):
    """Volterra convolutions of the forcing against the mild-solution
    kernel (S3) and its time derivative's kernel (S3p), both shaped like
    the forcing matrix.  kt, when given, is the caller's kernel table on
    the same grid, so rows it already holds are not built again."""
    p.validate()
    t, _ = _check_grid(grid)
    M1 = len(t)
    F = p.forcing.values(t, p.N)
    S3 = np.zeros((M1, p.N))
    S3p = np.zeros((M1, p.N))
    if p.forcing.kind == "zero":
        return S3, S3p
    lam = p.op.eigenvalues(p.N)
    if kt is None:
        kt = _KernelTable(p.alpha, t)
    cols = np.flatnonzero(F.any(axis=0))
    if cols.size:
        # every forced mode's sums against both kernels at once
        K = M1 - 1
        S = _causal_sums(_toeplitz(kt.weights(lam[cols]), K, K), F[:, cols].T)
        S3[1:, cols] = S[0].T
        S3p[1:, cols] = S[1].T
    return S3, S3p


def _d2_smoothness_warning(p):
    """Second time derivatives need extra spatial regularity of u0; with a
    finite expansion all we can do is flag a non-decaying weighted tail."""
    lam = p.op.eigenvalues(p.N)
    sigma = 1.0 / p.alpha
    w = lam ** sigma * np.abs(p.u0.coeffs)
    total = float(np.sum(w ** 2))
    if total == 0.0 or p.N < 4:
        return ()
    tail = float(np.sum(w[3 * p.N // 4:] ** 2))
    if tail > 0.25 * total:
        return ("second-derivative accuracy degrades for rough initial "
                "data: the top-quartile modes carry "
                f"{100.0 * tail / total:.0f}% of the V_sigma weight",)
    return ()


def solve_linear(p: LinearProblem, grid, want_d2=False) -> SolutionTrace:
    """Assemble the full trace: u, dtu, the fractional derivative via the
    identity D_t^alpha u = -lam u + f, and optionally d2u."""
    p.validate()
    t, dt = _check_grid(grid)
    M1 = len(t)
    N = p.N
    a = p.alpha
    lam = p.op.eigenvalues(N)
    F = p.forcing.values(t, N)
    kt = _KernelTable(a, t)
    U, DTU = _unforced_rows(kt, lam, p.u0.coeffs, p.u1.coeffs,
                            F.any(axis=0))
    S3, S3p = convolve_forcing(p, grid, kt)
    # overflow surfaces as a NumericFailure below, not a numpy warning
    with np.errstate(over="ignore", invalid="ignore"):
        U[1:] += S3[1:]
        DTU[1:] += S3p[1:]
        DAL = -U * lam[None, :] + F

    warnings = ()
    D2 = None
    if want_d2:
        warnings = _d2_smoothness_warning(p)
        ta1, ta2 = np.zeros((2, M1, 1))
        ta1[1:, 0] = t[1:] ** (a - 1.0)
        ta2[1:, 0] = t[1:] ** (a - 2.0)
        # every beta the block reads, moment_steps' a and a + 1 included
        EAM1, EAA, _ = kt.row(lam, (a - 1.0, a, a + 1.0)).swapaxes(1, 2)
        # the piecewise-constant derivative of f against s^(a-2)E_{a,a-1}
        dF = np.diff(F, axis=0).T / dt
        W0 = _zero_led(kt.moment_steps(lam, deriv=True)[0])
        conv = np.zeros((M1, N))
        conv[1:] = np.vecdot(_toeplitz(W0, M1 - 1, M1 - 1),
                             np.ascontiguousarray(dF[:, ::-1])[:, None, :]).T
        D2 = (-p.u0.coeffs * lam * ta2 * EAM1
              - p.u1.coeffs * lam * ta1 * EAA + F[0] * ta2 * EAM1 + conv)
        D2[0] = np.nan      # the t^(alpha-2) kernel is singular at zero

    for name, mat in (("u", U), ("dtu", DTU), ("dalpha", DAL)):
        bad = np.where(~np.isfinite(mat))[0]
        if bad.size:
            raise NumericFailure(
                f"non-finite {name} coefficient at time index {bad[0]}",
                time_index=int(bad[0]))
    if D2 is not None:
        bad = np.where(~np.isfinite(D2[1:]))[0]
        if bad.size:
            raise NumericFailure(
                f"non-finite d2u coefficient at time index {bad[0] + 1}",
                time_index=int(bad[0] + 1))

    return SolutionTrace(t, U, DTU, DAL, D2,
                         _norm_series(U, DTU, DAL, lam, a), warnings)


def _norm_series(U, DTU, DAL, lam, alpha):
    """The reported norms over time: ||u||_{V_gamma}, ||dtu||_{L2} and
    ||D_t^alpha u||_{V_-gamma}, gamma = 1/alpha."""
    gamma = 1.0 / alpha
    return {"u_Vgamma": weighted_norm(U, lam, gamma),
            "dtu_L2": weighted_norm(DTU, lam, 0.0),
            "dalpha_Vminusgamma": weighted_norm(DAL, lam, -gamma)}


def strong_norm_probe(trace: SolutionTrace, p: LinearProblem) -> dict:
    """Strong-solution diagnostics: the series ||D_t^a u|| + ||A u|| in L2,
    and the L1-in-time integral of ||d2u|| when second derivatives are in
    the trace (None plus a marker note otherwise).  The first cell of the
    d2 integral uses the t^(alpha-2) envelope to close the singular head
    analytically."""
    lam = p.op.eigenvalues(p.N)
    series = (weighted_norm(trace.dalpha_coeffs, lam, 0.0)
              + weighted_norm(trace.u_coeffs, lam, 1.0))
    out = {"times": trace.times, "strong_series": series}
    if trace.d2u_coeffs is None:
        out["w21_integral"] = None
        out["note"] = "second derivatives not computed"
        return out
    d2n = weighted_norm(trace.d2u_coeffs[1:], lam, 0.0)
    t = trace.times
    body = float(np.trapezoid(d2n, t[1:]))
    head = float(d2n[0] * t[1] / (p.alpha - 1.0))
    out["w21_integral"] = body + head
    return out
