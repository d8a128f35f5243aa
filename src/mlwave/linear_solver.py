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

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

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

    def validate(self, nodes=None, N=None):
        """Refuse a forcing the solvers cannot use: a named time function
        is evaluated at t = 0, so its name and parameters are checked at
        one point; given the grid's node count and the modes, the samples
        and the table are checked against them too."""
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
            if has_name:
                eval_time_function(self.h_name, self.h_params, 0.0)
                return
            if not np.all(np.isfinite(self.h_samples)):
                raise ConfigError("time samples must be finite")
            if nodes is not None and np.shape(self.h_samples) != (nodes,):
                raise ConfigError(
                    f"time samples have shape {np.shape(self.h_samples)}, "
                    f"the grid needs ({nodes},)")
            return
        if self.kind == "tabulated":
            if self.table is None or np.ndim(self.table) != 2:
                raise ConfigError("tabulated forcing needs a 2-D table")
            if not np.all(np.isfinite(self.table)):
                raise ConfigError("forcing table must be finite")
            if None not in (nodes, N) and np.shape(self.table) != (nodes, N):
                raise ConfigError(
                    f"forcing table shape {np.shape(self.table)} does not "
                    f"match (grid, modes) = ({nodes}, {N})")
            return
        raise ConfigError(f"unknown kind {self.kind!r}; catalog: "
                          "('zero', 'separable', 'tabulated')")

    def values(self, times, N):
        """Per-mode forcing matrix, shape (len(times), N)."""
        M1 = len(times)
        self.validate(M1, N)
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
            return np.outer(h, c)
        return np.array(self.table, dtype=float)


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


# The process-wide store of the idle objects solves borrow and hand back,
# least recently used first, and the bytes past which older entries are
# evicted: per (alpha, grid bytes) a kernel table, per (operator, N,
# panels) a semilinear collocation.  Every entry has nbytes.  The lock
# guards the store alone.
_STORE = OrderedDict()
_STORE_BYTES = 64 << 20
_STORE_LOCK = threading.Lock()


def _lend(key):
    """Take the idle object at key out of the store: it is the caller's
    alone until _hand_back; None if the store holds none there."""
    with _STORE_LOCK:
        return _STORE.pop(key, None)


def _hand_back(key, obj):
    """Hold obj idle at key, for the next _lend of it, unless the store
    holds one there already or obj alone is past _STORE_BYTES; mark the
    entry at key the most recently used, then evict the least recently
    used others while the store holds more than _STORE_BYTES."""
    with _STORE_LOCK:
        if obj.nbytes > _STORE_BYTES:
            return
        _STORE.setdefault(key, obj)
        _STORE.move_to_end(key)
        total = sum(e.nbytes for e in _STORE.values())
        while total > _STORE_BYTES and next(iter(_STORE)) != key:
            total -= _STORE.popitem(last=False)[1].nbytes


class _Build:
    """Values a kernel table built in one call, held read-only in arr with
    one slot per value on `axis`, for the eigenvalue vector lam: with
    betas, the rows at those betas as ml_rows stacks them, flattened to
    (betas x lam, nodes), so that slot i len(lam) + j is the row of beta
    i and eigenvalue j; with betas None, the weights, (C or B, kernel,
    lam, panels), slot j eigenvalue j's."""

    __slots__ = ("lam", "betas", "arr")

    def __init__(self, lam, betas=None):
        self.lam, self.betas, self.arr = lam, betas, None

    @property
    def axis(self):
        return 0 if self.betas is not None else 2


def _reads(where):
    """How a request reads its values, given where each is, (build, slot)
    in request order: per build, the slots it reads there and the
    request's positions they go to, or, when one build holds them all,
    None for the positions; slots that run in order are a slice."""
    by = {}
    for i, (build, slot) in enumerate(where):
        src, dst = by.setdefault(build, ([], []))
        src.append(slot)
        dst.append(i)
    if len(by) == 1:
        ((build, (src, _)),) = by.items()
        if src == list(range(src[0], src[0] + len(src))):
            return [(build, slice(src[0], src[0] + len(src)), None)]
        return [(build, np.array(src, dtype=np.intp), None)]
    return [(build, np.array(src, dtype=np.intp), np.array(dst, dtype=np.intp))
            for build, (src, dst) in by.items()]


def _gather(plan, shape, own=False):
    """The values plan reads, each cut to shape[-1] on the last axis, in
    an array of shape: a new one, or, when one build holds them in order,
    a read-only view of it unless own asks for a copy."""
    if len(plan) == 1:
        ((build, src, _),) = plan
        held = build.arr[..., :shape[-1]]
        if isinstance(src, slice):
            view = held[(slice(None),) * build.axis + (src,)]
            return view.copy() if own else view
        return np.take(held, src, axis=build.axis)
    out = np.empty(shape)
    for build, src, dst in plan:
        at = (slice(None),) * build.axis + (dst,)
        out[at] = np.take(build.arr[..., :shape[-1]], src, axis=build.axis)
    return out


class _KernelTable:
    """Both solvers' product-integration layer on one uniform grid: Mittag-
    Leffler rows over the grid offsets, per eigenvalue and beta, and the
    weights built from them; the one owner of the weights and of their
    layout.  Rows come from ml_rows with this module's _ml as its scalar
    fallback, so a wrapper around _ml sees every point the array routes
    leave to it.  The batching rule: a consumer asks in one call for every
    beta it will read of a mode, and for no other, since one ml_rows call
    integrates the branch cut once for all of its betas.

    A table holds what it has built as _Builds, read-only, each the
    stacked arrays of one build for the eigenvalue vector it was built
    for, on a read-only copy of its grid; nbytes counts their values and
    the grid.  Maps give where each value is, (build, slot) per
    (eigenvalue, beta) row and per eigenvalue's weights, so none is held
    twice, and per request answered before, (eigenvalues' bytes, betas,
    or None for weights), the slots it reads in each build, so a repeated
    request makes no loop over its eigenvalues: it reads the held arrays
    with one np.take per build, or as a slice of the one build that holds
    them in order.  Solves borrow
    a table with lend and give it back with _hand_back at key, so
    repeated solves on one (alpha, grid) build only what earlier ones
    lacked, and no two share a table at once.  It covers the first
    `nodes` nodes of the grid, and t is that prefix; extend moves it, and
    a build held short of it is completed when next read, rows from where
    they end, weights rebuilt whole from the rows; one held past it is
    read cut to it.  A row value depends on its own point alone, and a
    weight on its own panel and the one before, so the rows, and the
    weights and propagators built from them, are those of a table built
    on the longer prefix at once, cold, one eigenvalue at a time."""

    def __init__(self, alpha, times, nodes=None):
        self.alpha = alpha
        self.key = (float(alpha), np.asarray(times, dtype=float).tobytes())
        # read-only, over the key's bytes
        self._grid = np.frombuffer(self.key[1])
        self._ta = self._grid ** alpha
        self._builds, self._rows, self._weights, self._plans = [], {}, {}, {}
        self.nbytes = len(self.key[1])
        self.extend(nodes)

    @classmethod
    def lend(cls, alpha, times, nodes=None):
        """The table the store holds idle on (alpha, times), or a new one,
        over the first `nodes` nodes: the caller's until handed back."""
        kt = (_lend((float(alpha), np.asarray(times, dtype=float).tobytes()))
              or cls(alpha, times))
        kt.extend(nodes)
        return kt

    def extend(self, nodes):
        """Cover the first `nodes` nodes of the grid."""
        self.t, self.ta = self._grid[:nodes], self._ta[:nodes]

    def _keep(self, build, arr):
        """Hold arr, read-only, as build's values, in place of any it had."""
        arr.flags.writeable = False
        if build.arr is None:
            self._builds.append(build)
        else:
            self.nbytes -= build.arr.nbytes
        self.nbytes += arr.nbytes
        build.arr = arr

    def _rows_of(self, lam, betas):
        """Build the rows at betas of the eigenvalues lam, a list, that
        the table lacks: the eigenvalues grouped by the betas they lack,
        one ml_rows call and one build per group."""
        groups = {}
        for v in dict.fromkeys(lam):
            need = tuple(b for b in dict.fromkeys(betas)
                         if (v, b) not in self._rows)
            if need:
                groups.setdefault(need, []).append(v)
        for need, new in groups.items():
            build = _Build(np.array(new), need)
            got = ml_rows(self.alpha, need, -build.lam[:, None] * self.ta, _ml)
            self._keep(build, got.reshape(-1, len(self.t)))
            for i, b in enumerate(need):
                for j, v in enumerate(new):
                    self._rows[v, b] = build, i * len(new) + j

    def _complete(self, build):
        """Complete build's rows from where they end to the prefix."""
        lo = build.arr.shape[-1]
        got = ml_rows(self.alpha, build.betas,
                      -build.lam[:, None] * self.ta[lo:], _ml)
        self._keep(build, np.concatenate(
            (build.arr, got.reshape(-1, len(self.t) - lo)), axis=1))

    def row(self, lam, betas):
        """E_{a,beta}(-lam t^a) over the grid for each beta of betas and
        each eigenvalue of lam, a scalar or an array: shape (len(betas),)
        + np.shape(lam) + t.shape, the caller's own.  Each row the table
        lacks is built once, and each build held short of t is completed,
        when first read."""
        lam = np.asarray(lam, dtype=float)
        betas = tuple(betas)
        n = len(self.t)
        got = _gather(self._plan(lam, betas), (len(betas) * lam.size, n),
                      own=True)
        return got.reshape((len(betas),) + lam.shape + (n,))

    def _plan(self, lam, betas):
        """How the table reads the rows of row(lam, betas), once it holds
        each of them over the prefix."""
        key = (lam.tobytes(), betas)
        plan = self._plans.get(key)
        if plan is None:
            keys = lam.ravel().tolist()
            self._rows_of(keys, betas)
            plan = self._plans[key] = _reads(
                [self._rows[v, b] for b in betas for v in keys])
        for build, _, _ in plan:
            if build.arr.shape[-1] < len(self.t):
                self._complete(build)
        return plan

    def moment_steps(self, lam, deriv):
        """Per-panel increments of the moments (M0, M1), or (M'0, M'1), of
        one eigenvalue, or of each of an array of them (one row each)."""
        def row(beta):
            return self.row(lam, (beta,))[0]

        m0, m1 = kernel_moments(self.alpha, self.t, row, deriv)
        m0[..., 0] = m1[..., 0] = 0.0
        return np.diff(m0), np.diff(m1)

    def _weigh(self, build):
        """Build the weights of build's eigenvalues over every panel of
        the prefix, from rows asked for in one call."""
        self._plan(build.lam, moment_betas(self.alpha))
        P = len(self.t) - 1
        ell = np.arange(1, P + 1)
        dt = float(self.t[1] - self.t[0])
        # (C, B) by kernel
        got = np.empty((2, 2, len(build.lam), P))
        for k, deriv in enumerate((False, True)):
            w0, mm1 = self.moment_steps(build.lam, deriv)
            got[0, k] = ell * w0 - mm1 / dt
            got[1, k] = w0 - got[0, k]
            got[0, k, :, 1:] += got[1, k, :, :-1]
        self._keep(build, got)

    def weights(self, lam):
        """Product-integration weights of each eigenvalue of the array lam
        on the grid's P panels, merged into one table per kernel.  Panel l
        contributes f_left B[l] + f_right A[l], against s^(a-1)E_aa and
        against s^(a-2)E_{a,a-1}, so the causal sum at node i over panels
        l < i is
            S_i = sum_{m < i} C[m] F[i-m] + B[i-1] F[0],
        with C[0] = A[0] and C[m] = B[m-1] + A[m].  Returned as the pair
        (table, boundary): table, (2, len(lam), 2P - 1), holds C laid out
        by _toeplitz_table, so that _toeplitz views of it serve every
        causal sum over up to P panels; boundary, (2, len(lam), P + 1),
        holds B[i-1] at index i, the coefficient of F[0] at node i (0 at
        node 0).  The 2 is the kernel, the second one's weights those of
        the time derivative.  Built from the moment differences so that
        sum(B + A) telescopes to the exact integral of the kernel, making
        constant forcing exact.  The eigenvalues the table holds no
        weights for are built in one build; a build held short of P panels
        is rebuilt whole; only the rows are completed.  The arithmetic is
        elementwise, and C[m] and B[m] read nodes m - 1 to m + 1 alone, so
        each eigenvalue's weights are those of a build of it alone, and
        each panel's those of a build on a longer prefix."""
        lam = np.asarray(lam, dtype=float).ravel()
        P = len(self.t) - 1
        plan = self._plans.get((lam.tobytes(), None))
        if plan is None:
            keys = lam.tolist()
            new = [v for v in dict.fromkeys(keys) if v not in self._weights]
            if new:
                build = _Build(np.array(new))
                self._weigh(build)
                for j, v in enumerate(new):
                    self._weights[v] = build, j
            plan = self._plans[lam.tobytes(), None] = _reads(
                [self._weights[v] for v in keys])
        for build, _, _ in plan:
            if build.arr.shape[-1] < P:
                self._weigh(build)
        C, B = _gather(plan, (2, 2, len(lam), P))
        boundary = np.zeros(B.shape[:-1] + (P + 1,))
        boundary[..., 1:] = B
        return _toeplitz_table(C), boundary


def _toeplitz_table(w):
    """The P entries on the last axis of w reversed, then P - 1 zeros: the
    contiguous layout _toeplitz views."""
    P = w.shape[-1]
    out = np.zeros(w.shape[:-1] + (2 * P - 1,))
    out[..., :P] = w[..., ::-1]
    return out


def _toeplitz(table, lag, count, J):
    """Zero-copy, read-only Toeplitz view of a table _toeplitz_table laid
    out from w: row k of the count rows, column j of J, holds
    w[lag + k - j], zero where lag + k - j < 0.  Against samples F[1..J]
    in its columns, row k of a view at lag 0 sums node k + 1's terms, and
    row k of a view at lag ia - 1 sums node ia + k's terms in F[1..ia]."""
    P = (table.shape[-1] + 1) // 2
    if lag < 0 or lag + count > P or J > P + lag:
        raise ValueError("a Toeplitz view past the end of its table")
    step = table.strides[-1]
    view = np.ndarray(table.shape[:-1] + (count, J), table.dtype,
                      buffer=table, offset=(P - 1 - lag) * step,
                      strides=table.strides[:-1] + (-step, step))
    view.flags.writeable = False
    return view


def _causal_sums(view, F, out=None):
    """The Toeplitz sums of every mode row of F against the _toeplitz view
    of a stack of tables, one row of tables per mode: row k of mode n is
    sum_j view[..., n, k, j] F[n, j], into out if given.  One dot per row:
    F's rows are best contiguous, since a strided dot is slower."""
    return np.vecdot(view, F[:, None, :], out=out)


def _known_sums(weights, F, lo, count):
    """Every term in the samples F[n, 0..J] of the causal sums at the
    count nodes from lo on, of each mode row n of F against its row of
    the weights pair (table, boundary): the boundary term B[i-1] F[0]
    plus, for J > 0, the Toeplitz sum over F[1..J] at lag lo - 1.  With
    lo = 1 and J = count, those are the whole sums at nodes 1..J."""
    table, boundary = weights
    F = np.ascontiguousarray(F)
    J = F.shape[-1] - 1
    S = boundary[..., lo:lo + count] * F[:, :1]
    if J:
        S += _causal_sums(_toeplitz(table, lo - 1, count, J), F[:, 1:])
    return S


def _unforced_rows(kt: _KernelTable, lam, u0, u1, forced):
    """Unforced (U, DTU) on the table's grid, time rows by mode columns,
    with the initial data exact in row 0.  Modes whose data vanish stay
    zero and build no rows; those of the mask forced, whose weights the
    caller reads too, have their rows built in one call with the
    moments', and every live mode's propagator rows are read at once."""
    t, a = kt.t, kt.alpha
    M1 = len(t)
    U = np.zeros((M1, len(lam)))
    DTU = np.zeros((M1, len(lam)))
    live = np.flatnonzero((u0 != 0.0) | (u1 != 0.0))
    fed = live[forced[live]]
    if fed.size:
        # the forced modes' rows in one call with the moments'
        kt._plan(lam[fed], _propagator_betas(a) + moment_betas(a))
    e1, e2, eaa = kt.row(lam[live], _propagator_betas(a)).swapaxes(1, 2)
    ta1 = t ** (a - 1.0)
    # callers check the result for non-finite values; no numpy warning
    with np.errstate(over="ignore", invalid="ignore"):
        U[:, live], DTU[:, live] = _propagate(
            u0[live], u1[live], lam[live], t[:, None], ta1[:, None],
            e1, e2, eaa)
    U[0] = u0
    DTU[0] = u1
    return U, DTU


def _forcing_sums(kt: _KernelTable, lam, F):
    """The Volterra sums (S3, S3p) of convolve_forcing, of a checked
    forcing matrix F on the table's grid, lam the modes' eigenvalues."""
    M1, N = F.shape
    S3 = np.zeros((M1, N))
    S3p = np.zeros((M1, N))
    cols = np.flatnonzero(F.any(axis=0))
    if cols.size:
        # every forced mode's sums against both kernels at once
        S = _known_sums(kt.weights(lam[cols]), F.T[cols], 1, M1 - 1)
        S3[1:, cols] = S[0].T
        S3p[1:, cols] = S[1].T
    return S3, S3p


def convolve_forcing(p: LinearProblem, grid, kt: _KernelTable | None = None,
                     F=None):
    """Volterra convolutions of the forcing against the mild-solution
    kernel (S3) and its time derivative's kernel (S3p), both shaped like
    the forcing matrix.  kt and F, when given, are the caller's kernel
    table and forcing matrix on the same grid, so neither is built again;
    without kt, the store lends one, and it is handed back here."""
    p.validate()
    t, _ = _check_grid(grid)
    M1 = len(t)
    if F is None:
        F = p.forcing.values(t, p.N)
    elif np.shape(F) != (M1, p.N):
        raise DomainError(
            f"forcing matrix has shape {np.shape(F)}, the grid and modes "
            f"need ({M1}, {p.N})")
    lam = p.op.eigenvalues(p.N)
    if kt is not None or not F.any():
        return _forcing_sums(kt, lam, F)
    kt = _KernelTable.lend(p.alpha, t)
    sums = _forcing_sums(kt, lam, F)
    _hand_back(kt.key, kt)
    return sums


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
    kt = _KernelTable.lend(a, t)
    U, DTU = _unforced_rows(kt, lam, p.u0.coeffs, p.u1.coeffs,
                            F.any(axis=0))
    S3, S3p = _forcing_sums(kt, lam, F)
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
        dF = np.ascontiguousarray(np.diff(F, axis=0).T) / dt
        W0 = _toeplitz_table(kt.moment_steps(lam, deriv=True)[0])
        conv = np.zeros((M1, N))
        conv[1:] = _causal_sums(_toeplitz(W0, 0, M1 - 1, M1 - 1), dF).T
        D2 = (-p.u0.coeffs * lam * ta2 * EAM1
              - p.u1.coeffs * lam * ta1 * EAA + F[0] * ta2 * EAM1 + conv)
        D2[0] = np.nan      # the t^(alpha-2) kernel is singular at zero
    _hand_back(kt.key, kt)

    # d2u from row 1 on: its row 0 is nan by construction
    for name, mat, lo in (("u", U, 0), ("dtu", DTU, 0), ("dalpha", DAL, 0),
                          ("d2u", D2, 1)):
        bad = () if mat is None else np.where(~np.isfinite(mat[lo:]))[0]
        if len(bad):
            i = int(bad[0]) + lo
            raise NumericFailure(
                f"non-finite {name} coefficient at time index {i}",
                time_index=i)

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
