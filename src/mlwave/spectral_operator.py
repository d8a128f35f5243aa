"""Eigen-decomposed operators on product domains.

Everything downstream works in coefficient space, so an operator here is
just its spectrum, held as arrays: a positive nondecreasing eigenvalue
vector, per-axis tables of the 1-D factors of the matching L2-orthonormal
eigenfunctions at any tensor grid, the spatial dimension, and the Sobolev
exponent q_A of the embedding V_{1/2} -> L^{2 q_A}.  The catalog is
restricted to domains with closed-form eigenpairs (intervals, boxes, a
shifted Neumann variant, and spectral fractional powers of these), which is
what makes independent oracle testing possible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .criticality import table_q_A
from .errors import ConfigError, DomainError

__all__ = [
    "Operator",
    "SpectralField",
    "OperatorSpecConfig",
    "make_operator",
    "q_A_of",
    "project",
    "evaluate",
    "frac_norm",
    "weighted_norm",
]

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(10)
_VALUES_MAX = 1 << 22       # doubles of one run of rows' grid values (32 MB)

_KINDS = (
    "dirichlet_laplacian_interval",
    "dirichlet_laplacian_box",
    "neumann_laplacian_shifted",
    "spectral_fractional_power",
)


@dataclass(frozen=True)
class OperatorSpecConfig:
    """Catalog entry.  `lengths` sizes the box (one entry per axis), `shift`
    is the Neumann zero-mode lift, `power`/`base` define a spectral
    fractional power, and `q` is the embedding exponent on the borderline
    dimension where it is caller-chosen."""

    kind: str
    lengths: tuple = ()
    shift: float = 0.0
    power: float = 0.0
    base: "OperatorSpecConfig | None" = None
    q: float = 4.0

    def validate(self):
        if self.kind not in _KINDS:
            raise ConfigError(f"unknown operator kind {self.kind!r}")
        if self.kind == "spectral_fractional_power":
            if not 0.0 < self.power < 1.0:
                raise ConfigError("power must lie in (0, 1)")
            if self.base is None:
                raise ConfigError("fractional power needs a base operator")
            if self.base.kind == "spectral_fractional_power":
                raise ConfigError("base must be a non-fractional catalog kind")
            self.base.validate()
        else:
            if not self.lengths:
                raise ConfigError(f"{self.kind} needs side lengths")
            if any(not (isinstance(L, (int, float)) and L > 0.0
                        and math.isfinite(L)) for L in self.lengths):
                raise ConfigError("lengths must be positive and finite")
            if self.kind != "dirichlet_laplacian_box" and len(self.lengths) != 1:
                raise ConfigError(f"{self.kind} is one-dimensional")
            if self.kind == "neumann_laplacian_shifted":
                if not (self.shift > 0.0 and math.isfinite(self.shift)):
                    raise ConfigError("shift must be > 0 so the spectrum is")
        if not (1.0 < self.q < math.inf):
            raise ConfigError("q must lie in (1, inf)")


class _BoxModes:
    """Lazily grown mode table of a product box: per-axis indices j_i,
    starting at `first`, sorted by sum_i (j_i pi / L_i)^2 with
    lexicographic index tie-break.  Indices with some component beyond the
    current cube edge M are only admitted once the cube provably contains
    every mode below the cutoff ((M+1) pi / max L)^2, so the ordering is
    exact, not truncation-dependent."""

    def __init__(self, lengths, first):
        self.lengths = lengths
        self.first = first
        self.kvec = np.array([math.pi / L for L in lengths])
        self.lam = np.empty(0)
        self.idx = np.empty((0, len(lengths)), dtype=int)
        self._M = 0

    def _rebuild(self, M):
        axes = [np.arange(self.first, M + 1)] * len(self.lengths)
        grids = np.meshgrid(*axes, indexing="ij")
        idx = np.stack([g.reshape(-1) for g in grids], axis=1)
        lam = ((idx * self.kvec) ** 2).sum(axis=1)
        keep = lam <= ((M + 1) * math.pi / max(self.lengths)) ** 2
        idx, lam = idx[keep], lam[keep]
        order = np.lexsort(tuple(idx.T[::-1]) + (lam,))
        self.idx, self.lam = idx[order], lam[order]
        self._M = M

    def need(self, count):
        """(eigenvalues, indices) of the first count modes."""
        M = max(self._M, 8)
        while len(self.lam) < count:
            self._rebuild(M)
            M *= 2
        return self.lam[:count], self.idx[:count]


class _Factors(NamedTuple):
    """Per-axis (J_i, P_i) factor tables of N modes, and each mode's flat
    position in the (J_1, ..., J_d) grid of table rows (None in 1-D)."""

    tables: tuple
    index: np.ndarray | None


class _Rule(NamedTuple):
    """Read-only tensor Gauss-Legendre rule: per-axis nodes, weights on
    the (P_1, ..., P_d) grid and the factors of the basis there."""

    axes: tuple
    weights: np.ndarray
    factors: _Factors

    @property
    def nodes(self) -> np.ndarray:
        """The grid as the integrand sees it, (P,) or (P_1, ..., P_d, d)."""
        if len(self.axes) == 1:
            return self.axes[0]
        return np.stack(np.meshgrid(*self.axes, indexing="ij"), axis=-1)


class Operator:
    """Immutable spectral triple (lambda_n, phi_n, q_A) on a box.

    Every catalog eigenfunction is a product of 1-D factors,
    phi_n(x) = prod_i c(j_i) trig(j_i pi x_i / L_i): sines on Dirichlet
    axes, cosines on the Neumann interval, c(j) = sqrt(2/L_i) except
    c(0) = sqrt(1/L_i); lambda_n = (sum_i (j_i pi / L_i)^2 + shift)^power.
    The mode indices j come from the exact _BoxModes ordering."""

    def __init__(self, name, q_A, lengths, neumann=False, shift=0.0,
                 power=1.0):
        self.name = name
        self.dim = len(lengths)
        self.q_A = q_A
        self.domain_box = tuple((0.0, L) for L in lengths)
        self.shift = shift
        self.power = power
        self._modes = _BoxModes(tuple(lengths), 0 if neumann else 1)
        self._trig = np.cos if neumann else np.sin
        self._rules = {}

    def eigenvalues(self, N: int) -> np.ndarray:
        """First N eigenvalues as a fresh vector."""
        lam = self._modes.need(N)[0] + self.shift
        return lam if self.power == 1.0 else lam ** self.power

    def eigenvalue(self, n: int) -> float:
        if n < 1:
            raise DomainError("mode index is 1-based")
        return float(self.eigenvalues(int(n))[-1])

    def basis(self, N: int, x) -> np.ndarray:
        """phi_1..phi_N at points x in the box, shape x.shape + (N,) in
        1-D, else x.shape[:-1] + (N,)."""
        shape, phis = self._at(N, x)
        # stored mode-major, so each eigenfunction's values are contiguous
        return np.stack(list(phis)).T.reshape(shape + (N,))

    def eigenfunction(self, n: int, x):
        """phi_n at x; x broadcasts (scalar/array in 1-D, (..., dim) else)."""
        if n < 1:
            raise DomainError("mode index is 1-based")
        return self.basis(int(n), x)[..., -1][()]

    def rule(self, N: int, panels: int) -> _Rule:
        """Composite 10-node Gauss-Legendre rule with `panels` panels per
        axis and the factors of N modes there, built once per (N, panels)."""
        key = (int(N), int(panels))
        if key not in self._rules:
            xs, ws = zip(*[_panel_nodes(lo, hi, panels)
                           for lo, hi in self.domain_box])
            got = _Rule(xs, math.prod(np.ix_(*ws), start=1.0),
                        self.factors(N, xs))
            for arr in (*xs, got.weights, *got.factors.tables,
                        got.factors.index):
                if arr is not None:
                    arr.flags.writeable = False
            self._rules[key] = got
        return self._rules[key]

    def factors(self, N: int, axes) -> _Factors:
        """The first N modes at per-axis nodes axes: table i has row r =
        c(j) trig(j pi x / L_i) at j = first + r."""
        _, idx = self._modes.need(N)
        rows = idx - self._modes.first
        shape = tuple(rows.max(axis=0) + 1)
        tables = []
        for L, k, J, xi in zip(self._modes.lengths, self._modes.kvec, shape,
                               axes):
            j = np.arange(self._modes.first, self._modes.first + J)
            amp = np.where(j == 0, math.sqrt(1.0 / L), math.sqrt(2.0 / L))
            tables.append(amp[:, None]
                          * self._trig(np.multiply.outer(j * k, xi)))
        return _Factors(tuple(tables),
                        np.ravel_multi_index(tuple(rows.T), shape)
                        if self.dim > 1 else None)

    def _at(self, N, x):
        """(shape, phis) of points x, checked to lie in the box: phis
        yields phi_1..phi_N at the flattened points, each the product of
        its d factors."""
        xv = np.asarray(x, dtype=float)
        if self.dim == 1:
            shape, coords = xv.shape, [xv.reshape(-1)]
        else:
            if xv.ndim == 0 or xv.shape[-1] != self.dim:
                raise DomainError(f"point must have {self.dim} coordinates")
            shape, coords = xv.shape[:-1], list(xv.reshape(-1, self.dim).T)
        for xi, (lo, hi) in zip(coords, self.domain_box):
            if np.any(xi < lo) or np.any(xi > hi):
                raise DomainError("point outside the operator domain")
        tables = self.factors(N, coords).tables
        rows = self._modes.need(N)[1] - self._modes.first
        return shape, (math.prod(T[r] for T, r in zip(tables, at))
                       for at in rows)

    def __repr__(self):
        return f"Operator({self.name}, dim={self.dim}, q_A={self.q_A})"


@dataclass(frozen=True)
class SpectralField:
    """Coefficient vector against the first N eigenfunctions of op."""

    op: Operator
    coeffs: np.ndarray
    N: int
    aliasing_est: float = 0.0
    warnings: tuple = ()

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=float)
        object.__setattr__(self, "coeffs", c)
        if self.N < 1 or c.shape != (self.N,):
            raise DomainError("need N >= 1 coefficients, matching N")
        if not np.all(np.isfinite(c)):
            raise DomainError("coefficients must be finite")


# ------------------------------------------------------------ the catalog

def q_A_of(cfg: OperatorSpecConfig):
    """Sobolev exponent of V_{1/2} -> L^{2 q_A} for a catalog entry, from
    the criticality tables (the shifted Neumann interval shares the
    Laplacian row).  math.inf encodes the unbounded case."""
    cfg.validate()
    if cfg.kind == "spectral_fractional_power":
        return table_q_A(cfg.kind, len(cfg.base.lengths), s=cfg.power,
                         q=cfg.q)
    return table_q_A("dirichlet_laplacian", len(cfg.lengths), q=cfg.q)


def make_operator(cfg: OperatorSpecConfig) -> Operator:
    cfg.validate()
    qa = q_A_of(cfg)
    base, name, power = cfg, cfg.kind, 1.0
    if cfg.kind == "spectral_fractional_power":
        base, power = cfg.base, cfg.power
        name = f"{base.kind}^{power:g}"
    neumann = base.kind == "neumann_laplacian_shifted"
    return Operator(name, qa, tuple(float(L) for L in base.lengths),
                    neumann=neumann,
                    shift=float(base.shift) if neumann else 0.0,
                    power=power)


# --------------------------------------------- projection and evaluation

def _panel_nodes(lo, hi, panels):
    edges = np.linspace(lo, hi, panels + 1)
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    xs = (mid[:, None] + half[:, None] * _GL_NODES[None, :]).reshape(-1)
    ws = (half[:, None] * _GL_WEIGHTS[None, :]).reshape(-1)
    return xs, ws


def _quad_coeffs(op, g, N, panels):
    rule = op.rule(N, panels)
    gv = np.asarray(g(rule.nodes), dtype=float)
    if gv.shape != rule.weights.shape:
        raise DomainError("function values must match the grid shape")
    return analysis(rule.factors, (rule.weights * gv)[None])[0]


def _table_rows(factors: _Factors, C) -> np.ndarray:
    """Coefficient rows C scattered onto the (J_1, ..., J_d) table-row
    grid, (rows, J_1, ..., J_d); C itself in 1-D."""
    tables, index = factors
    if index is None:
        return C
    D = np.zeros((len(C),) + tuple(len(T) for T in tables))
    D.reshape(len(C), -1)[:, index] = C
    return D


def synthesis(factors: _Factors, C) -> np.ndarray:
    """Grid values (rows, P_1, ..., P_d) of coefficient rows C, scattered
    onto the (J_1, ..., J_d) table-row grid and contracted one axis at a
    time, table rows added in ascending order: a row's values do not
    depend on the rows with it."""
    D = _table_rows(factors, C)
    for T in factors.tables:
        cols = D.swapaxes(0, 1)[..., None]      # cols[j] is D[:, j, ..., None]
        acc = cols[0] * T[0]
        for c, t in zip(cols[1:], T[1:]):
            acc += c * t
        D = acc
    return D


def synthesis_blas(factors: _Factors, C) -> np.ndarray:
    """synthesis' grid values, each axis contracted by np.matmul as one
    product per coefficient row, (m, J) by (J, P): BLAS picks the order
    of the table-row sums, and a row's values still do not depend on the
    rows with it.  There are two orders because the solver's f(u) rows
    keep synthesis' ascending one: the accepted iterates rest on its
    rounding, and so does the T_est of picard-blowup pool entry 23 in
    bench/, whose window converges at exactly max_iter iterations.  The
    aliasing estimate and the strong check's sup only report, so they
    take this faster order, which agrees with synthesis to rounding."""
    D = _table_rows(factors, C)
    for T in factors.tables:
        rows, J, *rest = D.shape
        D = (D.reshape(rows, J, -1).swapaxes(1, 2) @ T).reshape(
            rows, *rest, T.shape[1])
    return D


def analysis(factors: _Factors, V) -> np.ndarray:
    """Coefficient rows, (rows, N), of weighted grid values V: one vecdot
    per axis, the last axis first, then the modes gathered in order."""
    tables, index = factors
    *rest, T = tables
    V = np.vecdot(V[..., None, :], T)
    for k, T in enumerate(reversed(rest), start=2):
        V = np.vecdot(V[(..., None) + (slice(None),) * k],
                      T.reshape(T.shape + (1,) * (k - 1)), axis=-k)
    return V if index is None else V.reshape(len(V), -1).take(index, axis=1)


def _row_runs(count, points):
    """Runs of rows 0..count-1, each within _VALUES_MAX values or one row."""
    step = max(1, _VALUES_MAX // points)
    return [slice(lo, lo + step) for lo in range(0, count, step)]


def project(op: Operator, g, N: int, quad_points: int) -> SpectralField:
    """Coefficients c_n = integral of g * phi_n over the box.

    g is a callable of the grid (vectorized), or an existing SpectralField
    on the same operator, in which case coefficients transfer exactly with
    truncation/zero-padding.  quad_points is the per-axis node floor and
    must be at least 4N so phi_N cannot alias on the composite rule.  All
    coefficients are re-done on a doubled rule; the largest difference is
    reported as aliasing_est with a warning past 1e-8.  Both rules are
    cached on the operator with the per-axis factors of their basis.
    """
    if N < 1:
        raise DomainError("N must be >= 1")
    if g is None:
        raise DomainError("nothing to project")
    if isinstance(g, SpectralField):
        if g.op is not op and g.op.name != op.name:
            raise DomainError("field lives on a different operator")
        c = np.zeros(N)
        m = min(N, g.N)
        c[:m] = g.coeffs[:m]
        return SpectralField(op, c, N)
    if quad_points < 4 * N:
        raise DomainError(
            f"quad_points={quad_points} is below the anti-aliasing floor "
            f"4N={4 * N}")
    panels = _rule_panels(quad_points)
    c = _quad_coeffs(op, g, N, panels)
    aliasing = float(np.max(np.abs(_quad_coeffs(op, g, N, 2 * panels) - c)))
    return SpectralField(op, c, N, aliasing_est=aliasing,
                         warnings=_aliasing_warnings(aliasing, N))


def _rule_panels(quad_points: int) -> int:
    """Panels per axis of the composite rule with quad_points nodes."""
    return max(1, math.ceil(quad_points / len(_GL_NODES)))


def _doubled_rule_nodes(quad_points: int, dim: int) -> int:
    """Nodes over a dim-dimensional box of the doubled rule, the largest
    rule that projecting or collocating with quad_points nodes builds."""
    return (2 * _rule_panels(quad_points) * len(_GL_NODES)) ** dim


def _aliasing_warnings(aliasing: float, N: int) -> tuple:
    """The warning an aliasing estimate past 1e-8 carries, else ()."""
    if aliasing > 1e-8:
        return (f"quadrature under-resolved: aliasing estimate "
                f"{aliasing:.3e} over {N} coefficients",)
    return ()


def evaluate(field: SpectralField, x):
    """Sum of c_n phi_n(x), modes added in ascending n, a fixed order that
    keeps runs bitwise reproducible; a float for one point."""
    shape, phis = field.op._at(field.N, x)
    vals = sum(c * phi for c, phi in zip(field.coeffs, phis))
    return vals.reshape(shape) if shape else float(vals[0])


def weighted_norm(coeffs, lam, theta: float):
    """(sum_n lam_n^(2 theta) c_n^2)^(1/2) over the last axis of coeffs:
    the V_theta norm, the duality-pairing norm for theta < 0."""
    c2 = np.asarray(coeffs, dtype=float) ** 2
    if theta == 0.0:
        return np.sqrt(c2.sum(axis=-1))
    w = lam ** (2.0 * abs(theta))
    return np.sqrt((c2 * w if theta > 0.0 else c2 / w).sum(axis=-1))


def frac_norm(field: SpectralField, theta: float) -> float:
    """Fractional-power norm (sum lambda_n^(2 theta) c_n^2)^(1/2); theta
    in [-1, 1], negative values giving the duality-pairing norm."""
    if not -1.0 <= theta <= 1.0:
        raise DomainError("theta must lie in [-1, 1]")
    return float(weighted_norm(field.coeffs,
                               field.op.eigenvalues(field.N), theta))
