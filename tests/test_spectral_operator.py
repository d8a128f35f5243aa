import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mlwave import (
    ConfigError,
    DomainError,
    OperatorSpecConfig,
    SpectralField,
    evaluate,
    frac_norm,
    make_operator,
    project,
    q_A_of,
    spectral_operator,
)
from mlwave.spectral_operator import analysis, synthesis

INTERVAL_PI = OperatorSpecConfig("dirichlet_laplacian_interval",
                                 lengths=(math.pi,))


def unit_field(op, n, N=None):
    N = N or n
    c = np.zeros(N)
    c[n - 1] = 1.0
    return SpectralField(op, c, N)


class TestCatalog:
    def test_interval_eigenpairs(self):
        op = make_operator(INTERVAL_PI)
        assert op.eigenvalue(1) == pytest.approx(1.0, rel=1e-15)
        assert op.eigenvalue(2) == pytest.approx(4.0, rel=1e-15)
        assert op.eigenfunction(1, math.pi / 2) == pytest.approx(
            math.sqrt(2.0 / math.pi), rel=1e-15)

    def test_box_spectrum_head(self):
        op = make_operator(OperatorSpecConfig(
            "dirichlet_laplacian_box", lengths=(math.pi, math.pi)))
        lam = op.eigenvalues(4)
        assert np.allclose(lam, [2.0, 5.0, 5.0, 8.0], rtol=1e-14)

    def test_box_tie_break_is_lexicographic(self):
        op = make_operator(OperatorSpecConfig(
            "dirichlet_laplacian_box", lengths=(math.pi, math.pi)))
        # modes 2 and 3 are the degenerate pair (1,2), (2,1) in that order
        x = np.array([0.7, 1.9])
        v2 = op.eigenfunction(2, x)
        v3 = op.eigenfunction(3, x)
        amp = 2.0 / math.pi
        assert v2 == pytest.approx(
            amp * math.sin(0.7) * math.sin(2 * 1.9), rel=1e-13)
        assert v3 == pytest.approx(
            amp * math.sin(2 * 0.7) * math.sin(1.9), rel=1e-13)

    def test_box_ordering_against_brute_force(self):
        Ls = (math.pi, 2 * math.pi)
        op = make_operator(OperatorSpecConfig(
            "dirichlet_laplacian_box", lengths=Ls))
        brute = sorted(
            ((i / Ls[0]) ** 2 * math.pi ** 2 + (j / Ls[1]) ** 2 * math.pi ** 2,
             (i, j))
            for i in range(1, 40) for j in range(1, 40))
        got = op.eigenvalues(25)
        want = [v for v, _ in brute[:25]]
        assert np.allclose(got, want, rtol=1e-13)

    def test_neumann_shifted(self):
        op = make_operator(OperatorSpecConfig(
            "neumann_laplacian_shifted", lengths=(2.0,), shift=0.3))
        assert op.eigenvalue(1) == pytest.approx(0.3, rel=1e-15)
        assert op.eigenvalue(2) == pytest.approx(
            (math.pi / 2.0) ** 2 + 0.3, rel=1e-15)
        assert op.eigenfunction(1, 1.234) == pytest.approx(
            math.sqrt(0.5), rel=1e-15)

    def test_fractional_power_eigenvalues(self):
        op = make_operator(OperatorSpecConfig(
            "spectral_fractional_power", power=0.5, base=INTERVAL_PI))
        assert op.eigenvalue(2) == pytest.approx(2.0, rel=1e-15)
        assert op.eigenvalue(3) == pytest.approx(3.0, rel=1e-15)

    @pytest.mark.parametrize("cfg", [
        INTERVAL_PI,
        OperatorSpecConfig("dirichlet_laplacian_box",
                           lengths=(math.pi, math.pi)),
        OperatorSpecConfig("dirichlet_laplacian_box", lengths=(1.0, 2.0, 0.7)),
        OperatorSpecConfig("neumann_laplacian_shifted", lengths=(1.5,),
                           shift=0.25),
        OperatorSpecConfig("spectral_fractional_power", power=0.75,
                           base=INTERVAL_PI),
    ], ids=["interval", "box2", "box3", "neumann", "fracpow"])
    def test_gram_matrix_orthonormal(self, cfg):
        # one-shot Gauss rule, independent of the production quadrature
        op = make_operator(cfg)
        n_nodes = {1: 400, 2: 80, 3: 48}[op.dim]
        xg, wg = np.polynomial.legendre.leggauss(n_nodes)
        axes = [(0.5 * (hi - lo) * xg + 0.5 * (hi + lo), 0.5 * (hi - lo) * wg)
                for lo, hi in op.domain_box]
        if op.dim == 1:
            pts, w = axes[0]
        else:
            grids = np.meshgrid(*[a for a, _ in axes], indexing="ij")
            pts = np.stack(grids, axis=-1)
            w = np.ones_like(grids[0])
            for i, (_, wa) in enumerate(axes):
                shape = [1] * op.dim
                shape[i] = -1
                w = w * wa.reshape(shape)
        phi = [op.eigenfunction(n, pts) for n in range(1, 13)]
        G = np.array([[float(np.sum(phi[i] * phi[j] * w)) for j in range(12)]
                      for i in range(12)])
        assert np.max(np.abs(G - np.eye(12))) < 1e-8

    def test_eigenvalues_nondecreasing_positive(self):
        for cfg in (INTERVAL_PI,
                    OperatorSpecConfig("dirichlet_laplacian_box",
                                       lengths=(2.0, 3.0)),
                    OperatorSpecConfig("spectral_fractional_power", power=0.3,
                                       base=INTERVAL_PI)):
            lam = make_operator(cfg).eigenvalues(40)
            assert lam[0] > 0
            assert np.all(np.diff(lam) >= 0)

    def test_each_entry_is_built_once(self):
        # an entry is frozen: an equal one gets the same operator, with the
        # rules it has built, also when its lengths, or its base's, are a
        # list; a refused one is refused again
        cfg = OperatorSpecConfig(kind="dirichlet_laplacian_box",
                                 lengths=(1.0, 2.0))
        op = make_operator(cfg)
        rule = op.rule(8, 4)
        again = make_operator(OperatorSpecConfig(
            kind="dirichlet_laplacian_box", lengths=(1.0, 2.0)))
        assert again is op and again.rule(8, 4) is rule
        listed = make_operator(OperatorSpecConfig(
            kind="dirichlet_laplacian_box", lengths=[1.0, 2.0]))
        assert listed is op
        power = make_operator(OperatorSpecConfig(
            "spectral_fractional_power", power=0.5, base=INTERVAL_PI))
        assert make_operator(OperatorSpecConfig(
            "spectral_fractional_power", power=0.5, base=OperatorSpecConfig(
                "dirichlet_laplacian_interval", lengths=[math.pi]))) is power
        for _ in range(2):
            with pytest.raises(ConfigError, match="unknown operator kind"):
                make_operator(OperatorSpecConfig(kind="disk", lengths=(1.0,)))

CATALOG = [
    INTERVAL_PI,
    OperatorSpecConfig("neumann_laplacian_shifted", lengths=(1.5,),
                       shift=0.25),
    OperatorSpecConfig("dirichlet_laplacian_box",
                       lengths=(math.pi, math.pi)),
    OperatorSpecConfig("dirichlet_laplacian_box", lengths=(1.0, 2.0, 0.7)),
    OperatorSpecConfig("spectral_fractional_power", power=0.75,
                       base=INTERVAL_PI),
]
CATALOG_IDS = ["interval", "neumann", "box2", "box3", "fracpow"]


@pytest.mark.parametrize("cfg", CATALOG, ids=CATALOG_IDS)
class TestArrays:
    def test_rule_basis_orthonormal_under_its_weights(self, cfg):
        # the doubled rule project checks against at the 4N node floor:
        # each per-axis factor table is orthonormal under its axis weights,
        # so the modes are under the rule's weights
        op = make_operator(cfg)
        N = 10
        panels = 2 * math.ceil(4 * N / 10)
        _, w, factors = op.rule(N, panels)
        for T, (lo, hi) in zip(factors.tables, op.domain_box):
            _, wa = spectral_operator._panel_nodes(lo, hi, panels)
            assert np.max(np.abs((T * wa) @ T.T - np.eye(len(T)))) < 1e-12
        G = analysis(factors, synthesis(factors, np.eye(N)) * w)
        assert np.max(np.abs(G - np.eye(N))) < 1e-12

    def test_rule_is_built_once(self, cfg):
        op = make_operator(cfg)
        assert op.rule(6, 3) is op.rule(6, 3)

    def test_basis_columns_are_the_eigenfunctions(self, cfg):
        op = make_operator(cfg)
        rng = np.random.default_rng(7)
        hi = np.array([b for _, b in op.domain_box])
        x = rng.uniform(0.0, 1.0, (5, op.dim)) * hi
        if op.dim == 1:
            x = x[:, 0]
        phi = op.basis(6, x)
        assert phi.shape == (5, 6)
        for n in range(1, 7):
            assert np.array_equal(phi[:, n - 1], op.eigenfunction(n, x))

    def test_evaluate_adds_modes_in_ascending_order(self, cfg):
        # the per-mode loop written out, bit for bit
        op = make_operator(cfg)
        N = 8
        c = np.random.default_rng(5).normal(size=N)
        field = SpectralField(op, c, N)
        nodes = op.rule(N, 4).nodes
        flat = nodes.reshape(-1) if op.dim == 1 else nodes.reshape(-1, op.dim)
        # the rule's nodes, two points, one point and no points
        for x in (nodes, flat[:2].copy(), flat[7].copy(), flat[:0].copy()):
            ref = 0.0
            for n in range(1, N + 1):
                ref = ref + c[n - 1] * op.eigenfunction(n, x)
            assert np.array_equal(evaluate(field, x), ref)

    def test_project_matches_per_mode_quadrature(self, cfg):
        op = make_operator(cfg)
        N = 6

        def g(x):
            return np.cos(x if x.ndim == 1 else x.sum(axis=-1))

        got = project(op, g, N, 4 * N).coeffs
        rule = op.rule(N, math.ceil(4 * N / 10))
        nodes, w = rule.nodes, rule.weights
        ref = np.array([np.sum(op.eigenfunction(n, nodes) * w * g(nodes))
                        for n in range(1, N + 1)])
        assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))

    def test_evaluate_on_cached_nodes_matches_a_copy(self, cfg):
        op = make_operator(cfg)
        N = 8
        c = np.random.default_rng(3).normal(size=N)
        field = SpectralField(op, c, N)
        nodes = op.rule(N, 4).nodes
        cached = evaluate(field, nodes)
        fresh = evaluate(field, nodes.copy())
        assert cached.shape == fresh.shape == op.rule(N, 4).weights.shape
        assert (np.max(np.abs(cached - fresh))
                <= 1e-14 * np.max(np.abs(fresh)))

    def test_blocks_past_the_budget_match_the_cached_basis(self, cfg,
                                                           monkeypatch):
        # rows cut into runs by a budget of two rows' grid values and
        # transformed with the rule's cached factor tables match one run,
        # and both directions match the dense basis matrix
        op = make_operator(cfg)
        N = 8
        rule = op.rule(N, math.ceil(4 * N / 10))
        w, factors = rule.weights, rule.factors
        C = np.random.default_rng(11).normal(size=(5, N))
        whole = synthesis(factors, C)
        monkeypatch.setattr(spectral_operator, "_VALUES_MAX", 2 * w.size)
        runs = spectral_operator._row_runs(len(C), w.size)
        assert len(runs) == 3
        parts = [synthesis(factors, C[rows]) for rows in runs]
        assert np.array_equal(np.concatenate(parts), whole)
        phi = op.basis(N, rule.nodes).reshape(-1, N)
        vals = whole.reshape(len(C), -1)
        assert (np.max(np.abs(vals - C @ phi.T))
                <= 1e-14 * np.max(np.abs(vals)))
        got = analysis(factors, whole * w)
        want = (vals * w.reshape(-1)) @ phi
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))

    def test_blas_order_matches_synthesis_row_by_row(self, cfg):
        # synthesis and analysis sum in BLAS order, and a row's result is
        # that of the row alone, bit for bit, whatever rows are computed
        # with it: the property the runs of rows, the Picard iterate and
        # a window's final f_rows call rest on
        op = make_operator(cfg)
        N = 8
        w, factors = op.rule(N, 4)[1:]
        rng = np.random.default_rng(13)
        C = rng.normal(size=(12, N))
        V = rng.normal(size=(12,) + w.shape) * w
        for fn, X in ((synthesis, C), (analysis, V)):
            got = fn(factors, X)
            for i in range(len(X)):
                alone = fn(factors, X[i:i + 1].copy())
                assert alone[0].tobytes() == got[i].tobytes()
            for lo, hi in ((0, 3), (2, 7), (5, 6), (1, 12), (4, 11)):
                assert (fn(factors, X[lo:hi]).tobytes()
                        == got[lo:hi].tobytes())

    def test_cached_rule_arrays_reject_writes(self, cfg):
        axes, w, (tables, index) = make_operator(cfg).rule(4, 2)
        for arr in (*axes, w, *tables) + (() if index is None else (index,)):
            with pytest.raises(ValueError):
                arr.flat[0] = 1.0


def test_three_dimensional_rule_holds_no_modes_by_nodes_array():
    op = make_operator(CATALOG[CATALOG_IDS.index("box3")])
    N = 16
    axes, w, (tables, index) = op.rule(N, math.ceil(4 * N / 10))
    assert max(a.size for a in (*axes, w, index, *tables)) < N * w.size
    assert len(index) == N


SYNTHESIS_OPERATORS = {
    "interval": INTERVAL_PI,
    "square": OperatorSpecConfig("dirichlet_laplacian_box",
                                 lengths=(1.0, 1.0)),
    "cube": OperatorSpecConfig("dirichlet_laplacian_box",
                               lengths=(1.0, 1.0, 1.0)),
}


@pytest.mark.parametrize("kind", sorted(SYNTHESIS_OPERATORS))
def test_buffers_give_the_allocating_bits(kind):
    # synthesis and analysis written into _buffers, stale contents
    # included, give the bits of their allocating calls
    op = make_operator(SYNTHESIS_OPERATORS[kind])
    N, rows = 10, 6
    rule = op.rule(N, 4)
    factors = rule.factors
    C = np.random.default_rng(5).normal(size=(rows, N))
    syn, ana = spectral_operator._buffers(factors, rows)
    for b in syn[1:] + ana:
        b.fill(np.nan)
    want = synthesis(factors, C)
    got = synthesis(factors, C, syn)
    assert got is syn[-1] and got.tobytes() == want.tobytes()
    V = want * rule.weights
    coeffs = analysis(factors, V, ana)
    assert coeffs is ana[-1]
    assert coeffs.tobytes() == analysis(factors, V).tobytes()


def ascending_rows(factors, C):
    """Grid values of each coefficient row on its own, scattered onto the
    grid of table rows, every axis summed as a running total over the
    table rows in ascending order."""
    tables, index = factors
    out = []
    for c in C:
        D = c[None]
        if index is not None:
            D = np.zeros((1,) + tuple(len(T) for T in tables))
            D.reshape(-1)[index] = c
        for T in tables:
            cols = D.swapaxes(0, 1)[..., None]
            acc = cols[0] * T[0]
            for col, t in zip(cols[1:], T[1:]):
                acc += col * t
            D = acc
        out.append(D[0])
    return np.array(out)


@settings(max_examples=80, derandomize=True, database=None, deadline=None)
@given(kind=st.sampled_from(sorted(SYNTHESIS_OPERATORS)),
       N=st.integers(1, 16), rows=st.integers(1, 57),
       panels=st.integers(1, 2), seed=st.integers(0, 2 ** 32 - 1))
def test_synthesis_matches_the_ascending_per_row_sum(kind, N, rows, panels,
                                                     seed):
    # BLAS picks synthesis' summation order; at every node it agrees with
    # the running total over ascending table rows to 1e-14 of the scale
    # of the sum, the same total over |coefficients| and |table rows|,
    # zeros and magnitudes spread over twelve decades included
    op = make_operator(SYNTHESIS_OPERATORS[kind])
    factors = op.rule(N, panels).factors
    rng = np.random.default_rng(seed)
    C = rng.standard_normal((rows, N)) * 10.0 ** rng.integers(-6, 7,
                                                              (rows, N))
    C[rng.random((rows, N)) < 0.2] = 0.0
    got = synthesis(factors, C)
    scale = ascending_rows(
        factors._replace(tables=tuple(map(np.abs, factors.tables))),
        np.abs(C))
    assert np.all(np.abs(got - ascending_rows(factors, C)) <= 1e-14 * scale)


class TestEmbeddingExponent:
    def test_interval_is_unbounded(self):
        assert q_A_of(INTERVAL_PI) == math.inf

    def test_planar_box_uses_caller_choice(self):
        cfg = OperatorSpecConfig("dirichlet_laplacian_box",
                                 lengths=(1.0, 1.0), q=6.0)
        assert q_A_of(cfg) == 6.0

    def test_three_dimensional_box(self):
        cfg = OperatorSpecConfig("dirichlet_laplacian_box",
                                 lengths=(1.0, 1.0, 1.0))
        assert q_A_of(cfg) == pytest.approx(3.0, rel=1e-15)

    def test_fractional_power_table(self):
        base2 = OperatorSpecConfig("dirichlet_laplacian_box",
                                   lengths=(1.0, 1.0))
        assert q_A_of(OperatorSpecConfig(
            "spectral_fractional_power", power=0.75,
            base=base2)) == pytest.approx(4.0, rel=1e-15)
        assert q_A_of(OperatorSpecConfig(
            "spectral_fractional_power", power=0.6,
            base=INTERVAL_PI)) == math.inf
        assert q_A_of(OperatorSpecConfig(
            "spectral_fractional_power", power=0.5, base=INTERVAL_PI,
            q=7.5)) == 7.5


class TestProjection:
    def test_pure_mode(self):
        op = make_operator(INTERVAL_PI)
        f = project(op, lambda x: np.sin(2 * x), 4, 64)
        want = np.array([0.0, math.sqrt(math.pi / 2.0), 0.0, 0.0])
        assert np.max(np.abs(f.coeffs - want)) < 1e-12
        assert f.coeffs[1] == pytest.approx(1.2533141373, abs=1e-9)

    def test_exact_field_transfer(self):
        op = make_operator(INTERVAL_PI)
        e3 = unit_field(op, 3, 5)
        f = project(op, e3, 8, 64)
        want = np.zeros(8)
        want[2] = 1.0
        assert np.array_equal(f.coeffs, want)
        assert f.aliasing_est == 0.0

    def test_parabola_coefficients(self):
        # frozen from an extended-precision quadrature of x(pi-x) phi_n
        op = make_operator(INTERVAL_PI)
        f = project(op, lambda x: x * (math.pi - x), 8, 64)
        want = [3.1915382432114614, 0.0, 0.11820512011894302, 0.0,
                0.025532305945691691, 0.0, 0.0093047762192753977, 0.0]
        assert np.max(np.abs(f.coeffs - want)) < 1e-12

    def test_roundtrip_on_smooth_mode(self):
        op = make_operator(INTERVAL_PI)
        f = project(op, lambda x: np.sin(2 * x), 6, 64)
        xs = np.linspace(0.0, math.pi, 101)
        err = np.abs(evaluate(f, xs) - np.sin(2 * xs))
        assert float(np.max(err)) <= 1e-10

    def test_anti_aliasing_floor_enforced(self):
        op = make_operator(INTERVAL_PI)
        with pytest.raises(DomainError):
            project(op, lambda x: np.sin(x), 8, 31)

    @pytest.mark.parametrize("quad", [math.inf, math.nan])
    def test_quad_points_must_be_finite(self, quad):
        op = make_operator(INTERVAL_PI)
        with pytest.raises(DomainError, match="must be finite"):
            project(op, lambda x: np.sin(x), 8, quad)

    def test_under_resolution_is_reported(self):
        op = make_operator(INTERVAL_PI)
        f = project(op, lambda x: np.sin(41 * x) + np.sin(2 * x), 4, 16)
        assert f.aliasing_est > 1e-8
        assert f.warnings

    def test_box_projection(self):
        op = make_operator(OperatorSpecConfig(
            "dirichlet_laplacian_box", lengths=(math.pi, math.pi)))

        def g(p):
            return np.sin(p[..., 0]) * np.sin(2 * p[..., 1])

        f = project(op, g, 4, 40)
        # (1,2) is mode 2 under lexicographic tie-break
        want = np.array([0.0, math.pi / 2.0, 0.0, 0.0])
        assert np.max(np.abs(f.coeffs - want)) < 1e-10


class TestEvaluation:
    def test_single_mode_value(self):
        op = make_operator(INTERVAL_PI)
        assert evaluate(unit_field(op, 1), math.pi / 2) == pytest.approx(
            0.7978845608, abs=1e-9)

    def test_zero_field(self):
        op = make_operator(INTERVAL_PI)
        z = SpectralField(op, np.zeros(3), 3)
        assert evaluate(z, 1.0) == 0.0

    def test_outside_domain_rejected(self):
        op = make_operator(INTERVAL_PI)
        with pytest.raises(DomainError):
            evaluate(unit_field(op, 1), -0.1)
        with pytest.raises(DomainError):
            evaluate(unit_field(op, 1), math.pi + 0.1)

    @pytest.mark.parametrize("cfg, x", [
        (INTERVAL_PI, math.nan), (INTERVAL_PI, [0.5, math.nan]),
        (OperatorSpecConfig("dirichlet_laplacian_box", lengths=(1.0, 1.0)),
         [0.5, math.nan])])
    def test_nan_coordinate_rejected(self, cfg, x):
        # a nan compares false against both ends, so it once passed as
        # inside the box and evaluated to nan
        op = make_operator(cfg)
        with pytest.raises(DomainError, match="outside"):
            evaluate(unit_field(op, 1), x)
        with pytest.raises(DomainError, match="outside"):
            op.eigenfunction(1, x)

    @pytest.mark.parametrize("n", [math.nan, math.inf])
    def test_mode_index_must_be_finite_from_one(self, n):
        op = make_operator(INTERVAL_PI)
        with pytest.raises(DomainError, match="mode index"):
            op.eigenvalue(n)
        with pytest.raises(DomainError, match="mode index"):
            op.eigenfunction(n, 1.0)


class TestFracNorm:
    def test_single_mode_values(self):
        op = make_operator(INTERVAL_PI)
        e2 = unit_field(op, 2)
        assert frac_norm(e2, 1.0 / 1.5) == pytest.approx(
            2.5198420998, abs=1e-9)
        assert frac_norm(e2, -2.0 / 3.0) == pytest.approx(
            0.3968502630, abs=1e-9)

    def test_parseval_at_zero(self):
        op = make_operator(INTERVAL_PI)
        c = np.array([3.0, -4.0])
        f = SpectralField(op, c, 2)
        assert frac_norm(f, 0.0) == pytest.approx(5.0, rel=1e-15)

    def test_monotone_in_theta_when_spectrum_above_one(self):
        op = make_operator(INTERVAL_PI)
        f = SpectralField(op, np.array([0.3, -1.2, 0.05, 2.0]), 4)
        thetas = np.linspace(-1.0, 1.0, 9)
        vals = [frac_norm(f, t) for t in thetas]
        assert all(b >= a * (1 - 1e-14) for a, b in zip(vals, vals[1:]))

    def test_lower_bound_for_nonnegative_theta(self):
        op = make_operator(INTERVAL_PI)
        f = SpectralField(op, np.array([1.0, 0.5, 0.25]), 3)
        for t in (0.0, 0.25, 0.5, 1.0):
            lhs = op.eigenvalue(1) ** t * frac_norm(f, 0.0)
            assert frac_norm(f, t) >= lhs * (1 - 1e-14)

    def test_fractional_power_consistency(self):
        s = 0.5
        op = make_operator(INTERVAL_PI)
        ops = make_operator(OperatorSpecConfig(
            "spectral_fractional_power", power=s, base=INTERVAL_PI))
        c = np.array([0.7, -0.1, 0.4, 0.9])
        for theta in (-1.0, -0.4, 0.3, 1.0):
            a = frac_norm(SpectralField(ops, c, 4), theta)
            b = frac_norm(SpectralField(op, c, 4), theta * s)
            assert a == pytest.approx(b, rel=1e-13)

    def test_theta_out_of_range(self):
        op = make_operator(INTERVAL_PI)
        with pytest.raises(DomainError):
            frac_norm(unit_field(op, 1), 1.5)


class TestConfigValidation:
    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            OperatorSpecConfig("dirichlet_laplacian_disc",
                               lengths=(1.0,)).validate()

    def test_bad_lengths(self):
        with pytest.raises(ConfigError):
            OperatorSpecConfig("dirichlet_laplacian_interval",
                               lengths=(-1.0,)).validate()
        with pytest.raises(ConfigError):
            OperatorSpecConfig("dirichlet_laplacian_interval").validate()

    def test_neumann_needs_positive_shift(self):
        with pytest.raises(ConfigError):
            OperatorSpecConfig("neumann_laplacian_shifted",
                               lengths=(1.0,), shift=0.0).validate()

    def test_fractional_power_bounds(self):
        with pytest.raises(ConfigError):
            OperatorSpecConfig("spectral_fractional_power", power=1.0,
                               base=INTERVAL_PI).validate()
        with pytest.raises(ConfigError):
            OperatorSpecConfig("spectral_fractional_power",
                               power=0.5).validate()

    def test_no_nested_fractional_powers(self):
        inner = OperatorSpecConfig("spectral_fractional_power", power=0.5,
                                   base=INTERVAL_PI)
        with pytest.raises(ConfigError):
            OperatorSpecConfig("spectral_fractional_power", power=0.5,
                               base=inner).validate()
