import numpy as np
import pytest
from numpy.testing import assert_allclose

from sgobstacle.param import (Density1D, _hat_factors_1d, assemble_gramians,
                              build_param_grid, deterministic_grid, gauss_legendre,
                              kron_apply, multilinear_evaluate, tensor_points)
from sgobstacle.stats import tensor_quadrature

E = np.e
EY = (E - 1.0 / E) / 2.0          # mean of exp(uniform(-1, 1))
EY2 = (E ** 2 - E ** -2) / 4.0    # second moment of the same law


class TestDensities:
    def test_uniform_moments(self):
        rho = Density1D.uniform(-1.0, 3.0)
        assert rho.moment(0) == pytest.approx(1.0, abs=1e-12)
        assert rho.moment(1) == pytest.approx(1.0, rel=1e-12)
        assert rho.moment(2) == pytest.approx(7.0 / 3.0, rel=1e-12)

    def test_exp_uniform_moments(self):
        rho = Density1D.exp_uniform()
        assert rho.support == pytest.approx((1.0 / E, E))
        assert rho.moment(1) == pytest.approx(EY, rel=1e-12)
        assert rho.moment(2) == pytest.approx(EY2, rel=1e-12)

    def test_unnormalized_density_rejected(self):
        with pytest.raises(ValueError):
            Density1D("custom", (0.0, 1.0), lambda y: np.full_like(y, 0.7))

    def test_empty_support_rejected(self):
        with pytest.raises(ValueError):
            Density1D.uniform(2.0, 2.0)

    def test_sampling_matches_law(self):
        rho = Density1D.exp_uniform()
        rng = np.random.default_rng(11)
        draws = rho.sample(rng, 100_000)
        assert draws.min() >= rho.support[0]
        assert draws.max() <= rho.support[1]
        # 3 sigma band around the exact mean
        se = draws.std(ddof=1) / np.sqrt(len(draws))
        assert abs(draws.mean() - EY) < 3 * se

    def test_callable_density_has_no_sampler(self):
        rho = Density1D("custom", (0.0, 2.0), lambda y: np.full_like(y, 0.5))
        with pytest.raises(ValueError):
            rho.sample(np.random.default_rng(0), 1)


class TestParamGrid:
    def test_shapes_and_node_count(self):
        grid = build_param_grid([Density1D.exp_uniform()] * 2, 8)
        assert grid.shape == (9, 9)
        assert grid.n_nodes == 81
        assert grid.s == pytest.approx((E - 1 / E) / 8, rel=1e-12)

    def test_refinement_halves_s(self):
        coarse = build_param_grid([Density1D.exp_uniform()], 4)
        fine = build_param_grid([Density1D.exp_uniform()], 8)
        assert fine.s == pytest.approx(coarse.s / 2, rel=1e-12)

    def test_nodes_span_supports(self):
        grid = build_param_grid([Density1D.uniform(0, 1), Density1D.uniform(2, 4)], [2, 3])
        nodes = grid.nodes()
        assert nodes.shape == (12, 2)
        assert nodes[:, 0].min() == 0.0 and nodes[:, 0].max() == 1.0
        assert nodes[:, 1].min() == 2.0 and nodes[:, 1].max() == 4.0
        # C order: last dimension varies fastest
        assert_allclose(nodes[:4, 0], 0.0)

    def test_deterministic_grid(self):
        grid = deterministic_grid()
        assert grid.n_dims == 0
        assert grid.n_nodes == 1
        assert grid.s == 0.0
        assert build_param_grid([], 4) == grid

    def test_bad_cells_rejected(self):
        with pytest.raises(ValueError):
            build_param_grid([Density1D.exp_uniform()], 0)
        with pytest.raises(ValueError):
            build_param_grid([Density1D.exp_uniform()], [2, 2])


class TestGramians:
    def test_single_cell_uniform_hat_mass(self):
        # hats on one cell of (-1, 1) with density 1/2: mass matrix is
        # [[1/3, 1/6], [1/6, 1/3]] (hand integration)
        grid = build_param_grid([Density1D.uniform(-1.0, 1.0)], 1)
        gram = assemble_gramians(grid)
        assert_allclose(gram.matrix(0).toarray(),
                        [[1 / 3, 1 / 6], [1 / 6, 1 / 3]], rtol=1e-12)
        assert_allclose(gram.g0, [0.5, 0.5], rtol=1e-12)

    def test_partition_of_unity(self):
        # hats sum to one, so row sums of G_0 give g0 regardless of the
        # quadrature used (same points on both sides)
        grid = build_param_grid([Density1D.exp_uniform()] * 2, 4)
        gram = assemble_gramians(grid)
        assert_allclose(gram.matrix(0) @ np.ones(grid.n_nodes), gram.g0, rtol=1e-12)
        assert_allclose(gram.matrix(1) @ np.ones(grid.n_nodes), gram.gk[0], rtol=1e-12)

    def test_weighted_gramians_reduce_to_moments(self):
        # value-level checks need the density integrated accurately, so
        # bump the per-cell quadrature well past the default
        grid = build_param_grid([Density1D.exp_uniform()] * 2, 3)
        gram = assemble_gramians(grid, n_pts=24)
        ones = np.ones(grid.n_nodes)
        assert gram.g0.sum() == pytest.approx(1.0, rel=1e-12)
        for k in range(2):
            assert gram.gk[k].sum() == pytest.approx(EY, rel=1e-12)
            # <y_k, 1> twice contracted = E[y_k]
            assert ones @ (gram.matrix(k + 1) @ ones) == pytest.approx(EY, rel=1e-12)

    def test_g0_positive_definite(self):
        grid = build_param_grid([Density1D.exp_uniform()] * 2, 4)
        gram = assemble_gramians(grid)
        eigs = np.linalg.eigvalsh(gram.matrix(0).toarray())
        assert eigs.min() > 0

    def test_deterministic_gramians(self):
        gram = assemble_gramians(deterministic_grid())
        assert_allclose(gram.matrix(0).toarray(), [[1.0]])
        assert_allclose(gram.g0, [1.0])
        assert gram.gk == () and gram.mass_y == ()

    def test_interpolated_affine_function_integrates_exactly(self):
        # y1 + 2 y2 is multilinear, so its interpolant is itself; integrating
        # the nodal values against g0 must equal E[y1] + 2 E[y2]
        grid = build_param_grid([Density1D.exp_uniform()] * 2, 5)
        gram = assemble_gramians(grid, n_pts=24)
        nodes = grid.nodes()
        vals = nodes[:, 0] + 2.0 * nodes[:, 1]
        assert gram.g0 @ vals == pytest.approx(3 * EY, rel=1e-11)


# grids of M = 0..3 dimensions with unequal densities and cell counts
KRON_CELLS = [[], [3], [2, 4], [3, 1, 2]]
KRON_DENSITIES = [Density1D.exp_uniform(), Density1D.uniform(0.5, 2.0),
                  Density1D.exp_uniform(-0.5, 0.5)]


def _kron_grid(cells):
    return build_param_grid(KRON_DENSITIES[:len(cells)], cells)


def _dense_kron(mats):
    """Dense Kronecker product of ``mats``, the 1 x 1 identity for none."""
    out = np.ones((1, 1))
    for m in mats:
        out = np.kron(out, m)
    return out


@pytest.mark.parametrize("cells", KRON_CELLS, ids=lambda c: f"M={len(c)}")
class TestKroneckerFactors:
    def test_kron_apply_matches_dense_kron(self, cells):
        rng = np.random.default_rng(len(cells))
        factors = [rng.standard_normal((m + 1, m + 1)) for m in cells]
        J = int(np.prod([m + 1 for m in cells]))
        for trailing in [(), (5,), (2, 3)]:
            V = rng.standard_normal((J,) + trailing)
            want = (_dense_kron(factors) @ V.reshape(J, -1)).reshape(V.shape)
            assert_allclose(kron_apply(factors, V), want, rtol=1e-12, atol=1e-14)

    def test_gramian_matrix_and_diagonal_match_dense_kron(self, cells):
        grid = _kron_grid(cells)
        gram = assemble_gramians(grid)
        for k in range(grid.n_dims + 1):
            mats = [gram.mass_y[d] if d == k - 1 else gram.mass[d]
                    for d in range(grid.n_dims)]
            want = _dense_kron(mats)
            assert_allclose(gram.matrix(k).toarray(), want, rtol=1e-14, atol=1e-300)
            assert_allclose(gram.diagonal(k), np.diag(want), rtol=1e-14)
            V = np.random.default_rng(k).standard_normal((grid.n_nodes, 4))
            assert_allclose(kron_apply(gram.factors(k), V), want @ V, rtol=1e-12,
                            atol=1e-15)
        assert len(gram.gk) == grid.n_dims
        assert gram.g0.shape == (grid.n_nodes,)

    def test_tensor_points_match_meshgrid(self, cells):
        grid = _kron_grid(cells)
        points = tensor_points(grid.breakpoints)
        assert points.shape == (grid.n_nodes, grid.n_dims)
        if cells:
            mesh = np.meshgrid(*grid.breakpoints, indexing="ij")
            assert np.array_equal(points, np.column_stack([g.ravel() for g in mesh]))
        assert np.array_equal(grid.nodes(), points)

    def test_tensor_quadrature_is_the_product_rule(self, cells):
        densities = tuple(KRON_DENSITIES[:len(cells)])
        nodes, weights = tensor_quadrature(densities, 5)
        assert nodes.shape == (5 ** len(cells), len(cells))
        want = np.ones(1)
        for rho in densities:
            want = np.multiply.outer(want, rho.rule(np.array(rho.support), 5)[1][0]).ravel()
        assert_allclose(weights, want, rtol=1e-15)


def _hat_factors_per_cell(rho, breaks, n_pts):
    """The hat factors cell by cell: the reference for the vectorised rule."""
    n = len(breaks)
    gx, gw = np.polynomial.legendre.leggauss(n_pts)
    mass0 = np.zeros((n, n))
    massy = np.zeros((n, n))
    vec0 = np.zeros(n)
    vecy = np.zeros(n)
    for l in range(n - 1):
        a, b = breaks[l], breaks[l + 1]
        h = b - a
        y = 0.5 * (a + b) + 0.5 * h * gx
        w = 0.5 * h * gw * rho.pdf(y)
        left = (b - y) / h
        right = (y - a) / h
        mass0[l, l] += np.sum(w * left * left)
        mass0[l, l + 1] += np.sum(w * left * right)
        mass0[l + 1, l] += np.sum(w * left * right)
        mass0[l + 1, l + 1] += np.sum(w * right * right)
        massy[l, l] += np.sum(w * y * left * left)
        massy[l, l + 1] += np.sum(w * y * left * right)
        massy[l + 1, l] += np.sum(w * y * left * right)
        massy[l + 1, l + 1] += np.sum(w * y * right * right)
        vec0[l] += np.sum(w * left)
        vec0[l + 1] += np.sum(w * right)
        vecy[l] += np.sum(w * y * left)
        vecy[l + 1] += np.sum(w * y * right)
    return mass0, massy, vec0, vecy


class TestGaussRule:
    @pytest.mark.parametrize("rho", [Density1D.uniform(-1.0, 2.0), Density1D.exp_uniform()],
                             ids=["uniform", "exp-uniform"])
    def test_hat_factors_match_per_cell_loop(self, rho):
        for cells in range(1, 65):
            breaks = build_param_grid([rho], cells).breakpoints[0]
            for got, want in zip(_hat_factors_1d(rho, breaks, 12),
                                 _hat_factors_per_cell(rho, breaks, 12)):
                assert np.array_equal(got, want), cells

    def test_cached_rule_is_read_only(self):
        x, w = gauss_legendre(7)
        assert gauss_legendre(7)[0] is x
        for arr in (x, w):
            with pytest.raises(ValueError):
                arr[0] = 0.0

    def test_rule_shapes_and_mass(self):
        rho = Density1D.uniform(-1.0, 3.0)
        y, w = rho.rule(np.array([-1.0, 0.0, 0.5, 3.0]), 4)
        assert y.shape == w.shape == (3, 4)
        assert w.sum() == pytest.approx(1.0, rel=1e-14)
        assert np.sum(w * y ** 7) == pytest.approx((3.0 ** 8 - 1.0) / 32.0, rel=1e-13)


class TestEigenbasis:
    @pytest.mark.parametrize("cells", [[1], [4, 2], [3, 1, 5]])
    def test_diagonalizes_every_gramian(self, cells):
        # W = ⊗ W_d turns G_0 into the identity and G_{k+1} into diag of lam_k
        # taken at each node's k-th index
        densities = [Density1D.exp_uniform(), Density1D.uniform(-1.0, 2.0),
                     Density1D.exp_uniform(0.0, 0.5)][:len(cells)]
        grid = build_param_grid(densities, cells)
        gram = assemble_gramians(grid)
        basis = gram.eigenbasis()
        W = np.ones((1, 1))
        for W_d, _ in basis:
            W = np.kron(W, W_d)
        assert_allclose(W.T @ gram.matrix(0) @ W, np.eye(grid.n_nodes), atol=1e-12)
        index = np.indices(grid.shape).reshape(len(cells), -1)
        for k, (_, lam) in enumerate(basis):
            assert_allclose(W.T @ gram.matrix(k + 1) @ W, np.diag(lam[index[k]]), atol=1e-12)

    def test_eigenvalues_lie_in_the_support(self):
        grid = build_param_grid([Density1D.exp_uniform(), Density1D.uniform(1.0, 2.0)], 6)
        for (W_d, lam), rho in zip(assemble_gramians(grid).eigenbasis(), grid.densities):
            c, d = rho.support
            assert np.all((lam > c) & (lam < d))
            assert np.all(np.diff(lam) > 0)

    def test_deterministic_grid_has_no_factors(self):
        assert assemble_gramians(deterministic_grid()).eigenbasis() == []


class TestMultilinearEvaluate:
    def test_reproduces_multilinear_function(self):
        grid = build_param_grid([Density1D.uniform(0, 1), Density1D.uniform(-1, 1)], [3, 4])
        nodes = grid.nodes()
        fn = lambda y: 2.0 + y[:, 0] - 3.0 * y[:, 1] + 0.5 * y[:, 0] * y[:, 1]
        coeffs = fn(nodes)
        rng = np.random.default_rng(5)
        pts = np.column_stack([rng.uniform(0, 1, 50), rng.uniform(-1, 1, 50)])
        assert_allclose(multilinear_evaluate(grid, coeffs, pts), fn(pts), rtol=1e-12)

    def test_vector_blocks(self):
        grid = build_param_grid([Density1D.uniform(0, 1)], 2)
        blocks = np.array([[0.0, 0.0], [1.0, 2.0], [2.0, 4.0]])  # linear in y
        got = multilinear_evaluate(grid, blocks, np.array([[0.25], [0.75]]))
        assert_allclose(got, [[0.5, 1.0], [1.5, 3.0]], rtol=1e-12)

    def test_clamps_outside_support(self):
        grid = build_param_grid([Density1D.uniform(0, 1)], 2)
        coeffs = np.array([1.0, 2.0, 3.0])
        got = multilinear_evaluate(grid, coeffs, np.array([[-5.0], [5.0]]))
        assert_allclose(got, [1.0, 3.0])

    def test_point_dimension_must_match_grid(self):
        grid = build_param_grid([Density1D.uniform(0, 1)] * 2, 2)
        with pytest.raises(ValueError, match="coordinates"):
            multilinear_evaluate(grid, np.zeros(grid.n_nodes), np.zeros((4, 3)))

    def test_block_count_must_match_grid(self):
        grid = build_param_grid([Density1D.uniform(0, 1)] * 2, 2)
        with pytest.raises(ValueError, match="blocks"):
            multilinear_evaluate(grid, np.zeros(grid.n_nodes + 1), np.zeros((4, 2)))

    def test_deterministic_grid_broadcast(self):
        got = multilinear_evaluate(deterministic_grid(), np.array([[7.0, 8.0]]),
                                   np.zeros((3, 0)))
        assert got.shape == (3, 2)
        assert_allclose(got, [[7.0, 8.0]] * 3)
