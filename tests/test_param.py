import numpy as np
import pytest
from numpy.testing import assert_allclose

from sgobstacle.param import (Density1D, _hat_factors_1d, assemble_gramians,
                              build_param_grid, draw,
                              gauss_legendre, hat_values, kron_apply, tensor_points)
from sgobstacle.stats import tensor_quadrature

from oracles import gramian

E = np.e
EY = (E - 1.0 / E) / 2.0          # mean of exp(uniform(-1, 1))
EY2 = (E ** 2 - E ** -2) / 4.0    # second moment of the same law


def gramian_mean(rho, cells):
    """E[y] as the entry sum of the y-weighted hat Gramian on ``cells`` cells."""
    return assemble_gramians(build_param_grid([rho], cells)).mass_y[0].sum()


class TestDensities:
    def test_uniform_moments(self):
        # the hats sum to one, so the y-weighted Gramian sums to (lo + hi) / 2
        rho = Density1D.uniform(-1.0, 3.0)
        for cells in range(1, 17):
            assert gramian_mean(rho, cells) == pytest.approx(1.0, rel=1e-14)
        y, w = rho.rule(np.array(rho.support), 2)
        assert w.sum() == pytest.approx(1.0, abs=1e-15)
        assert np.sum(w * y ** 2) == pytest.approx(7.0 / 3.0, rel=1e-14)

    def test_exp_uniform_moments(self):
        rho = Density1D.exp_uniform()
        assert rho.support == pytest.approx((1.0 / E, E))
        for cells in range(1, 17):
            assert gramian_mean(rho, cells) == pytest.approx(EY, rel=1e-14)
        y, w = rho.rule(np.array(rho.support), 12)
        assert np.sum(w * y ** 2) == pytest.approx(EY2, rel=1e-14)

    def test_unnormalized_density_rejected(self):
        # a density is a map of a uniform variable, so it is normalized by
        # construction; only the two known maps are accepted
        with pytest.raises(ValueError, match="unknown density kind"):
            Density1D("custom", 0.0, 1.0)

    def test_empty_support_rejected(self):
        with pytest.raises(ValueError):
            Density1D.uniform(2.0, 2.0)
        with pytest.raises(ValueError):
            Density1D.exp_uniform(-800.0, -750.0)  # exp of both bounds is 0
        with pytest.raises(ValueError):
            Density1D.uniform(-1e308, 1e308)  # the width overflows

    @pytest.mark.parametrize("half_width", [3.0, 5.0])
    def test_wide_exp_uniform_constructs(self, half_width):
        rho = Density1D.exp_uniform(-half_width, half_width)
        assert rho.support == (np.exp(-half_width), np.exp(half_width))
        mean = (np.exp(half_width) - np.exp(-half_width)) / (2.0 * half_width)
        for cells in range(1, 17):
            assert gramian_mean(rho, cells) == pytest.approx(mean, rel=1e-14)

    def test_sampling_matches_law(self):
        rho = Density1D.exp_uniform()
        draws = draw([rho], np.random.default_rng(11), 100_000)[:, 0]
        assert draws.min() >= rho.support[0]
        assert draws.max() <= rho.support[1]
        # 3 sigma band around the exact mean
        se = draws.std(ddof=1) / np.sqrt(len(draws))
        assert abs(draws.mean() - EY) < 3 * se

    @pytest.mark.parametrize("lo, hi", [(-1.0, 1.0), (-0.5, 2.0)])
    def test_samples_are_exp_of_uniform_draws(self, lo, hi):
        # the Monte Carlo draws of an exp-uniform law, bit for bit
        got = draw([Density1D.exp_uniform(lo, hi)], np.random.default_rng(5), 1000)[:, 0]
        want = np.exp(np.random.default_rng(5).uniform(lo, hi, 1000))
        assert np.array_equal(got, want)


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
        grid = build_param_grid((), 1)
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
        assert_allclose(gramian(gram, 0).toarray(),
                        [[1 / 3, 1 / 6], [1 / 6, 1 / 3]], rtol=1e-12)
        assert_allclose(gram.integrals(0), [0.5, 0.5], rtol=1e-12)

    def test_partition_of_unity(self):
        # hats sum to one, so row sums of G_0 give g0 regardless of the
        # quadrature used (same points on both sides)
        grid = build_param_grid([Density1D.exp_uniform()] * 2, 4)
        gram = assemble_gramians(grid)
        for k in range(3):
            assert_allclose(gramian(gram, k) @ np.ones(grid.n_nodes), gram.integrals(k),
                            rtol=1e-12)

    def test_weighted_gramians_reduce_to_moments(self):
        # value-level checks need the density integrated accurately, so
        # bump the per-cell quadrature well past the default
        grid = build_param_grid([Density1D.exp_uniform()] * 2, 3)
        gram = assemble_gramians(grid, n_pts=24)
        ones = np.ones(grid.n_nodes)
        assert gram.integrals(0).sum() == pytest.approx(1.0, rel=1e-12)
        for k in range(2):
            assert gram.integrals(k + 1).sum() == pytest.approx(EY, rel=1e-12)
            # <y_k, 1> twice contracted = E[y_k]
            assert ones @ (gramian(gram, k + 1) @ ones) == pytest.approx(EY, rel=1e-12)

    @pytest.mark.parametrize("half_width", [1.0, 2.0])
    def test_exp_uniform_basis_integrals_sum_to_one(self, half_width):
        # the rule is exact in xi, so g0 sums to one on any number of cells
        rho = Density1D.exp_uniform(-half_width, half_width)
        for cells in range(1, 17):
            g0 = assemble_gramians(build_param_grid([rho], cells)).integrals(0)
            assert abs(g0.sum() - 1.0) <= 1e-15, cells

    def test_exp_uniform_factors_match_a_fine_rule(self):
        # 12 points a cell integrate the hats against exp-uniform(-2, 2) to
        # roundoff: the factors agree with those of a 64-point rule
        rho = Density1D.exp_uniform(-2.0, 2.0)
        for cells in (1, 2, 4, 8, 16):
            breaks = build_param_grid([rho], cells).breakpoints[0]
            for got, want in zip(_hat_factors_1d(rho, breaks, 12),
                                 _hat_factors_1d(rho, breaks, 64)):
                assert np.max(np.abs(got - want)) <= 1e-13, cells

    @pytest.mark.parametrize("half_width", [10.0, 50.0, 700.0])
    def test_wide_exp_uniform_factors_match_a_fine_rule(self, half_width):
        # a wide law spans many units of xi in one cell; the rule cuts each
        # cell into pieces of xi width at most 2, so the factors stay exact
        # near xi = 700 one ulp of xi moves y by 1.6e-13 of itself, and a hat
        # of 16 cells by up to 16 times that: rtol 3e-12 for both rules
        rho = Density1D.exp_uniform(-half_width, half_width)
        for cells in (1, 2, 3, 4, 16):
            breaks = build_param_grid([rho], cells).breakpoints[0]
            for got, want in zip(_hat_factors_1d(rho, breaks, 12),
                                 _fine_hat_factors(rho, breaks)):
                assert_allclose(got, want, rtol=3e-12, atol=0.0, err_msg=str(cells))
        # on one cell (a, b), <psi_1, psi_1> = (1/2 - r + 2 half_width r^2) /
        # (2 half_width) with r = a / (b - a), in closed form
        a, b = rho.support
        r = a / (b - a)
        one_cell = _hat_factors_1d(rho, np.array([a, b]), 12)
        assert one_cell[0][1, 1] == pytest.approx(
            (0.5 - r + 2.0 * half_width * r * r) / (2.0 * half_width), rel=1e-13)

    def test_g0_positive_definite(self):
        grid = build_param_grid([Density1D.exp_uniform()] * 2, 4)
        gram = assemble_gramians(grid)
        eigs = np.linalg.eigvalsh(gramian(gram, 0).toarray())
        assert eigs.min() > 0

    def test_deterministic_gramians(self):
        gram = assemble_gramians(build_param_grid((), 1))
        assert_allclose(gramian(gram, 0).toarray(), [[1.0]])
        assert_allclose(gram.integrals(0), [1.0])
        assert gram.mass == () and gram.mass_y == ()

    def test_interpolated_affine_function_integrates_exactly(self):
        # y1 + 2 y2 is multilinear, so its interpolant is itself; integrating
        # the nodal values against g0 must equal E[y1] + 2 E[y2]
        grid = build_param_grid([Density1D.exp_uniform()] * 2, 5)
        gram = assemble_gramians(grid, n_pts=24)
        nodes = grid.nodes()
        vals = nodes[:, 0] + 2.0 * nodes[:, 1]
        assert gram.integrals(0) @ vals == pytest.approx(3 * EY, rel=1e-11)


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
            # rectangular factors map J entries to the product of their row counts
            tall = [rng.standard_normal((m + 3, m + 1)) for m in cells]
            rows = int(np.prod([m + 3 for m in cells]))
            want = (_dense_kron(tall) @ V.reshape(J, -1)).reshape((rows,) + trailing)
            assert_allclose(kron_apply(tall, V), want, rtol=1e-12, atol=1e-14)

    def test_gramian_matrix_and_diagonal_match_dense_kron(self, cells):
        grid = _kron_grid(cells)
        gram = assemble_gramians(grid)
        for k in range(grid.n_dims + 1):
            mats = [gram.mass_y[d] if d == k - 1 else gram.mass[d]
                    for d in range(grid.n_dims)]
            want = _dense_kron(mats)
            assert_allclose(gramian(gram, k).toarray(), want, rtol=1e-14, atol=1e-300)
            assert_allclose(gram.diagonal(k), np.diag(want), rtol=1e-14)
            V = np.random.default_rng(k).standard_normal((grid.n_nodes, 4))
            assert_allclose(kron_apply(gram.factors(k), V), want @ V, rtol=1e-12,
                            atol=1e-15)
            assert_allclose(gram.integrals(k), want.sum(axis=1), rtol=1e-12)

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
    to_y, to_xi = (np.exp, np.log) if rho.kind == "exp-uniform" else (lambda x: x,) * 2
    xi = to_xi(breaks)
    n = len(breaks)
    gx, gw = np.polynomial.legendre.leggauss(n_pts)
    mass0 = np.zeros((n, n))
    massy = np.zeros((n, n))
    vec0 = np.zeros(n)
    vecy = np.zeros(n)
    for l in range(n - 1):
        a, b = breaks[l], breaks[l + 1]
        h = b - a
        # the Gauss points of the cell's xi interval, mapped to y
        half = 0.5 * (xi[l + 1] - xi[l])
        y = to_y(0.5 * (xi[l] + xi[l + 1]) + half * gx)
        w = half * gw / (rho.hi - rho.lo)
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


def _fine_hat_factors(rho, breaks, in_xi=False):
    """(mass, mass_y) of the hats on ``breaks``, linear in xi when ``in_xi``
    and in y otherwise, cell by cell, from 20 Gauss points on each of equal
    pieces of xi width at most 1/8."""
    gx, gw = np.polynomial.legendre.leggauss(20)
    n = len(breaks)
    xi_breaks = breaks if in_xi else np.log(breaks)
    mass = np.zeros((2, n, n))
    for l in range(n - 1):
        xa, xb = xi_breaks[l], xi_breaks[l + 1]
        ends = np.linspace(xa, xb, int(np.ceil(8.0 * (xb - xa))) + 1)
        half = 0.5 * np.diff(ends)[:, None]
        xi = (0.5 * (ends[:-1, None] + ends[1:, None]) + half * gx).ravel()
        y = np.exp(xi)
        w = (half * gw).ravel() / (rho.hi - rho.lo)
        t = xi if in_xi else y  # the hat coordinate
        hats = [(breaks[l + 1] - t) / (breaks[l + 1] - breaks[l]),
                (t - breaks[l]) / (breaks[l + 1] - breaks[l])]
        for k, weights in enumerate((w, w * y)):
            for i in range(2):
                for j in range(2):
                    mass[k, l + i, l + j] += np.sum(weights * hats[i] * hats[j])
    return mass[0], mass[1]


class TestGaussRule:
    @pytest.mark.parametrize("rho, in_xi", [
        pytest.param(Density1D.uniform(-1.0, 2.0), False, id="uniform"),
        pytest.param(Density1D.exp_uniform(), False, id="exp-uniform"),
        pytest.param(Density1D.exp_uniform(-3.0, 3.0), True, id="exp-uniform-xi")])
    def test_hat_factors_match_per_cell_loop(self, rho, in_xi):
        # hats linear in y are the per-cell loop to the last bit; hats linear
        # in xi, on a uniform partition of (lo, hi), agree with a fine
        # per-cell rule in xi to roundoff
        for cells in range(1, 65):
            breaks = build_param_grid([rho], cells, in_xi).breakpoints[0]
            got = _hat_factors_1d(rho, breaks, 12, in_xi)
            if not in_xi:
                for g, want in zip(got, _hat_factors_per_cell(rho, breaks, 12)):
                    assert np.array_equal(g, want), cells
                continue
            assert np.array_equal(breaks, np.linspace(rho.lo, rho.hi, cells + 1))
            for g, want in zip(got, _fine_hat_factors(rho, breaks, in_xi)):
                assert_allclose(g, want, rtol=1e-13, atol=1e-16, err_msg=str(cells))

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
        assert_allclose(W.T @ gramian(gram, 0) @ W, np.eye(grid.n_nodes), atol=1e-12)
        index = np.indices(grid.shape).reshape(len(cells), -1)
        for k, (_, lam) in enumerate(basis):
            assert_allclose(W.T @ gramian(gram, k + 1) @ W, np.diag(lam[index[k]]), atol=1e-12)

    def test_eigenvalues_lie_in_the_support(self):
        grid = build_param_grid([Density1D.exp_uniform(), Density1D.uniform(1.0, 2.0)], 6)
        for (W_d, lam), rho in zip(assemble_gramians(grid).eigenbasis(), grid.densities):
            c, d = rho.support
            assert np.all((lam > c) & (lam < d))
            assert np.all(np.diff(lam) > 0)

    def test_deterministic_grid_has_no_factors(self):
        assert assemble_gramians(build_param_grid((), 1)).eigenbasis() == []


def _transfer(old, new_breaks, blocks):
    """The multilinear interpolant of ``blocks`` on the grid ``old`` at the
    tensor grid of ``new_breaks``, one dimension at a time."""
    return kron_apply([hat_values(b, y) for b, y in zip(old.breakpoints, new_breaks)],
                      blocks)


class TestMultilinearEvaluate:
    def test_reproduces_multilinear_function(self):
        # a multilinear function is its own interpolant, so the transfer to
        # a grid of other cell counts reproduces it there, for M = 0..3
        def fn(y):
            return 2.0 + y.sum(axis=1) + np.prod(1.0 - 0.5 * y, axis=1)

        for cells in KRON_CELLS:
            coarse = _kron_grid(cells)
            fine = build_param_grid(KRON_DENSITIES[:len(cells)], [2 * m + 1 for m in cells])
            got = _transfer(coarse, fine.breakpoints, fn(coarse.nodes()))
            assert got.shape == (fine.n_nodes,)
            assert_allclose(got, fn(fine.nodes()), rtol=1e-13)

    def test_vector_blocks(self):
        # trailing axes of the blocks are carried along, one field per entry
        grid = build_param_grid([Density1D.uniform(0, 1)], 2)
        blocks = np.array([[0.0, 0.0], [1.0, 2.0], [2.0, 4.0]])  # linear in y
        got = _transfer(grid, [np.array([0.25, 0.75])], blocks)
        assert_allclose(got, [[0.5, 1.0], [1.5, 3.0]], rtol=1e-12)
        coarse, fine = _kron_grid([2, 4]), _kron_grid([3, 1])
        blocks = np.random.default_rng(3).standard_normal((coarse.n_nodes, 2, 3))
        got = _transfer(coarse, fine.breakpoints, blocks)
        assert got.shape == (fine.n_nodes, 2, 3)
        for i, j in np.ndindex(2, 3):
            assert_allclose(got[:, i, j], _transfer(coarse, fine.breakpoints, blocks[:, i, j]),
                            rtol=1e-14)

    def test_clamps_outside_support(self):
        breaks = build_param_grid([Density1D.uniform(0, 1)], 2).breakpoints[0]
        values = hat_values(breaks, np.array([-5.0, 0.0, 0.25, 1.0, 5.0]))
        assert_allclose(values, [[1.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.5, 0.5, 0.0],
                                 [0.0, 0.0, 1.0], [0.0, 0.0, 1.0]])
        assert_allclose(values @ np.array([1.0, 2.0, 3.0]), [1.0, 1.0, 1.5, 3.0, 3.0])

    def test_deterministic_grid_broadcast(self):
        # no parameter dimensions: the one block is the interpolant everywhere
        got = _transfer(build_param_grid((), 1), [], np.array([[7.0, 8.0]]))
        assert got.shape == (1, 2)
        assert_allclose(got, [[7.0, 8.0]])
