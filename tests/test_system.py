import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from numpy.testing import assert_allclose

from sgobstacle import system
from sgobstacle.fem import P1Operator
from sgobstacle.fields import AffineField
from sgobstacle.lcp import SolverConfig, SparseObstacleSystem, active_set_solve
from sgobstacle.mesh import build_uniform_mesh
from sgobstacle.param import Density1D, build_param_grid
from sgobstacle.problems import get_problem
from sgobstacle.stats import sg_mean
from sgobstacle.system import assemble_sg

from oracles import assert_same_csr, coo_explicit, gramian

RECT = (0.0, 1.0, 0.0, 1.0)


def one(x):
    return np.ones(x.shape[0])


def make_system(nx=4, cells=2):
    mesh = build_uniform_mesh(RECT, nx)
    grid = build_param_grid([Density1D.exp_uniform()] * 2, cells)
    a = AffineField.build(1.0, [(1.0, one, 0), (2.0, one, 1)])
    f = AffineField.build(lambda x: x[:, 0] + 1.0, [(0.5, one, 1)])
    g = AffineField.build(-10.0)
    return assemble_sg(mesh, grid, a, f, g)


class TestDegenerateCases:
    def test_deterministic_grid_reduces_to_fem(self):
        mesh = build_uniform_mesh(RECT, 4)
        grid = build_param_grid((), 1)
        a = AffineField.build(2.0)
        f = AffineField.build(1.0)
        g = AffineField.build(0.0)
        sys_ = assemble_sg(mesh, grid, a, f, g)
        op = P1Operator(mesh)
        K = op.interior.csr(op.interior.data(op.integrals(2.0 * one(op.points))))
        F = op.load(one(op.points))
        assert sys_.n_param == 1
        assert_allclose(sys_.explicit().toarray(), K.toarray(), atol=1e-14)
        assert_allclose(sys_.b, F[mesh.interior], atol=1e-15)

    def test_field_dims_must_fit_grid(self):
        mesh = build_uniform_mesh(RECT, 3)
        grid = build_param_grid([Density1D.exp_uniform()], 2)
        a = AffineField.build(1.0, [(1.0, one, 1)])  # needs 2 dims
        with pytest.raises(ValueError):
            assemble_sg(mesh, grid, a, AffineField.build(1.0), AffineField.build(0.0))


# systems whose explicit matrix is checked against the COO build: example1's
# data at I = 25, J = 9, the built-in problems with hats in y and in xi,
# uniform densities whose y-weighted Gramians store exact zeros, modes off
# the mean's shape and a zero mean (``COEFFICIENTS``), one spatial node
# against J = 65^2, and no parameter dimension
DIRECT_BUILD_CASES = {
    "small": lambda: assemble_sg(
        build_uniform_mesh((-1.5, 1.5, -1.5, 1.5), 6),
        build_param_grid([Density1D.exp_uniform()] * 2, 2),
        AffineField.build(1.0, [(1.0, 1.0, 0), (2.0, 1.0, 1)]),
        AffineField.build(-2.0), AffineField.build(-0.05)),
    **{f"{name} {cells} cells, hats in {'xi' if in_xi else 'y'}":
       (lambda name=name, cells=cells, in_xi=in_xi: case_system(name, 8, cells, in_xi)[0])
       for name in ("example1", "example2") for cells in (1, 2, 3) for in_xi in (False, True)},
    "uniform": lambda: assemble_sg(
        build_uniform_mesh(RECT, 6), build_param_grid([Density1D.uniform(-1.0, 1.0)] * 2, 2),
        AffineField.build(2.0, [(1.0, lambda x: 1.0 + 0.5 * x[:, 0], 0), (0.5, one, 1)]),
        AffineField.build(1.0), AffineField.build(0.0)),
    **{case: (lambda case=case: case_system(case)[0]) for case in ("hard shapes", "zero mean")},
    "one spatial node": lambda: assemble_sg(
        build_uniform_mesh(RECT, 2), build_param_grid([Density1D.exp_uniform()] * 2, 64),
        AffineField.build(1.0, [(1.0, one, 0), (2.0, one, 1)]),
        AffineField.build(1.0), AffineField.build(0.0)),
    "deterministic": lambda: assemble_sg(
        build_uniform_mesh(RECT, 4), build_param_grid((), 1), AffineField.build(2.0),
        AffineField.build(1.0), AffineField.build(0.0)),
}


class TestKroneckerStructure:
    def test_matvec_matches_explicit(self):
        # factored matvec against the explicitly summed Kronecker matrix
        rng = np.random.default_rng(17)
        for nx, cells in [(3, 1), (4, 2), (5, 3)]:
            sys_ = make_system(nx=nx, cells=cells)
            A = sys_.explicit()
            assert A is not None
            for _ in range(20):
                v = rng.standard_normal(sys_.n)
                assert np.max(np.abs(sys_.matvec(v) - A @ v)) <= 1e-12

    def test_diag_matches_explicit(self):
        sys_ = make_system(nx=4, cells=2)
        assert_allclose(sys_.diag(), sys_.explicit().diagonal(), rtol=1e-13)

    def test_explicit_symmetric_positive_definite(self):
        sys_ = make_system(nx=4, cells=2)
        A = sys_.explicit().toarray()
        assert_allclose(A, A.T, atol=1e-13)
        assert np.linalg.eigvalsh(A).min() > 0

    def test_explicit_skipped_above_limit(self, monkeypatch):
        monkeypatch.setattr(system, "EXPLICIT_LIMIT", 10)
        sys_ = make_system(nx=4, cells=2)
        assert sys_.explicit() is None

    def test_explicit_built_on_first_request(self):
        sys_ = make_system(nx=4, cells=2)
        assert sys_.A is None
        A = sys_.explicit()
        assert A is not None and sys_.A is A
        assert sys_.explicit() is A

    def test_explicit_limit_is_inclusive(self, monkeypatch):
        n = make_system(nx=4, cells=2).n
        monkeypatch.setattr(system, "EXPLICIT_LIMIT", n)
        assert make_system(nx=4, cells=2).explicit() is not None
        monkeypatch.setattr(system, "EXPLICIT_LIMIT", n - 1)
        sys_ = make_system(nx=4, cells=2)
        assert sys_.explicit() is None
        assert sys_.A is None

    @pytest.mark.parametrize("kind", ["one term", "uniform"])
    def test_explicit_stores_exactly_the_nonzeros_of_the_sum(self, kind):
        if kind == "one term":
            # example2's constant coefficient: the mean's stiffness alone
            problem = get_problem("example2")
            fields = problem.fields
            sys_ = assemble_sg(build_uniform_mesh(problem.rect, 8),
                               build_param_grid(problem.densities, 2),
                               fields["a"], fields["f"], fields["g"], problem.dirichlet)
            assert not sys_.stiffness[1:].any()
        else:
            # the y-weighted hat mass at y = 0 is zero, so G_y stores fewer
            # entries than G_0
            a = AffineField.build(2.0, [(1.0, lambda x: 1.0 + 0.5 * x[:, 0], 0),
                                        (0.5, one, 1)])
            sys_ = assemble_sg(build_uniform_mesh(RECT, 6),
                               build_param_grid([Density1D.uniform(-1.0, 1.0)] * 2, 2),
                               a, AffineField.build(1.0), AffineField.build(0.0))
            assert [gramian(sys_.gram, k).nnz for k in range(3)] == [49, 42, 42]
        A = sys_.explicit()
        ref = sum(sp.kron(gramian(sys_.gram, k), sys_.pattern.csr(K), format="csr")
                  for k, K in enumerate(sys_.stiffness))
        assert A.has_sorted_indices
        assert np.all(A.data != 0.0)
        assert A.nnz == np.count_nonzero(ref.toarray())
        assert abs(A - ref).max() == 0.0

    @pytest.mark.parametrize("case", list(DIRECT_BUILD_CASES))
    def test_explicit_matches_the_coo_build(self, case):
        # the CSR arrays written from the two factor patterns are those of
        # the COO to CSR conversion of the union pattern, sorted and without
        # zeros, byte for byte
        sys_ = DIRECT_BUILD_CASES[case]()
        assert_same_csr(sys_.explicit(), coo_explicit(sys_))

    def test_explicit_keeps_gramians_sparse(self):
        # I = 1 and J = 65^2: a dense G_k alone would take 143 MB
        sys_ = assemble_sg(build_uniform_mesh(RECT, 2),
                           build_param_grid([Density1D.exp_uniform()] * 2, 64),
                           AffineField.build(1.0, [(1.0, one, 0), (2.0, one, 1)]),
                           AffineField.build(1.0), AffineField.build(0.0))
        assert (sys_.n_spatial, sys_.n_param) == (1, 4225)
        tracemalloc.start()
        try:
            A = sys_.explicit()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert A.shape == (4225, 4225)
        assert peak < 20e6

    def test_galerkin_solve_peaks_below_fifteen_vectors(self):
        # assembly and an active-set solve hold b, obs, d and u, conjugate
        # gradients' x, r and p, and the temporaries of one product: about
        # 13 vectors of I*J floats at their peak, 20 when each step copied
        # its start and each product its mask
        mesh = build_uniform_mesh((-1.5, 1.5, -1.5, 1.5), 16)
        grid = build_param_grid([Density1D.exp_uniform()] * 2, 8)
        tracemalloc.start()
        try:
            sys_ = assemble_sg(mesh, grid, AffineField.build(1.0, [(1.0, one, 0), (2.0, one, 1)]),
                               AffineField.build(-2.0), AffineField.build(-0.05))
            u, rep = active_set_solve(sys_, sys_.obs, SolverConfig(tol=1e-8))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.converged and rep.iterations >= 2 and sys_.n == 225 * 81
        assert peak / (8 * sys_.n) <= 15.0

    def test_flat_index_is_parameter_major(self):
        # flat index j*I + i: a vector supported on parameter node j = 1
        # must produce output supported on rows of the same parameter block
        # structure (G acts across blocks, K within)
        sys_ = make_system(nx=4, cells=1)
        I, J = sys_.n_spatial, sys_.n_param
        v = np.zeros(sys_.n)
        v[1 * I:2 * I] = np.arange(1.0, I + 1.0)
        blocks = sys_.matvec(v).reshape(J, I)
        expected_0 = sum(gramian(sys_.gram, k)[0, 1] * (sys_.pattern.csr(K) @ v[I:2 * I])
                         for k, K in enumerate(sys_.stiffness))
        assert_allclose(blocks[0], expected_0, rtol=1e-13)


def shifted_x1(x):
    return 1.0 + 0.5 * x[:, 0]


def shifted_x2(x):
    return 1.0 - 0.3 * x[:, 1]


def nearly_one(x):
    # off the mean's shape by about 1e-6 of its norm, far above the fold's
    # rounding tolerance: folded, its term would be off by that much
    return 1.0 + 1e-6 * x[:, 0]


# coefficient of each case: (mean, modes) with y ~ exp-uniform^2, and the
# number of spatial shapes, the sparse products per matvec
COEFFICIENTS = {
    "proportional modes": ((1.1, [(0.3, one, 0), (0.7, one, 1)]), 1),
    "hard shapes": ((1.0, [(1.0, shifted_x1, 0), (2.0, shifted_x2, 1)]), 3),
    "mixed": ((1.0, [(1.0, shifted_x1, 0), (2.0, one, 1)]), 2),
    "zero mean": ((0.0, [(1.0, one, 0), (2.0, one, 1)]), 1),
    "nearly folding": ((1.0, [(1.0, nearly_one, 0), (2.0, one, 1)]), 2),
}


def case_system(case, nx=6, cells=3, in_xi=False):
    """(system, sparse products per matvec) of a built-in problem, with hats
    in xi when ``in_xi``, or a ``COEFFICIENTS`` case with f = -2 and
    g = -0.05 on the unit square."""
    if case in ("example1", "example2"):
        problem = get_problem(case)
        fields = problem.fields
        sys_ = assemble_sg(build_uniform_mesh(problem.rect, nx),
                           build_param_grid(problem.densities, cells, in_xi),
                           fields["a"], fields["f"], fields["g"], problem.dirichlet)
        return sys_, 1
    (mean, modes), factors = COEFFICIENTS[case]
    sys_ = assemble_sg(build_uniform_mesh(RECT, nx),
                       build_param_grid([Density1D.exp_uniform()] * 2, cells),
                       AffineField.build(mean, modes), AffineField.build(-2.0),
                       AffineField.build(-0.05))
    return sys_, factors


class TestSpatialFactors:
    @pytest.mark.parametrize("case", ["example1", "example2", *COEFFICIENTS])
    def test_matvec_and_diag_match_explicit(self, case):
        sys_, factors = case_system(case)
        assert sys_.spatial_factors == factors
        A = sys_.explicit()
        rng = np.random.default_rng(3)
        for _ in range(5):
            v = rng.standard_normal(sys_.n)
            Av = A @ v
            assert np.max(np.abs(sys_.matvec(v) - Av)) <= 1e-13 * np.max(np.abs(Av))
        assert_allclose(sys_.diag(), A.diagonal(), rtol=1e-13)

    def test_example1_matvec_makes_one_sparse_product(self, monkeypatch):
        # a = 1 + y1 + 2 y2: three stiffness terms of one spatial shape
        sys_, _ = case_system("example1")
        assert len(sys_.stiffness) == 3 and all(K.any() for K in sys_.stiffness)
        products = []
        matmul = sp.csr_array.__matmul__

        def counted(K, other):
            products.append(np.shape(other))
            return matmul(K, other)

        monkeypatch.setattr(sp.csr_array, "__matmul__", counted)
        sys_.matvec(np.ones(sys_.n))
        assert products == [(sys_.n_spatial, sys_.n_param)]

    def test_zero_mean_coefficient_is_solved(self):
        # a = y1 + 2 y2: the mean's stiffness row is all zero, and the matvec
        # skips it; the solve agrees with the same LCP on the explicit matrix
        sys_, _ = case_system("zero mean")
        assert not sys_.stiffness[0].any()
        config = SolverConfig(tol=1e-10)
        u, report = active_set_solve(sys_, sys_.obs, config)
        assert report.converged and report.active_count > 0
        ref, ref_report = active_set_solve(SparseObstacleSystem(sys_.explicit(), sys_.b),
                                           sys_.obs, config)
        assert ref_report.converged
        assert_allclose(u, ref, rtol=0, atol=1e-10 * np.max(np.abs(ref)))


def _param_grid(cells):
    """Grid with unequal densities and cell counts; None is the deterministic grid."""
    if cells is None:
        return build_param_grid((), 1)
    densities = [Density1D.exp_uniform(), Density1D.uniform(0.5, 2.0),
                 Density1D.exp_uniform(-0.5, 0.5)][:len(cells)]
    return build_param_grid(densities, cells)


# closed-form means of _param_grid's densities: (e^b - e^a) / (b - a) for
# exp-uniform on (a, b), (lo + hi) / 2 for uniform
GRID_MEANS = [np.sinh(1.0), 1.25, 2.0 * np.sinh(0.5)]


def bump(x):
    return 1.0 + x[:, 0] * x[:, 1]


def frobenius(A, B):
    return float(A.multiply(B).sum())


class TestKroneckerPreconditioner:
    @pytest.mark.parametrize("cells", [[3], [2, 4], [3, 1, 2], None])
    def test_exact_inverse_for_proportional_modes(self, cells):
        # every mode has the mean's shape, so A = G̃ ⊗ K̄ and the
        # preconditioner is A^-1; cells=None is the deterministic grid
        mesh = build_uniform_mesh(RECT, 5)
        grid = _param_grid(cells)
        M = grid.n_dims
        a = AffineField.build(bump, [(1.0 + k, bump, k) for k in range(M)])
        sys_ = assemble_sg(mesh, grid, a, AffineField.build(1.0), AffineField.build(0.0))
        A = sp.csc_matrix(sys_.explicit())
        apply = sys_.precond()
        rng = np.random.default_rng(5)
        for _ in range(3):
            r = rng.standard_normal(sys_.n)
            assert_allclose(apply(r, np.zeros(sys_.n, dtype=bool)), spla.spsolve(A, r),
                            rtol=1e-10)

    @pytest.mark.parametrize("cells, modes", [
        ([3], [(0.3, lambda x: x[:, 0], 0)]),
        ([2, 3], [(0.4, lambda x: x[:, 0], 0), (0.2, lambda x: 1.0 + x[:, 1] ** 2, 1),
                  (0.1, one, 1)]),
        ([2, 2, 3], [(0.3, lambda x: x[:, 1], 0), (0.5, bump, 2)]),
    ])
    def test_matches_best_kronecker_approximation(self, cells, modes):
        # modes of other shapes than the mean: the preconditioner solves with
        # G̃ ⊗ K̄, K̄ the stiffness of the y-averaged coefficient and
        # G̃ = sum_k alpha_k G_k from the assembled Gramians; the last case
        # leaves dimension 1 without a mode
        mesh = build_uniform_mesh(RECT, 5)
        grid = _param_grid(cells)
        a = AffineField.build(2.0, modes)
        sys_ = assemble_sg(mesh, grid, a, AffineField.build(1.0), AffineField.build(0.0))

        def averaged(x):
            return 2.0 + sum(c * np.asarray(phi(x)) * GRID_MEANS[d] for c, phi, d in modes)

        op = P1Operator(mesh)
        K_bar = op.interior.csr(op.interior.data(op.integrals(averaged(op.points))))
        norm2 = frobenius(K_bar, K_bar)
        G = sum(frobenius(sys_.pattern.csr(K), K_bar) / norm2 * gramian(sys_.gram, k)
                for k, K in enumerate(sys_.stiffness))
        P = sp.csc_matrix(sp.kron(G, K_bar))
        rng = np.random.default_rng(6)
        for _ in range(3):
            r = rng.standard_normal(sys_.n)
            assert_allclose(sys_.precond()(r, np.zeros(sys_.n, dtype=bool)),
                            spla.spsolve(P, r), rtol=1e-10)

    def test_unconstrained_proportional_solve_takes_one_step(self):
        sys_ = make_system(nx=6, cells=3)  # a = 1 + y1 + 2 y2, obstacle -10
        u, report = active_set_solve(sys_, sys_.obs, SolverConfig(tol=1e-10))
        assert report.converged
        assert report.inner_iterations == 1
        assert report.active_count == 0
        u_ref = spla.spsolve(sp.csc_matrix(sys_.explicit()), sys_.b)
        assert_allclose(u, u_ref, rtol=1e-10)

    @pytest.mark.parametrize("a, density", [
        # E[y] = 1.5 makes the averaged coefficient vanish: K̄ is singular
        (AffineField.build(-1.5, [(1.0, one, 0)]), Density1D.uniform(1.0, 2.0)),
        # K̄ is regular but some delta_j < 0: a = 0.2 - y changes sign
        (AffineField.build(0.2, [(-1.0, one, 0)]), Density1D.uniform(0.0, 1.0)),
    ])
    def test_non_positive_coefficient_reports_failure(self, a, density):
        # assemble_sg does not check ellipticity (validate_config does), so
        # the preconditioner must refuse, and the solver report a failure
        mesh = build_uniform_mesh(RECT, 6)
        grid = build_param_grid([density], 4)
        sys_ = assemble_sg(mesh, grid, a, AffineField.build(1.0), AffineField.build(0.0))
        with pytest.raises(np.linalg.LinAlgError):
            sys_.precond()
        u, report = active_set_solve(sys_, sys_.obs, SolverConfig())
        assert not report.converged
        assert np.all(u >= sys_.obs)


class TestRightHandSide:
    def test_constant_coefficient_mean_is_deterministic_solution(self):
        # with a independent of y the unconstrained tensor solution has mean
        # equal to the deterministic FE solution with the averaged source;
        # averaging with the discrete hat weights makes the identity exact
        mesh = build_uniform_mesh(RECT, 6)
        grid = build_param_grid([Density1D.exp_uniform()], 3)
        a = AffineField.build(1.0)
        f = AffineField.build(1.0, [(1.0, one, 0)])
        g = AffineField.build(0.0)
        sys_ = assemble_sg(mesh, grid, a, f, g)
        u = spla.spsolve(sp.csr_matrix(sys_.explicit()), sys_.b)
        mean = sg_mean(sys_, u)

        w0 = sys_.gram.integrals(0).sum()  # discrete total mass, ~1
        w1 = sys_.gram.integrals(1).sum()  # discrete E[y], ~(e - 1/e)/2
        op = P1Operator(mesh)
        K = op.interior.csr(op.interior.data(op.integrals(one(op.points))))
        F = op.load((w0 + w1) * one(op.points))
        ii = mesh.interior
        u_det = spla.spsolve(sp.csr_matrix(K), F[ii])
        assert_allclose(mean[ii], u_det, rtol=1e-11)

    def test_lifting_reproduces_tensor_exact_solution(self):
        # u(x, y) = (x1 + x2) * y1 is linear in x and multilinear in y, and
        # harmonic, so with a = 1, f = 0 the Galerkin solution with exact
        # Dirichlet data reproduces it at every tensor node
        mesh = build_uniform_mesh(RECT, 5)
        grid = build_param_grid([Density1D.exp_uniform()], 3)
        a = AffineField.build(1.0)
        f = AffineField.build(0.0)
        g = AffineField.build(-100.0)

        def dirichlet(x, y):
            return (x[:, 0] + x[:, 1]) * y[..., 0, None]

        sys_ = assemble_sg(mesh, grid, a, f, g, dirichlet=dirichlet)
        u = spla.spsolve(sp.csr_matrix(sys_.explicit()), sys_.b)
        x_int = mesh.nodes[mesh.interior]
        expected = np.concatenate(
            [dirichlet(x_int, yj) for yj in grid.nodes()])
        assert_allclose(u, expected, atol=1e-10)

    def test_obstacle_values_at_tensor_nodes(self):
        mesh = build_uniform_mesh(RECT, 4)
        grid = build_param_grid([Density1D.exp_uniform()], 2)
        a = AffineField.build(1.0)
        f = AffineField.build(1.0)
        g = AffineField.build(-0.5, [(2.0, lambda x: x[:, 0], 0)])
        sys_ = assemble_sg(mesh, grid, a, f, g)
        x_int = mesh.nodes[mesh.interior]
        expected = np.concatenate([-0.5 + 2.0 * x_int[:, 0] * yj[0]
                                   for yj in grid.nodes()])
        assert_allclose(sys_.obs, expected, rtol=1e-14)


class TestHatsInXi:
    def test_mean_converges_at_second_order_in_the_cells(self):
        # example2 with hats linear in xi at nx = 8: the mean at 2, 4, 8 and
        # 16 cells against 64 cells, measured orders 1.99 / 2.01 / 2.07
        problem = get_problem("example2")
        mesh = build_uniform_mesh(problem.rect, 8)

        def mean(cells):
            grid = build_param_grid(problem.densities, cells, in_xi=True)
            sg = assemble_sg(mesh, grid, problem.fields["a"], problem.fields["f"],
                             problem.fields["g"], problem.dirichlet)
            u, report = active_set_solve(sg, sg.obs, SolverConfig(tol=1e-10))
            assert report.converged
            return sg_mean(sg, u)

        reference = mean(64)
        errors = np.array([np.max(np.abs(mean(cells) - reference)) for cells in (2, 4, 8, 16)])
        orders = np.log2(errors[:-1] / errors[1:])
        assert_allclose(orders, 2.0, rtol=0, atol=0.25)
