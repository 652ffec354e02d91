import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from numpy.testing import assert_allclose

from sgobstacle import system
from sgobstacle.fem import P1Operator
from sgobstacle.fields import AffineField
from sgobstacle.lcp import SolverConfig, active_set_solve
from sgobstacle.mesh import build_uniform_mesh
from sgobstacle.param import Density1D, build_param_grid, deterministic_grid
from sgobstacle.problems import get_problem
from sgobstacle.stats import sg_mean
from sgobstacle.system import assemble_sg

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
        grid = deterministic_grid()
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

    def test_non_affine_coefficient_rejected(self):
        mesh = build_uniform_mesh(RECT, 3)
        grid = build_param_grid([Density1D.exp_uniform()], 2)
        with pytest.raises(TypeError):
            assemble_sg(mesh, grid, lambda x, y: one(x), AffineField.build(1.0),
                        AffineField.build(0.0))

    def test_field_dims_must_fit_grid(self):
        mesh = build_uniform_mesh(RECT, 3)
        grid = build_param_grid([Density1D.exp_uniform()], 2)
        a = AffineField.build(1.0, [(1.0, one, 1)])  # needs 2 dims
        with pytest.raises(ValueError):
            assemble_sg(mesh, grid, a, AffineField.build(1.0), AffineField.build(0.0))


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
            # example2's constant coefficient: K0 alone, with stored zeros
            problem = get_problem("example2")
            fields = problem.fields
            sys_ = assemble_sg(build_uniform_mesh(problem.rect, 8),
                               build_param_grid(problem.densities, 2),
                               fields["a"], fields["f"], fields["g"], problem.dirichlet)
            assert len(sys_._terms()) == 1 and np.any(sys_.K0.data == 0.0)
        else:
            # the y-weighted hat mass at y = 0 is zero, so G_y stores fewer
            # entries than G_0
            a = AffineField.build(2.0, [(1.0, lambda x: 1.0 + 0.5 * x[:, 0], 0),
                                        (0.5, one, 1)])
            sys_ = assemble_sg(build_uniform_mesh(RECT, 6),
                               build_param_grid([Density1D.uniform(-1.0, 1.0)] * 2, 2),
                               a, AffineField.build(1.0), AffineField.build(0.0))
            assert [sys_.gram.matrix(k).nnz for k in range(3)] == [49, 42, 42]
        A = sys_.explicit()
        ref = sum(sp.kron(sys_.gram.matrix(k), K, format="csr") for k, K in sys_._terms())
        assert A.has_sorted_indices
        assert np.all(A.data != 0.0)
        assert A.nnz == np.count_nonzero(ref.toarray())
        assert abs(A - ref).max() == 0.0

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

    def test_flat_index_is_parameter_major(self):
        # flat index j*I + i: a vector supported on parameter node j = 1
        # must produce output supported on rows of the same parameter block
        # structure (G acts across blocks, K within)
        sys_ = make_system(nx=4, cells=1)
        I, J = sys_.n_spatial, sys_.n_param
        v = np.zeros(sys_.n)
        v[1 * I:2 * I] = np.arange(1.0, I + 1.0)
        blocks = sys_.matvec(v).reshape(J, I)
        expected_0 = (sys_.gram.matrix(0)[0, 1] * (sys_.K0 @ v[I:2 * I]))
        for k, K in enumerate(sys_.Kk, 1):
            expected_0 += sys_.gram.matrix(k)[0, 1] * (K @ v[I:2 * I])
        assert_allclose(blocks[0], expected_0, rtol=1e-13)



def _param_grid(cells):
    """Grid with unequal densities and cell counts; None is the deterministic grid."""
    if cells is None:
        return deterministic_grid()
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
            assert_allclose(apply(r), spla.spsolve(A, r), rtol=1e-10)
        assert sys_.precond() is apply

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
        G = frobenius(sys_.K0, K_bar) / norm2 * sys_.gram.matrix(0)
        for k, Kk in enumerate(sys_.Kk, 1):
            if Kk is not None:
                G = G + frobenius(Kk, K_bar) / norm2 * sys_.gram.matrix(k)
        P = sp.csc_matrix(sp.kron(G, K_bar))
        rng = np.random.default_rng(6)
        for _ in range(3):
            r = rng.standard_normal(sys_.n)
            assert_allclose(sys_.precond()(r), spla.spsolve(P, r), rtol=1e-10)

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

        w0 = sys_.gram.g0.sum()          # discrete total mass, ~1
        w1 = sys_.gram.gk[0].sum()       # discrete E[y], ~(e - 1/e)/2
        op = P1Operator(mesh)
        K = op.interior.csr(op.interior.data(op.integrals(one(op.points))))
        F = op.load((w0 + w1) * one(op.points))
        ii = mesh.interior
        u_det = spla.spsolve(sp.csr_matrix(K), F[ii])
        assert_allclose(mean.values[ii], u_det, rtol=1e-11)

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
