import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from sgobstacle.fem import P1Operator
from sgobstacle.fields import AffineField
from sgobstacle.lcp import (SolverConfig, SparseObstacleSystem,
                            _banded_cholesky_solver, _pcg, active_set_solve, brute_force_solve,
                            complementarity_residual, greedy_colouring,
                            psor_solve, solve_lcp)
from sgobstacle.mesh import build_uniform_mesh
from sgobstacle.param import Density1D, build_param_grid
from sgobstacle.problems import get_problem
from sgobstacle.system import assemble_sg


def unit_stiffness(mesh):
    """The interior block of the P1 stiffness of the unit coefficient."""
    op = P1Operator(mesh)
    return op.interior.csr(op.interior.data(op.integrals(np.ones(len(op.points)))))


def random_lcp(rng, n=8):
    """Random diagonally dominant SPD matrix with mixed-sign rhs/obstacle."""
    A = rng.standard_normal((n, n))
    A = 0.5 * (A + A.T)
    A += n * np.eye(n)
    b = rng.standard_normal(n)
    obs = rng.standard_normal(n) - 0.5
    return A, b, obs


class TestBruteForce:
    def test_unconstrained_case(self):
        rng = np.random.default_rng(0)
        A, b, _ = random_lcp(rng, 5)
        obs = np.full(5, -1e9)
        u = brute_force_solve(A, b, obs)
        assert_allclose(u, np.linalg.solve(A, b), rtol=1e-10)

    def test_fully_constrained_case(self):
        # obstacle so high that u = obs everywhere (requires lambda >= 0,
        # so pick b making Au - b positive at the obstacle)
        A = np.eye(3) * 4.0
        obs = np.array([1.0, 2.0, 3.0])
        b = A @ obs - 1.0
        u = brute_force_solve(A, b, obs)
        assert_allclose(u, obs, rtol=1e-12)

    def test_size_cap(self):
        rng = np.random.default_rng(1)
        A, b, obs = random_lcp(rng, 17)
        with pytest.raises(ValueError):
            brute_force_solve(A, b, obs)


class TestSolversAgainstEnumeration:
    def test_both_methods_match_brute_force(self):
        rng = np.random.default_rng(123)
        psor_cfg = SolverConfig(method="psor", tol=1e-12, max_iter=20_000)
        pdas_cfg = SolverConfig(method="active-set", tol=1e-12)
        for trial in range(100):
            A, b, obs = random_lcp(rng)
            exact = brute_force_solve(A, b, obs)
            system = SparseObstacleSystem(sp.csr_array(A), b)
            u_psor, rep_psor = psor_solve(system, obs, psor_cfg)
            u_pdas, rep_pdas = active_set_solve(system, obs, pdas_cfg)
            assert rep_psor.converged and rep_pdas.converged
            assert np.max(np.abs(u_psor - exact)) <= 1e-10
            assert np.max(np.abs(u_pdas - exact)) <= 1e-10
            assert complementarity_residual(system, u_psor, obs) <= 1e-10
            assert complementarity_residual(system, u_pdas, obs) <= 1e-10

    def test_solution_feasible_and_complementary(self):
        rng = np.random.default_rng(7)
        A, b, obs = random_lcp(rng)
        system = SparseObstacleSystem(sp.csr_array(A), b)
        u, rep = active_set_solve(system, obs, SolverConfig(tol=1e-12))
        lam = A @ u - b
        assert np.all(u >= obs - 1e-12)
        assert np.all(lam >= -1e-10)
        assert np.max(np.abs(np.minimum(u - obs, lam))) <= 1e-10
        assert rep.active_count == int(np.sum(np.isclose(u, obs, atol=1e-9)))


@st.composite
def m_matrix_lcps(draw):
    """Symmetric sparse M-matrix (strictly diagonally dominant) LCPs, n <= 10."""
    n = draw(st.integers(1, 10))
    weights = draw(hnp.arrays(float, (n, n), elements=st.floats(0.0, 1.0)))
    mask = draw(hnp.arrays(bool, (n, n)))
    off = np.triu(weights * mask, 1)
    off = off + off.T
    margin = draw(hnp.arrays(float, n, elements=st.floats(0.1, 2.0)))
    A = np.diag(off.sum(axis=1) + margin) - off
    b = draw(hnp.arrays(float, n, elements=st.floats(-1.0, 1.0)))
    obs = draw(hnp.arrays(float, n, elements=st.floats(-1.0, 1.0)))
    return A, b, obs


@settings(max_examples=60, deadline=None, database=None)
@given(m_matrix_lcps())
def test_solvers_match_enumeration_on_m_matrices(lcp):
    A, b, obs = lcp
    exact = brute_force_solve(A, b, obs)
    system = SparseObstacleSystem(sp.csr_array(A), b)
    for u, rep in (active_set_solve(system, obs, SolverConfig(tol=1e-12)),
                   psor_solve(system, obs, SolverConfig(method="psor", tol=1e-12,
                                                        max_iter=20_000))):
        assert rep.converged
        assert np.max(np.abs(u - exact)) <= 1e-8


@settings(max_examples=40, deadline=None, database=None)
@given(st.lists(m_matrix_lcps(), min_size=1, max_size=4))
def test_block_diagonal_lcp_matches_enumeration_per_block(lcps):
    # independent LCPs stacked into one block-diagonal system, as Monte
    # Carlo solves a block of samples, decouple: each block of the joint
    # solution is that block's own solution
    A = sp.block_diag([A for A, _, _ in lcps], format="csr")
    b = np.concatenate([b for _, b, _ in lcps])
    obs = np.concatenate([obs for _, _, obs in lcps])
    exact = np.concatenate([brute_force_solve(*lcp) for lcp in lcps])
    system = SparseObstacleSystem(A, b)
    for u, rep in (active_set_solve(system, obs, SolverConfig(tol=1e-12)),
                   psor_solve(system, obs, SolverConfig(method="psor", tol=1e-12,
                                                        max_iter=20_000))):
        assert rep.converged
        assert np.max(np.abs(u - exact)) <= 1e-8


# (nx, ny, cells per parameter dimension) of every Galerkin system with I*J <= 12
SMALL_SG_SHAPES = [(nx, ny, cells) for nx in range(2, 6) for ny in range(2, 5)
                   for cells in [(c,) for c in range(1, 4)]
                   + [(c, e) for c in range(1, 4) for e in range(1, 4)]
                   if (nx - 1) * (ny - 1) * np.prod([c + 1 for c in cells]) <= 12]
MODE_SHAPES = [1.0, lambda x: x[:, 0], lambda x: x[:, 1], lambda x: x[:, 0] * x[:, 1]]


@st.composite
def small_sg_lcps(draw):
    """Galerkin LCPs on (0, 1)^2 with I*J <= 12: a coefficient with drawn
    modes (positive on the parameter box [0, 1]^M), a drawn affine source
    and a drawn obstacle vector, and a start x0 >= obstacle."""
    nx, ny, cells = draw(st.sampled_from(SMALL_SG_SHAPES))
    coeff = st.floats(-0.45, 2.0)
    modes = [(draw(coeff), draw(st.sampled_from(MODE_SHAPES)), d) for d in range(len(cells))]
    a = AffineField.build(draw(st.floats(0.5, 2.0)), modes)
    f = AffineField.build(draw(st.floats(-10.0, 10.0)), [(draw(st.floats(-5.0, 5.0)), 1.0, 0)])
    system = assemble_sg(build_uniform_mesh((0.0, 1.0, 0.0, 1.0), nx, ny),
                         build_param_grid([Density1D.uniform(0.0, 1.0)] * len(cells),
                                          list(cells)),
                         a, f, AffineField.build(0.0))
    obs = draw(hnp.arrays(float, system.n, elements=st.floats(-0.3, 0.3)))
    lift = draw(hnp.arrays(float, system.n, elements=st.floats(0.0, 1.0)))
    return system, obs, obs + lift


@settings(max_examples=40, deadline=None, database=None)
@given(small_sg_lcps())
def test_active_set_matches_enumeration_on_galerkin_systems(lcp):
    # the Kronecker preconditioner is inexact once a mode's shape differs
    # from the mean's, so the masked conjugate gradients of an update take
    # several steps here, unlike the exact sparse preconditioner
    system, obs, x0 = lcp
    exact = brute_force_solve(system.explicit().toarray(), system.b, obs)
    for start in (None, x0):
        u, rep = active_set_solve(system, obs, SolverConfig(tol=1e-12), x0=start)
        assert rep.converged
        assert np.max(np.abs(u - exact)) <= 1e-8


def test_banded_cholesky_sums_duplicate_entries():
    # lower-triangle entries given in pieces, (0, 0), (2, 1) and (2, 2)
    # twice, must add up to the matrix they split
    A = np.array([[4.0, 1.0, 0.0], [1.0, 5.0, 2.0], [0.0, 2.0, 6.0]])
    rows = np.array([0, 0, 1, 1, 2, 2, 2, 2])
    cols = np.array([0, 0, 0, 1, 1, 1, 2, 2])
    vals = np.array([1.5, 2.5, 1.0, 5.0, 0.5, 1.5, 2.0, 4.0])
    r = np.array([1.0, -2.0, 3.0])
    assert_allclose(_banded_cholesky_solver(rows, cols, vals, 3)(r),
                    np.linalg.solve(A, r), rtol=1e-12)


class TestReducedPrecond:
    @pytest.mark.parametrize("kind", ["stiffness", "dense"])
    def test_matches_sparse_direct_solve(self, kind):
        rng = np.random.default_rng(37)
        if kind == "stiffness":
            # banded, with explicit zeros where the hypotenuse couplings vanish
            mesh = build_uniform_mesh((0.0, 1.0, 0.0, 1.0), 7)
            A = unit_stiffness(mesh)
            assert np.any(A.data == 0.0)
        else:
            A = sp.csr_array(random_lcp(rng, 12)[0])
        n = A.shape[0]
        system = SparseObstacleSystem(A, np.zeros(n))
        r = rng.standard_normal(n)
        assert_allclose(system.precond()(r), spla.spsolve(sp.csc_matrix(A), r),
                        rtol=1e-12)
        # full-length contract: for r zero on the active entries, the output
        # is the reduced direct solve on the inactive entries and 0 elsewhere
        masks = [np.zeros(n, dtype=bool), np.arange(n) != n // 2, rng.random(n) < 0.5,
                 np.arange(n) % 3 != 1, np.ones(n, dtype=bool)]
        for active in masks:
            inactive = np.flatnonzero(~active)
            r = np.where(active, 0.0, rng.standard_normal(n))
            out = system.reduced_precond(active)(r)
            assert out.shape == (n,)
            assert np.all(out[active] == 0.0)
            if inactive.size:
                reduced = sp.csc_matrix(A[inactive][:, inactive])
                assert_allclose(out[inactive],
                                np.atleast_1d(spla.spsolve(reduced, r[inactive])),
                                rtol=1e-12)

    def test_galerkin_preconditioner_ignores_the_set(self):
        system = small_sg_system()
        rng = np.random.default_rng(47)
        r = rng.standard_normal(system.n)
        expect = system.precond()(r)
        for active in (np.zeros(system.n, dtype=bool), rng.random(system.n) < 0.5):
            assert_allclose(system.reduced_precond(active)(r), expect, rtol=0, atol=0)


class TestPSOR:
    def test_energy_monotone(self):
        # the energy 1/2 u.Au - b.u after k sweeps, k = 1, 2, ..., never rises
        rng = np.random.default_rng(11)
        A, b, obs = random_lcp(rng, 12)
        system = SparseObstacleSystem(sp.csr_array(A), b)
        trace = []
        for k in range(1, 501):
            u, rep = psor_solve(system, obs, SolverConfig(method="psor", tol=1e-12,
                                                          max_iter=k))
            trace.append(0.5 * u @ A @ u - b @ u)
            if rep.converged:
                break
        assert rep.converged and len(trace) >= 2
        assert np.all(np.diff(trace) <= 1e-12)

    def test_iteration_budget_respected(self):
        rng = np.random.default_rng(13)
        A, b, obs = random_lcp(rng)
        system = SparseObstacleSystem(sp.csr_array(A), b)
        cfg = SolverConfig(method="psor", tol=1e-14, max_iter=2)
        u, rep = psor_solve(system, obs, cfg)
        assert rep.iterations <= 2
        assert not rep.converged

    def test_omega_one_is_projected_gauss_seidel(self):
        rng = np.random.default_rng(17)
        A, b, obs = random_lcp(rng)
        system = SparseObstacleSystem(sp.csr_array(A), b)
        cfg = SolverConfig(method="psor", omega=1.0, tol=1e-12, max_iter=20_000)
        u, rep = psor_solve(system, obs, cfg)
        assert rep.converged
        assert complementarity_residual(system, u, obs) <= 1e-10


def small_sg_system():
    """Tensor Galerkin LCP of example1's data, I = 25, J = 9, with contact."""
    mesh = build_uniform_mesh((-1.5, 1.5, -1.5, 1.5), 6)
    grid = build_param_grid([Density1D.exp_uniform()] * 2, 2)
    a = AffineField.build(1.0, [(1.0, 1.0, 0), (2.0, 1.0, 1)])
    return assemble_sg(mesh, grid, a, AffineField.build(-2.0), AffineField.build(-0.05))


def assert_first_fit_colouring(A, colour):
    """One colour per row, no stored off-diagonal entry inside a colour, first fit."""
    A = sp.csr_array(A)
    n = A.shape[0]
    assert len(colour) == n
    assert all(isinstance(c, int) and c >= 0 for c in colour)
    colour = np.asarray(colour)
    rows = np.repeat(np.arange(n), np.diff(A.indptr))
    off = rows != A.indices
    assert not np.any(colour[rows[off]] == colour[A.indices[off]])
    for i in range(n):
        earlier = A.indices[A.indptr[i]:A.indptr[i + 1]]
        earlier = earlier[earlier < i]
        assert set(range(colour[i])) <= set(colour[earlier].tolist())


def sequential_psor(A, b, obs, omega, sweeps, order):
    """Row-by-row projected SOR over the rows in the given order (reference)."""
    A = sp.csr_array(A)
    d = A.diagonal()
    u = np.array(obs, dtype=float)
    for _ in range(sweeps):
        for i in order:
            sl = slice(A.indptr[i], A.indptr[i + 1])
            gs = u[i] + (b[i] - A.data[sl] @ u[A.indices[sl]]) / d[i]
            u[i] = max(obs[i], (1.0 - omega) * u[i] + omega * gs)
    return u


class TestMulticolourPSOR:
    def test_colouring_of_galerkin_matrix(self):
        A = small_sg_system().explicit()
        colour = greedy_colouring(A)
        assert_first_fit_colouring(A, colour)
        assert 1 < max(colour) + 1 <= np.diff(A.indptr).max()

    def test_colouring_of_dense_matrix(self):
        A = random_lcp(np.random.default_rng(41), 8)[0]
        colour = greedy_colouring(sp.csr_array(A))
        assert colour == list(range(8))
        assert_first_fit_colouring(A, colour)

    def test_colouring_of_diagonal_matrix(self):
        A = sp.diags_array(np.arange(1.0, 7.0)).tocsr()
        colour = greedy_colouring(A)
        assert colour == [0] * 6
        assert_first_fit_colouring(A, colour)

    def test_colouring_counts_explicit_zeros(self):
        # the stored zeros of P1 stiffness still separate their rows
        mesh = build_uniform_mesh((0.0, 1.0, 0.0, 1.0), 7)
        A = unit_stiffness(mesh)
        assert np.any(A.data == 0.0)
        assert_first_fit_colouring(A, greedy_colouring(A))

    def test_matches_sequential_sweeps_in_colour_order(self):
        system = small_sg_system()
        A = system.explicit()
        order = np.argsort(greedy_colouring(A), kind="stable")
        assert np.any(order != np.arange(system.n))
        cfg = SolverConfig(method="psor", omega=1.7, tol=1e-300, max_iter=3)
        u, rep = psor_solve(system, system.obs, cfg)
        assert rep.iterations == 3 and not rep.converged
        ref = sequential_psor(A, system.b, system.obs, 1.7, 3, order)
        assert_allclose(u, ref, rtol=1e-13)

    def test_agrees_with_active_set_on_galerkin_system(self):
        system = small_sg_system()
        u_psor, rep_psor = psor_solve(
            system, system.obs, SolverConfig(method="psor", omega=1.7, tol=1e-12,
                                             max_iter=5000))
        u_pdas, rep_pdas = active_set_solve(system, system.obs, SolverConfig(tol=1e-12))
        assert rep_psor.converged and rep_pdas.converged
        assert 0 < rep_psor.active_count < system.n
        assert np.max(np.abs(u_psor - u_pdas)) <= 1e-8

    def test_start_below_the_obstacle_is_projected(self):
        # x0 is lifted onto the obstacle before the first sweep
        system = small_sg_system()
        obs = system.obs
        x0 = obs + np.random.default_rng(59).uniform(-1.0, 0.1, system.n)
        assert np.any(x0 < obs) and np.any(x0 > obs)
        cfg = SolverConfig(method="psor", omega=1.7, tol=1e-300, max_iter=3)
        for start, lifted in ((obs - 1.0, None), (x0, np.maximum(x0, obs))):
            u, rep = psor_solve(system, obs, cfg, x0=start)
            u_ref, rep_ref = psor_solve(system, obs, cfg, x0=lifted)
            assert_array_equal(u, u_ref)
            assert rep.residual == rep_ref.residual and rep.iterations == 3

    def test_start_at_a_converged_solution_takes_one_sweep(self):
        system = small_sg_system()
        obs = system.obs
        cfg = SolverConfig(method="psor", omega=1.7, tol=1e-10, max_iter=5000)
        u, rep = psor_solve(system, obs, cfg)
        assert rep.converged and rep.iterations > 1
        u_warm, rep_warm = psor_solve(system, obs, cfg, x0=u)
        assert rep_warm.converged and rep_warm.iterations == 1
        assert rep_warm.active_count == rep.active_count
        assert rep_warm.residual == pytest.approx(
            complementarity_residual(system, u_warm, obs), abs=1e-15)
        assert np.max(np.abs(u_warm - u)) <= 1e-8

    @pytest.mark.parametrize("diag", [[2.0, 0.0, 1.0], [2.0, -1.0, 1.0]])
    def test_non_positive_diagonal_rejected(self, diag):
        system = SparseObstacleSystem(np.diag(diag), np.ones(3))
        with pytest.raises(ValueError, match="positive diagonal"):
            psor_solve(system, np.zeros(3))


class TestSparseSystemShapes:
    def test_non_square_matrix_rejected(self):
        with pytest.raises(ValueError, match="square"):
            SparseObstacleSystem(np.ones((2, 3)), np.ones(2))

    def test_wrong_rhs_length_rejected(self):
        with pytest.raises(ValueError, match="length"):
            SparseObstacleSystem(np.eye(3), np.ones(2))


class TestActiveSet:
    def test_inactive_obstacle_gives_linear_solution(self):
        rng = np.random.default_rng(19)
        A, b, _ = random_lcp(rng, 10)
        obs = np.full(10, -1e6)
        system = SparseObstacleSystem(sp.csr_array(A), b)
        u, rep = active_set_solve(system, obs, SolverConfig(tol=1e-12))
        assert rep.active_count == 0
        assert_allclose(u, np.linalg.solve(A, b), atol=1e-9)

    def test_warm_start_agrees_with_cold(self):
        rng = np.random.default_rng(23)
        A, b, obs = random_lcp(rng)
        system = SparseObstacleSystem(sp.csr_array(A), b)
        cfg = SolverConfig(tol=1e-12)
        u_cold, _ = active_set_solve(system, obs, cfg)
        x0 = obs + np.abs(rng.standard_normal(8))
        u_warm, _ = active_set_solve(system, obs, cfg, x0=x0)
        assert np.max(np.abs(u_cold - u_warm)) <= 1e-9

    def test_indefinite_system_reports_failure(self):
        # with A = diag(1, -1) the first PCG step has p.Ap = 0
        system = SparseObstacleSystem(sp.csr_array(np.diag([1.0, -1.0])),
                                      np.ones(2))
        _, _, ok, _ = _pcg(system.matvec, system.b, np.zeros(2),
                        system.precond(), 1e-12, 10)
        assert not ok
        _, rep = active_set_solve(system, np.zeros(2), SolverConfig())
        assert not rep.converged
        # warm-started, the banded Cholesky of the reduced system fails instead
        _, rep = active_set_solve(system, np.zeros(2), SolverConfig(),
                                  x0=np.zeros(2))
        assert not rep.converged
        assert rep.iterations == 1

    def test_residual_is_that_of_the_returned_iterate(self):
        # the active set reuses lambda = Au - b of its last update
        rng = np.random.default_rng(43)
        A, b, obs = random_lcp(rng, 10)
        system = SparseObstacleSystem(sp.csr_array(A), b)
        for x0 in (None, obs + 0.5):
            u, rep = active_set_solve(system, obs, SolverConfig(tol=1e-12), x0=x0)
            assert rep.residual == complementarity_residual(system, u, obs)
        # PSOR takes it with the explicit matrix in colour order: same up to rounding
        u, rep = psor_solve(system, obs, SolverConfig(method="psor", tol=1e-12,
                                                      max_iter=20_000))
        assert rep.residual == pytest.approx(complementarity_residual(system, u, obs),
                                             abs=1e-14)

    def test_conjugate_gradient_budget_is_fixed(self):
        # plain conjugate gradients need 1,329 steps on this 1,200-unknown
        # system; each solve stops at 500, whatever the size, and the
        # iteration ends there, converged only if that iterate meets tol
        class Unpreconditioned(SparseObstacleSystem):
            def reduced_precond(self, active):
                return lambda r: r

        system = Unpreconditioned(sp.diags(np.geomspace(1.0, 1e4, 1200)).tocsr(),
                                  np.ones(1200))
        obs = np.full(1200, -1e6)
        u, rep = active_set_solve(system, obs, SolverConfig(tol=1e-12))
        assert not rep.converged and rep.residual > 1e-12
        steps = [r["pcg"] for r in rep.trace]
        assert max(steps) == 500 and rep.inner_iterations - sum(steps) == 500
        # at the default tol the same stopped iterate is a solution
        u8, rep8 = active_set_solve(system, obs, SolverConfig())
        assert [r["pcg"] for r in rep8.trace] == steps and steps[-1] == 500
        assert rep8.converged and rep8.residual == rep.residual <= 1e-8

    def test_report_counts_inner_iterations(self):
        rng = np.random.default_rng(29)
        A, b, obs = random_lcp(rng)
        system = SparseObstacleSystem(sp.csr_array(A), b)
        u, rep = active_set_solve(system, obs, SolverConfig(tol=1e-12))
        assert rep.inner_iterations >= 1
        assert rep.seconds >= 0.0
        d = rep.as_dict()
        assert set(d) == {"converged", "iterations", "residual",
                          "active_count", "seconds", "inner_iterations", "trace"}
        # one trace record per update; the cold start's steps come on top
        assert len(rep.trace) == rep.iterations >= 1
        assert sum(r["pcg"] for r in rep.trace) <= rep.inner_iterations
        assert all(set(r) == {"active", "changed", "rtol", "pcg", "residual", "tight"}
                   for r in rep.trace)
        assert rep.trace[0]["changed"] == rep.trace[0]["active"]
        assert rep.trace[-1]["residual"] == rep.residual


def galerkin_system(kind: str):
    """Small tensor Galerkin LCPs with contact, solved by inexact updates."""
    if kind == "example2":
        problem = get_problem("example2")
        fields = problem.fields
        return assemble_sg(build_uniform_mesh(problem.rect, 8),
                           build_param_grid(problem.densities, 2),
                           fields["a"], fields["f"], fields["g"], problem.dirichlet)
    if kind == "example1":
        return small_sg_system()
    # example1's data with modes whose shapes differ from the mean's, so the
    # Kronecker preconditioner is inexact even before any entry is active
    a = AffineField.build(1.0, [(1.0, lambda x: 1.0 + 0.5 * x[:, 0], 0),
                                (2.0, lambda x: 1.0 - 0.3 * x[:, 1], 1)])
    return assemble_sg(build_uniform_mesh((-1.5, 1.5, -1.5, 1.5), 8),
                       build_param_grid([Density1D.exp_uniform()] * 2, 2),
                       a, AffineField.build(-2.0), AffineField.build(-0.05))


class TestInexactUpdates:
    @pytest.mark.parametrize("kind", ["example1", "example1-shapes", "example2"])
    @pytest.mark.parametrize("tol", [1e-8, 1e-10])
    def test_solution_is_exact_for_its_final_set(self, kind, tol):
        # loose updates move the set; the tight solve at the end makes u the
        # solution of the inactive block of the set it holds at the obstacle
        system = galerkin_system(kind)
        obs = system.obs
        u, rep = active_set_solve(system, obs, SolverConfig(tol=tol))
        assert rep.converged and rep.residual <= tol
        assert any(not r["tight"] for r in rep.trace)
        active = u == obs
        free = ~active
        A = system.explicit().tocsc()
        assert 0 < np.count_nonzero(active) < system.n
        direct = spla.spsolve(A[free][:, free],
                              system.b[free] - A[free][:, active] @ obs[active])
        assert np.max(np.abs(u[free] - direct)) <= 1e-10

    @pytest.mark.parametrize("kind", ["example1", "example1-shapes", "example2"])
    def test_last_update_is_tight(self, kind):
        system = galerkin_system(kind)
        rng = np.random.default_rng(53)
        for x0 in (None, system.obs + rng.random(system.n)):
            u, rep = active_set_solve(system, system.obs, SolverConfig(), x0=x0)
            assert rep.converged
            assert any(not r["tight"] for r in rep.trace)
            last = rep.trace[-1]
            assert last["tight"] and last["changed"] == 0
            assert last["rtol"] == max(1e-13, min(1e-10, SolverConfig().tol * 1e-4))

    def test_sparse_system_takes_one_step_per_update(self):
        # the exact banded Cholesky of the inactive block meets any target in
        # one step, so every update is tight and no re-solve is added
        mesh = build_uniform_mesh((0.0, 1.0, 0.0, 1.0), 16)
        ii = mesh.interior
        A = unit_stiffness(mesh)
        x = mesh.nodes[ii]
        obs = -0.02 - 0.05 * x[:, 0]
        system = SparseObstacleSystem(A, np.full(ii.size, -2.0 / 256))
        for x0 in (None, np.zeros(ii.size)):
            u, rep = active_set_solve(system, obs, SolverConfig(), x0=x0)
            assert rep.converged and rep.iterations >= 2
            assert all(r["pcg"] <= 1 and r["tight"] for r in rep.trace)
            assert rep.inner_iterations <= rep.iterations + (x0 is None)


class TestDispatcherAndConfig:
    def test_solve_lcp_dispatches(self):
        rng = np.random.default_rng(31)
        A, b, obs = random_lcp(rng)
        system = SparseObstacleSystem(sp.csr_array(A), b)
        exact = brute_force_solve(A, b, obs)
        for method in ("psor", "active-set"):
            cfg = SolverConfig(method=method, tol=1e-12, max_iter=20_000)
            u, rep = solve_lcp(system, obs, cfg)
            assert np.max(np.abs(u - exact)) <= 1e-9

    def test_bad_config_rejected(self):
        with pytest.raises(ValueError):
            SolverConfig(method="newton")
        with pytest.raises(ValueError):
            SolverConfig(omega=2.0)
        with pytest.raises(ValueError):
            SolverConfig(tol=0.0)
