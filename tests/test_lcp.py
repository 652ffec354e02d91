import time

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

import sgobstacle.lcp as lcp_module
import sgobstacle.system as system_module
from sgobstacle.fem import P1Operator
from sgobstacle.fields import AffineField
from sgobstacle.lcp import (SolverConfig, SparseObstacleSystem,
                            _pcg, active_set_solve, brute_force_solve,
                            complementarity_residual, greedy_colouring,
                            lower_band, psor_solve, solve_lcp)
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


def set_colouring(A):
    """Reference first fit: the set of colours of each row's whole pattern."""
    n = A.shape[0]
    colour = [-1] * n
    for i in range(n):
        used = {colour[j] for j in A.indices[A.indptr[i]:A.indptr[i + 1]].tolist()}
        c = 0
        while c in used:
            c += 1
        colour[i] = c
    return colour


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

    @pytest.mark.parametrize("pattern", ["random", "dense", "diagonal", "tridiagonal",
                                         "galerkin"])
    def test_colouring_matches_the_set_reference(self, pattern):
        # the bitmask over the strictly lower entries gives the colours of
        # first fit over whole rows, across several chunks of rows
        rng = np.random.default_rng(97)
        n = 3 * lcp_module._COLOUR_CHUNK + 5
        if pattern == "random":
            stored = rng.random((n, n)) < 0.015
            A = sp.csr_array((stored | stored.T | np.eye(n, dtype=bool)).astype(float))
        elif pattern == "dense":
            A = sp.csr_array(random_lcp(rng, 40)[0])
        elif pattern == "diagonal":
            A = sp.csr_array(np.eye(n))
        elif pattern == "tridiagonal":
            A = sp.diags_array([-1.0, 2.0, -1.0], offsets=[-1, 0, 1], shape=(n, n)).tocsr()
        else:
            A = small_sg_system().explicit()
        colour = greedy_colouring(A)
        assert colour == set_colouring(A)
        assert_first_fit_colouring(A, colour)

    def test_colouring_counts_explicit_zeros(self):
        # the stored zeros of P1 stiffness still separate their rows
        mesh = build_uniform_mesh((0.0, 1.0, 0.0, 1.0), 7)
        A = unit_stiffness(mesh)
        assert np.any(A.data == 0.0)
        assert_first_fit_colouring(A, greedy_colouring(A))

    def test_colour_order_permutes_rows_and_columns(self):
        # row k of P is row order[k] of A with its columns renumbered by rank
        # and its stored entries in A's order, so P's row products sum in A's
        # order; colour c owns the rows bounds[c]:bounds[c + 1]
        A = small_sg_system().explicit()
        colour = np.array(greedy_colouring(A))
        P, bounds, order, rank = lcp_module._colour_ordered(A)
        assert len(bounds) - 1 == colour.max() + 1 > 1
        assert_array_equal(order, np.argsort(colour, kind="stable"))
        assert_array_equal(rank[order], np.arange(A.shape[0]))
        for c, (start, stop) in enumerate(zip(bounds[:-1], bounds[1:])):
            assert np.all(colour[order[start:stop]] == c)
        for k, i in enumerate(order):
            in_P = slice(P.indptr[k], P.indptr[k + 1])
            in_A = slice(A.indptr[i], A.indptr[i + 1])
            assert_array_equal(P.indices[in_P], rank[A.indices[in_A]])
            assert_array_equal(P.data[in_P], A.data[in_A])

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


# the strategy assembles a Galerkin system per example, which Hypothesis's
# too_slow health check times along with the draws; the solves are not timed
GALERKIN_SETTINGS = settings(max_examples=40, deadline=None, database=None,
                             suppress_health_check=[HealthCheck.too_slow])


@GALERKIN_SETTINGS
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


def solve_catching_sets(system, obs, config, **kwargs):
    """``active_set_solve`` and the sets that its preconditioner applies
    held, in call order: the cold start's empty set first, if there is one,
    and the set of the last update last."""
    sets = []
    precond = system.precond

    def catching():
        apply = precond()

        def caught(r, active):
            sets.append(np.array(active, dtype=bool))
            return apply(r, active)

        caught.exact = getattr(apply, "exact", False)
        return caught

    system.precond = catching
    try:
        u, rep = active_set_solve(system, obs, config, **kwargs)
    finally:
        del system.precond
    return u, rep, sets


def check_start_sets(make_system, exact, obs, held, exact_path):
    """From ``held``, with a cold start and with the start on the obstacle,
    the solve matches the enumerated solution ``exact``, and so does a cold
    solve whose first update holds the final set of an earlier solve.  On
    the exact path that solve takes one update (none if the earlier one
    took none) and returns the earlier u, bit for bit."""
    cfg = SolverConfig(tol=1e-12)
    for x0 in (None, obs):
        u, rep = active_set_solve(make_system(), obs, cfg, x0=x0, held=held)
        assert rep.converged
        assert np.max(np.abs(u - exact)) <= 1e-8
    u, rep, sets = solve_catching_sets(make_system(), obs, cfg)
    final = sets[-1] if sets else np.zeros(len(obs), dtype=bool)
    again, rep_again = active_set_solve(make_system(), obs, cfg, held=final)
    assert rep.converged and rep_again.converged
    assert np.max(np.abs(again - exact)) <= 1e-8
    if exact_path:
        assert rep_again.iterations == min(rep.iterations, 1)
        assert again.tobytes() == u.tobytes()


@settings(max_examples=60, deadline=None, database=None)
@given(m_matrix_lcps(), st.data())
def test_start_set_matches_enumeration_on_m_matrices(lcp, data):
    # the first update holds a drawn set in place of the start's contact
    # indicator; on M-matrices the method converges from any set
    A, b, obs = lcp
    held = data.draw(hnp.arrays(bool, len(b)))
    check_start_sets(lambda: SparseObstacleSystem(sp.csr_array(A), b),
                     brute_force_solve(A, b, obs), obs, held, True)


@settings(max_examples=40, deadline=None, database=None)
@given(st.lists(m_matrix_lcps(), min_size=1, max_size=4), st.data())
def test_start_set_matches_enumeration_on_block_diagonal_lcps(lcps, data):
    # a Monte Carlo block: each sample's rows start from a set of their own
    A = sp.block_diag([A for A, _, _ in lcps], format="csr")
    b = np.concatenate([b for _, b, _ in lcps])
    obs = np.concatenate([obs for _, _, obs in lcps])
    exact = np.concatenate([brute_force_solve(*lcp) for lcp in lcps])
    held = data.draw(hnp.arrays(bool, len(b)))
    check_start_sets(lambda: SparseObstacleSystem(A, b), exact, obs, held, True)


@GALERKIN_SETTINGS
@given(small_sg_lcps(), st.data())
def test_start_set_matches_enumeration_on_galerkin_systems(lcp, data):
    # the conjugate gradient path: the first update's solve is loose
    system, obs, _ = lcp
    held = data.draw(hnp.arrays(bool, system.n))
    check_start_sets(lambda: system, brute_force_solve(system.explicit().toarray(), system.b, obs),
                     obs, held, False)


def test_lower_band_matches_the_dense_matrix():
    # entry (j + k, j) of each row of entries lands at [..., j, k], on a
    # pattern whose columns run backwards in every row and whose upper
    # triangle is not symmetric to the lower; the rest of the band is zero
    rng = np.random.default_rng(71)
    dense = np.where(rng.random((6, 6)) < 0.4, rng.standard_normal((6, 6)), 0.0)
    np.fill_diagonal(dense, 1.0 + rng.random(6))
    dense[4, 0], dense[5, 1] = 0.0, 0.5  # the farthest entry below: depth 5 or 6
    A = sp.csr_array(dense)
    flip = np.concatenate([np.arange(a, b)[::-1] for a, b in zip(A.indptr, A.indptr[1:])])
    scales = np.array([[1.0], [-2.0], [0.5]])
    band = lower_band(A.indptr, A.indices[flip], scales * A.data[flip])
    depth = max(i - j for i, j in zip(*np.nonzero(np.tril(dense)))) + 1
    assert band.shape == (3, 6, depth)
    expect = np.zeros((6, depth))
    for j in range(6):
        for k in range(min(depth, 6 - j)):
            expect[j, k] = dense[j + k, j]
    assert_array_equal(band, scales[:, :, None] * expect)


def test_banded_cholesky_sums_duplicate_entries():
    # a CSR matrix storing (0, 0), (2, 1) and (2, 2) in pieces, one of them
    # an explicit zero: its band must add them up to the matrix they split
    A = np.array([[4.0, 1.0, 0.0], [1.0, 5.0, 2.0], [0.0, 2.0, 6.0]])
    indptr = np.array([0, 3, 6, 11])
    cols = np.array([0, 0, 1, 0, 1, 2, 1, 1, 2, 2, 1])
    vals = np.array([1.5, 2.5, 1.0, 1.0, 5.0, 2.0, 0.5, 1.5, 2.0, 4.0, 0.0])
    system = SparseObstacleSystem(sp.csr_array((vals, cols, indptr), shape=(3, 3)),
                                  np.zeros(3))
    assert system.A.data.size == 11
    r = np.array([1.0, -2.0, 3.0])
    assert_allclose(system.precond()(r, np.zeros(3, dtype=bool)), np.linalg.solve(A, r),
                    rtol=1e-12)


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
        apply = system.precond()
        r = rng.standard_normal(n)
        assert_allclose(apply(r, np.zeros(n, dtype=bool)), spla.spsolve(sp.csc_matrix(A), r),
                        rtol=1e-12)
        # full-length contract: for r zero on the active entries, the output
        # is the reduced direct solve on the inactive entries and 0 elsewhere
        masks = [np.zeros(n, dtype=bool), np.arange(n) != n // 2, rng.random(n) < 0.5,
                 np.arange(n) % 3 != 1, np.ones(n, dtype=bool)]
        for active in masks:
            inactive = np.flatnonzero(~active)
            r = np.where(active, 0.0, rng.standard_normal(n))
            out = apply(r, active)
            assert out.shape == (n,)
            assert np.all(out[active] == 0.0)
            if inactive.size:
                reduced = sp.csc_matrix(A[inactive][:, inactive])
                assert_allclose(out[inactive],
                                np.atleast_1d(spla.spsolve(reduced, r[inactive])),
                                rtol=1e-12)


def test_each_system_has_one_preconditioner():
    # the protocol is n, b, matvec, diag, precond() and explicit(): one
    # preconditioner per system, whose apply takes the held set
    rng = np.random.default_rng(53)
    sparse = SparseObstacleSystem(block_diagonal_spd(rng, (3, 2)), np.zeros(5))
    galerkin = small_sg_system()
    for system in (sparse, galerkin):
        methods = {name for name, value in vars(type(system)).items()
                   if callable(value) and not name.startswith("_")}
        assert methods == {"matvec", "diag", "precond", "explicit"}
        assert system.b.shape == (system.n,)
    assert sparse.precond().exact


@pytest.fixture
def splu_calls(monkeypatch):
    """The sizes of the matrices that the Galerkin preconditioner factors."""
    calls = []
    real = system_module.spla.splu

    def splu(A, **kwargs):
        calls.append(A.shape[0])
        return real(A, **kwargs)

    monkeypatch.setattr(system_module.spla, "splu", splu)
    return calls


def held_columns(system, nodes):
    """The mask that holds the spatial ``nodes`` at every parameter node."""
    active = np.zeros((system.n_param, system.n_spatial), dtype=bool)
    active[:, nodes] = True
    return active.reshape(-1)


class TestTruncatedKronecker:
    """The Galerkin apply truncates K̄ at the spatial nodes held everywhere."""

    def test_mask_without_a_held_column_changes_nothing(self):
        system = small_sg_system()
        rng = np.random.default_rng(47)
        apply = system.precond()
        active = rng.random((system.n_param, system.n_spatial)) < 0.7
        active[rng.integers(system.n_param, size=system.n_spatial),
               np.arange(system.n_spatial)] = False  # one free entry per column
        r = np.where(active.ravel(), 0.0, rng.standard_normal(system.n))
        expect = apply(r, np.zeros(system.n, dtype=bool))
        assert_array_equal(apply(r, active.ravel()), expect)

    def test_held_columns_give_the_reduced_solve(self):
        # example1's modes have the mean's shape, so G̃ ⊗ K̄ is A and the
        # truncated apply is the exact solve of the free block
        system = small_sg_system()
        rng = np.random.default_rng(59)
        A = system.explicit()
        apply = system.precond()
        r = rng.standard_normal(system.n)
        assert_same_solve(apply(r, np.zeros(system.n, dtype=bool)),
                          reduced_solve(A, np.zeros(system.n, dtype=bool), r), 1e-12)
        for nodes in ([12], rng.random(system.n_spatial) < 0.4,
                      np.arange(system.n_spatial) != 7):
            active = held_columns(system, nodes)
            r = np.where(active, 0.0, rng.standard_normal(system.n))
            out = apply(r, active)
            assert np.all(out[active] == 0.0)
            assert_same_solve(out, reduced_solve(A, active, r), 1e-12)

    def test_all_columns_held_gives_zeros_without_a_factor(self, splu_calls):
        system = small_sg_system()
        apply = system.precond()
        assert splu_calls == [system.n_spatial]
        out = apply(np.ones(system.n), np.ones(system.n, dtype=bool))
        assert_array_equal(out, np.zeros(system.n))
        assert splu_calls == [system.n_spatial]

    def test_mask_sequence_matches_fresh_systems(self, splu_calls):
        # one factor lives at a time: a new set of held columns refactors,
        # another mask with the same held columns does not
        system = small_sg_system()
        rng = np.random.default_rng(61)
        first = held_columns(system, [3, 4, 12])
        also_first = first | (rng.random(system.n) < 0.3)
        also_first[:system.n_spatial] = first[:system.n_spatial]  # no other whole column
        second = held_columns(system, np.arange(system.n_spatial) % 3 == 0)
        masks = (first, also_first, second, first)
        r = rng.standard_normal(system.n)
        expect = [small_sg_system().precond()(r * ~active, active) for active in masks]
        splu_calls.clear()
        apply = system.precond()
        for active, fresh in zip(masks, expect):
            assert_array_equal(apply(r * ~active, active), fresh)
        assert splu_calls == [25, 22, 16, 22]


def block_diagonal_spd(rng, sizes):
    """A block-diagonal SPD CSR matrix with dense diagonally dominant blocks."""
    blocks = []
    for m in sizes:
        B = rng.standard_normal((m, m))
        blocks.append(0.5 * (B + B.T) + 2.0 * m * np.eye(m))
    return sp.csr_array(sp.block_diag(blocks))


def assert_same_solve(out, expect, rel=1e-13):
    """Agreement within ``rel`` relative to the max-norm of ``expect``."""
    assert np.max(np.abs(out - expect)) <= rel * np.max(np.abs(expect))


def reduced_solve(A, active, r):
    """spsolve on the inactive block of A, zero on the active entries."""
    out = np.zeros(A.shape[0])
    free = np.flatnonzero(~active)
    if free.size:
        out[free] = spla.spsolve(sp.csc_matrix(A[free][:, free]), r[free])
    return out


@pytest.fixture
def cholesky_calls(monkeypatch):
    """The number of columns of every cholesky_banded call, as they happen."""
    calls = []
    real = lcp_module.cholesky_banded

    def cholesky_banded(ab, **kwargs):
        calls.append(ab.shape[1])
        return real(ab, **kwargs)

    monkeypatch.setattr(lcp_module, "cholesky_banded", cholesky_banded)
    return calls


@pytest.fixture
def solve_calls(monkeypatch):
    """The right-hand sides of every dpbtrs call, as they happen."""
    calls = []
    real = lcp_module.dpbtrs

    def dpbtrs(ab, b, **kwargs):
        calls.append(np.array(b))
        return real(ab, b, **kwargs)

    monkeypatch.setattr(lcp_module, "dpbtrs", dpbtrs)
    return calls


def blocks_solved(calls, size):
    """The blocks of ``size`` rows that the dpbtrs ``calls`` solved: a column
    each of a shared factor's solve, ``size`` rows each of a stacked one."""
    return sum(b.shape[1] if b.ndim == 2 else b.size // size for b in calls)


def band_of(A):
    """The transposed lower band (n, depth) of the CSR matrix A, which
    stores no duplicate entries."""
    return lower_band(A.indptr, A.indices, A.data)


def given_blocks(A, b, size, scales=None, store=None):
    """The system of A, whose diagonal blocks all have ``size`` rows, with
    its band handed over as a shape per block, (blocks, size, depth)."""
    band = band_of(A)
    return SparseObstacleSystem(A, b, band.reshape(-1, size, band.shape[1]), scales, store)


class TestBandFactorReuse:
    SIZES = (5, 1, 3, 1, 1, 7, 2)  # unequal blocks, read off A as one
    SIZE, BLOCKS = 3, 7  # equal blocks, handed over as a band of one shape each

    def test_preconditioner_declares_exactness(self):
        A = block_diagonal_spd(np.random.default_rng(0), self.SIZES)
        n = A.shape[0]
        system = SparseObstacleSystem(A, np.zeros(n))
        assert system.precond().exact
        # everything held: the inactive block is empty, and its exact solve is zero
        assert_array_equal(system.precond()(np.zeros(n), np.ones(n, dtype=bool)), 0.0)
        assert not getattr(small_sg_system().precond(), "exact", False)

    def test_mask_sequence_matches_fresh_factors(self):
        rng = np.random.default_rng(59)
        A = block_diagonal_spd(rng, self.SIZES)
        n = A.shape[0]
        system = SparseObstacleSystem(A, np.zeros(n))
        masks = [np.zeros(n, dtype=bool)] + [rng.random(n) < 0.4 for _ in range(6)]
        masks += [masks[3], np.ones(n, dtype=bool), masks[1], np.zeros(n, dtype=bool)]
        for active in masks:
            r = np.where(active, 0.0, rng.standard_normal(n))
            out = system.precond()(r, active)
            fresh = SparseObstacleSystem(A, np.zeros(n)).precond()(r, active)
            assert_same_solve(out, fresh)
            assert_same_solve(out, reduced_solve(A, active, r))

    def test_earlier_solver_keeps_its_own_mask(self):
        rng = np.random.default_rng(61)
        A = block_diagonal_spd(rng, self.SIZES)
        n = A.shape[0]
        system = SparseObstacleSystem(A, np.zeros(n))
        first, second = rng.random(n) < 0.5, rng.random(n) < 0.5
        assert np.any(first != second)
        apply_first, apply_second = system.precond(), system.precond()
        for active, apply in ((second, apply_second), (first, apply_first),
                              (second, apply_second)):
            r = np.where(active, 0.0, rng.standard_normal(n))
            assert_same_solve(apply(r, active), reduced_solve(A, active, r))

    def test_only_changed_blocks_are_refactored(self, cholesky_calls):
        rng = np.random.default_rng(67)
        A = block_diagonal_spd(rng, (self.SIZE,) * self.BLOCKS)
        n = A.shape[0]
        system = given_blocks(A, np.zeros(n), self.SIZE)
        r = rng.standard_normal(n)
        active = np.zeros(n, dtype=bool)
        apply = system.precond()
        apply(r, active)
        assert cholesky_calls == [n]  # the first apply factors every block
        for block in (5, 0, 3):  # one block's set moves at a time
            active = active.copy()
            active[block * self.SIZE] = ~active[block * self.SIZE]
            apply(np.where(active, 0.0, r), active)
            assert cholesky_calls[-1] == self.SIZE
        count = len(cholesky_calls)
        assert count == 4
        for again in (system.precond(), apply):  # the same set again, by a new apply or the same
            again(np.where(active, 0.0, r), active.copy())
        assert len(cholesky_calls) == count
        # two blocks moved at once: one call on their stacked columns
        active = active.copy()
        active[[1 * self.SIZE, 6 * self.SIZE + 1]] = True
        out = apply(np.where(active, 0.0, r), active)
        assert len(cholesky_calls) == count + 1
        assert cholesky_calls[-1] == 2 * self.SIZE
        assert_same_solve(out, reduced_solve(A, active, np.where(active, 0.0, r)))

    def test_block_not_positive_definite_leaves_the_others_usable(self, cholesky_calls):
        rng = np.random.default_rng(71)
        A = block_diagonal_spd(rng, (self.SIZE,) * self.BLOCKS).tolil()
        n = A.shape[0]
        bad = 3 * self.SIZE  # the first entry of block 3
        A[bad, bad] = -1.0
        A = sp.csr_array(A)
        system = given_blocks(A, np.zeros(n), self.SIZE)
        good = np.zeros(n, dtype=bool)
        good[bad] = True  # held at the obstacle, the negative pivot is gone
        r = np.where(good, 0.0, rng.standard_normal(n))
        apply = system.precond()
        assert_same_solve(apply(r, good), reduced_solve(A, good, r))
        released = good.copy()
        released[[bad, 0]] = False, True
        with pytest.raises(np.linalg.LinAlgError):
            apply(np.where(released, 0.0, r), released)
        # the factor still holds `good`: a move of block 0 alone refactors block 0
        moved = good.copy()
        moved[0] = True
        out = apply(np.where(moved, 0.0, r), moved)
        assert cholesky_calls[-1] == self.SIZE
        assert_same_solve(out, reduced_solve(A, moved, np.where(moved, 0.0, r)))

    def test_exact_updates_take_no_conjugate_gradient_step(self, monkeypatch):
        # an exact preconditioner is the update: one apply, recorded as one
        # step at the tight target, and _pcg is never entered
        def no_pcg(*args):
            raise AssertionError("conjugate gradients on an exact system")

        monkeypatch.setattr(lcp_module, "_pcg", no_pcg)
        mesh = build_uniform_mesh((0.0, 1.0, 0.0, 1.0), 16)
        x = mesh.nodes[mesh.interior]
        system = SparseObstacleSystem(unit_stiffness(mesh), np.full(len(x), -2.0 / 256))
        obs = -0.02 - 0.05 * x[:, 0]
        tight = max(0.01 * SolverConfig().tol, 1e-13 * np.linalg.norm(system.b))
        for x0 in (None, np.zeros(len(x))):
            u, rep = active_set_solve(system, obs, SolverConfig(), x0=x0)
            assert rep.converged and rep.iterations >= 2
            assert all(r["pcg"] == 1 and r["tight"] and r["target"] == tight
                       for r in rep.trace)
            assert rep.inner_iterations == rep.iterations + (x0 is None)


class TestBlockContract:
    """A system's diagonal blocks share one size, given by its band."""

    SIZES = TestBandFactorReuse.SIZES

    def test_system_read_off_A_is_one_block(self, cholesky_calls, solve_calls):
        # unequal diagonal blocks read off A make one block of n rows: any
        # move refactors and solves all of it, in one call on n columns
        rng = np.random.default_rng(127)
        A = block_diagonal_spd(rng, self.SIZES)
        n = A.shape[0]
        system = SparseObstacleSystem(A, np.zeros(n))
        apply = system.precond()
        active = np.zeros(n, dtype=bool)
        for node in (None, 0, n - 1, n // 2):
            if node is not None:
                active = active.copy()
                active[node] = True
            r = np.where(active, 0.0, rng.standard_normal(n))
            assert_same_solve(apply(r, active), reduced_solve(A, active, r))
            assert cholesky_calls[-1] == n
        assert system._band.shape == (1, n, max(self.SIZES))
        assert len(cholesky_calls) == system.factored_blocks == len(solve_calls) == 4

    def test_band_and_scales_must_fit_the_blocks(self):
        A = block_diagonal_spd(np.random.default_rng(131), (3,) * 7)
        n = A.shape[0]
        band = band_of(A)
        with pytest.raises(ValueError, match=r"band must be \(shapes, size, depth\)"):
            SparseObstacleSystem(A, np.zeros(n), band)
        for shape in ((2, 3, -1), (1, 4, -1)):  # 6 and 4 rows do not divide 21
            with pytest.raises(ValueError, match=f"size of band must divide {n}"):
                SparseObstacleSystem(A, np.zeros(n), band[:np.prod(shape[:2])].reshape(shape))
        for scales in ((1.0,), np.ones(21)):  # one block of 21 rows, or 21 of 1
            with pytest.raises(ValueError, match="one entry per block"):
                SparseObstacleSystem(A, np.zeros(n), band.reshape(1, 3, -1), scales)
        for shapes in (None, band.reshape(7, 3, -1)):  # scales share one shape's factors
            with pytest.raises(ValueError, match="scales need a band of one shape"):
                SparseObstacleSystem(A, np.zeros(n), shapes, np.ones(7))


class TestSharedFactors:
    """Blocks that are positive multiples of one shape share its factors."""

    SIZE = 5  # the shape's rows
    SCALES = (0.5, 2.0, 1.0, 3.0)

    def scaled_system(self, scales, seed=89, store=None):
        """The block-diagonal system of the ``scales`` times one SPD shape K,
        with K's band handed over as its one shape, on ``store`` when one is
        given; returns (system, A)."""
        rng = np.random.default_rng(seed)
        K = block_diagonal_spd(rng, (self.SIZE,))
        A = sp.csr_array(sp.block_diag([c * K for c in scales]))
        band = band_of(K)[None]
        return SparseObstacleSystem(A, np.zeros(A.shape[0]), band, scales, store), A

    def check(self, system, A, copies, r0):
        """Apply ``system`` on the held set ``copies`` (one mask per copy of
        the shape) and compare with the reduced solve."""
        active = np.concatenate(copies)
        r = np.where(active, 0.0, r0[:len(active)])
        assert_same_solve(system.precond()(r, active), reduced_solve(A, active, r))

    def test_mask_sequence_matches_the_reduced_solves(self):
        system, A = self.scaled_system(self.SCALES)
        n, m = A.shape[0], self.SIZE
        rng = np.random.default_rng(97)
        one = rng.random(m) < 0.4
        masks = [np.zeros(n, dtype=bool), np.tile(one, len(self.SCALES)),
                 *(rng.random(n) < 0.4 for _ in range(4)), np.ones(n, dtype=bool),
                 np.tile(~one, len(self.SCALES))]
        apply = system.precond()
        for active in masks:
            r = np.where(active, 0.0, rng.standard_normal(n))
            out = apply(r, active)
            expect = reduced_solve(A, active, r)
            assert np.all(out[active] == 0.0)
            for k in range(len(self.SCALES)):  # block by block, at each scale
                rows = slice(k * m, (k + 1) * m)
                assert_same_solve(out[rows], expect[rows])

    def test_one_factor_per_distinct_pair(self, cholesky_calls, solve_calls):
        system, A = self.scaled_system(self.SCALES)
        n = A.shape[0]
        nothing, first = np.zeros(5, dtype=bool), np.array([True, False, False, False, False])
        r0 = np.random.default_rng(101).standard_normal(n)
        store = system._store

        # copies 0-2 hold nothing, copy 3 holds its first node: the held
        # sets are none and the first node
        self.check(system, A, [nothing, nothing, nothing, first], r0)
        assert cholesky_calls == [5 + 5]
        assert (system.factored_blocks, system.distinct_factorizations) == (4, 2)
        # copy 3 moves to a set that copies 0-2 still hold: no factorization
        self.check(system, A, [nothing] * 4, r0)
        assert cholesky_calls == [10]
        assert (system.factored_blocks, system.distinct_factorizations) == (5, 2)
        # no block holds the first node any more, yet the store keeps its
        # factor: copy 1 moving there makes none
        self.check(system, A, [nothing, first, nothing, nothing], r0)
        assert cholesky_calls == [10]
        assert (system.factored_blocks, system.distinct_factorizations) == (6, 2)
        solved = blocks_solved(solve_calls, self.SIZE)
        assert solved == 4 + 1 + 1  # only the moved blocks are solved again
        # every solved block made its pair or hit the store
        assert store.hits == solved - system.distinct_factorizations == 4
        assert store.evictions == 0 and store.peak_bytes == store.bytes > 0

    def test_one_store_shares_pairs_across_block_systems(self, cholesky_calls, solve_calls):
        # two block systems on one store, as two blocks of a Monte Carlo run:
        # one factorization per distinct pair over both
        store = lcp_module.FactorStore()
        nothing, first = np.zeros(5, dtype=bool), np.array([True, False, False, False, False])
        r0 = np.random.default_rng(109).standard_normal(5 * len(self.SCALES))
        one, A1 = self.scaled_system(self.SCALES, store=store)
        two, A2 = self.scaled_system((1.5, 0.25), store=store)
        self.check(one, A1, [nothing, first, nothing, first], r0)
        assert cholesky_calls == [5 + 5]
        self.check(two, A2, [first, nothing], r0)
        assert cholesky_calls == [10]  # both pairs are in the store
        self.check(two, A2, [first, np.array([False, False, False, True, True])], r0)
        assert cholesky_calls == [10, 5]  # only the set of the last two is new
        made = one.distinct_factorizations + two.distinct_factorizations
        assert made == 3 == len(store._factors)
        assert store.hits == blocks_solved(solve_calls, self.SIZE) - made

    def test_evicted_pair_is_made_again_bit_for_bit(self, monkeypatch):
        # a cap that holds one factor: each apply that needs two pairs
        # keeps only one, and a pair needed again is factored again; the
        # blocks here are below LAPACK's block size, so its unblocked
        # factorization gives the same bits wherever the pair is stacked
        made = []
        real = lcp_module.cholesky_banded

        def cholesky_banded(ab, **kwargs):
            made.append(real(ab, **kwargs))
            return made[-1]

        monkeypatch.setattr(lcp_module, "cholesky_banded", cholesky_banded)
        depth = band_of(self.scaled_system((1.0,))[1]).shape[1]
        store = lcp_module.FactorStore(cap=self.SIZE * depth * 8)
        nothing, first = np.zeros(5, dtype=bool), np.array([True, False, False, False, False])
        r0 = np.random.default_rng(113).standard_normal(5 * len(self.SCALES))
        one, A1 = self.scaled_system(self.SCALES, store=store)
        self.check(one, A1, [nothing, first, nothing, nothing], r0)  # none held, and the first node
        assert len(made) == 1 and store.evictions == 1
        assert list(store._factors) == [first.tobytes()]  # the set made last stays
        two, A2 = self.scaled_system((2.0,), store=store)
        self.check(two, A2, [nothing], r0)  # the evicted set of none is made again
        assert len(made) == 2 and store.evictions == 2
        assert one.distinct_factorizations + two.distinct_factorizations == 3
        assert made[1].tobytes() == made[0][:, :self.SIZE].tobytes()
        assert store.peak_bytes <= store.cap

    def test_one_shape_per_block_keys_nothing(self):
        # a band of one shape per block and no scales: each moved block is
        # factored, and no factor is kept by held set
        _, A = self.scaled_system(self.SCALES)
        system = given_blocks(A, np.zeros(A.shape[0]), self.SIZE)
        assert len(system._band) == len(self.SCALES)
        apply = system.precond()
        rng = np.random.default_rng(107)
        for active in (np.zeros(A.shape[0], dtype=bool), rng.random(A.shape[0]) < 0.4):
            r = np.where(active, 0.0, rng.standard_normal(A.shape[0]))
            assert_same_solve(apply(r, active), reduced_solve(A, active, r))
        assert system._store is None
        assert system.distinct_factorizations == system.factored_blocks > len(self.SCALES)

    @pytest.mark.parametrize("bad", [-0.5, 0.0])
    def test_scale_not_positive_raises_and_leaves_the_others_usable(self, bad,
                                                                    cholesky_calls):
        # the shape is SPD, but the copy at scale `bad` is not: it raises
        # when it has a free entry, like the failed factorization of a
        # block that is not positive definite, and leaves the store as it was
        scales = (1.0, bad, 2.0)
        store = lcp_module.FactorStore()
        system, A = self.scaled_system(scales, store=store)
        n = A.shape[0]
        rng = np.random.default_rng(103)
        good = np.zeros(n, dtype=bool)
        good[5:10] = True  # held at the obstacle, the bad copy is the identity
        r = np.where(good, 0.0, rng.standard_normal(n))
        apply = system.precond()
        out = apply(r, good)
        assert np.all(np.isfinite(out)) and np.all(out[good] == 0.0)
        assert_same_solve(out[:5], reduced_solve(A, good, r)[:5])
        calls = len(cholesky_calls)
        released = good.copy()
        released[[5, 0]] = False, True
        state = (list(store._factors), store.hits, store.bytes)
        with pytest.raises(np.linalg.LinAlgError):
            apply(np.where(released, 0.0, r), released)
        assert len(cholesky_calls) == calls  # raised before any factorization
        assert (list(store._factors), store.hits, store.bytes) == state
        # a later block system on the store finds its pairs there
        later, A_later = self.scaled_system((4.0,), store=store)
        self.check(later, A_later, [good[:5]], r)
        assert len(cholesky_calls) == calls and later.distinct_factorizations == 0
        # every block kept its factor: a move of copy 0 alone refactors it
        moved = good.copy()
        moved[0] = True
        out = apply(np.where(moved, 0.0, r), moved)
        assert cholesky_calls[-1] == self.SIZE
        expect = reduced_solve(A, moved, np.where(moved, 0.0, r))
        for rows in (slice(0, 5), slice(10, 15)):
            assert_same_solve(out[rows], expect[rows])

    def test_scales_must_match_the_copies_of_the_band(self):
        system, A = self.scaled_system(self.SCALES)
        n = A.shape[0]
        with pytest.raises(ValueError, match="one entry per block"):
            SparseObstacleSystem(A, np.zeros(n), system._band, (1.0, 2.0))
        with pytest.raises(ValueError, match="band"):
            SparseObstacleSystem(A, np.zeros(n), scales=self.SCALES)
        with pytest.raises(ValueError, match="store"):
            SparseObstacleSystem(A, np.zeros(n), system._band,
                                 store=lcp_module.FactorStore())


class TestMovedOnlySolves:
    SIZE, BLOCKS = TestBandFactorReuse.SIZE, TestBandFactorReuse.BLOCKS

    def test_only_moved_blocks_are_solved_again(self, solve_calls):
        # as in an active-set run, the right-hand side of a block depends on
        # its mask alone, so a block that keeps its mask keeps its solution
        rng = np.random.default_rng(73)
        A = block_diagonal_spd(rng, (self.SIZE,) * self.BLOCKS)
        n = A.shape[0]
        starts = np.arange(0, n, self.SIZE)
        block_of = np.arange(n) // self.SIZE
        r0 = rng.standard_normal(n)
        system = given_blocks(A, r0, self.SIZE)
        active = np.zeros(n, dtype=bool)
        apply = system.precond()
        apply(r0, active)
        assert len(solve_calls) == 1 and solve_calls[0].size == n  # every block
        solved = self.BLOCKS
        for moves in ([0], [5, 2], [], [0, 3, 4], [6], list(range(7))):
            active = active.copy()
            active[starts[moves]] = ~active[starts[moves]]
            r = np.where(active, 0.0, r0)
            count = len(solve_calls)
            out = apply(r, active)
            assert_same_solve(out, reduced_solve(A, active, r))
            if moves:  # one call on the moved blocks' stacked rows
                assert len(solve_calls) == count + 1
                assert_array_equal(solve_calls[-1], r[np.isin(block_of, moves)])
            else:
                assert len(solve_calls) == count
            solved += len(moves)
            assert blocks_solved(solve_calls, self.SIZE) == solved
        assert system.factored_blocks == solved

    def test_new_right_hand_side_under_the_same_mask_is_solved(self, solve_calls):
        rng = np.random.default_rng(79)
        A = block_diagonal_spd(rng, (self.SIZE,) * self.BLOCKS)
        n = A.shape[0]
        system = given_blocks(A, np.zeros(n), self.SIZE)
        active = rng.random(n) < 0.3
        active[-1] = False
        apply = system.precond()
        r = np.where(active, 0.0, rng.standard_normal(n))
        first = apply(r, active)
        changed = r.copy()
        changed[-1] += 1.0  # the last block's right-hand side only
        out = apply(changed, active)
        assert len(solve_calls) == 2 and solve_calls[-1].size == self.SIZE
        assert_same_solve(out, reduced_solve(A, active, changed))
        assert_array_equal(out[:-self.SIZE], first[:-self.SIZE])
        # a result changed by its caller does not change what is remembered
        out[:] = np.nan
        assert_same_solve(apply(changed, active), reduced_solve(A, active, changed))
        assert len(solve_calls) == 2
        assert system.factored_blocks == self.BLOCKS
        assert blocks_solved(solve_calls, self.SIZE) == self.BLOCKS + 1

    def test_handed_over_band_matches_the_pattern(self):
        # a band handed over as a shape per block drives the same solves as
        # the one read off A, one block
        rng = np.random.default_rng(83)
        A = block_diagonal_spd(rng, (self.SIZE,) * self.BLOCKS)
        n = A.shape[0]
        band = band_of(A)
        given = given_blocks(A, np.zeros(n), self.SIZE)
        read = SparseObstacleSystem(A, np.zeros(n))
        for active in (np.zeros(n, dtype=bool), rng.random(n) < 0.5):
            r = np.where(active, 0.0, rng.standard_normal(n))
            assert_array_equal(given.precond()(r, active), read.precond()(r, active))
        assert given._band.shape == (self.BLOCKS, self.SIZE, band.shape[1])
        assert read._band.tobytes() == given._band.tobytes()


def boolean_masked(band, held):
    """Reference of ``lcp._masked``: boolean assignment of the held rows and columns."""
    depth = band.shape[1]
    held_row = np.lib.stride_tricks.sliding_window_view(
        np.concatenate((held, np.zeros(depth - 1, dtype=bool))), depth)
    band[held_row | held[:, None]] = 0.0
    band[held, 0] = 1.0
    return band


@pytest.mark.parametrize("depth", [1, 2, 7])
def test_masked_band_equals_the_boolean_reference(depth):
    # held entries anywhere, in the last depth - 1 rows (whose band rows
    # reach past the matrix), all held and none held
    rng = np.random.default_rng(89 + depth)
    m = 40
    band = rng.standard_normal((m, depth))
    tail = np.zeros(m, dtype=bool)
    tail[m - depth:] = rng.random(depth) < 0.7
    tail[-1] = True
    masks = [rng.random(m) < p for p in (0.1, 0.5, 0.9)]
    masks += [tail, np.ones(m, dtype=bool), np.zeros(m, dtype=bool)]
    for held in masks:
        got = lcp_module._masked(band.copy(), held)
        assert_array_equal(got, boolean_masked(band.copy(), held))
        assert np.all(got[held, 0] == 1.0)


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

    def test_system_without_an_explicit_matrix_is_refused(self):
        class Implicit(SparseObstacleSystem):
            def explicit(self):
                return None

        A, b, obs = random_lcp(np.random.default_rng(13))
        with pytest.raises(ValueError, match="needs an explicit sparse matrix"):
            psor_solve(Implicit(sp.csr_array(A), b), obs)


class TestSparseSystemShapes:
    def test_non_square_matrix_rejected(self):
        with pytest.raises(ValueError, match="square"):
            SparseObstacleSystem(np.ones((2, 3)), np.ones(2))

    def test_wrong_rhs_length_rejected(self):
        with pytest.raises(ValueError, match="length"):
            SparseObstacleSystem(np.eye(3), np.ones(2))


class Unpreconditioned(SparseObstacleSystem):
    """The sparse system with an inexact identity apply: every solve runs
    conjugate gradients without a preconditioner."""

    def precond(self):
        return lambda r, active: r.copy()


class Refusing(SparseObstacleSystem):
    """The sparse system whose ``precond()`` finds A not positive definite."""

    def precond(self):
        raise np.linalg.LinAlgError("not positive definite")


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

    def test_start_that_solves_takes_no_update_whatever_it_holds(self):
        # the start gives the start residual even when ``held`` gives the
        # first set, so a solved start returns at once
        A, b, obs = random_lcp(np.random.default_rng(23))
        system = SparseObstacleSystem(sp.csr_array(A), b)
        cfg = SolverConfig(tol=1e-10)
        u, rep = active_set_solve(system, obs, cfg)
        assert rep.converged and rep.iterations > 0
        for held in (np.zeros(8, dtype=bool), np.ones(8, dtype=bool), u > obs):
            again, rep_again = active_set_solve(system, obs, cfg, x0=u, held=held)
            assert rep_again.converged and rep_again.iterations == 0
            assert again.tobytes() == np.maximum(u, obs).tobytes()

    def test_start_set_must_fit_the_system(self):
        # whether or not precond() fails
        A, b, obs = random_lcp(np.random.default_rng(23))
        for kind in (SparseObstacleSystem, Refusing):
            with pytest.raises(ValueError, match="held must have length 8"):
                active_set_solve(kind(sp.csr_array(A), b), obs, SolverConfig(),
                                 held=np.zeros(7, dtype=bool))

    def test_refused_preconditioner_leaves_even_a_solved_start_unconverged(self):
        # a precond() that raises leaves no solve to run: the start, lifted
        # onto the obstacle, comes back with its residual and no update
        A, b, obs = random_lcp(np.random.default_rng(23))
        cfg = SolverConfig(tol=1e-10)
        u, _ = active_set_solve(SparseObstacleSystem(sp.csr_array(A), b), obs, cfg)
        system = Refusing(sp.csr_array(A), b)
        assert complementarity_residual(system, u, obs) <= cfg.tol
        for x0 in (u, None):
            start, rep = active_set_solve(system, obs, cfg, x0=x0)
            assert start.tobytes() == np.maximum(obs if x0 is None else x0, obs).tobytes()
            assert not rep.converged
            assert (rep.iterations, rep.inner_iterations, rep.trace) == (0, 0, [])
            assert rep.residual == complementarity_residual(system, start, obs)
            assert rep.active_count == np.count_nonzero(start <= obs)

    def test_indefinite_system_reports_failure(self):
        # with A = diag(1, -1) the first PCG step has p.Ap = 0
        system = SparseObstacleSystem(sp.csr_array(np.diag([1.0, -1.0])),
                                      np.ones(2))
        apply = system.precond()
        _, _, ok, _ = _pcg(system.matvec, system.b.copy(), np.zeros(2),
                        lambda r: apply(r, np.zeros(2, dtype=bool)), 1e-12, 10)
        assert not ok
        _, rep = active_set_solve(system, np.zeros(2), SolverConfig())
        assert not rep.converged
        # warm-started, the banded Cholesky of the reduced system fails instead
        _, rep = active_set_solve(system, np.zeros(2), SolverConfig(),
                                  x0=np.zeros(2))
        assert not rep.converged
        assert rep.iterations == 1

    def test_failed_cold_start_ends_the_solve(self, cholesky_calls):
        # the nothing-held solve finds diag(1, -1) not positive definite; the
        # solve ends there, through the exit of a failed update, and does
        # not factor the same band again
        system = SparseObstacleSystem(sp.csr_array(np.diag([1.0, -1.0])), np.ones(2))
        _, rep = active_set_solve(system, np.zeros(2), SolverConfig())
        assert cholesky_calls == [2]
        assert not rep.converged
        assert (rep.iterations, rep.inner_iterations, rep.trace) == (0, 0, [])

    def test_indefinite_operator_stops_conjugate_gradients(self):
        # an inexact identity apply sends each solve through conjugate
        # gradients, whose first step on A = diag(1, -1) has p.Ap = 1 - 4 < 0:
        # the step fails there, cold or warm started
        system = Unpreconditioned(sp.csr_array(np.diag([1.0, -1.0])), np.array([1.0, 2.0]))
        obs = np.full(2, -1.0)
        _, rep = active_set_solve(system, obs, SolverConfig())
        assert not rep.converged
        assert (rep.iterations, rep.inner_iterations) == (0, 1)
        _, rep = solve_lcp(system, obs, SolverConfig(), x0=np.zeros(2))
        assert not rep.converged
        assert rep.iterations == 1 and rep.trace[0]["pcg"] == 1

    def test_set_repeated_after_a_tight_solve_stops_unconverged(self):
        # stagnation: the exact update on tridiag(-1, 2, -1) leaves a
        # residual of one rounding error, above tol = 1e-300, and the next
        # update would hold the same set again
        A = sp.csr_array(sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(3, 3)))
        system = SparseObstacleSystem(A, np.array([1.0, -3.0, 1.0]))
        _, rep = active_set_solve(system, np.zeros(3), SolverConfig(tol=1e-300))
        assert not rep.converged
        assert rep.iterations == len(rep.trace) == 1
        assert 0.0 < rep.residual <= 1e-15

    def test_cycle_of_tight_solves_stops_unconverged(self):
        # A = B B^T + 0.01 I is SPD but not an M-matrix: from the obstacle
        # with nothing held, the exact updates visit the empty set and two
        # sets of two entries, then come back to the empty set
        B = np.array([[-0.6, 0.5, 0.4, -0.4, -1.7], [2.5, 0.1, -1.2, -2.4, 1.4],
                      [0.3, 0.0, -1.0, -0.1, -0.4], [-2.5, 2.7, 0.4, -0.4, -1.0],
                      [-0.6, 2.4, 0.4, -1.4, 0.9]])
        A = B @ B.T + 0.01 * np.eye(5)
        b = np.array([0.5, 0.5, -0.1, -0.2, 0.2])
        obs = np.array([-0.1, -0.7, -0.5, 0.0, -0.8])
        _, rep, sets = solve_catching_sets(SparseObstacleSystem(sp.csr_array(A), b), obs,
                                           SolverConfig(), x0=obs, held=np.zeros(5, dtype=bool))
        assert not rep.converged and rep.iterations == 3
        assert [int(s.sum()) for s in sets] == [0, 2, 2] and np.any(sets[1] != sets[2])
        assert rep.residual > 0.5

    def test_cycle_after_a_loose_solve_makes_every_later_solve_tight(self):
        # the inexact identity apply: the empty set's first solve is loose,
        # one set of one entry later the iteration comes back to it, and
        # from then on every solve, that of a set not seen before included,
        # asks for the tight target
        B = np.array([[0.8, 0.0, -2.0], [0.4, -0.3, 1.6], [2.1, -0.5, 0.9]])
        A = B @ B.T + 0.01 * np.eye(3)
        b, obs = np.array([0.8, -0.1, 0.2]), np.array([-0.6, -0.3, -0.1])
        u, rep, sets = solve_catching_sets(Unpreconditioned(sp.csr_array(A), b), obs,
                                           SolverConfig(), x0=obs, held=np.zeros(3, dtype=bool))
        updates = [s for i, s in enumerate(sets) if i == 0 or np.any(s != sets[i - 1])]
        assert [int(s.sum()) for s in updates] == [0, 1, 0, 1]
        assert np.any(updates[1] != updates[3])
        tight = max(0.01 * 1e-8, 1e-13 * np.linalg.norm(b))
        assert [t["tight"] for t in rep.trace] == [False, True, True, True]
        assert rep.trace[1]["target"] > tight
        assert [t["target"] for t in rep.trace[2:]] == [tight, tight]
        assert rep.converged and rep.iterations == 4
        assert_allclose(u, brute_force_solve(A, b, obs), atol=1e-9)

    def test_conjugate_gradients_start_from_the_given_residual(self):
        # the caller passes b - A x0; the iteration stops at an absolute
        # target and returns the norm of the residual it carried
        rng = np.random.default_rng(47)
        A, b, _ = random_lcp(rng, 10)
        x0 = rng.standard_normal(10)
        x, it, ok, rnorm = _pcg(lambda v: A @ v, b - A @ x0, x0,
                                lambda r: r / np.diag(A), 1e-9, 100)
        assert ok and 0 < it <= 10 and rnorm <= 1e-9
        assert np.linalg.norm(b - A @ x) <= 1e-8

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

    @pytest.mark.parametrize("max_iter", [1, 2])
    def test_active_count_is_that_of_the_returned_iterate(self, max_iter):
        # an unconverged solve counts the set that produced u, not the set
        # that the next update would solve
        sys_ = assemble_sg(build_uniform_mesh((-1.5, 1.5, -1.5, 1.5), 12),
                           build_param_grid([Density1D.exp_uniform()] * 2, 4),
                           AffineField.build(1.0, [(1.0, 1.0, 0), (2.0, 1.0, 1)]),
                           AffineField.build(-2.0), AffineField.build(-0.05))
        u, rep = active_set_solve(sys_, sys_.obs, SolverConfig(tol=1e-8, max_iter=max_iter))
        assert not rep.converged and rep.iterations == max_iter
        assert rep.active_count == rep.trace[-1]["active"]
        assert rep.active_count == np.count_nonzero(u == sys_.obs)

    def test_conjugate_gradient_budget_is_fixed(self):
        # plain conjugate gradients need 1,329 steps on this 1,200-unknown
        # system; each solve stops at 500, whatever the size, and the
        # iteration ends there, converged only if that iterate meets tol
        class Unpreconditioned(SparseObstacleSystem):
            def precond(self):
                return lambda r, active: r

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

    @pytest.mark.parametrize("kind", ["galerkin", "sparse", "apply returns its input"])
    def test_solver_writes_only_into_its_own_arrays(self, kind):
        # read-only b, obs, x0 and held, and a preconditioner that hands
        # back r, give the same solve as writable copies, which the solve
        # leaves as they were, and one that hands back a copy of r: the
        # solver writes only into arrays that it made
        def run(frozen, warm):
            if kind == "galerkin":
                system = galerkin_system("example1-shapes")
                obs = system.obs
            else:
                A, b, obs = random_lcp(np.random.default_rng(53))
                system = SparseObstacleSystem(sp.csr_array(A), b)
                if kind == "apply returns its input":
                    apply = (lambda r, active: r) if frozen else (lambda r, active: r.copy())
                    system.precond = lambda: apply
            start = ({"x0": np.maximum(obs, 0.0) + 0.01,
                      "held": np.arange(system.n) % 3 == 0} if warm else {})
            inputs = [system.b, obs, *start.values()]
            before = [a.copy() for a in inputs]
            for a in inputs:
                a.flags.writeable = not frozen
            u, rep = active_set_solve(system, obs, SolverConfig(tol=1e-10), **start)
            assert rep.converged
            for a, was in zip(inputs, before):
                assert a.tobytes() == was.tobytes()
            return u.tobytes(), rep.trace

        for warm in (False, True):
            assert run(True, warm) == run(False, warm)

    def test_seconds_include_the_preconditioner_set_up(self):
        # precond() is part of the solve (the Galerkin system factors K̄ and
        # makes its eigenbasis there), on success and on refusal alike
        class SlowSetUp(SparseObstacleSystem):
            def precond(self):
                time.sleep(0.05)
                return super().precond()

        class SlowRefusal(SparseObstacleSystem):
            def precond(self):
                time.sleep(0.05)
                raise np.linalg.LinAlgError("not positive definite")

        A, b, obs = random_lcp(np.random.default_rng(89))
        for kind, converged in ((SlowSetUp, True), (SlowRefusal, False)):
            _, rep = active_set_solve(kind(sp.csr_array(A), b), obs, SolverConfig(tol=1e-12))
            assert rep.converged is converged
            assert rep.seconds >= 0.05

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
        assert all(set(r) == {"active", "changed", "target", "pcg", "residual", "tight"}
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
        if kind == "example2":
            # its contact set does not depend on y and its modes have the
            # mean's shape: the truncated preconditioner is exact on every set
            assert all(r["pcg"] == 1 and r["tight"] for r in rep.trace)
        else:
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
            last = rep.trace[-1]
            assert last["tight"]
            if kind == "example2":
                # the cold solve's sets hold whole columns, so each is solved
                # to the tight target whatever it asked for and none repeats;
                # the random start's first sets do not, and are solved loosely
                assert all(r["tight"] for r in rep.trace) == (x0 is None)
            else:
                # the re-solve, at the tight target, of the set that repeated
                # after a loose solve
                assert any(not r["tight"] for r in rep.trace)
                assert last["changed"] == 0
                assert last["target"] == max(0.01 * SolverConfig().tol,
                                             1e-13 * np.linalg.norm(system.b))

    @pytest.mark.parametrize("tol", [1e-8, 1e-10])
    def test_updates_pay_one_matvec_for_their_start(self, tol):
        # a conjugate gradient update takes its start residual in one matvec,
        # none when its set holds no entry off the obstacle (then lambda
        # gives it), and lambda in one more; the cold start adds its steps
        # and lambda
        system = galerkin_system("example1-shapes")
        calls = []
        matvec = system.matvec

        def counted(v):
            calls.append(1)
            return matvec(v)

        system.matvec = counted
        u, rep = active_set_solve(system, system.obs, SolverConfig(tol=tol))
        assert rep.converged and rep.iterations >= 2
        matvecs = len(calls)
        # replay the iterates: the cold start is the solve under no obstacle,
        # update k's set is the contact indicator of iterate k - 1, and the
        # iterate after k updates is the solve stopped there
        obs, d = system.obs, system.diag()
        start, free_rep = active_set_solve(system, np.full(system.n, -np.inf),
                                           SolverConfig(tol=tol))
        assert free_rep.converged and free_rep.iterations == 0
        iterate = np.maximum(start, obs)
        reused = 0
        for k in range(1, rep.iterations + 1):
            active = (matvec(iterate) - system.b - d * (iterate - obs)) > 0.0
            reused += bool(np.all(iterate[active] == obs[active]))
            iterate, _ = active_set_solve(system, obs, SolverConfig(tol=tol, max_iter=k))
        assert iterate.tobytes() == u.tobytes() and reused >= 1
        assert matvecs == rep.inner_iterations + 2 * rep.iterations + 1 - reused
        # the tight target is a hundredth of tol, far above the round-off floor
        tight = 0.01 * tol
        assert 1e-13 * np.linalg.norm(system.b) < tight
        assert rep.trace[-1]["tight"] and rep.trace[-1]["target"] == tight

    def test_held_columns_save_conjugate_gradient_steps(self):
        # the same solve with the preconditioner told that nothing is held
        # (the Kronecker apply untruncated) ends on the same set, in more steps
        system = galerkin_system("example1-shapes")
        u, rep = active_set_solve(system, system.obs, SolverConfig(tol=1e-8))
        untruncated = galerkin_system("example1-shapes")
        apply = untruncated.precond()
        nothing = np.zeros(untruncated.n, dtype=bool)
        untruncated.precond = lambda: lambda r, active: apply(r, nothing)
        v, ref = active_set_solve(untruncated, untruncated.obs, SolverConfig(tol=1e-8))
        assert rep.converged and ref.converged
        assert rep.inner_iterations < ref.inner_iterations
        assert_array_equal(u == system.obs, v == untruncated.obs)
        assert np.max(np.abs(u - v)) <= 1e-10

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

    def test_projected_sor_ignores_the_start_set(self):
        A, b, obs = random_lcp(np.random.default_rng(31))
        system = SparseObstacleSystem(sp.csr_array(A), b)
        cfg = SolverConfig(method="psor", tol=1e-12, max_iter=20_000)
        u, rep = solve_lcp(system, obs, cfg, x0=obs + 1.0)
        held, rep_held = solve_lcp(system, obs, cfg, x0=obs + 1.0, held=np.ones(8, dtype=bool))
        assert held.tobytes() == u.tobytes() and rep_held.iterations == rep.iterations

    def test_bad_config_rejected(self):
        with pytest.raises(ValueError):
            SolverConfig(method="newton")
        with pytest.raises(ValueError):
            SolverConfig(omega=2.0)
        with pytest.raises(ValueError):
            SolverConfig(tol=0.0)
