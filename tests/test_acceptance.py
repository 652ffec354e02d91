"""End-to-end acceptance checks for the solver pipeline.

Each test covers one acceptance criterion: convergence-table reproduction
for the two built-in problems, solver cross-validation, structural
identities of the tensor system, degeneration to classical cases,
interpolation rates, Monte Carlo consistency and the contact-set invariant.
Reference numbers are frozen; tolerances are stated next to each check.
"""

import time

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from sgobstacle.fem import P1Operator, p1_distance
from sgobstacle.fields import AffineField
from sgobstacle.lcp import (SolverConfig, SparseObstacleSystem,
                            active_set_solve, brute_force_solve,
                            complementarity_residual, psor_solve, solve_lcp)
from sgobstacle.mc import mc_run
from sgobstacle.mesh import build_uniform_mesh
from sgobstacle.param import Density1D, build_param_grid, deterministic_grid
from sgobstacle.problems import example1
from sgobstacle.runner import run_convergence, validate_config
from sgobstacle.stats import exact_statistic, sg_mean, sg_variance
from sgobstacle.system import assemble_sg


def one(x):
    return np.ones(x.shape[0])


def run_table(problem, schedule, quad_order=64):
    cfg = validate_config({
        "problem": problem,
        "mode": "sg",
        "schedule": schedule,
        "solver": {"method": "active-set", "tol": 1e-10},
        "quad_order": quad_order,
    })
    return run_convergence(cfg, write=False)


def test_criterion_1_mean_convergence_rates():
    # coefficient-random problem, parametric resolution fixed at 8 cells,
    # mesh refined through nx = 4..32; mean-field H1 orders must settle at
    # 1.0 (+-0.15) and L2 orders at 2.0 (+-0.25) over the last two steps,
    # within a five minute budget
    t0 = time.perf_counter()
    table, _ = run_table("example1",
                         {"levels": [[4, 8], [8, 8], [16, 8], [32, 8]]})

    # independent anchor: at 16 parametric cells the nx = 16 row of the
    # H1 mean error is 1.2199e-01 (reference value for this resolution,
    # 25% tolerance absorbs quadrature and boundary handling differences)
    anchor, _ = run_table("example1", {"levels": [[16, 16]]})
    elapsed = time.perf_counter() - t0
    assert elapsed <= 300.0

    e_h1_anchor = anchor.rows[0].errors["eH1m1"]
    assert e_h1_anchor == pytest.approx(1.2199e-01, rel=0.25)

    h1_orders = [row.orders["eH1m1"] for row in table.rows[1:]]
    l2_orders = [row.orders["eL2m1"] for row in table.rows[1:]]
    for order in h1_orders[-2:]:
        assert order == pytest.approx(1.0, abs=0.15)
    # the L2 mean error hits the fixed parametric resolution floor on the
    # finest meshes of this schedule, so the observed orders decay below
    # the asserted band; kept as stated and expected to fail
    for order in l2_orders[-2:]:
        assert order == pytest.approx(2.0, abs=0.25)


def test_criterion_2_coupled_schedule_errors():
    # source-random problem under the coupled refinement rule; mean L2
    # errors frozen from a reference computation, 25% relative tolerance,
    # orders 2.0 +- 0.2
    reference = (5.4709e-01, 1.3864e-01, 3.5350e-02, 8.9860e-03)
    table, _ = run_table("example2", {"coupled": {"m_min": 1, "m_max": 4}})
    assert len(table.rows) == 4
    for row, ref in zip(table.rows, reference):
        assert row.errors["eL2m1"] == pytest.approx(ref, rel=0.25)
    for row in table.rows[1:]:
        assert row.orders["eL2m1"] == pytest.approx(2.0, abs=0.2)


def test_criterion_3_second_moment_rates():
    # second-moment H1 orders at fixed parametric resolution, reference
    # pattern (0.9200, 0.9789, 0.9947) trending to 1, +-0.15
    reference = (0.9200, 0.9789, 0.9947)
    table, _ = run_table("example2",
                         {"levels": [[8, 8], [16, 8], [32, 8], [64, 8]]})
    orders = [row.orders["eH1m2"] for row in table.rows[1:]]
    for got, ref in zip(orders, reference):
        assert got == pytest.approx(ref, abs=0.15)


def test_criterion_4_lcp_solvers_match_enumeration():
    # both iterative solvers against exhaustive active-set enumeration on
    # 100 random diagonally dominant SPD 8x8 problems
    rng = np.random.default_rng(314)
    psor_cfg = SolverConfig(method="psor", tol=1e-12, max_iter=20_000)
    pdas_cfg = SolverConfig(method="active-set", tol=1e-12)
    for _ in range(100):
        A = rng.standard_normal((8, 8))
        A = 0.5 * (A + A.T) + 8.0 * np.eye(8)
        b = rng.standard_normal(8)
        obs = rng.standard_normal(8) - 0.5
        exact = brute_force_solve(A, b, obs)
        system = SparseObstacleSystem(sp.csr_array(A), b)
        u_psor, _ = psor_solve(system, obs, psor_cfg)
        u_pdas, _ = active_set_solve(system, obs, pdas_cfg)
        assert np.max(np.abs(u_psor - exact)) <= 1e-10
        assert np.max(np.abs(u_pdas - exact)) <= 1e-10
        assert complementarity_residual(system, u_psor, obs) <= 1e-10
        assert complementarity_residual(system, u_pdas, obs) <= 1e-10


def test_criterion_5_kronecker_matvec_identity():
    # factored matvec against the explicitly assembled Kronecker sum on
    # three (mesh, grid) sizes and 20 random vectors each
    rng = np.random.default_rng(2718)
    a = AffineField.build(1.0, [(1.0, one, 0), (2.0, one, 1)])
    f = AffineField.build(lambda x: x[:, 0] - 2.0, [(0.5, one, 0)])
    g = AffineField.build(0.0)
    for nx, cells in [(4, 1), (6, 2), (8, 3)]:
        mesh = build_uniform_mesh((0.0, 1.0, 0.0, 1.0), nx)
        grid = build_param_grid([Density1D.exp_uniform()] * 2, cells)
        system = assemble_sg(mesh, grid, a, f, g)
        A = system.explicit()
        for _ in range(20):
            v = rng.standard_normal(system.n)
            assert np.max(np.abs(system.matvec(v) - A @ v)) <= 1e-12


def test_criterion_6_degenerations():
    mesh = build_uniform_mesh((0.0, 1.0, 0.0, 1.0), 6)
    cfg = SolverConfig(method="active-set", tol=1e-12)

    # (a) obstacle at -1e6 reproduces the unconstrained tensor solve
    grid = build_param_grid([Density1D.exp_uniform()] * 2, 2)
    a = AffineField.build(1.0, [(1.0, one, 0), (2.0, one, 1)])
    f = AffineField.build(-2.0)
    sys_free = assemble_sg(mesh, grid, a, f, AffineField.build(-1e6))
    u_lcp, report = solve_lcp(sys_free, sys_free.obs, cfg)
    assert report.converged
    u_lin = spla.spsolve(sp.csr_matrix(sys_free.explicit()), sys_free.b)
    assert np.max(np.abs(u_lcp - u_lin)) <= 1e-8

    # (b) a single parameter node reproduces the deterministic FE obstacle
    # solution computed without any tensor machinery
    sys_det = assemble_sg(mesh, deterministic_grid(), AffineField.build(1.0),
                          AffineField.build(-8.0), AffineField.build(-0.04))
    u_sg, _ = solve_lcp(sys_det, sys_det.obs, cfg)
    ii = mesh.interior
    op = P1Operator(mesh)
    K = op.interior.csr(op.interior.data(op.integrals(one(op.points))))
    F = op.load(-8.0 * one(op.points))[ii]
    obs = np.full(len(ii), -0.04)
    u_fe, _ = active_set_solve(SparseObstacleSystem(K, F), obs, cfg)
    assert np.any(np.isclose(u_fe, -0.04))  # the obstacle binds somewhere
    assert np.max(np.abs(u_sg - u_fe)) <= 1e-10

    # (c) data constant in y gives numerically zero variance
    sys_const = assemble_sg(mesh, grid, AffineField.build(2.0),
                            AffineField.build(-8.0), AffineField.build(-0.04))
    u_const, _ = solve_lcp(sys_const, sys_const.obs, cfg)
    var = sg_variance(sys_const, u_const).values
    assert np.max(var) <= 1e-12


def test_criterion_7_interpolation_rates():
    # nodal interpolation of v = x1^2 + x1 x2: L2 error ratio 4.0 +- 0.2
    # and H1-seminorm ratio 2.0 +- 0.1 per mesh halving
    def v(x):
        return x[:, 0] ** 2 + x[:, 0] * x[:, 1]

    def v_grad(x):
        return np.column_stack([2 * x[:, 0] + x[:, 1], x[:, 0]])

    errs = {"l2": [], "h1semi": []}
    for nx in (4, 8, 16):
        mesh = build_uniform_mesh((0.0, 1.0, 0.0, 1.0), nx)
        l2, h1 = p1_distance(mesh, v(mesh.nodes), lambda x: (v(x), v_grad(x)))
        errs["l2"].append(l2)
        errs["h1semi"].append(h1)
    for e_coarse, e_fine in zip(errs["l2"], errs["l2"][1:]):
        assert e_coarse / e_fine == pytest.approx(4.0, abs=0.2)
    for e_coarse, e_fine in zip(errs["h1semi"], errs["h1semi"][1:]):
        assert e_coarse / e_fine == pytest.approx(2.0, abs=0.1)


def test_criterion_8_mc_consistency_and_timing():
    # 2^12 Monte Carlo samples at nx = 8 for the coefficient-random
    # problem: the L2 distance between MC mean and exact mean must be
    # explained by sampling noise (3 standard errors) plus discretization
    # error (1.5x the Galerkin mean error at the same mesh), and the
    # Galerkin solve must be faster end to end
    prob = example1()
    mesh = build_uniform_mesh(prob.rect, 8)
    exact_mean = exact_statistic(prob.exact, prob.densities, moment=1)

    t0 = time.perf_counter()
    res = mc_run(mesh, prob.fields, prob.densities, n_samples=4096, seed=0,
                 solver=SolverConfig(method="active-set", tol=1e-10),
                 dirichlet=prob.dirichlet)
    mc_seconds = time.perf_counter() - t0

    t1 = time.perf_counter()
    grid = build_param_grid(prob.densities, 8)
    system = assemble_sg(mesh, grid, prob.fields["a"], prob.fields["f"],
                         prob.fields["g"], dirichlet=prob.dirichlet)
    u, report = solve_lcp(system, system.obs,
                          SolverConfig(method="active-set", tol=1e-10))
    sg_seconds = time.perf_counter() - t1
    assert report.converged

    def no_gradient(x):
        return np.zeros((x.shape[0], 2))

    err_mc = p1_distance(mesh, res.mean, lambda x: (exact_mean.values(x), no_gradient(x)))[0]
    err_sg = p1_distance(mesh, sg_mean(system, u).values,
                         lambda x: (exact_mean.values(x), no_gradient(x)))[0]
    # the L2 norm of the P1 field se: the degree-5 rule integrates P1^2
    # exactly, so this is sqrt(se' M se) with M the mass matrix
    se = res.accumulator.standard_error()
    se_l2 = p1_distance(mesh, se, lambda x: (np.zeros(x.shape[0]), no_gradient(x)))[0]

    assert err_mc <= 3.0 * se_l2 + 1.5 * err_sg
    assert sg_seconds < mc_seconds


def test_criterion_9_variance_vanishes_on_contact_set():
    # the coefficient-random problem has solution identically zero inside
    # the unit disk for every parameter, so the variance there is zero up
    # to solver tolerance
    prob = example1()
    mesh = build_uniform_mesh(prob.rect, 16)
    grid = build_param_grid(prob.densities, 8)
    system = assemble_sg(mesh, grid, prob.fields["a"], prob.fields["f"],
                         prob.fields["g"], dirichlet=prob.dirichlet)
    u, report = solve_lcp(system, system.obs,
                          SolverConfig(method="active-set", tol=1e-10))
    assert report.converged
    var = sg_variance(system, u).values
    radii = np.linalg.norm(mesh.nodes, axis=1)
    contact = (radii <= 0.9) & ~mesh.boundary
    assert contact.sum() > 0
    assert np.max(var[contact]) <= 1e-8
