import numpy as np
import pytest
from numpy.testing import assert_allclose

import sgobstacle.mc as mc
from sgobstacle.fem import P1Operator
from sgobstacle.fields import AffineField, affine_factors
from sgobstacle.lcp import (SolverConfig, SolverNotConverged, SparseObstacleSystem,
                            active_set_solve)
from sgobstacle.mc import MC_BLOCK_NODES, MCAccumulator, _AffineSampler, mc_run
from sgobstacle.mesh import build_uniform_mesh
from sgobstacle.param import Density1D, draw
from sgobstacle.problems import get_problem

RECT = (0.0, 1.0, 0.0, 1.0)


def one(x):
    return np.ones(x.shape[0])


class TestAccumulator:
    def test_matches_batch_moments(self):
        rng = np.random.default_rng(0)
        data = rng.standard_normal((137, 4))
        acc = MCAccumulator()
        for row in data:
            acc.update(row)
        assert acc.n == 137
        assert_allclose(acc.mean, data.mean(axis=0), rtol=1e-12)
        assert_allclose(acc.variance(), data.var(axis=0, ddof=1), rtol=1e-12)
        assert_allclose(acc.standard_error(),
                        data.std(axis=0, ddof=1) / np.sqrt(137), rtol=1e-12)

    @pytest.mark.parametrize("block", [1, 7, 37, 100])
    def test_blocks_match_batch_moments(self, block):
        # the same rows in blocks of any size give the batch mean and variance
        data = np.random.default_rng(1).standard_normal((100, 3)) + 5.0
        acc = MCAccumulator()
        for start in range(0, len(data), block):
            acc.update(data[start:start + block])
        assert acc.n == len(data)
        assert_allclose(acc.mean, np.mean(data, axis=0), rtol=1e-12)
        assert_allclose(acc.variance(), np.var(data, axis=0, ddof=1), rtol=1e-12)

    def test_variance_needs_two_samples(self):
        acc = MCAccumulator()
        acc.update(np.array([1.0]))
        with pytest.raises(ValueError):
            acc.variance()


def direct_sample_system(mesh, a_at, f_at, dirichlet, y):
    """One sample system assembled directly at y, from the operator's blocks
    at the point values of a and f: interior K, lifted load and the
    boundary values."""
    op = P1Operator(mesh)
    bnd = np.flatnonzero(mesh.boundary)
    integrals = op.integrals(a_at(op.points, y))
    K = op.interior.csr(op.interior.data(integrals))
    K_ib = op.coupling.csr(op.coupling.data(integrals))
    rhs = op.load(f_at(op.points, y))[mesh.interior]
    lift = np.zeros(bnd.size) if dirichlet is None else dirichlet(mesh.nodes[bnd], y)
    return K, rhs - K_ib @ lift, lift


class TestAffineSampler:
    @pytest.mark.parametrize("affine, lifted", [
        pytest.param(True, False, id="False"),
        pytest.param(True, True, id="True"),
        pytest.param(False, False, id="callable-False"),
        pytest.param(False, True, id="callable-True"),
    ])
    def test_build_matches_direct_assembly(self, affine, lifted):
        # the affine coefficient has modes on dimensions 0 and 2 but none on
        # 1; the dimension-2 shape vanishes on the left half.  The callable a
        # and f are not affine in y.  One build of four rows must hold each
        # row's directly assembled system as its diagonal block.
        mesh = build_uniform_mesh(RECT, 6)
        ii = mesh.interior
        n = ii.size
        g = AffineField.build(-0.1, [(0.01, lambda x: x[:, 1], 0)])
        if affine:
            a = AffineField.build(2.0, [(0.5, lambda x: x[:, 0] + x[:, 1], 0),
                                        (0.3, lambda x: np.maximum(x[:, 0] - 0.5, 0.0), 2)])
            f = AffineField.build(-1.0, [(0.5, one, 1)])
            a_at, f_at = a.evaluate, f.evaluate
        else:
            def a(x, y):
                return 2.0 + np.exp(y[..., 0, None] * x[:, 0]) * y[..., 2, None]

            def f(x, y):
                return np.sin(y[..., 1, None] * x[:, 1]) - 1.0

            a_at, f_at = a, f

        def dirichlet(x, y):
            return x[:, 0] * y[..., 0, None] - x[:, 1] * y[..., 2, None]

        lift = dirichlet if lifted else None
        sampler = _AffineSampler(mesh, a, f, g, lift, 3)
        Y = np.random.default_rng(0).uniform(0.5, 1.5, (4, 3))
        system, obs, boundary = sampler.build(Y)
        A = system.A.toarray()
        assert A.shape == (4 * n, 4 * n) and obs.shape == (4 * n,)
        assert boundary.shape == (4, mesh.n_nodes - n)
        for j, y in enumerate(Y):
            rows = slice(j * n, (j + 1) * n)
            K, rhs, bvals = direct_sample_system(mesh, a_at, f_at, lift, y)
            assert_allclose(A[rows, rows], K.toarray(), rtol=1e-12)
            assert not np.any(np.delete(A[rows], np.arange(j * n, (j + 1) * n), axis=1))
            assert_allclose(system.b[rows], rhs, rtol=1e-12)
            assert_allclose(obs[rows], g.evaluate(mesh.nodes[ii], y), rtol=1e-12)
            assert_allclose(boundary[j], bvals, rtol=1e-12)
        # the affine coefficient has no mode on dimension 1, the callable one
        # does not read y[..., 1]: moving it moves the load, not the matrix
        moved = Y.copy()
        moved[:, 1] += 0.25
        again, _, _ = sampler.build(moved)
        assert_allclose(again.A.toarray(), A, rtol=0, atol=0)
        assert not np.allclose(again.b, system.b)

    def test_stiffness_factors_share_one_pattern(self):
        # the factor rows are the stored entries of the interior pattern: a
        # mode that vanishes on the left half and one that is identically
        # zero keep the full pattern, explicit zeros included, and a
        # dimension without modes has a zero row
        mesh = build_uniform_mesh(RECT, 6)
        op = P1Operator(mesh)
        shapes = {1: lambda x: 0.5 * np.maximum(x[:, 0] - 0.5, 0.0),
                  2: lambda x: np.zeros(x.shape[0]), 4: lambda x: 0.3 * x[:, 1]}
        a = AffineField.build(1.0, [(1.0, shapes[k], k - 1) for k in shapes])
        K_ii = affine_factors(op, a, AffineField.build(1.0), AffineField.build(0.0),
                              4).K_ii
        assert K_ii.shape == (5, op.interior.indices.size)
        assert not np.any(K_ii[3]) and not np.any(K_ii[2]) and np.any(K_ii[1] == 0.0)
        for k, shape in [(0, None), *shapes.items()]:
            K = op.interior.csr(K_ii[k])
            assert K.nnz == op.interior.indices.size
            values = one(op.points) if shape is None else shape(op.points)
            direct = op.interior.csr(op.interior.data(op.integrals(values)))
            assert_allclose(K.toarray(), direct.toarray(), rtol=1e-12, atol=1e-15)


class TestMCRun:
    def test_deterministic_in_seed(self):
        mesh = build_uniform_mesh(RECT, 3)
        fields = {"a": AffineField.build(1.0, [(1.0, one, 0)]),
                  "f": AffineField.build(-1.0),
                  "g": AffineField.build(-0.02)}
        dens = (Density1D.exp_uniform(),)
        r1 = mc_run(mesh, fields, dens, n_samples=16, seed=5)
        r2 = mc_run(mesh, fields, dens, n_samples=16, seed=5)
        r3 = mc_run(mesh, fields, dens, n_samples=16, seed=6)
        assert_allclose(r1.mean, r2.mean, rtol=0)
        assert not np.allclose(r1.mean, r3.mean)

    def test_y_independent_fields_reproduce_deterministic_solution(self):
        # constant fields make every sample identical: zero variance and the
        # mean equals one deterministic obstacle solve
        mesh = build_uniform_mesh(RECT, 5)
        fields = {"a": AffineField.build(1.0),
                  "f": AffineField.build(-4.0),
                  "g": AffineField.build(-0.05)}
        dens = (Density1D.exp_uniform(),)
        cfg = SolverConfig(tol=1e-12)
        res = mc_run(mesh, fields, dens, n_samples=24, seed=0, solver=cfg)
        assert res.n_failed == 0
        assert np.max(res.variance()) <= 1e-12

        ii = mesh.interior
        op = P1Operator(mesh)
        K = op.interior.csr(op.interior.data(op.integrals(one(op.points))))
        F = op.load(-4.0 * one(op.points))[ii]
        obs = np.full(len(ii), -0.05)
        u, _ = active_set_solve(SparseObstacleSystem(K, F), obs, cfg)
        assert_allclose(res.mean[ii], u, atol=1e-11)
        assert np.any(np.isclose(u, -0.05))  # obstacle really active

    def test_boundary_data_enters_mean(self):
        # harmonic per-sample solution (x1 + x2) * y: the accumulated mean at
        # any node is (x1 + x2) times the average of the drawn parameters
        mesh = build_uniform_mesh(RECT, 4)
        fields = {"a": AffineField.build(1.0),
                  "f": AffineField.build(0.0),
                  "g": AffineField.build(-1e6)}
        dens = (Density1D.exp_uniform(),)

        def dirichlet(x, y):
            return (x[:, 0] + x[:, 1]) * y[..., 0, None]

        n = 40
        res = mc_run(mesh, fields, dens, n_samples=n, seed=3,
                     dirichlet=dirichlet, solver=SolverConfig(tol=1e-12))
        ybar = np.mean(draw(dens, np.random.default_rng(3), n))
        corner = np.flatnonzero((mesh.nodes[:, 0] == 1.0)
                                & (mesh.nodes[:, 1] == 1.0))[0]
        center = np.flatnonzero((mesh.nodes[:, 0] == 0.5)
                                & (mesh.nodes[:, 1] == 0.5))[0]
        assert res.mean[corner] == pytest.approx(2.0 * ybar, rel=1e-10)
        assert res.mean[center] == pytest.approx(1.0 * ybar, rel=1e-10)

    def test_failed_samples_raise(self):
        mesh = build_uniform_mesh(RECT, 4)
        fields = {"a": AffineField.build(1.0, [(1.0, one, 0)]),
                  "f": AffineField.build(-2.0),
                  "g": AffineField.build(-10.0)}
        dens = (Density1D.exp_uniform(),)
        starved = SolverConfig(method="psor", tol=1e-14, max_iter=1)
        with pytest.raises(RuntimeError):
            mc_run(mesh, fields, dens, n_samples=8, seed=0, solver=starved)

    def test_non_affine_field_uses_generic_path(self, monkeypatch):
        # a coefficient given as a callable of (x, y) is evaluated at each
        # drawn y; compare against the affine path at matched samples
        mesh = build_uniform_mesh(RECT, 3)
        dens = (Density1D.uniform(0.5, 1.5),)
        f = AffineField.build(-2.0)
        g = AffineField.build(-10.0)
        res_gen = mc_run(mesh, {"a": lambda x, y: y[..., 0, None] + 0.0 * x[:, 0],
                                "f": f, "g": g},
                         dens, n_samples=12, seed=7,
                         solver=SolverConfig(tol=1e-12))
        res_aff = mc_run(mesh, {"a": AffineField.build(0.0, [(1.0, one, 0)]),
                                "f": f, "g": g},
                         dens, n_samples=12, seed=7,
                         solver=SolverConfig(tol=1e-12))
        assert_allclose(res_gen.mean, res_aff.mean, rtol=1e-9)

        # the paper's examples with y = exp(xi): affine in y (exp) and a
        # callable of xi (xi) draw the same samples, solved in blocks of
        # MC_BLOCK_NODES // I samples on both paths
        solves = []

        def counted(system, obs, config, x0=None):
            solves.append(obs.size // mesh.interior.size)
            return solve_lcp(system, obs, config, x0=x0)

        solve_lcp = mc.solve_lcp
        monkeypatch.setattr(mc, "solve_lcp", counted)
        block = MC_BLOCK_NODES // 49  # I = 49 on the 8 x 8 meshes
        n = block + 17
        for name in ("example1", "example2"):
            means = {}
            for parameterization in ("exp", "xi"):
                prob = get_problem(name, parameterization)
                mesh = build_uniform_mesh(prob.rect, 8)
                solves.clear()
                res = mc_run(mesh, prob.fields, prob.densities, n, seed=5,
                             solver=SolverConfig(tol=1e-12), dirichlet=prob.dirichlet)
                assert res.n_failed == 0 and solves == [block, n - block]
                means[parameterization] = res.mean
            assert np.max(np.abs(means["exp"])) > 0.01
            assert_allclose(means["xi"], means["exp"], rtol=0, atol=1e-12)

    def test_timings_reported(self):
        mesh = build_uniform_mesh(RECT, 3)
        fields = {"a": AffineField.build(1.0), "f": AffineField.build(1.0),
                  "g": AffineField.build(-10.0)}
        res = mc_run(mesh, fields, (Density1D.exp_uniform(),), n_samples=4,
                     seed=0, solver=SolverConfig(method="psor", tol=1e-10))
        assert set(res.timings) == {"setup", "samples"}
        assert res.timings["samples"] > 0.0
        assert res.solver_iterations >= 4  # at least one sweep per sample


class TestBlocks:
    MESH = build_uniform_mesh(RECT, 8)  # I = 49 interior nodes
    BLOCK = MC_BLOCK_NODES // 49

    @pytest.mark.parametrize("affine, lifted", [
        pytest.param(True, False, id="affine"),
        pytest.param(True, True, id="lifted"),
        pytest.param(False, False, id="callable"),
        pytest.param(False, True, id="callable-lifted"),
    ])
    @pytest.mark.parametrize("n_samples", [BLOCK - 3, BLOCK, 2 * BLOCK + 5],
                             ids=["below-B", "B", "not-multiple"])
    def test_block_solves_match_serial_solves(self, affine, lifted, n_samples):
        # the reference assembles and solves every sample on its own, cold,
        # and feeds the same accumulator; the block run must agree to
        # rounding.  The callable a and f are not affine in y.
        mesh = self.MESH
        g = AffineField.build(-0.08, [(0.02, one, 0)])
        if affine:
            a = AffineField.build(1.0, [(0.5, lambda x: x[:, 0], 0), (0.3, one, 1)])
            f = AffineField.build(-6.0, [(2.0, lambda x: x[:, 1], 1)])
            a_at, f_at = a.evaluate, f.evaluate
        else:
            def a(x, y):
                return 1.0 + 0.5 * np.exp(y[..., 1, None] * x[:, 0]) * y[..., 0, None]

            def f(x, y):
                return -6.0 + 2.0 * np.sin(3.0 * y[..., 1, None] * x[:, 1])

            a_at, f_at = a, f
        dens = (Density1D.exp_uniform(), Density1D.uniform(-1.0, 1.0))

        def dirichlet(x, y):
            return 0.05 * (x[:, 0] * y[..., 0, None] - x[:, 1] * y[..., 1, None])

        lift = dirichlet if lifted else None
        cfg = SolverConfig(tol=1e-12)
        res = mc_run(mesh, {"a": a, "f": f, "g": g}, dens, n_samples, seed=11,
                     solver=cfg, dirichlet=lift)

        ref = MCAccumulator()
        contact = 0
        for y in draw(dens, np.random.default_rng(11), n_samples):
            K, rhs, bvals = direct_sample_system(mesh, a_at, f_at, lift, y)
            obs = g.evaluate(mesh.nodes[mesh.interior], y)
            u, report = active_set_solve(SparseObstacleSystem(K, rhs), obs, cfg)
            assert report.converged
            contact += report.active_count
            ref.update(mesh.full_values(u, bvals))
        assert contact > 0  # the obstacle really binds
        assert res.n_failed == 0 and res.accumulator.n == n_samples
        assert_allclose(res.mean, ref.mean, rtol=0, atol=1e-12)
        assert_allclose(res.variance(), ref.variance(), rtol=0, atol=1e-12)

    def test_failures_counted_per_sample(self):
        # a = y0 with y0 ~ uniform(-0.2, 1): a negative draw makes one sample
        # system negative definite inside a block of good ones; the block
        # fails and its samples are solved again one by one
        mesh = build_uniform_mesh(RECT, 6)
        dens = (Density1D.uniform(-0.2, 1.0),)
        fields = {"a": AffineField.build(0.0, [(1.0, one, 0)]),
                  "f": AffineField.build(2.0),
                  "g": AffineField.build(-10.0)}
        n = 100
        negative = np.sum(draw(dens, np.random.default_rng(0), n) < 0.0)
        assert 0 < negative < n
        with pytest.raises(SolverNotConverged,
                           match=f"^{negative} of {n} sample solves failed"):
            mc_run(mesh, fields, dens, n_samples=n, seed=0)


class TestConvergenceRate:
    def test_standard_error_slope(self):
        # std of the mean estimate across independent seeds should scale
        # like n^(-1/2); regression over n = 2^8 .. 2^13 with 48 seeds on a
        # one-interior-node problem (measured slope -0.568; with 12 seeds
        # the slope moves by about 0.1 from one seed set to the next)
        mesh = build_uniform_mesh(RECT, 2)
        fields = {"a": AffineField.build(1.0, [(1.0, one, 0)]),
                  "f": AffineField.build(1.0),
                  "g": AffineField.build(-10.0)}
        dens = (Density1D.exp_uniform(),)
        cfg = SolverConfig(method="psor", omega=1.0, tol=1e-12)
        center = 4  # the single interior node of the 3x3 node grid

        ns = [1 << m for m in range(8, 14)]
        stds = []
        for n in ns:
            means = [mc_run(mesh, fields, dens, n_samples=n, seed=s,
                            solver=cfg).mean[center] for s in range(48)]
            stds.append(np.std(means, ddof=1))
        slope = np.polyfit(np.log2(ns), np.log2(stds), 1)[0]
        assert slope == pytest.approx(-0.5, abs=0.15)
