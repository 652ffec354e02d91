import numpy as np
import pytest
from numpy.testing import assert_allclose

from sgobstacle.fem import assemble_load, assemble_weighted_stiffness
from sgobstacle.fields import (AffineField, affine_factors, sample_parameters,
                               scenario_rng)
from sgobstacle.lcp import (SolverConfig, SolverNotConverged, SparseObstacleSystem,
                            active_set_solve)
from sgobstacle.mc import (MC_BLOCK_NODES, MCAccumulator, _AffineSampler, _frozen,
                           mc_run)
from sgobstacle.mesh import build_uniform_mesh
from sgobstacle.param import Density1D

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

    def test_merge_equals_single_stream(self):
        rng = np.random.default_rng(1)
        data = rng.standard_normal((100, 3))
        whole = MCAccumulator()
        for row in data:
            whole.update(row)
        left = MCAccumulator()
        right = MCAccumulator()
        for row in data[:37]:
            left.update(row)
        for row in data[37:]:
            right.update(row)
        merged = left.merge(right)
        assert merged.n == whole.n
        assert_allclose(merged.mean, whole.mean, rtol=1e-12)
        assert_allclose(merged.variance(), whole.variance(), rtol=1e-12)

    def test_merge_with_empty(self):
        acc = MCAccumulator()
        acc.update(np.array([1.0, 2.0]))
        acc.update(np.array([3.0, 4.0]))
        same = acc.merge(MCAccumulator())
        assert same.n == 2
        fresh = MCAccumulator().merge(acc)
        assert fresh.n == 2
        assert_allclose(fresh.mean, [2.0, 3.0])

    def test_variance_needs_two_samples(self):
        acc = MCAccumulator()
        acc.update(np.array([1.0]))
        with pytest.raises(ValueError):
            acc.variance()


class TestAffineSampler:
    @pytest.mark.parametrize("affine, lifted", [
        pytest.param(True, False, id="False"),
        pytest.param(True, True, id="True"),
        pytest.param(False, False, id="callable-False"),
        pytest.param(False, True, id="callable-True"),
    ])
    def test_build_matches_direct_assembly(self, affine, lifted):
        # the affine coefficient has modes on dimensions 0 and 2 but none on
        # 1; the dimension-2 shape vanishes on the left half, so that factor
        # stores explicit zeros, and so does K0 where hypotenuse couplings
        # vanish.  The callable a and f are not affine in y; frozen at each y
        # they are factored without modes.
        mesh = build_uniform_mesh(RECT, 6)
        ii = mesh.interior
        bnd = np.flatnonzero(mesh.boundary)
        g = AffineField.build(-0.1, [(0.01, lambda x: x[:, 1], 0)])
        if affine:
            a = AffineField.build(2.0, [(0.5, lambda x: x[:, 0] + x[:, 1], 0),
                                        (0.3, lambda x: np.maximum(x[:, 0] - 0.5, 0.0), 2)])
            f = AffineField.build(-1.0, [(0.5, one, 1)])
            a_at, f_at = a.evaluate, f.evaluate
        else:
            def a(x, y):
                return 2.0 + np.exp(y[0] * x[:, 0]) * y[2]

            def f(x, y):
                return np.sin(y[1] * x[:, 1]) - 1.0

            a_at, f_at = a, f

        def dirichlet(x, y):
            return x[:, 0] * y[0] - x[:, 1] * y[2]

        def sampler_at(y):
            return _AffineSampler(mesh, _frozen(a, y), _frozen(f, y), g,
                                  dirichlet if lifted else None, 3)

        if affine:
            sampler = sampler_at(None)
            assert sampler.dims == [0, 2]
            assert np.any(sampler.d0 == 0.0) and np.any(sampler.dk[1] == 0.0)
        for y in np.random.default_rng(0).uniform(0.5, 1.5, (4, 3)):
            if not affine:
                sampler = sampler_at(y)
                assert sampler.dims == []
            system, obs, boundary = sampler.build(y[None])
            K = assemble_weighted_stiffness(mesh, lambda x: a_at(x, y))
            rhs = assemble_load(mesh, lambda x: f_at(x, y))[ii]
            lift = dirichlet(mesh.nodes[bnd], y) if lifted else np.zeros(bnd.size)
            rhs -= K[ii][:, bnd] @ lift
            assert_allclose(system.A.toarray(), K[ii][:, ii].toarray(), rtol=1e-12)
            assert_allclose(system.b, rhs, rtol=1e-12)
            assert_allclose(obs, g.evaluate(mesh.nodes[ii], y), rtol=1e-12)
            assert_allclose(boundary[:, 0], lift, rtol=1e-12)

    def test_stiffness_factors_share_one_pattern(self):
        # the sampler wraps every factor's data around K0's index arrays: a
        # mode that vanishes on the left half and one that is identically
        # zero must still store the full pattern, explicit zeros included
        mesh = build_uniform_mesh(RECT, 6)
        a = AffineField.build(1.0, [(0.5, lambda x: np.maximum(x[:, 0] - 0.5, 0.0), 0),
                                    (1.0, lambda x: np.zeros(x.shape[0]), 1),
                                    (0.3, lambda x: x[:, 1], 3)])
        K_ii = affine_factors(mesh, a, AffineField.build(1.0), AffineField.build(0.0),
                              4).K_ii
        assert K_ii[3] is None
        assert np.any(K_ii[1].data == 0.0) and np.all(K_ii[2].data == 0.0)
        for K in (K_ii[1], K_ii[2], K_ii[4]):
            assert np.array_equal(K.indptr, K_ii[0].indptr)
            assert np.array_equal(K.indices, K_ii[0].indices)


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
        K = assemble_weighted_stiffness(mesh)[ii][:, ii]
        F = assemble_load(mesh, -4.0)[ii]
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
            return (x[:, 0] + x[:, 1]) * y[0]

        n = 40
        res = mc_run(mesh, fields, dens, n_samples=n, seed=3,
                     dirichlet=dirichlet, solver=SolverConfig(tol=1e-12))
        drawn = [dens[0].sample(scenario_rng(3, i), 1)[0] for i in range(n)]
        ybar = np.mean(drawn)
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

    def test_non_affine_field_uses_generic_path(self):
        # a coefficient given as a callable of (x, y) is frozen at each drawn
        # y and factored per sample; compare against the affine path at
        # matched samples
        mesh = build_uniform_mesh(RECT, 3)
        dens = (Density1D.uniform(0.5, 1.5),)
        f = AffineField.build(-2.0)
        g = AffineField.build(-10.0)
        res_gen = mc_run(mesh, {"a": lambda x, y: np.full(x.shape[0], y[0]),
                                "f": f, "g": g},
                         dens, n_samples=12, seed=7,
                         solver=SolverConfig(tol=1e-12))
        res_aff = mc_run(mesh, {"a": AffineField.build(0.0, [(1.0, one, 0)]),
                                "f": f, "g": g},
                         dens, n_samples=12, seed=7,
                         solver=SolverConfig(tol=1e-12))
        assert_allclose(res_gen.mean, res_aff.mean, rtol=1e-9)

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

    @pytest.mark.parametrize("lifted", [False, True], ids=["affine", "lifted"])
    @pytest.mark.parametrize("n_samples", [BLOCK - 3, BLOCK, 2 * BLOCK + 5],
                             ids=["below-B", "B", "not-multiple"])
    def test_block_solves_match_serial_solves(self, lifted, n_samples):
        # the reference solves every sample on its own, cold, and feeds the
        # same accumulator; the block run must agree to rounding
        mesh = self.MESH
        fields = {"a": AffineField.build(1.0, [(0.5, lambda x: x[:, 0], 0),
                                               (0.3, one, 1)]),
                  "f": AffineField.build(-6.0, [(2.0, lambda x: x[:, 1], 1)]),
                  "g": AffineField.build(-0.08, [(0.02, one, 0)])}
        dens = (Density1D.exp_uniform(), Density1D.uniform(-1.0, 1.0))

        def dirichlet(x, y):
            return 0.05 * (x[:, 0] * y[0] - x[:, 1] * y[1])

        lift = dirichlet if lifted else None
        cfg = SolverConfig(tol=1e-12)
        res = mc_run(mesh, fields, dens, n_samples, seed=11, solver=cfg, dirichlet=lift)

        sampler = _AffineSampler(mesh, fields["a"], fields["f"], fields["g"], lift, 2)
        ref = MCAccumulator()
        contact = 0
        for idx in range(n_samples):
            system, obs, boundary = sampler.build(sample_parameters(dens, 11, idx)[None])
            u, report = active_set_solve(system, obs, cfg)
            assert report.converged
            contact += report.active_count
            ref.update(mesh.full_values(u, boundary[:, 0]))
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
        negative = sum(sample_parameters(dens, 0, idx)[0] < 0.0 for idx in range(n))
        assert 0 < negative < n
        with pytest.raises(SolverNotConverged,
                           match=f"^{negative} of {n} sample solves failed"):
            mc_run(mesh, fields, dens, n_samples=n, seed=0)


class TestConvergenceRate:
    def test_standard_error_slope(self):
        # std of the mean estimate across independent seeds should scale
        # like n^(-1/2); regression over n = 2^8 .. 2^13 with 12 seeds on a
        # one-interior-node problem (measured slope -0.42)
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
                            solver=cfg).mean[center] for s in range(12)]
            stds.append(np.std(means, ddof=1))
        slope = np.polyfit(np.log2(ns), np.log2(stds), 1)[0]
        assert slope == pytest.approx(-0.5, abs=0.15)
