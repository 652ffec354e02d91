import gc
import tracemalloc
import weakref

import numpy as np
import pytest
from numpy.testing import assert_allclose

import sgobstacle.lcp as lcp
import sgobstacle.mc as mc
from sgobstacle.fem import Block, P1Operator
from sgobstacle.fields import AffineField, affine_factors
from sgobstacle.lcp import (FactorStore, SolverConfig, SolverNotConverged,
                            SparseObstacleSystem, active_set_solve, lower_band)
from sgobstacle.mc import MC_BLOCK_NODES, MCAccumulator, _AffineSampler, mc_run
from sgobstacle.mesh import build_uniform_mesh
from sgobstacle.param import Density1D, draw
from sgobstacle.problems import get_problem
from sgobstacle.runner import validate_config

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

    def test_block_of_one_sample_has_no_variance(self):
        # a block of one sample, as the first Monte Carlo block is, has no
        # sample variance and no standard error; a second block gives both
        acc = MCAccumulator()
        acc.update(np.ones((1, 5)))
        assert acc.n == 1
        for moment in (acc.variance, acc.standard_error):
            with pytest.raises(ValueError, match="two samples"):
                moment()
        acc.update(np.zeros((1, 5)))
        assert_allclose(acc.variance(), np.full(5, 0.5), rtol=1e-15)


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
    @pytest.mark.parametrize("lifted", [False, True])
    def test_build_matches_direct_assembly(self, lifted):
        # the coefficient has modes on dimensions 0 and 2 but none on 1; the
        # dimension-2 shape vanishes on the left half.  One build of four
        # rows must hold each row's directly assembled system as its
        # diagonal block.
        mesh = build_uniform_mesh(RECT, 6)
        ii = mesh.interior
        n = ii.size
        g = AffineField.build(-0.1, [(0.01, lambda x: x[:, 1], 0)])
        a = AffineField.build(2.0, [(0.5, lambda x: x[:, 0] + x[:, 1], 0),
                                    (0.3, lambda x: np.maximum(x[:, 0] - 0.5, 0.0), 2)])
        f = AffineField.build(-1.0, [(0.5, one, 1)])
        a_at, f_at = a.evaluate, f.evaluate

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
        # the coefficient has no mode on dimension 1: moving it moves the
        # load, not the matrix
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


    @pytest.mark.parametrize("name, parameterization",
                             [("example1", "exp"), ("example2", "exp")])
    def test_band_matches_the_block_pattern(self, name, parameterization):
        # the paper's examples fold to one stiffness shape: each block hands
        # over the band of that shape, made once per run, as its one shape,
        # and each sample's scale, and the scaled band is the one read off
        # the sample's block of the CSR matrix; the problem comes from a
        # Monte Carlo config
        prob = validate_config({"problem": name, "parameterization": parameterization,
                                "mode": "mc", "schedule": {"levels": [[8, 1]]},
                                "solver": {}}).problem
        mesh = build_uniform_mesh(prob.rect, 8)
        n = mesh.interior.size
        sampler = _AffineSampler(mesh, prob.fields["a"], prob.fields["f"], prob.fields["g"],
                                 prob.dirichlet, len(prob.densities))
        assert sampler.band is not None
        rng = np.random.default_rng(13)
        for B in (18, 12, 1):
            system, _, _ = sampler.build(draw(prob.densities, rng, B))
            assert system._band.shape == sampler.band.shape
            assert np.shares_memory(system._band, sampler.band)
            assert system._scales.shape == (B,) and np.all(system._scales > 0.0)
            for j in range(B):
                rows = slice(j * n, (j + 1) * n)
                A = system.A[rows][:, rows]
                band = lower_band(A.indptr, A.indices, A.data)
                assert_allclose(system._scales[j] * sampler.band[0], band, rtol=1e-14,
                                atol=1e-14 * np.abs(band).max())

    @pytest.mark.parametrize("case, folds", [("example1", True), ("example2", True),
                                             ("hard", False), ("direct", False),
                                             ("nearly", False)])
    def test_stiffness_folds_to_one_shape_where_the_modes_have_the_means(self, case, folds):
        # example1 (a = 1 + y1 + 2 y2) and example2 (a = 1) fold; the hard
        # shapes 1 + 0.5 x1 and 1 - 0.3 x2, the coefficient of
        # test_build_matches_direct_assembly and example1's with a first
        # mode of shape 1 + 1e-6 x1, off the mean's by far more than
        # rounding, do not, and their blocks scatter each sample's band
        mesh = build_uniform_mesh(RECT, 6)
        f, g, n_dims = AffineField.build(-1.0), AffineField.build(-0.1), 2
        if case == "hard":
            a = AffineField.build(1.0, [(1.0, lambda x: 1.0 + 0.5 * x[:, 0], 0),
                                        (2.0, lambda x: 1.0 - 0.3 * x[:, 1], 1)])
        elif case == "nearly":
            a = AffineField.build(1.0, [(1.0, lambda x: 1.0 + 1e-6 * x[:, 0], 0), (2.0, 1.0, 1)])
        elif case == "direct":
            a = AffineField.build(2.0, [(0.5, lambda x: x[:, 0] + x[:, 1], 0),
                                        (0.3, lambda x: np.maximum(x[:, 0] - 0.5, 0.0), 2)])
            n_dims = 3
        else:
            a = get_problem(case).fields["a"]
        sampler = _AffineSampler(mesh, a, f, g, None, n_dims)
        assert (sampler.band is not None) == folds
        Y = np.random.default_rng(5).uniform(0.5, 1.5, (3, n_dims))
        system, _, _ = sampler.build(Y)
        assert (system._scales is not None) == folds
        if folds:
            assert_allclose(system._scales, np.column_stack((np.ones(3), Y)) @ sampler.ratios,
                            rtol=0)
        else:  # the scattered band, a shape per sample, is the one read off the CSR matrix
            band = lower_band(system.A.indptr, system.A.indices, system.A.data)
            assert system._band.shape == (3, mesh.interior.size, band.shape[1])
            assert system._band.tobytes() == band.tobytes()


class TestMCRun:
    def test_outputs_and_counts_are_kept(self, monkeypatch):
        # example1 at nx = 8: the mean and variance of 96 samples, recorded
        # before the band map and the moved-only solves; a sample is solved
        # once per factorization, a column of a shared factor's solve each
        columns = []
        dpbtrs = lcp.dpbtrs

        def counted(ab, b, **kwargs):
            columns.append(b.shape[1])
            return dpbtrs(ab, b, **kwargs)

        monkeypatch.setattr(lcp, "dpbtrs", counted)
        prob = get_problem("example1")
        mesh = build_uniform_mesh(prob.rect, 8)
        res = mc_run(mesh, prob.fields, prob.densities, 96, seed=7, dirichlet=prob.dirichlet)
        w = np.arange(1, mesh.n_nodes + 1)
        var = res.variance()
        assert_allclose([res.mean.sum(), w @ res.mean, var.sum(), w @ var, var.max()],
                        [4.175298227808935, 171.18722734016632, 0.061146268762498894,
                         2.506997019262455, 0.0063809980265574166], rtol=1e-12)
        assert res.n_failed == 0
        assert sum(columns) == res.sample_factorizations > 96

    def test_capped_store_keeps_the_run(self, monkeypatch):
        # a factor store that holds one factor evicts pairs and makes them
        # again, yet the run takes the same path to the same moments; with
        # example1's fields and the constant obstacle -0.05 the contact set
        # moves from sample to sample, so evicted pairs come back
        prob = get_problem("example1")
        mesh = build_uniform_mesh(prob.rect, 8)
        fields = dict(prob.fields, g=AffineField.build(-0.05))

        def run():
            return mc_run(mesh, fields, prob.densities, 96, seed=7)

        def path(res):
            return res.solver_iterations, res.sample_factorizations, res.n_failed

        free = run()
        one = _AffineSampler(mesh, fields["a"], fields["f"], fields["g"], None,
                             len(prob.densities)).band.nbytes
        monkeypatch.setattr(mc, "MC_FACTOR_BYTES", one)
        capped = run()
        assert path(capped) == path(free)
        assert capped.store_evictions > 0 == free.store_evictions
        assert capped.distinct_factorizations > free.distinct_factorizations
        assert capped.store_peak_bytes == one < free.store_peak_bytes
        for res in (free, capped):
            assert res.store_hits + res.distinct_factorizations == res.sample_factorizations
        assert_allclose(capped.mean, free.mean, rtol=0, atol=1e-15)
        assert_allclose(capped.variance(), free.variance(), rtol=0, atol=1e-15)

    def test_samples_start_from_the_set_of_the_nearest_row(self, monkeypatch):
        # after the cold first block, each sample's first update holds the
        # final set (u on the obstacle) of the nearest parameter row among
        # the previous block's first rows of each distinct final set;
        # start_sets_kept counts the samples whose final set is that set
        calls = []

        def recorded(system, obs, config, x0=None, held=None):
            u, report = solve_lcp(system, obs, config, x0=x0, held=held)
            calls.append((held, u <= obs))
            return u, report

        solve_lcp = mc.solve_lcp
        monkeypatch.setattr(mc, "solve_lcp", recorded)
        prob = get_problem("example1")
        mesh = build_uniform_mesh(prob.rect, 8)
        fields = dict(prob.fields, g=AffineField.build(-0.05))  # a moving contact set
        res = mc_run(mesh, fields, prob.densities, 40, seed=7)
        assert res.n_failed == 0 and res.blocks == len(calls) == 6  # 1, 2, 4, 8, 16 and 9
        Y = np.split(draw(prob.densities, np.random.default_rng(7), 40), [1, 3, 7, 15, 31])
        assert calls[0][0] is None
        kept = 0
        for Y_prev, (_, final), Y_now, (held, now) in zip(Y, calls, Y[1:], calls[1:]):
            first = {}  # each distinct final set and its first row
            for y, row in zip(Y_prev, final.reshape(len(Y_prev), -1)):
                first.setdefault(row.tobytes(), (y, row))
            for y, start, end in zip(Y_now, held.reshape(len(Y_now), -1),
                                     now.reshape(len(Y_now), -1)):
                nearest = min(first.values(), key=lambda pair: np.sum((pair[0] - y) ** 2))
                assert np.array_equal(start, nearest[1])
                kept += np.array_equal(start, end)
        assert 0 < res.start_sets_kept == kept < 39

    def test_start_sets_keep_a_run_of_tiny_samples_small(self):
        # at I = 1 a block holds MC_BLOCK_NODES samples; the next block's
        # rows find their start sets among the distinct final sets of the
        # previous block, not in a table of every pair of rows
        mesh = build_uniform_mesh(RECT, 2)
        fields = {"a": AffineField.build(1.0, [(1.0, one, 0)]),
                  "f": AffineField.build(-1.0),
                  "g": AffineField.build(-0.04)}  # binds at some samples only
        n = 2 * MC_BLOCK_NODES + 1
        tracemalloc.start()
        try:
            res = mc_run(mesh, fields, (Density1D.exp_uniform(),), n, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.n_failed == 0 and 0 < res.start_sets_kept < n - 1
        assert peak < 16 * 2 ** 20

    def test_run_frees_its_factor_store(self, monkeypatch):
        # the store can hold hundreds of MB, so it goes with its run and
        # does not wait for the cyclic garbage collector; the run is one
        # whose samples hit the store
        stores = []

        def tracked(*args):
            stores.append(FactorStore(*args))
            return stores[-1]

        monkeypatch.setattr(mc, "FactorStore", tracked)
        prob = get_problem("example1")
        mesh = build_uniform_mesh(prob.rect, 8)
        gc.disable()
        try:
            res = mc_run(mesh, prob.fields, prob.densities, 96, seed=7, dirichlet=prob.dirichlet)
            refs = [weakref.ref(store) for store in stores]
            stores.clear()
        finally:
            gc.enable()
        assert res.store_hits > 0 and refs and all(ref() is None for ref in refs)

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

    def test_block_sizes_double_up_to_the_cap(self, monkeypatch):
        # the paper's examples: the first block holds one sample and each
        # next one twice as many, up to MC_BLOCK_NODES // I samples, the last
        # block holding the rest
        solves = []

        def counted(system, obs, config, x0=None, held=None):
            solves.append(obs.size // mesh.interior.size)
            return solve_lcp(system, obs, config, x0=x0, held=held)

        solve_lcp = mc.solve_lcp
        monkeypatch.setattr(mc, "solve_lcp", counted)
        cap = MC_BLOCK_NODES // 49  # I = 49 on the 8 x 8 meshes
        doubling = [1 << k for k in range(cap.bit_length()) if 1 << k < cap]
        schedule = doubling + [cap, 17]
        for name in ("example1", "example2"):
            prob = get_problem(name)
            mesh = build_uniform_mesh(prob.rect, 8)
            solves.clear()
            res = mc_run(mesh, prob.fields, prob.densities, sum(schedule), seed=5,
                         solver=SolverConfig(tol=1e-12), dirichlet=prob.dirichlet)
            assert res.n_failed == 0 and solves == schedule
            assert res.blocks == len(schedule)
            assert np.max(np.abs(res.mean)) > 0.01
        # below the cap, by either solver: 19 samples of example1 at nx = 16
        # make blocks of 1, 2, 4, 8 and 4; projected SOR factors nothing,
        # and the active set method brings every sample to a set at least once
        prob = get_problem("example1")
        mesh = build_uniform_mesh(prob.rect, 16)
        for method in ("active-set", "psor"):
            solves.clear()
            res = mc_run(mesh, prob.fields, prob.densities, 19, seed=0,
                         solver=SolverConfig(method=method, omega=1.7, tol=1e-8, max_iter=2000),
                         dirichlet=prob.dirichlet)
            assert res.n_failed == 0 and solves == [1, 2, 4, 8, 4]
            assert np.all(np.isfinite(res.mean)) and np.all(np.isfinite(res.variance()))
            if method == "psor":
                assert res.sample_factorizations == 0
            else:
                assert res.sample_factorizations >= 19

    def test_block_pattern_is_built_once_per_run(self, monkeypatch):
        # the sampler builds the block-diagonal CSR pattern of the run's
        # largest block, min(cap, n_samples), up front, and its prefix serves
        # every shorter block: once below the cap, once with a cap of 8
        built = []
        pattern = Block.pattern

        def counted(self, B):
            built.append(B)
            return pattern(self, B)

        monkeypatch.setattr(Block, "pattern", counted)
        prob = get_problem("example1")
        mesh = build_uniform_mesh(prob.rect, 8)

        def run(n):
            return mc_run(mesh, prob.fields, prob.densities, n, seed=5,
                          dirichlet=prob.dirichlet)

        assert run(100).blocks == 7 and built == [100]  # 1, 2, ..., 32 and 37
        monkeypatch.setattr(mc, "MC_BLOCK_NODES", 8 * 49)
        assert run(40).blocks == 8 and built == [100, 8]  # 1, 2, 4, four of 8 and 1

    def test_timings_reported(self):
        mesh = build_uniform_mesh(RECT, 3)
        fields = {"a": AffineField.build(1.0), "f": AffineField.build(1.0),
                  "g": AffineField.build(-10.0)}
        res = mc_run(mesh, fields, (Density1D.exp_uniform(),), n_samples=4,
                     seed=0, solver=SolverConfig(method="psor", tol=1e-10))
        assert set(res.timings) == {"setup", "samples"}
        assert res.timings["samples"] > 0.0
        assert res.solver_iterations >= 4  # at least one sweep per sample
        assert res.sample_factorizations == 0  # PSOR factors nothing


class TestBlocks:
    MESH = build_uniform_mesh(RECT, 8)  # I = 49 interior nodes
    # a cap of 83 samples: the runs below cross several doublings and the
    # cap, and the serial references stay as short as those runs
    NODES = 4096
    BLOCK = NODES // 49

    @pytest.fixture(autouse=True)
    def cap(self, monkeypatch):
        monkeypatch.setattr(mc, "MC_BLOCK_NODES", self.NODES)

    DENSITIES = (Density1D.exp_uniform(), Density1D.uniform(-1.0, 1.0))

    def block_run_matches_serial_solves(self, a, lifted, n_samples, dens=DENSITIES):
        """Run Monte Carlo with the coefficient ``a`` and the densities
        ``dens`` and compare it with a reference that assembles and solves
        every sample on its own, cold, and feeds the same accumulator; the
        block run must agree to rounding.  Returns the run's result."""
        mesh = self.MESH
        g = AffineField.build(-0.08, [(0.02, one, 0)])
        f = AffineField.build(-6.0, [(2.0, lambda x: x[:, 1], 1)])
        a_at, f_at = a.evaluate, f.evaluate

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
        return res

    @pytest.mark.parametrize("lifted", [pytest.param(False, id="affine"),
                                        pytest.param(True, id="lifted")])
    @pytest.mark.parametrize("n_samples", [BLOCK - 3, BLOCK, 2 * BLOCK + 5],
                             ids=["below-B", "B", "not-multiple"])
    def test_block_solves_match_serial_solves(self, lifted, n_samples):
        # the mode of dimension 0 has another shape than the mean: each
        # sample is factored on its own
        a = AffineField.build(1.0, [(0.5, lambda x: x[:, 0], 0), (0.3, one, 1)])
        res = self.block_run_matches_serial_solves(a, lifted, n_samples)
        assert res.distinct_factorizations == res.sample_factorizations

    @pytest.mark.parametrize("lifted", [pytest.param(False, id="affine"),
                                        pytest.param(True, id="lifted")])
    def test_shared_factors_match_serial_solves(self, lifted):
        # every mode has the mean's shape: samples that hold one active set
        # share one factor, with fewer factors made than samples brought to
        # a new set
        a = AffineField.build(1.0, [(0.5, one, 0), (0.3, one, 1)])
        res = self.block_run_matches_serial_solves(a, lifted, 2 * self.BLOCK + 5)
        assert 0 < res.distinct_factorizations < res.sample_factorizations

    def test_shape_with_a_negative_leading_term_is_oriented(self):
        # a = -1 + 2 y0 with y0 ~ uniform(0.6, 1) is positive, but its
        # leading term is not: the folded shape is turned so that each
        # sample's scale is positive and its block is solved
        a = AffineField.build(-1.0, [(2.0, one, 0)])
        dens = (Density1D.uniform(0.6, 1.0), Density1D.uniform(-1.0, 1.0))
        res = self.block_run_matches_serial_solves(a, False, 2 * self.BLOCK + 5, dens)
        assert 0 < res.distinct_factorizations < res.sample_factorizations

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
