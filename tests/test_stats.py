import csv
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from numpy.testing import assert_allclose

from sgobstacle.fem import p1_distance
from sgobstacle.fields import AffineField
from sgobstacle.mesh import build_uniform_mesh, write_vtk
from sgobstacle.param import Density1D, build_param_grid, draw, hat_values
from sgobstacle.problems import example1, example2
from sgobstacle.runner import _solve_level, convergence_errors, validate_config
from sgobstacle.stats import (ParametricFunction, exact_statistic, sg_mean, sg_second_moment,
                              sg_variance, tensor_quadrature, write_stat_csv)
from sgobstacle.system import assemble_sg

E = np.e
EY = (E - 1.0 / E) / 2.0
EY2 = (E ** 2 - E ** -2) / 4.0


def one(x):
    return np.ones(x.shape[0])


def solved_system(a_modes, f_field, cells=3, nx=5, dirichlet=None):
    mesh = build_uniform_mesh((0.0, 1.0, 0.0, 1.0), nx)
    n_dims = 1 + max((d for _, _, d in a_modes), default=0)
    grid = build_param_grid([Density1D.exp_uniform()] * n_dims, cells)
    a = AffineField.build(1.0, a_modes)
    g = AffineField.build(-1e6)
    sys_ = assemble_sg(mesh, grid, a, f_field, g, dirichlet=dirichlet)
    u = spla.spsolve(sp.csr_matrix(sys_.explicit()), sys_.b)
    return sys_, u


class TestTensorQuadrature:
    def test_weights_integrate_density(self):
        nodes, weights = tensor_quadrature((Density1D.exp_uniform(),) * 2, 32)
        assert nodes.shape == (1024, 2)
        assert weights.sum() == pytest.approx(1.0, rel=1e-13)
        assert nodes @ np.zeros(2) + weights @ nodes[:, 0] == pytest.approx(EY, rel=1e-13)

    def test_empty_densities(self):
        nodes, weights = tensor_quadrature((), 16)
        assert nodes.shape == (1, 0)
        assert_allclose(weights, [1.0])


class TestExactStatistics:
    def test_rational_moments(self):
        # E[1/(1 + y1 + 2 y2)] and the matching second moment for
        # y_k = exp(xi_k), xi uniform on (-1, 1); references computed with
        # mpmath at high precision
        fn = ParametricFunction(space=one,
                                param=lambda y: 1.0 / (1.0 + y[..., 0] + 2.0 * y[..., 1]))
        densities = (Density1D.exp_uniform(), Density1D.exp_uniform())
        x = np.zeros((1, 2))
        m1 = exact_statistic(fn, densities, moment=1)
        m2 = exact_statistic(fn, densities, moment=2)
        assert m1.values(x)[0] == pytest.approx(0.2454830078051842, rel=1e-12)
        assert m2.values(x)[0] == pytest.approx(0.06667305825060929, rel=1e-12)

    def test_affine_second_moment_closed_form(self):
        # E[(2 + 3 y)^2] = 4 + 12 E[y] + 9 E[y^2]
        fn = ParametricFunction(space=one, param=lambda y: 2.0 + 3.0 * y[..., 0])
        m2 = exact_statistic(fn, (Density1D.exp_uniform(),), moment=2)
        expected = 4.0 + 12.0 * EY + 9.0 * EY2
        assert m2.values(np.zeros((1, 2)))[0] == pytest.approx(expected, rel=1e-13)

    @pytest.mark.parametrize("moment", [0, -1, 1.5, 2.0, True, "2"])
    def test_moment_must_be_a_positive_integer(self, moment):
        fn = ParametricFunction(space=one, param=lambda y: y[..., 0])
        with pytest.raises(ValueError, match="moment must be an integer"):
            exact_statistic(fn, (Density1D.exp_uniform(),), moment=moment)

    @pytest.mark.parametrize("batch", [(), (3,), (3, 4)])
    def test_value_and_grad_shapes(self, batch):
        # u = x1 x2 (y1 - y2): value is param(y) outer space(x), and the
        # x-gradient that convergence_errors forms is param(y) outer space_grad(x)
        fn = ParametricFunction(space=lambda x: x[:, 0] * x[:, 1],
                                param=lambda y: y[..., 0] - y[..., 1],
                                space_grad=lambda x: x[:, ::-1])
        rng = np.random.default_rng(4)
        x = rng.uniform(-1.0, 1.0, (5, 2))
        y = rng.uniform(-1.0, 1.0, batch + (2,))
        psi = y[..., 0] - y[..., 1]
        values, grads = fn.value(x, y), np.multiply.outer(fn.param(y), fn.space_grad(x))
        assert values.shape == batch + (5,)
        assert grads.shape == batch + (5, 2)
        assert_allclose(values, psi[..., None] * x[:, 0] * x[:, 1], rtol=1e-14)
        assert_allclose(grads, psi[..., None, None] * x[:, ::-1], rtol=1e-14)


def per_node_moments(analytic, x, densities, quad_order, moments, with_grad):
    """Reference for the product-form moments: one value call per quadrature node,
    and the x-gradient as space_grad scaled by param there."""
    nodes, weights = tensor_quadrature(tuple(densities), quad_order)
    vals = [np.zeros(x.shape[0]) for _ in moments]
    grads = [np.zeros((x.shape[0], 2)) for _ in moments]
    for y, w in zip(nodes, weights):
        v = analytic.value(x, y)
        g = analytic.param(y) * analytic.space_grad(x) if with_grad else None
        for i, k in enumerate(moments):
            vals[i] += w * v ** k
            if with_grad:
                grads[i] += (w * k) * (v ** (k - 1))[:, None] * g
    return vals, (grads if with_grad else None)


class TestChunkedQuadrature:
    """The product-form moments against the per-node quadrature of u itself."""

    @pytest.mark.parametrize("make", [example1, example2])
    @pytest.mark.parametrize("moment", [1, 2, 3])
    def test_exact_statistic_matches_per_node_loop(self, make, moment):
        prob = make()
        x = np.random.default_rng(11).uniform(-1.0, 1.0, (40, 2))
        stat = exact_statistic(prob.exact, prob.densities, moment, quad_order=9)
        (ref_v,), _ = per_node_moments(prob.exact, x, prob.densities, 9, (moment,),
                                       with_grad=False)
        assert_allclose(stat.values(x), ref_v, rtol=1e-12)

    @pytest.mark.parametrize("problem", ["example1", "example2"])
    def test_convergence_errors_match_per_node_loop(self, problem):
        cfg = validate_config({"problem": problem,
                               "schedule": {"levels": [[4, 2]]},
                               "solver": {"tol": 1e-10}, "quad_order": 9})
        system, u, _, _ = _solve_level(cfg, cfg.levels[0])
        mesh, exact, densities = system.mesh, cfg.problem.exact, cfg.problem.densities
        errs = convergence_errors(system, u, exact, 9)

        def exact_data(x):
            vals, grads = per_node_moments(exact, x, densities, 9, (1, 2), with_grad=True)
            return np.stack(vals), np.stack(grads)

        fields = np.stack([sg_mean(system, u), sg_second_moment(system, u)])
        dist = p1_distance(mesh, fields, exact_data)
        norm = p1_distance(mesh, np.zeros_like(fields), exact_data)
        ref = {f"e{kind}m{k + 1}": d[k] / n[k]
               for kind, d, n in zip(("L2", "H1"), dist, norm) for k in range(2)}
        assert errs.keys() == ref.keys()
        for key in ref:
            assert errs[key] == pytest.approx(ref[key], rel=1e-12)


class TestGalerkinMoments:
    def test_y_independent_solution_has_zero_variance(self):
        sys_, u = solved_system([], AffineField.build(1.0))
        var = sg_variance(sys_, u)
        m2 = sg_second_moment(sys_, u)
        mean = sg_mean(sys_, u)
        assert np.max(var) <= 1e-12 * max(np.max(m2), 1.0)
        assert_allclose(m2, mean ** 2, atol=1e-14)

    def test_second_moment_dominates_squared_mean(self):
        sys_, u = solved_system([(1.0, one, 0), (2.0, one, 1)],
                                AffineField.build(1.0, [(1.0, one, 0)]))
        mean = sg_mean(sys_, u)
        m2 = sg_second_moment(sys_, u)
        assert np.all(m2 - mean ** 2 >= -1e-14)

    def test_moments_match_sampling_the_interpolant(self):
        # the Galerkin moments integrate the multilinear interpolant exactly
        # (up to density quadrature), so Monte Carlo applied to that same
        # interpolant must agree within its own statistical error
        sys_, u = solved_system([(1.0, one, 0), (2.0, one, 1)],
                                AffineField.build(-2.0))
        mean = sg_mean(sys_, u)
        var = sg_variance(sys_, u)

        from sgobstacle.stats import _full_blocks
        blocks = _full_blocks(sys_, u)
        ys = draw(sys_.grid.densities, np.random.default_rng(99), 100_000)
        # the weight of node (j0, j1) at a point is the product of its hats
        h0, h1 = (hat_values(b, y) for b, y in zip(sys_.grid.breakpoints, ys.T))
        weights = (h0[:, :, None] * h1[:, None, :]).reshape(len(ys), -1)
        samples = weights @ blocks
        mc_mean = samples.mean(axis=0)
        mc_var = samples.var(axis=0, ddof=1)

        ii = sys_.mesh.interior
        scale = np.max(np.abs(mean[ii]))
        assert np.max(np.abs(mc_mean[ii] - mean[ii])) <= 0.01 * scale
        assert np.max(np.abs(mc_var[ii] - var[ii])) <= 0.02 * max(var.max(), 1e-30)

    def test_boundary_data_enters_statistics(self):
        # mean of u(x, y) = (x1 + x2) y at a boundary node is (x1 + x2) E[y],
        # quadrature-level accuracy because g0 integrates the density
        def dirichlet(x, y):
            return (x[:, 0] + x[:, 1]) * y[..., 0, None]

        sys_, u = solved_system([], AffineField.build(0.0), cells=4, nx=4,
                                dirichlet=dirichlet)
        mean = sg_mean(sys_, u)
        corner = np.flatnonzero((sys_.mesh.nodes[:, 0] == 1.0)
                                & (sys_.mesh.nodes[:, 1] == 1.0))[0]
        assert mean[corner] == pytest.approx(2.0 * EY, rel=1e-12)

    def test_variance_ignores_a_y_independent_shift(self):
        # adding a constant to every coefficient block shifts the mean and
        # leaves the variance; m2 - mean^2 would lose it to cancellation
        sys_, u = solved_system([(1.0, one, 0), (2.0, one, 1)], AffineField.build(-2.0))
        ii = sys_.mesh.interior
        var = sg_variance(sys_, u)[ii]
        shifted = sg_variance(sys_, u + 100.0)[ii]
        assert np.max(np.abs(shifted - var)) <= 1e-11 * np.max(var)


class TestExports:
    def test_csv_layout(self, tmp_path):
        sys_, u = solved_system([], AffineField.build(1.0), nx=2)
        mean = sg_mean(sys_, u)
        path = tmp_path / "mean.csv"
        write_stat_csv(sys_.mesh, mean, str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == "x1,x2,value"
        assert len(lines) == 1 + sys_.mesh.n_nodes
        x1, x2, v = lines[1].split(",")
        assert float(x1) == sys_.mesh.nodes[0, 0]
        assert float(v) == pytest.approx(mean[0])

    def test_csv_needs_one_value_per_node(self, tmp_path):
        # a short array would lose rows to the zip; it is refused before the
        # file is opened
        mesh = build_uniform_mesh((0.0, 1.0, 0.0, 1.0), 2)
        path = tmp_path / "mean.csv"
        with pytest.raises(ValueError, match=r"expected \(9,\)"):
            write_stat_csv(mesh, np.zeros(mesh.n_nodes - 1), str(path))
        assert not path.exists()

    def test_writers_match_per_element_formatting(self, tmp_path):
        # the writers format Python floats; the bytes must be those of
        # formatting each numpy scalar, for signed zeros, tiny values and
        # integer-valued doubles alike
        special = [-0.0, 1e-300, -1e-300, 3.0, -2.0, 0.0, 1e16, 5e-324]
        mesh = build_uniform_mesh((-1.0, 1.0, -1.0, 1.0), 3)
        nodes = mesh.nodes.copy()
        nodes[:4] = np.reshape(special, (4, 2))
        mesh = replace(mesh, nodes=nodes)
        values = np.random.default_rng(3).standard_normal(mesh.n_nodes)
        values[:len(special)] = special
        fields = {"mean": values, "variance": values[::-1]}

        write_stat_csv(mesh, values, str(tmp_path / "mean.csv"))
        with open(tmp_path / "want.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["x1", "x2", "value"])
            for (x1, x2), v in zip(mesh.nodes, values):
                writer.writerow([f"{x1:.16g}", f"{x2:.16g}", f"{v:.16e}"])
        got = (tmp_path / "mean.csv").read_bytes()
        assert got == (tmp_path / "want.csv").read_bytes()
        assert b"\n-0,1e-300,-0.0000000000000000e+00" in got

        write_vtk(mesh, str(tmp_path / "stats.vtk"), point_data=fields,
                  title="solution statistics")
        want = ["# vtk DataFile Version 2.0", "solution statistics", "ASCII",
                "DATASET UNSTRUCTURED_GRID", f"POINTS {mesh.n_nodes} double"]
        want += [f"{x:.16g} {y:.16g} 0" for x, y in mesh.nodes]
        want += [f"CELLS {mesh.n_triangles} {4 * mesh.n_triangles}"]
        want += [f"3 {t[0]} {t[1]} {t[2]}" for t in mesh.triangles]
        want += [f"CELL_TYPES {mesh.n_triangles}"] + ["5"] * mesh.n_triangles
        want += [f"POINT_DATA {mesh.n_nodes}"]
        for name, field in fields.items():
            want += [f"SCALARS {name} double 1", "LOOKUP_TABLE default"]
            want += [f"{v:.16g}" for v in field]
        got = (tmp_path / "stats.vtk").read_bytes()
        assert got == ("\n".join(want) + "\n").encode()
        assert b"\n-0 1e-300 0\n" in got and b"\n1e+16\n" in got

    def test_vtk_contains_all_fields(self, tmp_path):
        sys_, u = solved_system([(1.0, one, 0)], AffineField.build(1.0), nx=2)
        path = tmp_path / "stats.vtk"
        write_vtk(sys_.mesh, str(path),
                  point_data={"mean": sg_mean(sys_, u), "variance": sg_variance(sys_, u)})
        text = path.read_text()
        assert "SCALARS mean" in text
        assert "SCALARS variance" in text
