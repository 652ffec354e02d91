import numpy as np
import pytest
from numpy.testing import assert_allclose

from sgobstacle.fem import (P1Operator, SpatialFunction, assemble_load, assemble_mass,
                            assemble_weighted_stiffness, assembly_points, evaluate_p1,
                            interpolate_nodal, norm_error, p1_distance)
from sgobstacle.mesh import build_uniform_mesh, triangle_quadrature


def unit_mesh(n):
    return build_uniform_mesh((0.0, 1.0, 0.0, 1.0), n)


class TestStiffness:
    def test_five_point_stencil(self):
        # On a uniform square grid the P1 Laplacian row of an interior node is
        # the classic stencil: 4 on the diagonal, -1 to N/S/E/W, 0 on the
        # diagonals of the grid (worked out by hand from the two-triangle
        # element matrices; independent of h in 2D).
        mesh = unit_mesh(4)
        K = assemble_weighted_stiffness(mesh)
        center = 2 * 5 + 2  # node (2, 2)
        row = K[[center]].toarray().ravel()
        expected = np.zeros(mesh.n_nodes)
        expected[center] = 4.0
        for neighbor in (center - 1, center + 1, center - 5, center + 5):
            expected[neighbor] = -1.0
        assert_allclose(row, expected, atol=1e-14)

    def test_weight_scaling(self):
        mesh = unit_mesh(3)
        K1 = assemble_weighted_stiffness(mesh)
        K7 = assemble_weighted_stiffness(mesh, 7.0)
        assert_allclose(K7.toarray(), 7.0 * K1.toarray(), rtol=1e-14)

    def test_symmetric_and_positive_definite_on_interior(self):
        mesh = unit_mesh(4)
        K = assemble_weighted_stiffness(mesh, lambda x: 1.0 + x[:, 0])
        Kd = K.toarray()
        assert_allclose(Kd, Kd.T, atol=1e-14)
        idx = mesh.interior
        eigs = np.linalg.eigvalsh(Kd[np.ix_(idx, idx)])
        assert eigs.min() > 0

    def test_kernel_contains_constants(self):
        mesh = unit_mesh(5)
        K = assemble_weighted_stiffness(mesh, lambda x: 2.0 + x[:, 1])
        assert np.max(np.abs(K @ np.ones(mesh.n_nodes))) < 1e-13

    def test_csr_indices_sorted_unique(self):
        mesh = unit_mesh(4)
        K = assemble_weighted_stiffness(mesh)
        for i in range(mesh.n_nodes):
            cols = K.indices[K.indptr[i]:K.indptr[i + 1]]
            assert np.all(np.diff(cols) > 0)


class TestMassAndLoad:
    def test_mass_total(self):
        # sum of all mass entries = integral of 1 over the domain
        mesh = build_uniform_mesh((0.0, 2.0, 0.0, 1.5), 4, 3)
        M = assemble_mass(mesh)
        assert M.sum() == pytest.approx(3.0, rel=1e-13)

    def test_load_constant_source(self):
        # with source 1 each interior node of a uniform mesh collects
        # (6 triangles) * area / 3 = dx * dy
        mesh = unit_mesh(4)
        f = assemble_load(mesh, 1.0)
        assert_allclose(f[mesh.interior], 0.0625, rtol=1e-13)
        assert f.sum() == pytest.approx(1.0, rel=1e-13)

    def test_load_linear_source_total(self):
        # sum over nodes of f equals integral of the source
        mesh = unit_mesh(6)
        f = assemble_load(mesh, lambda x: x[:, 0])
        assert f.sum() == pytest.approx(0.5, rel=1e-12)

    def test_laplacian_annihilates_linear_on_interior(self):
        # for u = x1 and a = 1: K u equals the boundary flux terms only, so
        # interior rows vanish
        mesh = unit_mesh(5)
        K = assemble_weighted_stiffness(mesh)
        u = mesh.nodes[:, 0]
        r = K @ u
        assert np.max(np.abs(r[mesh.interior])) < 1e-13


class TestOperator:
    def test_matches_per_triangle_loop(self):
        # reference: element matrices of each triangle from its vertex
        # coordinates, added entry by entry in a plain loop
        mesh = build_uniform_mesh((-0.5, 1.5, 0.0, 0.75), 4, 3)

        def weight(x):
            return 1.0 + x[:, 0] ** 2 + 0.5 * np.sin(3.0 * x[:, 1])

        rule = triangle_quadrature(2)
        n = mesh.n_nodes
        K, M, F = np.zeros((n, n)), np.zeros((n, n)), np.zeros(n)
        for tri in mesh.triangles:
            p = mesh.nodes[tri]
            coef = np.linalg.inv(np.column_stack([np.ones(3), p]))  # phi_i = c0 + c1 x1 + c2 x2
            grads = coef[1:].T
            area = 0.5 * abs(np.linalg.det(np.column_stack([np.ones(3), p])))
            for (s, t), wq in zip(rule.points, rule.weights):
                shapes = np.array([1.0 - s - t, s, t])
                w = 2.0 * area * wq * weight((shapes @ p)[None])[0]
                for i in range(3):
                    F[tri[i]] += w * shapes[i]
                    for j in range(3):
                        K[tri[i], tri[j]] += w * grads[i] @ grads[j]
                        M[tri[i], tri[j]] += w * shapes[i] * shapes[j]

        for got, ref in ((assemble_weighted_stiffness(mesh, weight).toarray(), K),
                         (assemble_mass(mesh, weight).toarray(), M),
                         (assemble_load(mesh, weight), F)):
            assert_allclose(got, ref, rtol=1e-13, atol=1e-13 * np.abs(ref).max())

        # the interior and coupling blocks, and a block-diagonal pair of rows
        op = P1Operator(mesh)
        ii, bnd = mesh.interior, np.flatnonzero(mesh.boundary)
        values = np.array([weight(op.points), 2.0 - op.points[:, 1]])
        interior = op.interior.csr(op.interior.data(op.integrals(values))).toarray()
        coupling = op.coupling.csr(op.coupling.data(op.integrals(values[0]))).toarray()
        K2 = assemble_weighted_stiffness(mesh, lambda x: 2.0 - x[:, 1]).toarray()
        assert_allclose(interior[:ii.size, :ii.size], K[np.ix_(ii, ii)], rtol=1e-13,
                        atol=1e-13 * np.abs(K).max())
        assert_allclose(interior[ii.size:, ii.size:], K2[np.ix_(ii, ii)], rtol=1e-13)
        assert not np.any(interior[:ii.size, ii.size:])
        assert_allclose(coupling, K[np.ix_(ii, bnd)], rtol=1e-13, atol=1e-13 * np.abs(K).max())
        v = np.random.default_rng(2).normal(size=bnd.size)
        assert_allclose(op.coupling.apply(op.coupling.data(op.integrals(values[0])), v),
                        coupling @ v, rtol=1e-13)


    def test_assembly_points(self):
        # the points of the degree-2 rule on each triangle, triangle by
        # triangle: the points at which the operator reads its data
        mesh = build_uniform_mesh((-0.5, 1.5, 0.0, 0.75), 4, 3)
        points = assembly_points(mesh)
        assert np.array_equal(points, P1Operator(mesh).points)
        rule = triangle_quadrature(2)
        ref = [np.array([1.0 - s - t, s, t]) @ mesh.nodes[tri]
               for tri in mesh.triangles for s, t in rule.points]
        assert_allclose(points, ref, rtol=0, atol=1e-15)

class TestInterpolationAndEvaluation:
    def test_interpolate_nodal(self):
        mesh = unit_mesh(3)
        vals = interpolate_nodal(mesh, lambda x: x[:, 0] + 2 * x[:, 1])
        assert_allclose(vals, mesh.nodes[:, 0] + 2 * mesh.nodes[:, 1], rtol=1e-14)

    def test_evaluate_p1_reproduces_affine(self):
        mesh = unit_mesh(4)
        coeffs = 1.0 + 2.0 * mesh.nodes[:, 0] - 0.5 * mesh.nodes[:, 1]
        rng = np.random.default_rng(7)
        pts = rng.uniform(0, 1, size=(200, 2))
        got = evaluate_p1(mesh, coeffs, pts)
        assert_allclose(got, 1.0 + 2.0 * pts[:, 0] - 0.5 * pts[:, 1], rtol=1e-12)
        # stacked rows (2, 3, n_nodes) give (2, 3, n_points), row by row
        rows = np.arange(1.0, 7.0).reshape(2, 3, 1) * coeffs
        stacked = evaluate_p1(mesh, rows, pts)
        assert stacked.shape == (2, 3, len(pts))
        for index in np.ndindex(2, 3):
            assert np.array_equal(stacked[index], evaluate_p1(mesh, rows[index], pts))

    def test_evaluate_p1_at_nodes(self):
        mesh = unit_mesh(5)
        rng = np.random.default_rng(3)
        coeffs = rng.normal(size=mesh.n_nodes)
        got = evaluate_p1(mesh, coeffs, mesh.nodes)
        assert_allclose(got, coeffs, atol=1e-12)

    def test_evaluate_p1_needs_one_coefficient_per_node(self):
        mesh = unit_mesh(3)
        with pytest.raises(ValueError, match="one coefficient per mesh node"):
            evaluate_p1(mesh, np.zeros(mesh.n_nodes - 1), mesh.nodes)


class TestNormError:
    def test_norm_of_constant_field(self):
        mesh = unit_mesh(4)
        ones = np.ones(mesh.n_nodes)
        zero = SpatialFunction.constant(0.0)
        assert norm_error(mesh, ones, zero, "l2") == pytest.approx(1.0, rel=1e-13)
        assert norm_error(mesh, ones, zero, "h1semi") == pytest.approx(0.0, abs=1e-13)

    def test_exact_interpolant_has_zero_error(self):
        mesh = unit_mesh(4)
        exact = SpatialFunction(
            values=lambda x: 3 * x[:, 0] - x[:, 1] + 2,
            grad=lambda x: np.tile([3.0, -1.0], (x.shape[0], 1)),
        )
        coeffs = interpolate_nodal(mesh, exact.values)
        assert norm_error(mesh, coeffs, exact, "l2") < 1e-13
        assert norm_error(mesh, coeffs, exact, "h1semi") < 1e-13

    def test_h1_needs_gradient(self):
        mesh = unit_mesh(2)
        with pytest.raises(ValueError):
            norm_error(mesh, np.zeros(mesh.n_nodes),
                       SpatialFunction(values=lambda x: x[:, 0]), "h1semi")

    def test_needs_one_coefficient_per_node(self):
        mesh = unit_mesh(2)
        with pytest.raises(ValueError, match="one coefficient per mesh node"):
            norm_error(mesh, np.zeros((mesh.n_nodes, 1)), SpatialFunction.constant(0.0))
        # rows of fields are for evaluate_p1; a norm takes one field
        with pytest.raises(ValueError):
            norm_error(mesh, np.zeros((2, mesh.n_nodes)), SpatialFunction.constant(0.0))

    def test_distance_takes_stacked_fields(self):
        # a (2, 3) stack of fields and exact data gives the (2, 3) distances
        # of its rows, for values and for gradients
        mesh = unit_mesh(3)
        rng = np.random.default_rng(0)
        coeffs = rng.standard_normal((2, 3, mesh.n_nodes))
        n_points = 7 * mesh.n_triangles  # the degree-5 rule has 7 points
        values = rng.standard_normal((2, 3, n_points))
        grads = rng.standard_normal((2, 3, n_points, 2))
        l2, h1 = p1_distance(mesh, coeffs, lambda x: (values, grads))
        assert l2.shape == h1.shape == (2, 3)
        for i, j in np.ndindex(2, 3):
            one = p1_distance(mesh, coeffs[i, j], lambda x: (values[i, j], grads[i, j]))
            assert l2[i, j] == pytest.approx(one[0], rel=1e-13)
            assert h1[i, j] == pytest.approx(one[1], rel=1e-13)
        with pytest.raises(ValueError, match="exact values of shape"):
            p1_distance(mesh, coeffs, lambda x: (values[0], grads))
        with pytest.raises(ValueError, match="exact values of shape"):
            p1_distance(mesh, coeffs, lambda x: (values, grads[..., 0]))

    def test_unknown_kind_rejected(self):
        mesh = unit_mesh(2)
        with pytest.raises(ValueError):
            norm_error(mesh, np.zeros(mesh.n_nodes),
                       SpatialFunction.constant(0.0), "h2")

    def test_known_l2_norm(self):
        # || x1 ||_L2 over the unit square is 1/sqrt(3)
        mesh = unit_mesh(3)
        zero = np.zeros(mesh.n_nodes)
        exact = SpatialFunction(values=lambda x: x[:, 0],
                                grad=lambda x: np.tile([1.0, 0.0], (x.shape[0], 1)))
        assert norm_error(mesh, zero, exact, "l2") == pytest.approx(3 ** -0.5, rel=1e-12)
        assert norm_error(mesh, zero, exact, "h1semi") == pytest.approx(1.0, rel=1e-12)


class TestInterpolationRates:
    # interpolation error of a quadratic on self-similar uniform meshes
    # shrinks by exactly 4 in L2 and exactly 2 in the H1 seminorm per
    # refinement (constant Hessian, scaled element geometry)

    exact = SpatialFunction(
        values=lambda x: x[:, 0] ** 2 + x[:, 0] * x[:, 1],
        grad=lambda x: np.column_stack([2 * x[:, 0] + x[:, 1], x[:, 0]]),
    )

    def _errors(self, n):
        mesh = unit_mesh(n)
        coeffs = interpolate_nodal(mesh, self.exact.values)
        return (norm_error(mesh, coeffs, self.exact, "l2"),
                norm_error(mesh, coeffs, self.exact, "h1semi"))

    def test_ratios(self):
        e4 = self._errors(4)
        e8 = self._errors(8)
        e16 = self._errors(16)
        assert e4[0] / e8[0] == pytest.approx(4.0, rel=1e-10)
        assert e8[0] / e16[0] == pytest.approx(4.0, rel=1e-10)
        assert e4[1] / e8[1] == pytest.approx(2.0, rel=1e-10)
        assert e8[1] / e16[1] == pytest.approx(2.0, rel=1e-10)
