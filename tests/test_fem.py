import math

import numpy as np
import pytest
import scipy.sparse as sp
from numpy.testing import assert_allclose

from sgobstacle.fem import _RULES, P1Operator, assembly_points, evaluate_p1, p1_distance
from sgobstacle.mesh import build_uniform_mesh


def unit_mesh(n):
    return build_uniform_mesh((0.0, 1.0, 0.0, 1.0), n)


def stiffness_data(op, weight):
    """Stored entries of the interior and the coupling block for the
    coefficient ``weight`` (a function of the points)."""
    integrals = op.integrals(weight(op.points))
    return op.interior.data(integrals), op.coupling.data(integrals)


def unit(x):
    return np.ones(x.shape[0])


def exact_data(values, grads):
    """Exact data for ``p1_distance`` from functions of the points."""
    return lambda x: (values(x), grads(x))


class TestTriangleQuadrature:
    # integral of s^p t^q over the reference triangle is p! q! / (p+q+2)!
    @staticmethod
    def _exact(p, q):
        return math.factorial(p) * math.factorial(q) / math.factorial(p + q + 2)

    @pytest.mark.parametrize("degree", [2, 5])
    def test_exact_on_monomials(self, degree):
        points, weights = _RULES[degree]
        for p in range(degree + 1):
            for q in range(degree + 1 - p):
                val = np.sum(weights * points[:, 0] ** p * points[:, 1] ** q)
                assert val == pytest.approx(self._exact(p, q), abs=1e-15, rel=1e-13)

    def test_weights_sum_to_reference_area(self):
        assert sorted(_RULES) == [2, 5]
        for points, weights in _RULES.values():
            assert weights.sum() == pytest.approx(0.5, rel=1e-14)

    def test_first_moment_oracle(self):
        # integral of s over the reference triangle is 1/6
        points, weights = _RULES[2]
        assert np.sum(weights * points[:, 0]) == pytest.approx(1 / 6)


class TestStiffness:
    def test_five_point_stencil(self):
        # On a uniform square grid the P1 Laplacian row of an interior node is
        # the classic stencil: 4 on the diagonal, -1 to N/S/E/W, 0 on the
        # diagonals of the grid (worked out by hand from the two-triangle
        # element matrices; independent of h in 2D).  The row is the
        # interior block's row next to the coupling block's row.
        mesh = unit_mesh(4)
        op = P1Operator(mesh)
        ii_data, ib_data = stiffness_data(op, unit)
        center = 2 * 5 + 2  # node (2, 2)
        k = np.searchsorted(mesh.interior, center)
        row = mesh.full_values(op.interior.csr(ii_data)[[k]].toarray().ravel(),
                               op.coupling.csr(ib_data)[[k]].toarray().ravel())
        expected = np.zeros(mesh.n_nodes)
        expected[center] = 4.0
        for neighbor in (center - 1, center + 1, center - 5, center + 5):
            expected[neighbor] = -1.0
        assert_allclose(row, expected, atol=1e-14)

    def test_weight_scaling(self):
        op = P1Operator(unit_mesh(3))
        seven = stiffness_data(op, lambda x: 7.0 * unit(x))
        for d1, d7 in zip(stiffness_data(op, unit), seven):
            assert_allclose(d7, 7.0 * d1, rtol=1e-14)

    def test_symmetric_and_positive_definite_on_interior(self):
        op = P1Operator(unit_mesh(4))
        Kd = op.interior.csr(stiffness_data(op, lambda x: 1.0 + x[:, 0])[0]).toarray()
        assert_allclose(Kd, Kd.T, atol=1e-14)
        assert np.linalg.eigvalsh(Kd).min() > 0

    def test_kernel_contains_constants(self):
        # the interior rows of any coefficient's stiffness annihilate a
        # constant on all nodes: interior part plus boundary part
        mesh = unit_mesh(5)
        op = P1Operator(mesh)
        ii_data, ib_data = stiffness_data(op, lambda x: 2.0 + x[:, 1])
        bnd = np.flatnonzero(mesh.boundary)
        r = (op.interior.apply(ii_data, np.ones(mesh.interior.size))
             + op.coupling.apply(ib_data, np.ones(bnd.size)))
        assert np.max(np.abs(r)) < 1e-13

    def test_csr_indices_sorted_unique(self):
        op = P1Operator(unit_mesh(4))
        for block, data in zip((op.interior, op.coupling), stiffness_data(op, unit)):
            K = block.csr(data)
            for i in range(K.shape[0]):
                cols = K.indices[K.indptr[i]:K.indptr[i + 1]]
                assert np.all(np.diff(cols) > 0)

    def test_block_diagonal_pattern_prefixes(self):
        # a pattern of B copies serves any fewer copies, bit for bit
        op = P1Operator(unit_mesh(4))
        data = np.random.default_rng(3).standard_normal((3, op.interior.indices.size))
        pattern = op.interior.pattern(5)
        for B in (1, 3):
            K, expect = op.interior.csr(data[:B], pattern), op.interior.csr(data[:B])
            for name in ("data", "indices", "indptr"):
                assert np.array_equal(getattr(K, name), getattr(expect, name))
            blocks = [op.interior.csr(row).toarray() for row in data[:B]]
            assert np.array_equal(K.toarray(), sp.block_diag(blocks).toarray())


class TestMassAndLoad:
    def test_mass_total(self):
        # the sum of all mass entries, 1' M 1, is the total of the load of
        # the unit source: the integral of 1 over the domain
        mesh = build_uniform_mesh((0.0, 2.0, 0.0, 1.5), 4, 3)
        op = P1Operator(mesh)
        assert op.load(unit(op.points)).sum() == pytest.approx(3.0, rel=1e-13)

    def test_load_constant_source(self):
        # with source 1 each interior node of a uniform mesh collects
        # (6 triangles) * area / 3 = dx * dy
        mesh = unit_mesh(4)
        op = P1Operator(mesh)
        f = op.load(unit(op.points))
        assert_allclose(f[mesh.interior], 0.0625, rtol=1e-13)
        assert f.sum() == pytest.approx(1.0, rel=1e-13)

    def test_load_linear_source_total(self):
        # sum over nodes of f equals integral of the source
        op = P1Operator(unit_mesh(6))
        f = op.load(op.points[:, 0])
        assert f.sum() == pytest.approx(0.5, rel=1e-12)

    def test_laplacian_annihilates_linear_on_interior(self):
        # for u = x1 and a = 1: K u equals the boundary flux terms only, so
        # interior rows vanish
        mesh = unit_mesh(5)
        op = P1Operator(mesh)
        ii_data, ib_data = stiffness_data(op, unit)
        u = mesh.nodes[:, 0]
        r = (op.interior.apply(ii_data, u[mesh.interior])
             + op.coupling.apply(ib_data, u[mesh.boundary]))
        assert np.max(np.abs(r)) < 1e-13


class TestOperator:
    def test_matches_per_triangle_loop(self):
        # reference: element matrices and loads of each triangle from its
        # vertex coordinates, added entry by entry in a plain loop over all
        # nodes; the interior and coupling blocks are its interior rows
        mesh = build_uniform_mesh((-0.5, 1.5, 0.0, 0.75), 4, 3)
        rule_points, rule_weights = _RULES[2]

        def reference(weight):
            n = mesh.n_nodes
            K, F = np.zeros((n, n)), np.zeros(n)
            for tri in mesh.triangles:
                p = mesh.nodes[tri]
                # phi_i = c0 + c1 x1 + c2 x2
                coef = np.linalg.inv(np.column_stack([np.ones(3), p]))
                grads = coef[1:].T
                area = 0.5 * abs(np.linalg.det(np.column_stack([np.ones(3), p])))
                for (s, t), wq in zip(rule_points, rule_weights):
                    shapes = np.array([1.0 - s - t, s, t])
                    w = 2.0 * area * wq * weight((shapes @ p)[None])[0]
                    for i in range(3):
                        F[tri[i]] += w * shapes[i]
                        for j in range(3):
                            K[tri[i], tri[j]] += w * grads[i] @ grads[j]
            return K, F

        weights = (lambda x: 1.0 + x[:, 0] ** 2 + 0.5 * np.sin(3.0 * x[:, 1]),
                   lambda x: 2.0 - x[:, 1] + x[:, 0] * x[:, 1])
        (K, F), (K2, F2) = (reference(w) for w in weights)
        op = P1Operator(mesh)
        ii, bnd = mesh.interior, np.flatnonzero(mesh.boundary)
        # a pair of coefficient and source rows: a block-diagonal interior
        # matrix, and one load per row
        values = np.array([w(op.points) for w in weights])
        interior = op.interior.csr(op.interior.data(op.integrals(values))).toarray()
        coupling_data = op.coupling.data(op.integrals(values[0]))
        coupling = op.coupling.csr(coupling_data).toarray()
        close = {"rtol": 1e-13, "atol": 1e-13 * np.abs(K).max()}
        assert_allclose(interior[:ii.size, :ii.size], K[np.ix_(ii, ii)], **close)
        assert_allclose(interior[ii.size:, ii.size:], K2[np.ix_(ii, ii)], **close)
        assert not np.any(interior[:ii.size, ii.size:])
        assert_allclose(coupling, K[np.ix_(ii, bnd)], **close)
        v = np.random.default_rng(2).normal(size=bnd.size)
        assert_allclose(op.coupling.apply(coupling_data, v), coupling @ v, rtol=1e-13)
        assert_allclose(op.load(values), [F, F2], rtol=1e-13, atol=1e-13 * np.abs(F).max())

    def test_assembly_points(self):
        # the points of the degree-2 rule on each triangle, triangle by
        # triangle: the points at which the operator reads its data
        mesh = build_uniform_mesh((-0.5, 1.5, 0.0, 0.75), 4, 3)
        points = assembly_points(mesh)
        assert np.array_equal(points, P1Operator(mesh).points)
        ref = [np.array([1.0 - s - t, s, t]) @ mesh.nodes[tri]
               for tri in mesh.triangles for s, t in _RULES[2][0]]
        assert_allclose(points, ref, rtol=0, atol=1e-15)


class TestInterpolationAndEvaluation:
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
    zero_data = staticmethod(exact_data(lambda x: np.zeros(x.shape[0]),
                                        lambda x: np.zeros((x.shape[0], 2))))

    def test_norm_of_constant_field(self):
        mesh = unit_mesh(4)
        l2, h1 = p1_distance(mesh, np.ones(mesh.n_nodes), self.zero_data)
        assert l2 == pytest.approx(1.0, rel=1e-13)
        assert h1 == pytest.approx(0.0, abs=1e-13)

    def test_exact_interpolant_has_zero_error(self):
        mesh = unit_mesh(4)
        exact = exact_data(lambda x: 3 * x[:, 0] - x[:, 1] + 2,
                           lambda x: np.tile([3.0, -1.0], (x.shape[0], 1)))
        coeffs = 3 * mesh.nodes[:, 0] - mesh.nodes[:, 1] + 2
        l2, h1 = p1_distance(mesh, coeffs, exact)
        assert l2 < 1e-13
        assert h1 < 1e-13

    def test_h1_needs_gradient(self):
        # exact data come as values and gradients; values alone are refused
        mesh = unit_mesh(2)
        with pytest.raises(ValueError, match="exact values of shape"):
            p1_distance(mesh, np.zeros(mesh.n_nodes), lambda x: (x[:, 0], None))

    def test_needs_one_coefficient_per_node(self):
        mesh = unit_mesh(2)
        with pytest.raises(ValueError, match="one coefficient per mesh node"):
            p1_distance(mesh, np.zeros((mesh.n_nodes, 1)), self.zero_data)

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

    def test_known_l2_norm(self):
        # || x1 ||_L2 over the unit square is 1/sqrt(3), |x1|_H1 is 1
        mesh = unit_mesh(3)
        l2, h1 = p1_distance(mesh, np.zeros(mesh.n_nodes),
                             exact_data(lambda x: x[:, 0],
                                        lambda x: np.tile([1.0, 0.0], (x.shape[0], 1))))
        assert l2 == pytest.approx(3 ** -0.5, rel=1e-12)
        assert h1 == pytest.approx(1.0, rel=1e-12)


class TestInterpolationRates:
    # interpolation error of a quadratic on self-similar uniform meshes
    # shrinks by exactly 4 in L2 and exactly 2 in the H1 seminorm per
    # refinement (constant Hessian, scaled element geometry)

    @staticmethod
    def values(x):
        return x[:, 0] ** 2 + x[:, 0] * x[:, 1]

    @staticmethod
    def grads(x):
        return np.column_stack([2 * x[:, 0] + x[:, 1], x[:, 0]])

    def _errors(self, n):
        mesh = unit_mesh(n)
        return p1_distance(mesh, self.values(mesh.nodes), exact_data(self.values, self.grads))

    def test_ratios(self):
        e4 = self._errors(4)
        e8 = self._errors(8)
        e16 = self._errors(16)
        assert e4[0] / e8[0] == pytest.approx(4.0, rel=1e-10)
        assert e8[0] / e16[0] == pytest.approx(4.0, rel=1e-10)
        assert e4[1] / e8[1] == pytest.approx(2.0, rel=1e-10)
        assert e8[1] / e16[1] == pytest.approx(2.0, rel=1e-10)
