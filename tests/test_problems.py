import numpy as np
import pytest
from numpy.testing import assert_allclose

from sgobstacle.fields import bounds_check
from sgobstacle.mesh import build_uniform_mesh
from sgobstacle.param import build_param_grid, draw, tensor_points
from sgobstacle.problems import (density_from_spec, example1, example2,
                                 get_problem, problem_from_config,
                                 spatial_from_spec)


def fd_gradient(value, x, y, h=1e-6):
    """Central-difference x-gradient of value(x, y) at points x (n, 2)."""
    out = np.zeros_like(x)
    for d in range(2):
        xp = x.copy()
        xm = x.copy()
        xp[:, d] += h
        xm[:, d] -= h
        out[:, d] = (value(xp, y) - value(xm, y)) / (2 * h)
    return out


def x_gradient(exact, x, y):
    """The x-gradient of u = space(x) param(y): space_grad scaled by param."""
    return np.multiply.outer(exact.param(y), exact.space_grad(x))


def fd_laplacian(value, x, y, h=1e-4):
    out = -4.0 * value(x, y)
    for d in range(2):
        for sign in (+1.0, -1.0):
            xs = x.copy()
            xs[:, d] += sign * h
            out += value(xs, y)
    return out / h ** 2


def ring_points(rng, r_min, r_max, n=30):
    r = np.sqrt(rng.uniform(r_min ** 2, r_max ** 2, n))
    t = rng.uniform(0, 2 * np.pi, n)
    return np.column_stack([r * np.cos(t), r * np.sin(t)])


class TestExample1:
    def setup_method(self):
        self.prob = example1()
        self.y = np.array([1.3, 0.8])

    def test_contact_set_is_unit_disk(self):
        rng = np.random.default_rng(0)
        inside = ring_points(rng, 0.0, 0.999)
        outside = ring_points(rng, 1.001, 1.45)
        assert_allclose(self.prob.exact.value(inside, self.y), 0.0, atol=1e-15)
        assert np.all(self.prob.exact.value(outside, self.y) > 0)

    def test_solution_is_c1_across_contact_boundary(self):
        rng = np.random.default_rng(1)
        t = rng.uniform(0, 2 * np.pi, 20)
        ring = 1.0001 * np.column_stack([np.cos(t), np.sin(t)])
        assert np.max(self.prob.exact.value(ring, self.y)) < 1e-7
        assert np.max(np.abs(x_gradient(self.prob.exact, ring, self.y))) < 1e-3

    def test_pde_holds_off_the_contact_set(self):
        # outside the contact set: -div(a grad u) = f with a = 1 + y1 + 2 y2
        # constant in x, so -a * lap(u) must equal -2
        rng = np.random.default_rng(2)
        pts = ring_points(rng, 1.05, 1.4)
        a_val = 1.0 + self.y[0] + 2.0 * self.y[1]
        lap = fd_laplacian(self.prob.exact.value, pts, self.y)
        assert_allclose(-a_val * lap, -2.0, atol=1e-5)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        pts = np.vstack([ring_points(rng, 0.0, 0.95), ring_points(rng, 1.05, 1.4)])
        fd = fd_gradient(self.prob.exact.value, pts, self.y)
        assert_allclose(x_gradient(self.prob.exact, pts, self.y), fd, atol=1e-8)

    def test_dirichlet_is_exact_trace(self):
        edge = np.column_stack([np.full(7, 1.5), np.linspace(-1.5, 1.5, 7)])
        assert_allclose(self.prob.dirichlet(edge, self.y),
                        self.prob.exact.value(edge, self.y), rtol=1e-14)

    def test_coefficient_uniformly_positive(self):
        supports = [rho.support for rho in self.prob.densities]
        b = bounds_check(self.prob.fields["a"], supports, np.zeros((1, 2)))
        assert b.lo > 0


class TestExample2:
    R0SQ = 0.49

    def setup_method(self):
        self.prob = example2()
        self.y = np.array([0.9, 1.7])

    def test_contact_set_is_disk_of_radius_r0(self):
        rng = np.random.default_rng(5)
        inside = ring_points(rng, 0.0, 0.699)
        outside = ring_points(rng, 0.701, 0.99)
        assert_allclose(self.prob.exact.value(inside, self.y), 0.0, atol=1e-15)
        assert np.all(self.prob.exact.value(outside, self.y) > 0)

    def test_pde_holds_off_the_contact_set(self):
        rng = np.random.default_rng(6)
        pts = ring_points(rng, 0.75, 0.95)
        lap = fd_laplacian(self.prob.exact.value, pts, self.y)
        f_val = self.prob.fields["f"].evaluate(pts, self.y)
        assert_allclose(-lap, f_val, rtol=1e-6)

    def test_source_continuous_across_contact_boundary(self):
        t = np.linspace(0, 2 * np.pi, 17)[:-1]
        just_in = 0.69999 * np.column_stack([np.cos(t), np.sin(t)])
        just_out = 0.70001 * np.column_stack([np.cos(t), np.sin(t)])
        f_in = self.prob.fields["f"].evaluate(just_in, self.y)
        f_out = self.prob.fields["f"].evaluate(just_out, self.y)
        assert np.max(np.abs(f_in - f_out)) < 1e-3
        assert_allclose(f_in, -8.0 * self.R0SQ * (self.y[0] + 2 * self.y[1]),
                        rtol=1e-3)

    def test_source_negative_inside_contact_set(self):
        # the multiplier -f must stay nonnegative where u sits on the obstacle
        rng = np.random.default_rng(7)
        inside = ring_points(rng, 0.0, 0.699)
        assert np.all(self.prob.fields["f"].evaluate(inside, self.y) < 0)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(8)
        pts = np.vstack([ring_points(rng, 0.0, 0.65), ring_points(rng, 0.75, 0.95)])
        fd = fd_gradient(self.prob.exact.value, pts, self.y)
        assert_allclose(x_gradient(self.prob.exact, pts, self.y), fd, atol=1e-7)


@pytest.mark.parametrize("make", [example1, example2])
def test_exact_solution_evaluates_parameter_blocks(make):
    # a (B, M) block of parameter points gives the stacked single-point calls
    prob = make()
    rng = np.random.default_rng(10)
    x = ring_points(rng, 0.0, 1.4, n=40)
    ys = draw(prob.densities, rng, 9)
    values = prob.exact.value(x, ys)
    grads = x_gradient(prob.exact, x, ys)
    assert values.shape == (9, 40)
    assert grads.shape == (9, 40, 2)
    assert_allclose(values, np.stack([prob.exact.value(x, y) for y in ys]),
                    rtol=1e-14)
    assert_allclose(grads, np.stack([x_gradient(prob.exact, x, y) for y in ys]),
                    rtol=1e-14)


@pytest.mark.parametrize("make", [example1, example2])
def test_dirichlet_data_lie_on_or_above_the_obstacle(make):
    # data below g on the boundary would leave no admissible function; the
    # built-ins have g = 0 and data phi(x) psi(y) with phi >= 0 and psi > 0,
    # checked at the vertices of the parameter box and at the nodes of the
    # grids with hats in y and in xi
    prob = make()
    mesh = build_uniform_mesh(prob.rect, 8)
    x = mesh.nodes[mesh.boundary]
    vertices = tensor_points([np.array(rho.support) for rho in prob.densities])
    in_y, in_xi = (build_param_grid(prob.densities, 4, xi) for xi in (False, True))
    Y = np.vstack([vertices, in_y.nodes(), in_xi.nodes()])
    data = prob.dirichlet(x, Y)
    terms = prob.fields["g"].terms(x, prob.n_dims)
    obstacle = terms[0] + Y @ terms[1:]
    assert data.shape == obstacle.shape == (len(Y), len(x))
    assert np.all(data >= obstacle) and np.any(data > obstacle)
    # the xi grid's nodes are exp of a uniform partition in xi
    assert_allclose(np.log(in_xi.nodes()), tensor_points([np.linspace(-1.0, 1.0, 5)] * 2),
                    rtol=0, atol=1e-15)

class TestRegistry:
    def test_get_problem(self):
        assert get_problem("example1").name == "example1"
        with pytest.raises(KeyError):
            get_problem("example3")

    def test_coupling_constants_positive(self):
        assert example1().h_over_s > 0
        assert example2().h_over_s > 0


class TestConfigSpecs:
    def test_spatial_constant(self):
        fn = spatial_from_spec(2.5)
        assert_allclose(fn.values(np.zeros((3, 2))), 2.5)
        fn = spatial_from_spec({"kind": "constant", "value": -1.0})
        assert_allclose(fn.values(np.zeros((2, 2))), -1.0)

    def test_spatial_polynomial(self):
        fn = spatial_from_spec({"kind": "polynomial",
                                "terms": [[2.0, 1, 0], [1.0, 0, 2]]})
        x = np.array([[3.0, 2.0]])
        assert fn.values(x)[0] == pytest.approx(6.0 + 4.0)

    def test_bad_spatial_spec(self):
        with pytest.raises(ValueError):
            spatial_from_spec({"kind": "fourier"})
        with pytest.raises(ValueError):
            spatial_from_spec("x1")

    def test_density_specs(self):
        rho = density_from_spec({"kind": "uniform", "lo": 0.0, "hi": 2.0})
        assert rho.support == (0.0, 2.0)
        rho = density_from_spec({"kind": "exp-uniform"})
        assert rho.support[1] == pytest.approx(np.e)
        with pytest.raises(ValueError):
            density_from_spec({"kind": "beta"})

    def test_problem_from_config(self):
        custom = {
            "name": "toy",
            "domain": [0.0, 1.0, 0.0, 1.0],
            "densities": [{"kind": "uniform", "lo": 0.5, "hi": 1.5}],
            "fields": {
                "a": {"mean": 1.0, "modes": [{"coeff": 0.5, "shape": 1.0, "dim": 0}]},
                "f": -2.0,
                "g": {"mean": {"kind": "polynomial", "terms": [[-1.0, 0, 0]]}},
            },
        }
        prob = problem_from_config(custom)
        assert prob.name == "toy"
        assert prob.n_dims == 1
        assert prob.exact is None
        x = np.zeros((1, 2))
        assert prob.fields["a"].evaluate(x, np.array([1.0]))[0] == pytest.approx(1.5)

    def test_bad_domain_rejected(self):
        with pytest.raises(ValueError):
            problem_from_config({"domain": [0, 1, 0], "densities": [],
                                 "fields": {"a": 1.0, "f": 1.0, "g": 0.0}})
