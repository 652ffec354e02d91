import numpy as np
import pytest
from numpy.testing import assert_allclose

from sgobstacle.fields import at_points, bounds_check
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
        assert np.max(np.abs(self.prob.exact.grad(ring, self.y))) < 1e-3

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
        assert_allclose(self.prob.exact.grad(pts, self.y), fd, atol=1e-8)

    def test_dirichlet_is_exact_trace(self):
        edge = np.column_stack([np.full(7, 1.5), np.linspace(-1.5, 1.5, 7)])
        assert_allclose(self.prob.dirichlet(edge, self.y),
                        self.prob.exact.value(edge, self.y), rtol=1e-14)

    def test_coefficient_uniformly_positive(self):
        supports = [rho.support for rho in self.prob.densities]
        b = bounds_check(self.prob.fields["a"], supports, np.zeros((1, 2)))
        assert b.lo > 0

    def test_exp_and_xi_parameterizations_agree(self):
        xi_prob = example1("xi")
        rng = np.random.default_rng(4)
        pts = ring_points(rng, 0.5, 1.4)
        for _ in range(5):
            xi = rng.uniform(-1, 1, 2)
            assert_allclose(xi_prob.exact.value(pts, xi),
                            self.prob.exact.value(pts, np.exp(xi)), rtol=1e-13)
            assert_allclose(xi_prob.fields["a"](pts, xi),
                            self.prob.fields["a"].evaluate(pts, np.exp(xi)),
                            rtol=1e-13)

    def test_sg_ready_flags(self):
        assert self.prob.sg_ready
        assert not example1("xi").sg_ready


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
        assert_allclose(self.prob.exact.grad(pts, self.y), fd, atol=1e-7)

    def test_exp_and_xi_parameterizations_agree(self):
        xi_prob = example2("xi")
        rng = np.random.default_rng(9)
        pts = ring_points(rng, 0.2, 0.95)
        xi = rng.uniform(-1, 1, 2)
        assert_allclose(xi_prob.exact.value(pts, xi),
                        self.prob.exact.value(pts, np.exp(xi)), rtol=1e-13)
        assert_allclose(xi_prob.fields["f"](pts, xi),
                        self.prob.fields["f"].evaluate(pts, np.exp(xi)),
                        rtol=1e-13)

    def test_sg_ready_flags(self):
        assert self.prob.sg_ready
        assert not example2("xi").sg_ready


@pytest.mark.parametrize("make", [example1, example2])
@pytest.mark.parametrize("parameterization", ["exp", "xi"])
def test_exact_solution_evaluates_parameter_blocks(make, parameterization):
    # a (B, M) block of parameter points gives the stacked single-point calls
    prob = make(parameterization)
    rng = np.random.default_rng(10)
    x = ring_points(rng, 0.0, 1.4, n=40)
    ys = draw(prob.densities, rng, 9)
    values = prob.exact.value(x, ys)
    grads = prob.exact.grad(x, ys)
    assert values.shape == (9, 40)
    assert grads.shape == (9, 40, 2)
    assert_allclose(values, np.stack([prob.exact.value(x, y) for y in ys]),
                    rtol=1e-14)
    assert_allclose(grads, np.stack([prob.exact.grad(x, y) for y in ys]),
                    rtol=1e-14)


@pytest.mark.parametrize("make", [example1, example2])
@pytest.mark.parametrize("parameterization", ["exp", "xi"])
def test_dirichlet_data_lie_on_or_above_the_obstacle(make, parameterization):
    # data below g on the boundary would leave no admissible function; the
    # built-ins have g = 0 and data phi(x) psi(y) with phi >= 0 and psi > 0,
    # checked at the vertices of the parameter box and at the grid nodes
    prob = make(parameterization)
    mesh = build_uniform_mesh(prob.rect, 8)
    x = mesh.nodes[mesh.boundary]
    vertices = tensor_points([np.array(rho.support) for rho in prob.densities])
    Y = np.vstack([vertices, build_param_grid(prob.densities, 4).nodes()])
    data = prob.dirichlet(x, Y)
    obstacle = at_points(prob.fields["g"], x, prob.n_dims)(Y)
    assert data.shape == obstacle.shape == (len(Y), len(x))
    assert np.all(data >= obstacle) and np.any(data > obstacle)
    if parameterization == "xi":  # the derived data are the exp data at y = exp(xi)
        assert_allclose(data, make("exp").dirichlet(x, np.exp(Y)), rtol=1e-14)

class TestRegistry:
    def test_get_problem(self):
        assert get_problem("example1").name == "example1"
        assert get_problem("example2", "xi").parameterization == "xi"
        with pytest.raises(KeyError):
            get_problem("example3")
        with pytest.raises(ValueError):
            get_problem("example1", "lognormal")

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
        assert prob.sg_ready
        x = np.zeros((1, 2))
        assert prob.fields["a"].evaluate(x, np.array([1.0]))[0] == pytest.approx(1.5)

    def test_bad_domain_rejected(self):
        with pytest.raises(ValueError):
            problem_from_config({"domain": [0, 1, 0], "densities": [],
                                 "fields": {"a": 1.0, "f": 1.0, "g": 0.0}})
