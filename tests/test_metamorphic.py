"""Metamorphic relations of the Galerkin pipeline and the Monte Carlo
baseline: a change of the data whose effect on the solution is known,
checked without an exact solution.

Scaling: a -> s a and g -> g / s, with f fixed, give u / s.  The stiffness
terms all scale by s, so the relation passes through every reader of them:
the matvec, its diagonal and the Kronecker preconditioner of the active set
method, and the explicit matrix of projected SOR.  The coefficient has
modes of other shapes than the mean, so the matvec makes three sparse
products and the preconditioner is not exact.  A Monte Carlo run at one
seed draws the same rows and solves each sample's u / s, so its mean is
the mean / s and its variance the variance / s^2, both on the shared
factors of a coefficient that folds to one shape and on the per-sample
factors of one that does not.
"""

import numpy as np
import pytest

from sgobstacle.fields import AffineField
from sgobstacle.lcp import SolverConfig, solve_lcp
from sgobstacle.mc import mc_run
from sgobstacle.mesh import build_uniform_mesh
from sgobstacle.param import Density1D, build_param_grid
from sgobstacle.system import assemble_sg


RECT = (-1.5, 1.5, -1.5, 1.5)
DENSITIES = [Density1D.exp_uniform()] * 2


def scaled_fields(s, hard=True):
    """a = s (1 + (1 + 0.5 x1) y1 + 2 (1 - 0.3 x2) y2), or s (1 + y1 + 2 y2)
    when not ``hard``, f = -2 and g = -0.05 / s on (-1.5, 1.5)^2."""
    shapes = ((lambda x: 1.0 + 0.5 * x[:, 0], lambda x: 1.0 - 0.3 * x[:, 1]) if hard
              else (lambda x: np.ones(x.shape[0]),) * 2)
    a = AffineField.build(s * 1.0, [(s * 1.0, shapes[0], 0), (s * 2.0, shapes[1], 1)])
    return {"a": a, "f": AffineField.build(-2.0), "g": AffineField.build(-0.05 / s)}


def scaled_system(level, s):
    """The Galerkin system of ``scaled_fields(s)``, y ~ exp-uniform^2."""
    nx, cells = level
    fields = scaled_fields(s)
    return assemble_sg(build_uniform_mesh(RECT, nx), build_param_grid(DENSITIES, cells),
                       fields["a"], fields["f"], fields["g"])


# largest |u_s - u / s| measured over both levels and both scales, times
# about 1.5: the active set method stops its conjugate gradients at targets
# that do not scale with u, so it agrees to them (7.1e-12 measured); PSOR
# sweeps the same iterates up to the rounding of s (3.1e-17 measured)
SOLVERS = {
    "active-set": (SolverConfig(tol=1e-8), 1e-11),
    "psor": (SolverConfig(method="psor", omega=1.7, tol=1e-8, max_iter=1000), 5e-17),
}


@pytest.mark.parametrize("method", SOLVERS)
@pytest.mark.parametrize("level", [[8, 2], [12, 4]])
@pytest.mark.parametrize("s", [2.0, 2.5])
def test_scaling_the_coefficient_and_the_obstacle_scales_the_solution(method, level, s):
    config, bound = SOLVERS[method]
    ref = scaled_system(level, 1.0)
    u, report = solve_lcp(ref, ref.obs, config)
    sys_ = scaled_system(level, s)
    u_s, report_s = solve_lcp(sys_, sys_.obs, config)
    assert report.converged and report_s.converged
    assert ((report_s.iterations, report_s.inner_iterations)
            == (report.iterations, report.inner_iterations))
    assert np.max(np.abs(u_s - u / s)) <= bound
    if method == "psor" and s == 2.0:
        # a power of two scales every entry exactly
        assert np.array_equal(u_s, u / s)


def mc_counts(res):
    return (res.solver_iterations, res.sample_factorizations, res.distinct_factorizations,
            res.store_hits, res.blocks, res.n_failed)


@pytest.mark.parametrize("hard", [False, True], ids=["shared factors", "hard shapes"])
@pytest.mark.parametrize("nx", [8, 12])
@pytest.mark.parametrize("s", [2.0, 2.5])
def test_monte_carlo_moments_scale_with_the_solution(hard, nx, s):
    # largest |mean_s - mean / s| and |var_s - var / s^2| measured over both
    # levels, both scales and both coefficients, times about 1.5: 6.9e-18
    # and 2.0e-20 (the Cholesky factors of s K round otherwise than those
    # of K, so no case is bitwise)
    mesh = build_uniform_mesh(RECT, nx)
    ref = mc_run(mesh, scaled_fields(1.0, hard), DENSITIES, 64, seed=3)
    res = mc_run(mesh, scaled_fields(s, hard), DENSITIES, 64, seed=3)
    assert mc_counts(res) == mc_counts(ref)
    assert (ref.distinct_factorizations < ref.sample_factorizations) != hard
    assert np.max(np.abs(res.mean - ref.mean / s)) <= 1e-17
    assert np.max(np.abs(res.variance() - ref.variance() / s ** 2)) <= 3e-20
