"""Metamorphic relations of the Galerkin pipeline: a change of the data
whose effect on the solution is known, checked without an exact solution.

Scaling: a -> s a and g -> g / s, with f fixed, give u / s.  The stiffness
terms all scale by s, so the relation passes through every reader of them:
the matvec, its diagonal and the Kronecker preconditioner of the active set
method, and the explicit matrix of projected SOR.  The coefficient has
modes of other shapes than the mean, so the matvec makes three sparse
products and the preconditioner is not exact.
"""

import numpy as np
import pytest

from sgobstacle.fields import AffineField
from sgobstacle.lcp import SolverConfig, solve_lcp
from sgobstacle.mesh import build_uniform_mesh
from sgobstacle.param import Density1D, build_param_grid
from sgobstacle.system import assemble_sg


def scaled_system(level, s):
    """a = s (1 + (1 + 0.5 x1) y1 + 2 (1 - 0.3 x2) y2), f = -2 and
    g = -0.05 / s on (-1.5, 1.5)^2, y ~ exp-uniform^2."""
    nx, cells = level
    a = AffineField.build(s * 1.0, [(s * 1.0, lambda x: 1.0 + 0.5 * x[:, 0], 0),
                                    (s * 2.0, lambda x: 1.0 - 0.3 * x[:, 1], 1)])
    return assemble_sg(build_uniform_mesh((-1.5, 1.5, -1.5, 1.5), nx),
                       build_param_grid([Density1D.exp_uniform()] * 2, cells),
                       a, AffineField.build(-2.0), AffineField.build(-0.05 / s))


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
