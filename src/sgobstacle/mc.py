"""Monte Carlo baseline: sample, assemble, solve, accumulate running moments.

Each sample draws an independent parameter vector from its own RNG stream
(derived from seed and sample index), so the draws do not depend on how
samples are grouped.  Samples are solved in blocks: a block of B samples
is one block-diagonal LCP whose diagonal block j is the obstacle problem at
the j-th parameter row, solved with the configured LCP solver from the
running mean; its solutions enter the accumulator in one pairwise update
of the block's mean and sum of squared deviations.  One sampler per run
serves every field: it evaluates a, f and g at a block's rows (an affine
field as its mean plus the rows times its modes, a callable in one call
on all rows) and maps the values through the mesh operator
(``fem.P1Operator``) into the block's stiffness entries, loads, obstacle
values and Dirichlet lifting.  The systems are ``SparseObstacleSystem``s:
the preconditioner of an active-set update is a banded Cholesky solve of
the system with unit rows on the active entries, exact on the inactive
ones, so an update takes one conjugate gradient step; block-diagonal
stacking keeps the band of one sample.

B is ``MC_BLOCK_NODES`` interior nodes divided by the sample size (at least
one sample).  The cap keeps the working set of the band Cholesky small:
blocks of 16384 nodes raised the peak memory of a run, 4096 did not.  One
sample that does not converge (a coefficient that is not positive at the
drawn point, say) fails its whole block, so a failed block is solved again
one sample at a time and failures stay counted per sample.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .fem import P1Operator
from .fields import at_points, lift, sample_parameters, spatial_data
from .lcp import (SolverConfig, SolverNotConverged, SparseObstacleSystem,
                  solve_lcp)
from .mesh import Mesh

__all__ = ["MCAccumulator", "MCResult", "mc_run"]

MAX_FAILURE_FRACTION = 1e-3
MC_BLOCK_NODES = 4096  # interior nodes per block-diagonal sample system


@dataclass
class MCAccumulator:
    """Streaming mean and sum of squared deviations m2 over blocks of samples.

    Each block is folded in with one pairwise update (Chan, Golub and
    LeVeque, 1983) of its own mean and m2, so m2 stays a sum of non-negative
    terms and the variance is never negative.
    """

    n: int = 0
    mean: np.ndarray | None = None
    m2: np.ndarray | None = None

    def update(self, samples: np.ndarray) -> None:
        """Add the rows of ``samples``, a (B, n) block or one sample (n,)."""
        samples = np.atleast_2d(np.asarray(samples, dtype=float))
        if self.mean is None:
            self.mean = np.zeros(samples.shape[1:])
            self.m2 = np.zeros(samples.shape[1:])
        count = len(samples)
        n = self.n + count
        block_mean = samples.mean(axis=0)
        delta = block_mean - self.mean
        self.m2 += ((samples - block_mean) ** 2).sum(axis=0) + delta ** 2 * (self.n * count / n)
        self.mean += delta * (count / n)
        self.n = n

    def variance(self, ddof: int = 1) -> np.ndarray:
        if self.n <= ddof:
            raise ValueError("not enough samples for the requested ddof")
        return self.m2 / (self.n - ddof)

    def standard_error(self) -> np.ndarray:
        return np.sqrt(self.variance() / self.n)


@dataclass
class MCResult:
    accumulator: MCAccumulator
    n_samples: int
    n_failed: int
    seed: int
    timings: dict = field(default_factory=dict)
    solver_iterations: int = 0

    @property
    def mean(self) -> np.ndarray:
        return self.accumulator.mean

    def variance(self) -> np.ndarray:
        return self.accumulator.variance()


class _AffineSampler:
    """Block system factory of one run, for affine and callable fields.

    The mesh operator and the points at which a, f (quadrature points) and
    g (interior nodes) are evaluated are fixed once; ``build`` evaluates the
    fields at a block of parameter rows and maps the values through the
    operator (``fields.spatial_data`` and ``fields.lift``).
    """

    def __init__(self, mesh: Mesh, a_field, f_field, g_field, dirichlet, n_dims: int):
        self.op, self.dirichlet = P1Operator(mesh), dirichlet
        points = (self.op.points, self.op.points, mesh.nodes[mesh.interior])
        self.fields = [at_points(fld, x, n_dims)
                       for fld, x in zip((a_field, f_field, g_field), points)]

    def build(self, Y: np.ndarray):
        """The block-diagonal system of the parameter rows ``Y`` (B, M).

        Returns the ``SparseObstacleSystem`` whose diagonal block j is the
        sample system at ``Y[j]``, the stacked obstacle (B * I,) and the
        Dirichlet data (B, n_boundary).
        """
        data = spatial_data(self.op, *(values(Y) for values in self.fields))
        D, lifting = lift(self.op, self.dirichlet, Y, data.K_ib)
        K = self.op.interior.csr(data.K_ii)
        return SparseObstacleSystem(K, (data.load - lifting).ravel()), data.obs.ravel(), D


def mc_run(mesh: Mesh, fields: dict, densities, n_samples: int, seed: int,
           solver: SolverConfig | None = None, dirichlet=None) -> MCResult:
    """Run the Monte Carlo baseline and return accumulated nodal moments.

    ``fields`` maps 'a', 'f', 'g' to AffineFields or parametric callables;
    ``densities`` is one Density1D per parameter dimension.  Samples whose
    LCP solve does not converge are skipped and counted; more than 0.1%
    failures raise ``SolverNotConverged``.
    """
    if solver is None:
        solver = SolverConfig(method="active-set")
    t_setup = time.perf_counter()
    sampler = _AffineSampler(mesh, fields["a"], fields["f"], fields["g"], dirichlet,
                             len(densities))
    block = max(1, MC_BLOCK_NODES // mesh.interior.size)
    setup_seconds = time.perf_counter() - t_setup

    acc = MCAccumulator()
    n_failed = 0
    iters = 0

    def solve_block(Y) -> int:
        """Solve the rows of Y as one system, warm-started from the running
        mean, and accumulate them in order; returns the number that failed.
        A failed block is solved again sample by sample."""
        nonlocal iters
        system, obs, boundary = sampler.build(Y)
        x0 = None if acc.mean is None else np.maximum(
            np.tile(acc.mean[mesh.interior], len(Y)), obs)
        u, report = solve_lcp(system, obs, solver, x0=x0)
        iters += report.iterations
        if not report.converged:
            return 1 if len(Y) == 1 else sum(solve_block(y[None]) for y in Y)
        acc.update(mesh.full_values(u.reshape(len(Y), -1), boundary))
        return 0

    t_loop = time.perf_counter()
    for start in range(0, n_samples, block):
        Y = np.array([sample_parameters(densities, seed, idx)
                      for idx in range(start, min(start + block, n_samples))])
        n_failed += solve_block(Y)
    loop_seconds = time.perf_counter() - t_loop

    if n_failed > MAX_FAILURE_FRACTION * n_samples:
        raise SolverNotConverged(
            f"{n_failed} of {n_samples} sample solves failed to converge")
    return MCResult(accumulator=acc, n_samples=n_samples, n_failed=n_failed, seed=seed,
                    timings={"setup": setup_seconds, "samples": loop_seconds},
                    solver_iterations=iters)
