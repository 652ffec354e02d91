"""Monte Carlo baseline: sample, assemble, solve, accumulate running moments.

Each sample draws an independent parameter vector from its own RNG stream
(derived from seed and sample index), assembles the deterministic obstacle
problem at that parameter, solves it with the configured LCP solver, and
feeds the full nodal solution into a Welford accumulator.  A sample is the
Galerkin system at one parameter point, so one sampler serves every field:
it takes the spatial factors of ``fields.affine_factors``, whose stiffness
factors all store the CSR pattern of the mesh, and makes a sample matrix a
weighted sum of their data arrays wrapped around the shared indices, with
no sparse matrix arithmetic per sample.  Affine fields are factored once
per run.  A non-affine field, frozen at the drawn y, is an affine field
with that mean and no modes, so its sampler is built again for every
sample.  The per-sample systems are ``SparseObstacleSystem``s, whose
active-set updates solve the reduced system exactly by banded Cholesky.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .fields import AffineField, affine_factors, contract, sample_parameters
from .lcp import (SolverConfig, SolverNotConverged, SparseObstacleSystem,
                  solve_lcp)
from .mesh import Mesh

__all__ = ["MCAccumulator", "MCResult", "mc_run"]

MAX_FAILURE_FRACTION = 1e-3


@dataclass
class MCAccumulator:
    """Streaming mean and second central moment (Welford, Chan merge)."""

    n: int = 0
    mean: np.ndarray | None = None
    m2: np.ndarray | None = None

    def update(self, sample: np.ndarray) -> None:
        sample = np.asarray(sample, dtype=float)
        if self.mean is None:
            self.mean = np.zeros_like(sample)
            self.m2 = np.zeros_like(sample)
        self.n += 1
        delta = sample - self.mean
        self.mean += delta / self.n
        self.m2 += delta * (sample - self.mean)

    def merge(self, other: "MCAccumulator") -> "MCAccumulator":
        """Combine two accumulators as if their samples were one stream."""
        if other.n == 0:
            return self
        if self.n == 0:
            self.n = other.n
            self.mean = other.mean.copy()
            self.m2 = other.m2.copy()
            return self
        n = self.n + other.n
        delta = other.mean - self.mean
        self.mean = self.mean + delta * (other.n / n)
        self.m2 = self.m2 + other.m2 + delta ** 2 * (self.n * other.n / n)
        self.n = n
        return self

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
    """Per-sample system factory on the shared affine factors.

    The interior stiffness factors K0 and Kk all store the CSR pattern of
    the mesh (``fields.affine_factors``), so a sample matrix is the data
    vector d0 + sum_k y_k dk wrapped around K0's index arrays.  Load,
    obstacle and Dirichlet lifting contract their factors with (1, y), the
    Galerkin weights of a single parameter point.
    """

    def __init__(self, mesh: Mesh, a_field: AffineField, f_field: AffineField,
                 g_field: AffineField, dirichlet, n_dims: int):
        self.factors = affine_factors(mesh, a_field, f_field, g_field, n_dims)
        self.dirichlet = dirichlet
        K0 = self.factors.K_ii[0]
        self.indptr, self.indices = K0.indptr, K0.indices
        self.d0, *self.dk = (None if K is None else K.data for K in self.factors.K_ii)

    def build(self, y: np.ndarray):
        data = self.d0.copy()
        for yk, dk in zip(y, self.dk):
            if dk is not None:
                data += yk * dk
        n = self.indptr.size - 1
        K = sp.csr_array((data, self.indices, self.indptr), shape=(n, n))
        weights = np.concatenate(([1.0], y))[:, None]
        rhs = contract(self.factors.load, weights)
        boundary = self.factors.lift(rhs, self.dirichlet, [y], weights[:, :, None])
        obs = contract(self.factors.obs, weights)
        return SparseObstacleSystem(K, rhs[0]), obs[0], boundary[:, 0]


def _frozen(fld, y: np.ndarray) -> AffineField:
    """A field at one parameter point: a non-affine callable (x, y) -> values
    is the AffineField with its values at y as the mean and no modes."""
    if isinstance(fld, AffineField):
        return fld
    return AffineField.build(lambda x: fld(x, y))


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
    n_dims = len(densities)
    t_setup = time.perf_counter()
    affine = all(isinstance(fields[k], AffineField) for k in ("a", "f", "g"))

    def sampler_at(y):
        return _AffineSampler(mesh, *(_frozen(fields[k], y) for k in ("a", "f", "g")),
                              dirichlet, n_dims)

    sampler = sampler_at(None) if affine else None
    setup_seconds = time.perf_counter() - t_setup

    acc = MCAccumulator()
    warm = None
    n_failed = 0
    iters = 0
    t_loop = time.perf_counter()
    for idx in range(n_samples):
        y = sample_parameters(densities, seed, idx)
        if not affine:
            sampler = sampler_at(y)
        system, obs, boundary = sampler.build(y)
        x0 = None if warm is None else np.maximum(warm, obs)
        u, report = solve_lcp(system, obs, solver, x0=x0)
        iters += report.iterations
        if not report.converged:
            n_failed += 1
            continue
        acc.update(mesh.full_values(u, boundary))
        warm = acc.mean[mesh.interior]
    loop_seconds = time.perf_counter() - t_loop

    if n_failed > MAX_FAILURE_FRACTION * n_samples:
        raise SolverNotConverged(
            f"{n_failed} of {n_samples} sample solves failed to converge")
    return MCResult(
        accumulator=acc,
        n_samples=n_samples,
        n_failed=n_failed,
        seed=seed,
        timings={"setup": setup_seconds, "samples": loop_seconds},
        solver_iterations=iters,
    )
