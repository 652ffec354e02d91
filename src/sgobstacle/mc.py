"""Monte Carlo baseline: sample, assemble, solve, accumulate running moments.

Each sample draws an independent parameter vector from its own RNG stream
(derived from seed and sample index), assembles the deterministic obstacle
problem at that parameter, solves it with the configured LCP solver, and
feeds the full nodal solution into a Welford accumulator.  Affine fields get
a fast path: the spatial factor matrices are assembled once and aligned on
one CSR pattern, so a sample matrix is a weighted sum of fixed data arrays
wrapped around shared indices, with no sparse matrix arithmetic per sample.
The per-sample systems are ``SparseObstacleSystem``s, whose active-set
updates solve the reduced system exactly by banded Cholesky.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .fem import assemble_load, assemble_weighted_stiffness
from .fields import AffineField, scenario_rng
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
    """Per-sample system factory with spatial factors assembled once.

    The interior stiffness factors K0 and Kk are laid on one union CSR
    pattern, explicit zeros kept, so a sample matrix is the data vector
    d0 + sum_k y_k dk wrapped around the shared index arrays.
    """

    def __init__(self, mesh: Mesh, a_field: AffineField, f_field: AffineField,
                 g_field: AffineField, dirichlet, n_dims: int, quad_degree: int):
        interior = mesh.interior
        bnd = np.flatnonzero(mesh.boundary)
        self.interior = interior
        self.bnd = bnd
        self.xb = mesh.nodes[bnd]
        self.x_int = mesh.nodes[interior]
        self.dirichlet = dirichlet

        def stiff(w):
            K = assemble_weighted_stiffness(mesh, w, quad_degree)
            return K[interior][:, interior], K[interior][:, bnd]

        K0_ii, self.K0_ib = stiff(a_field.mean)
        factors = [None if w is None else stiff(w)
                   for w in map(a_field.dim_weight, range(n_dims))]
        self.Kk_ib = [None if f is None else f[1] for f in factors]
        self.indptr, self.indices, (self.d0, *self.dk) = _union_pattern(
            [K0_ii] + [None if f is None else f[0] for f in factors])
        self.f0 = assemble_load(mesh, f_field.mean, quad_degree)[interior]
        self.fk = []
        for k in range(n_dims):
            w = f_field.dim_weight(k)
            self.fk.append(None if w is None else assemble_load(mesh, w, quad_degree)[interior])
        self.g0 = np.asarray(g_field.mean.values(self.x_int), dtype=float)
        self.gk = []
        for k in range(n_dims):
            w = g_field.dim_weight(k)
            self.gk.append(None if w is None else w(self.x_int))

    def build(self, y: np.ndarray):
        data = self.d0.copy()
        rhs = self.f0.copy()
        obs = self.g0.copy()
        boundary = None
        for k, yk in enumerate(y):
            if self.dk[k] is not None:
                data += yk * self.dk[k]
            if self.fk[k] is not None:
                rhs += yk * self.fk[k]
            if self.gk[k] is not None:
                obs += yk * self.gk[k]
        n = self.interior.size
        K = sp.csr_array((data, self.indices, self.indptr), shape=(n, n))
        if self.dirichlet is not None and self.bnd.size:
            boundary = np.asarray(self.dirichlet(self.xb, y), dtype=float)
            rhs -= self.K0_ib @ boundary
            for yk, K_ib in zip(y, self.Kk_ib):
                if K_ib is not None:
                    rhs -= yk * (K_ib @ boundary)
        elif self.bnd.size:
            boundary = np.zeros(self.bnd.size)
        return SparseObstacleSystem(K, rhs), obs, boundary


def _union_pattern(mats):
    """Square CSR matrices on their union pattern: (indptr, indices, datas).

    Entries stored in any of the matrices, explicit zeros included, are in
    the pattern; ``datas`` holds each matrix's values at those positions
    (None for a None matrix).
    """
    n = mats[0].shape[0]
    coos = [None if M is None else sp.coo_array(M) for M in mats]
    keys = [None if c is None else c.row.astype(np.int64) * n + c.col for c in coos]
    union = np.unique(np.concatenate([k for k in keys if k is not None]))
    datas = []
    for c, key in zip(coos, keys):
        if c is None:
            datas.append(None)
            continue
        d = np.zeros(union.size)
        np.add.at(d, np.searchsorted(union, key), c.data)
        datas.append(d)
    indptr = np.concatenate(([0], np.cumsum(np.bincount(union // n, minlength=n))))
    return indptr, union % n, datas


class _GenericSampler:
    """Assembles from scratch per sample; works for non-affine fields."""

    def __init__(self, mesh: Mesh, fields: dict, dirichlet, quad_degree: int):
        self.mesh = mesh
        self.fields = fields
        self.dirichlet = dirichlet
        self.quad_degree = quad_degree
        self.interior = mesh.interior
        self.bnd = np.flatnonzero(mesh.boundary)
        self.xb = mesh.nodes[self.bnd]
        self.x_int = mesh.nodes[self.interior]

    def build(self, y: np.ndarray):
        scen_a = self.fields["a"]
        scen_f = self.fields["f"]
        scen_g = self.fields["g"]

        def at_y(fld):
            if isinstance(fld, AffineField):
                return lambda x: fld.evaluate(x, y)
            return lambda x: np.asarray(fld(x, y), dtype=float)

        K = assemble_weighted_stiffness(self.mesh, at_y(scen_a), self.quad_degree)
        rhs = assemble_load(self.mesh, at_y(scen_f), self.quad_degree)[self.interior]
        obs = at_y(scen_g)(self.x_int)
        K_ii = K[self.interior][:, self.interior]
        boundary = None
        if self.dirichlet is not None and self.bnd.size:
            boundary = np.asarray(self.dirichlet(self.xb, y), dtype=float)
            rhs = rhs - K[self.interior][:, self.bnd] @ boundary
        elif self.bnd.size:
            boundary = np.zeros(self.bnd.size)
        return SparseObstacleSystem(K_ii, rhs), obs, boundary


def mc_run(mesh: Mesh, fields: dict, densities, n_samples: int, seed: int,
           solver: SolverConfig | None = None, dirichlet=None,
           quad_degree: int = 2) -> MCResult:
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
    if affine:
        sampler = _AffineSampler(mesh, fields["a"], fields["f"], fields["g"],
                                 dirichlet, n_dims, quad_degree)
    else:
        sampler = _GenericSampler(mesh, fields, dirichlet, quad_degree)
    setup_seconds = time.perf_counter() - t_setup

    acc = MCAccumulator()
    interior = mesh.interior
    bnd = np.flatnonzero(mesh.boundary)
    full = np.zeros(mesh.n_nodes)
    warm = None
    n_failed = 0
    iters = 0
    t_loop = time.perf_counter()
    for idx in range(n_samples):
        rng = scenario_rng(seed, idx)
        y = np.array([rho.sample(rng, 1)[0] for rho in densities])
        system, obs, boundary = sampler.build(y)
        x0 = None if warm is None else np.maximum(warm, obs)
        u, report = solve_lcp(system, obs, solver, x0=x0)
        iters += report.iterations
        if not report.converged:
            n_failed += 1
            continue
        full[interior] = u
        if bnd.size:
            full[bnd] = boundary
        acc.update(full)
        warm = acc.mean[interior]
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
