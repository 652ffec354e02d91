"""Monte Carlo baseline: sample, assemble, solve, accumulate running moments.

A run draws its parameter rows from one RNG stream, seeded by its seed,
one block per call (``param.draw``), so the draws do not depend on how
samples are grouped.  Samples are solved in blocks: a block of B samples is
one block-diagonal LCP whose diagonal block j is the obstacle problem at
the j-th parameter row, solved with the configured LCP solver; its
solutions enter the accumulator in one pairwise update of the block's mean
and sum of squared deviations.  The rows are drawn in y whatever the
experiment's parameterization, which only concerns the Galerkin hats.  One sampler per run serves every field: it maps the affine terms of
a, f and g through the mesh operator once (``fields.affine_factors``, the
data of the Galerkin system), and a block's stiffness entries, loads and
obstacle values are [1, Y] times those terms for its rows Y.  The Dirichlet
data and their lifting are made per block (``fields.lift``), because they
are not affine in y.  The systems are ``SparseObstacleSystem``s, whose
preconditioner is an exact banded Cholesky solve of the system with unit
rows on the active entries, so an active-set update is one apply of it and
no conjugate gradients.  The samples are the system's diagonal blocks, of
I rows each, so its band is (shapes, I, depth).  When the stiffness terms
fold to one spatial shape K (``fields.fold_terms``), as in both of the
paper's examples, sample s's stiffness is c_s K with c_s = [1, y_s] times
the terms' ratios to K: the sampler makes the band (1, I, depth) of K once
per run (``lcp.lower_band``), and a block hands it over as its one shape
with its samples' scales and the run's one ``lcp.FactorStore``, keyed by
held set, so samples that hold one active set share one Cholesky factor
across every block of the run, and a block solves its samples of one factor
in one call.  Otherwise a block's band is the bands of its stiffness rows
(``lcp.lower_band``), a shape per sample (B, I, depth), and each sample is
factored on its own.  An update refactors and solves again only the samples
whose active set moved; ``MCResult`` counts the samples brought to a new
set and the Cholesky factors made in the run, the store's hits, evictions
and peak bytes, the block systems solved and the samples that kept their
start set.

The first block holds one sample and starts cold.  Each next block holds
twice as many, up to the cap of ``MC_BLOCK_NODES`` interior nodes divided
by the sample size (at least one sample), and starts from the running mean
with a start set per sample.  Of the last block that converged the run
keeps one parameter row per distinct final set (the entries where u sits
on the obstacle), and a sample's first active-set update holds the set of
the kept row nearest to its own in y (projected SOR ignores the set).  The
active set method converges from any start set on these M-matrix systems,
so a start set changes the path, not the answer; a block whose samples all
keep their start sets takes one update, and ``start_sets_kept`` counts the
samples that keep theirs.  The nearest rows come from one (B, D) table for
a block of B samples and D <= min(B, 2^I) kept sets, not from a table of
the two blocks' rows (16,384 x 8,192 doubles at nx = 2).  Past the first
few blocks a run solves few block systems, and more samples of one active
set share each solve call.  The block's arrays grow with the
cap, the shared factors do not: a CLI run of 768 samples of the paper's
example 1 at nx = 16 peaked at 64.2 / 66.8 / 76.5 MB RSS with caps of
4096 / 16384 / 65536 nodes.  The store
keeps at most ``MC_FACTOR_BYTES`` of factors and drops the least recently
used beyond: a factor takes 2.1 MB at nx = 64, where 768 samples of a
moving contact set can hold 414 distinct sets, 0.87 GB of factors.  One
sample that does not converge (a coefficient that is not positive at the
drawn point, say) fails its whole block, so a failed block is solved again
one sample at a time on its own rows, and failures stay counted per sample.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, fields as dataclass_fields

import numpy as np

from .fem import P1Operator
from .fields import affine_factors, fold_terms, lift
from .lcp import (FactorStore, SolverConfig, SolverNotConverged, SparseObstacleSystem,
                  lower_band, solve_lcp)
from .mesh import Mesh
from .param import draw

__all__ = ["MCAccumulator", "MCResult", "mc_run"]

MAX_FAILURE_FRACTION = 1e-3
MC_BLOCK_NODES = 16384  # interior nodes per block-diagonal sample system
MC_FACTOR_BYTES = 2 ** 28  # bytes of shared Cholesky factors a run keeps at most


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

    def variance(self) -> np.ndarray:
        """The unbiased sample variance, m2 / (n - 1)."""
        if self.n < 2:
            raise ValueError("the sample variance needs at least two samples")
        return self.m2 / (self.n - 1)

    def standard_error(self) -> np.ndarray:
        return np.sqrt(self.variance() / self.n)


@dataclass
class MCResult:
    """The moments and counters of one ``mc_run``.  The counters are the
    fields that start at 0, and ``counters()`` lists them in their order."""

    accumulator: MCAccumulator
    n_samples: int
    seed: int
    timings: dict = field(default_factory=dict)
    n_failed: int = 0  # samples whose solve did not converge
    solver_iterations: int = 0  # active-set updates or PSOR sweeps, over every block system
    sample_factorizations: int = 0  # sample blocks brought to a new active set
    distinct_factorizations: int = 0  # Cholesky factors made, over every block system
    store_hits: int = 0  # sample solves served by a factor in the run's store
    store_evictions: int = 0  # factors the store dropped at its cap
    store_peak_bytes: int = 0  # the most bytes the store held
    blocks: int = 0  # block systems solved, not counting per-sample retries
    start_sets_kept: int = 0  # samples whose start set was also their final set

    @property
    def mean(self) -> np.ndarray:
        return self.accumulator.mean

    def variance(self) -> np.ndarray:
        return self.accumulator.variance()

    def counters(self) -> dict:
        return {f.name: getattr(self, f.name) for f in dataclass_fields(self)
                if f.default == 0}


class _AffineSampler:
    """Block system factory of one run.

    The spatial data of the affine terms of a, f and g
    (``fields.affine_factors``) are made once, and so is the CSR pattern of
    the block-diagonal stiffness (``fem.Block.pattern``) of ``block``
    samples, the run's largest block, whose prefix serves the shorter ones
    (a longer block builds it again); ``build`` takes a
    block's stiffness entries, loads and obstacle values as [1, Y] times the
    terms and its Dirichlet data and lifting from ``fields.lift``.  When the
    stiffness terms fold to one shape K, ``band`` is the lower band
    (1, I, depth) of K (``lcp.lower_band``), oriented to a positive
    diagonal, ``ratios`` gives term k as ratios[k] K (``fields.fold_terms``'
    ratio vector, 0 for an all-zero term) and ``store`` holds the run's
    shared factors; otherwise all three are None.
    """

    def __init__(self, mesh: Mesh, a_field, f_field, g_field, dirichlet, n_dims: int,
                 block: int = 1):
        self.op, self.dirichlet = P1Operator(mesh), dirichlet
        self.terms = affine_factors(self.op, a_field, f_field, g_field, n_dims)
        # the block-diagonal CSR pattern of the largest block yet
        self.pattern = self.op.interior.pattern(block)
        self.band = self.ratios = self.store = None
        groups = fold_terms(self.terms.K_ii)
        if len(groups) == 1:
            (g, self.ratios), = groups
            self.band = lower_band(self.op.interior.indptr, self.op.interior.indices,
                                   self.terms.K_ii[g][None])
            if self.band[..., 0].sum() < 0.0:  # orient K so that a positive scale is SPD
                self.band, self.ratios = -self.band, -self.ratios
            self.store = FactorStore(MC_FACTOR_BYTES)

    def build(self, Y: np.ndarray):
        """The block-diagonal system of the parameter rows ``Y`` (B, M).

        Returns the ``SparseObstacleSystem`` whose diagonal block j is the
        sample system at ``Y[j]``, the stacked obstacle (B * I,) and the
        Dirichlet data (B, n_boundary).  The system's band is the folded
        band as its one shape (1, I, depth), with the samples' scales [1, Y]
        ``ratios`` and the run's factor store, or else the bands of the
        block's stiffness rows, a shape per sample (B, I, depth).
        """
        Y1 = np.column_stack((np.ones(len(Y)), Y))
        t = self.terms
        K_ii, K_ib, load, obs = (Y1 @ x for x in (t.K_ii, t.K_ib, t.load, t.obs))
        D, lifting = lift(self.op, self.dirichlet, Y, K_ib)
        interior = self.op.interior
        if self.pattern[1].size < K_ii.size:
            self.pattern = interior.pattern(len(Y))
        if self.band is None:
            band, scales = lower_band(interior.indptr, interior.indices, K_ii), None
        else:
            band, scales = self.band, Y1 @ self.ratios
        system = SparseObstacleSystem(interior.csr(K_ii, self.pattern),
                                      (load - lifting).ravel(), band, scales, self.store)
        return system, obs.ravel(), D


def _nearest(Y: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """The index of the row of ``rows`` (D, M) nearest to each row of ``Y``
    (B, M) in the Euclidean norm, from one (B, D) table."""
    return np.argmin(np.einsum("ij,ij->i", rows, rows) - 2.0 * (Y @ rows.T), axis=1)


def mc_run(mesh: Mesh, fields: dict, densities, n_samples: int, seed: int,
           solver: SolverConfig = SolverConfig(), dirichlet=None) -> MCResult:
    """Run the Monte Carlo baseline and return accumulated nodal moments.

    ``fields`` maps 'a', 'f', 'g' to AffineFields;
    ``densities`` is one Density1D per parameter dimension, drawn from
    ``np.random.default_rng(seed)``.  Samples whose LCP solve does not
    converge are skipped and counted; more than 0.1% failures raise
    ``SolverNotConverged``.  The ``MCResult`` is made before the first
    block, and each block adds its counts to it.
    """
    t_setup = time.perf_counter()
    cap = max(1, MC_BLOCK_NODES // mesh.interior.size)
    sampler = _AffineSampler(mesh, fields["a"], fields["f"], fields["g"], dirichlet,
                             len(densities), min(cap, n_samples))
    rng = np.random.default_rng(seed)
    result = MCResult(MCAccumulator(), n_samples, seed,
                      timings={"setup": time.perf_counter() - t_setup})
    acc = result.accumulator
    # of the last block that converged: a parameter row per distinct final set
    rows = sets = None

    def solve_block(Y) -> bool:
        """Solve the rows of Y as one system, from the running mean with each
        sample's first update holding the final set of its nearest row, and
        accumulate them in order if it converged; returns whether it did."""
        nonlocal rows, sets
        system, obs, boundary = sampler.build(Y)
        x0 = held = None
        if acc.mean is not None:
            x0 = np.tile(acc.mean[mesh.interior], len(Y))
            held = sets[_nearest(Y, rows)].ravel()
        u, report = solve_lcp(system, obs, solver, x0=x0, held=held)
        result.solver_iterations += report.iterations
        result.sample_factorizations += system.factored_blocks
        result.distinct_factorizations += system.distinct_factorizations
        if report.converged:
            u = u.reshape(len(Y), -1)
            final = u <= obs.reshape(u.shape)
            if held is not None:
                result.start_sets_kept += int(np.count_nonzero(
                    (held.reshape(u.shape) == final).all(axis=1)))
            # each packed row as one item of bytes: np.unique(axis=0) on the
            # packed rows is about 200 times slower on a block at nx = 64
            packed = np.packbits(final, axis=1)
            first = np.unique(packed.view(f"V{packed.shape[1]}")[:, 0], return_index=True)[1]
            rows, sets = Y[first], final[first]
            acc.update(mesh.full_values(u, boundary))
        return report.converged

    t_loop = time.perf_counter()
    start, block = 0, 1
    while start < n_samples:
        Y = draw(densities, rng, min(block, n_samples - start))
        # a failed block is solved again sample by sample, here: a solve_block
        # that called itself would keep the run's factor store alive in a
        # reference cycle until the cyclic garbage collector ran
        if not solve_block(Y):
            result.n_failed += 1 if len(Y) == 1 else sum(not solve_block(y[None]) for y in Y)
        start, block = start + len(Y), min(2 * block, cap)
        result.blocks += 1
    result.timings["samples"] = time.perf_counter() - t_loop

    if result.n_failed > MAX_FAILURE_FRACTION * n_samples:
        raise SolverNotConverged(
            f"{result.n_failed} of {n_samples} sample solves failed to converge")
    store = sampler.store or FactorStore()
    result.store_hits, result.store_evictions = store.hits, store.evictions
    result.store_peak_bytes = store.peak_bytes
    return result
