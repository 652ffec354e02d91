"""Solvers for the linear complementarity problem u >= g, Au >= b, complementary.

Systems are given as objects exposing ``n``, ``b``, ``matvec``, ``diag``,
``precond()`` and ``explicit()`` (returns the CSR matrix, or None); A must
be symmetric positive definite.  ``precond()`` is called once per solve
and returns ``apply(r, active)``: for the boolean mask ``active`` of the
entries held at the obstacle and a full-length ``r`` that is zero on them,
an approximate inverse of the inactive block A[free][:, free] applied to
``r``, again full-length.  Nothing held (an all-false mask) makes it an
approximate inverse of A.  Solves never leave the index space of A:
masking the matvec and the preconditioner output holds the active entries
at zero.  An ``apply`` whose ``exact`` attribute is true declares that it
is the exact inverse, and the active set method then takes one apply of it
as the whole linear solve.  ``matvec`` and ``apply`` return either arrays
of their own, which the solver may overwrite, or their input, which it
does not.  The plain sparse system solves the inactive
block by banded Cholesky and declares it exact; the Galerkin system applies
its Kronecker preconditioner, truncated at the spatial nodes that the set
holds at every parameter node, and declares nothing, so its solves run
conjugate gradients.  The sparse system's diagonal blocks share one size,
and it refactors and re-solves only the blocks whose set or right-hand side
moved.  Handed one shape with a scale per block (a Monte Carlo block whose
samples share a stiffness shape), it keeps the factors of its held sets in
a ``FactorStore`` that a Monte Carlo run shares among its block systems,
and solves the blocks of one held set in one LAPACK ``dpbtrs`` call with
one column per block.

The active set method is an inexact semismooth Newton iteration, and each
of its steps is one linear solve on the inactive set.  The unconstrained
cold start is the same solve with nothing held.  While the set still moves,
an update's conjugate gradients stop once the 2-norm of the masked residual
is a tenth of that of the complementarity residual, and once the set
repeats after such a loose solve, that set is solved once more to the
tight target, a hundredth of ``tol``, before the iteration stops.  Both
targets are absolute, so an update takes its start residual in one matvec
and needs no right-hand side of its own; an update whose set holds no entry
off the obstacle takes it from lambda = Au - b, without the matvec.  An
exact update is tight by construction.  ``iterations`` counts every update,
the tight re-solve included, and ``trace`` records each one
(``active_set_solve``).

Conjugate gradients run in buffers that the solve owns: they take over the
start iterate and residual that the step builds, update x, r and p in
place, and mask the matvec and preconditioner outputs in place.  So a
Galerkin solve holds at its peak b, the obstacle, diag(A), the iterate u,
x, r, p, one work vector (the product being made) and the temporaries of
that product: about 14 vectors of the system's size.

Projected SOR (Cryer, SIAM J. Control 1971) sweeps the rows of the explicit
matrix class by class in a greedy multicolour order (``psor_solve``), so it
converges for SPD A and omega in (0, 2); ``iterations`` counts sweeps.
"""

from __future__ import annotations

import time
from bisect import bisect_left
from collections import OrderedDict
from dataclasses import asdict, dataclass, field
from itertools import combinations

import numpy as np
import scipy.sparse as sp
from numpy.lib.stride_tricks import sliding_window_view
from scipy.linalg import cholesky_banded
from scipy.linalg.lapack import dpbtrs

from ._checks import integer, number

__all__ = [
    "FactorStore",
    "SolverConfig",
    "SolveReport",
    "SolverNotConverged",
    "SparseObstacleSystem",
    "complementarity_residual",
    "greedy_colouring",
    "lower_band",
    "psor_solve",
    "active_set_solve",
    "solve_lcp",
    "brute_force_solve",
]


@dataclass(frozen=True)
class SolverConfig:
    """Knobs shared by both solvers.

    ``max_iter`` counts PSOR sweeps or active-set updates; None picks 50
    sweeps for PSOR and 100 updates for the active-set method.  The inner
    conjugate gradient solves of the active-set method stop at an absolute
    residual target derived from ``tol`` and the complementarity residual
    (``active_set_solve``) and take at most 500 steps each, whatever the
    system size.
    """

    method: str = "active-set"
    omega: float = 1.5
    tol: float = 1e-8
    max_iter: int | None = None

    def __post_init__(self):
        if self.method not in ("psor", "active-set"):
            raise ValueError(f"unknown solver method {self.method!r}")
        if not 0.0 < number(self.omega, "omega") < 2.0:
            raise ValueError("omega must lie in (0, 2)")
        if number(self.tol, "tol") <= 0.0:
            raise ValueError("tol must be positive")
        if self.max_iter is not None:
            integer(self.max_iter, "max_iter", 1)


class SolverNotConverged(RuntimeError):
    """A solve, or too many Monte Carlo sample solves, did not converge."""


@dataclass
class SolveReport:
    converged: bool
    iterations: int
    residual: float
    active_count: int
    seconds: float
    inner_iterations: int = 0
    trace: list = field(default_factory=list)

    def as_dict(self) -> dict:
        return asdict(self)


class FactorStore:
    """Banded Cholesky factors of one shape keyed by held set, shared by the
    block systems of that shape: a Monte Carlo run hands one to each block.
    Past ``cap`` bytes the least recently used factor is dropped.  ``hits``
    counts the block solves served by a factor already made, ``evictions``
    the factors dropped and ``peak_bytes`` the most bytes kept."""

    def __init__(self, cap=np.inf):
        self.cap = cap
        self._factors = OrderedDict()
        self.bytes = self.peak_bytes = self.hits = self.evictions = 0

    def fetch(self, uses, make):
        """The factors of the held sets of ``uses`` (set -> the blocks that
        need it), now the most recently used.  ``make(new)`` returns the
        factors of the sets ``new`` that the store lacks; if it raises, the
        store is unchanged."""
        new = [key for key in uses if key not in self._factors]
        made = make(new) if new else []
        for key in uses:
            if key in self._factors:
                self._factors.move_to_end(key)
        self._factors.update(zip(new, made))
        factors = {key: self._factors[key] for key in uses}
        self.hits += sum(map(len, uses.values())) - len(new)
        self.bytes += sum(f.nbytes for f in made)
        while self.bytes > self.cap:
            self.bytes -= self._factors.popitem(last=False)[1].nbytes
            self.evictions += 1
        self.peak_bytes = max(self.peak_bytes, self.bytes)
        return factors


class SparseObstacleSystem:
    """Plain sparse LCP data; the preconditioner is an exact banded Cholesky solve.

    A's diagonal blocks (the samples of a Monte Carlo block) share one size,
    and the system keeps their lower bands (LAPACK lower form, transposed:
    one row per column) as ``band`` (shapes, size, depth): block j, A's rows
    j size to (j + 1) size, is ``scales[j]`` (else 1) times shape j modulo
    shapes.  A caller that knows them passes ``band``, and ``scales`` with a
    band of one shape (``mc._AffineSampler.build``); else the first apply
    reads the band off A as one block (1, n, depth) with the same builder
    (``lower_band``), duplicate entries summed.

    An apply of ``precond()`` moves the blocks whose held set differs from
    the one they were factored with (all at first) and solves again the
    moved blocks and those whose right-hand side changed.  With ``scales``
    the factors of the shape, one per held set, live in ``store`` (a
    ``FactorStore`` of its own without one): the sets it lacks are factored
    in one ``cholesky_banded`` call, and the blocks of one set are solved in
    one ``dpbtrs`` call, a column each, then divided by their scales.
    Without ``scales`` the moved blocks' stacked factors are remade and the
    blocks solved on their stacked rows, one call each.  A factor
    that is not positive definite, or a moved block with a free entry whose
    scale is not positive (which a shared factor would hide), raises
    numpy.linalg.LinAlgError on that apply before anything changes.
    ``factored_blocks`` and ``distinct_factorizations`` count the blocks
    moved and the factors made.
    """

    def __init__(self, A, b, band=None, scales=None, store=None):
        self.A = sp.csr_array(A)
        self.b = np.asarray(b, dtype=float)
        self.n = self.A.shape[0]
        if self.A.shape != (self.n, self.n):
            raise ValueError(f"A must be square, got shape {self.A.shape}")
        if self.b.shape != (self.n,):
            raise ValueError(f"b must have length {self.n}, got shape {self.b.shape}")
        if band is not None:
            if band.ndim != 3:
                raise ValueError(f"band must be (shapes, size, depth), got shape {band.shape}")
            if not (len(band) and band.shape[1] and self.n % (len(band) * band.shape[1]) == 0):
                raise ValueError(f"the shapes times the size of band must divide {self.n}, "
                                 f"got shape {band.shape}")
        if scales is not None:
            if band is None or len(band) != 1:
                raise ValueError("scales need a band of one shape")
            scales = np.asarray(scales, dtype=float)
            if scales.shape != (self.n // band.shape[1],):
                raise ValueError(f"scales must have one entry per block, "
                                 f"got shape {scales.shape}")
            store = FactorStore() if store is None else store
        elif store is not None:
            raise ValueError("a factor store needs scales")
        self._band, self._scales = band, scales  # else read off A
        self._store = store  # with scales: the shape's factors by held set
        self._factor = None  # without scales: the stacked factors of the blocks
        self._held = None  # the set of entries held when each block was factored
        self._r, self._x = None, np.empty(self.n)  # right-hand side, solution of the last apply
        self.factored_blocks = self.distinct_factorizations = 0

    def matvec(self, v):
        return self.A @ v

    def diag(self):
        return self.A.diagonal()

    def explicit(self):
        return self.A

    def precond(self):
        """``apply(r, active)``: the exact solve with A[free][:, free], on
        full-length vectors.

        The ``active`` rows and columns of A are zeroed with a unit diagonal,
        which decouples them and keeps the band, so a vector that is zero on
        the active entries comes back zero there.  The apply is ``exact``;
        it first brings the system's factors to its ``active``.
        """
        def apply(r, active):
            return self._apply(np.asarray(r, dtype=float), np.asarray(active, dtype=bool))

        apply.exact = True
        return apply

    def _apply(self, r, active):
        """The solution for ``r`` with the ``active`` entries held.  ``r``,
        ``active`` and the solution are seen as (blocks, size), so a block is
        one index.  The band and the factors are kept transposed, one row per
        column of A, so LAPACK reads the stacked blocks without a copy."""
        if self._band is None:
            A = self.A
            if not A.has_canonical_format:
                A = A.copy()
                A.sum_duplicates()
            self._band = lower_band(A.indptr, A.indices, A.data[None])
        r, held = r.reshape(-1, self._band.shape[1]), active.reshape(-1, self._band.shape[1])
        moved = (np.ones(len(held), dtype=bool) if self._held is None
                 else (held != self._held).any(axis=1))
        if self._scales is not None and np.any(moved & ~(self._scales > 0.0)
                                               & ~held.all(axis=1)):
            raise np.linalg.LinAlgError("a block with a free entry has a scale that is "
                                        "not positive")
        solve = moved if self._r is None else moved | (r != self._r).any(axis=1)
        if self._scales is None:
            self._stacked_solve(r, held, moved, solve)
        else:
            self._shared_solve(r, held, solve)
        self._held = held.copy()  # the blocks that did not move hold it already
        self.factored_blocks += int(np.count_nonzero(moved))
        self._r = r.copy()
        return self._x.copy()

    def _factored(self, blocks, held):
        """The stacked Cholesky factors (blocks, size, depth) of the block
        indices ``blocks``, each its shape masked by its row of ``held``."""
        shapes, size, depth = self._band.shape
        band = self._band[blocks % shapes].reshape(-1, depth)
        factor = cholesky_banded(_masked(band, held[blocks].ravel()).T, lower=True,
                                 overwrite_ab=True, check_finite=False).T
        return factor.reshape(-1, size, depth)

    def _stacked_solve(self, r, held, moved, solve):
        """Refactor the blocks flagged in ``moved``, each on its own,
        and solve those flagged in ``solve`` on their stacked rows."""
        blocks = np.flatnonzero(moved)
        if self._factor is None:  # the first apply moves every block
            self._factor = self._factored(blocks, held)
        elif blocks.size:
            self._factor[blocks] = self._factored(blocks, held)
        self.distinct_factorizations += blocks.size
        if solve.any():
            blocks = slice(None) if solve.all() else np.flatnonzero(solve)
            x = _band_solve(self._factor[blocks], r[blocks].ravel())
            self._x.reshape(r.shape)[blocks] = x.reshape(-1, r.shape[1])

    def _shared_solve(self, r, held, solve):
        """Solve the blocks flagged in ``solve`` on their held sets' factors
        from the store, one ``dpbtrs`` call per set; the sets that the store
        lacks are factored first, in one call on their first blocks."""
        uses = {}  # each held set, and the blocks to solve that hold it
        for j in np.flatnonzero(solve):
            uses.setdefault(held[j].tobytes(), []).append(j)

        def make(new):
            factor = self._factored(np.array([uses[key][0] for key in new]), held)
            self.distinct_factorizations += len(new)
            return [f.copy() for f in factor]

        x = self._x.reshape(r.shape)
        for key, f in self._store.fetch(uses, make).items():
            blocks = uses[key]
            x[blocks] = (_band_solve(f, r[blocks].T).T
                         / np.where(held[blocks], 1.0, self._scales[blocks, None]))


def _band_solve(factor, rhs):
    """``rhs`` (n,) or (n, k) solved with a banded Cholesky factor, given in
    transposed lower form (..., depth) of n rows, in one LAPACK ``dpbtrs``
    call."""
    x, info = dpbtrs(factor.reshape(-1, factor.shape[-1]).T, rhs, lower=1)
    if info:
        raise np.linalg.LinAlgError(f"dpbtrs failed with info {info}")
    return x


def lower_band(indptr, indices, data):
    """The transposed lower bands (..., n, depth) of the rows of stored
    entries ``data`` (..., nnz) on one CSR pattern without duplicate
    entries: entry (j + k, j) goes to [..., j, k], as deep as the farthest
    stored entry below the diagonal, and the rest is zero."""
    n = len(indptr) - 1
    k = np.repeat(np.arange(n), np.diff(indptr)) - indices
    depth = int(k.max(initial=0)) + 1
    lower = np.flatnonzero(k >= 0)
    band = np.zeros(data.shape[:-1] + (n * depth,))
    band[..., indices[lower] * depth + k[lower]] = data[..., lower]
    return band.reshape(data.shape[:-1] + (n, depth))


def _masked(band, held):
    """``band`` (a transposed lower band, changed in place) with the rows and
    columns of the ``held`` entries zeroed and a unit diagonal on them.

    The zeros come from multiplying by the float indicator of the free
    entries, along the columns and, through its sliding windows, along the
    rows."""
    depth = band.shape[1]
    free = 1.0 - held
    # free_row[j, k]: 1.0 when row j + k of entry band[j, k] is free
    free_row = sliding_window_view(np.concatenate((free, np.ones(depth - 1))), depth)
    band *= free_row
    band *= free[:, None]
    band[:, 0] += held
    return band


def complementarity_residual(system, u: np.ndarray, obs: np.ndarray) -> float:
    """max-norm of min(u - obs, Au - b), zero exactly at the solution."""
    return _max_violation(u, obs, system.matvec(u) - system.b)


def _max_violation(u, obs, lam) -> float:
    """max-norm of min(u - obs, lam): the complementarity residual for lam = Au - b."""
    return float(np.abs(np.minimum(u - obs, lam)).max())


_COLOUR_CHUNK = 64  # rows whose lower column indices are Python ints at once


def greedy_colouring(A) -> list:
    """First-fit greedy colouring of the rows of a CSR matrix, in row order.

    Returns one colour (0, 1, ...) per row as a list of ints: row i gets the
    smallest colour that no row stored in row i's pattern already has.  For
    a matrix with a symmetric pattern (every symmetric A) no stored
    off-diagonal entry then joins two rows of one colour.  Only the rows
    before i are coloured when row i is, so only its strictly lower entries
    are read.  Each row's colour c is kept as the bit 1 << c, so the colours
    in use are the OR of its lower entries' bits and the first free colour
    is their lowest zero bit.  The lower column indices become Python ints
    one chunk of rows at a time, which keeps the memory of the colouring
    small next to A itself.
    """
    n = A.shape[0]
    bit = [0] * n
    for start in range(0, n, _COLOUR_CHUNK):
        stop = min(start + _COLOUR_CHUNK, n)
        ptr = A.indptr[start:stop + 1]
        cols = A.indices[ptr[0]:ptr[-1]]
        rows = np.repeat(np.arange(start, stop), np.diff(ptr))
        below = cols < rows
        bounds = np.zeros(stop - start + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows[below] - start, minlength=stop - start), out=bounds[1:])
        bounds, lower = bounds.tolist(), cols[below].tolist()
        for i in range(stop - start):
            used = 0
            for j in lower[bounds[i]:bounds[i + 1]]:
                used |= bit[j]
            bit[start + i] = ~used & (used + 1)
    return [b.bit_length() - 1 for b in bit]


def _colour_ordered(A):
    """A with rows and columns in greedy colour order, ``A[order][:, order]``.

    Returns (P, bounds, order, rank): row k of P is row ``order[k]`` of A
    with its columns renumbered by ``rank``, which inverts ``order``, and
    colour c owns the rows ``bounds[c]:bounds[c + 1]``.  scipy's column
    gather keeps the order of A's stored entries within each row, so a row
    product of P sums in A's order.  When A's rows already are in colour
    order (one colour, or a dense matrix) P is A itself and ``order`` and
    ``rank`` are full slices.  This runs on every PSOR call, so a Monte
    Carlo block of one-node samples (a diagonal matrix) costs one colouring
    pass here and no permutation.
    """
    colour = greedy_colouring(A)
    ranked = sorted(colour)
    bounds = [bisect_left(ranked, c) for c in range(ranked[-1] + 2)]
    if ranked == colour:
        return A, bounds, slice(None), slice(None)
    order = np.argsort(colour, kind="stable")
    return A[order][:, order], bounds, order, order.argsort()


def psor_solve(system, obs: np.ndarray, config: SolverConfig = SolverConfig(method="psor"),
               x0: np.ndarray | None = None):
    """Projected SOR in multicolour order; converges for SPD A and omega in (0, 2).

    Needs the explicit CSR matrix.  Its rows are coloured once per call
    (``greedy_colouring``) and permuted into colour order (``_colour_ordered``),
    and each sweep updates one colour class at a time as a single projected
    step: the class's row products are one CSR product of its row slice.
    Rows of one colour do not couple, so a sweep is exactly sequential
    projected SOR with the rows taken in colour order.  The complementarity
    residual is taken after every sweep, as one product of the permuted
    matrix.  A start ``x0`` is projected onto the obstacle; without one, the
    sweeps start at the obstacle.  Returns (u, SolveReport); ``iterations``
    counts sweeps.
    """
    A = system.explicit()
    if A is None:
        raise ValueError("projected SOR needs an explicit sparse matrix")
    diag = A.diagonal()
    if not np.minimum.reduce(diag) > 0.0:
        raise ValueError("projected SOR needs a positive diagonal of A")
    t0 = time.perf_counter()
    # work in colour order, where each colour class owns a contiguous block
    # of rows: per class, its row slice of P and views of u, b, omega / d
    # and the obstacle on its rows
    P, bounds, order, rank = _colour_ordered(A)
    omega = config.omega
    u = np.array(obs if x0 is None else np.maximum(x0, obs), dtype=float)[order]
    b, w, g = system.b[order], omega / diag[order], obs[order]
    classes = [(P[s:e], u[s:e], b[s:e], w[s:e], g[s:e])
               for s, e in zip(bounds[:-1], bounds[1:])]
    max_sweeps = config.max_iter if config.max_iter is not None else 50
    residual = np.inf
    sweeps = 0
    for sweeps in range(1, max_sweeps + 1):
        # (1 - omega) u + omega (u + (b - A u) / d), as u + (omega / d) (b - A u)
        for P_c, u_c, b_c, w_c, g_c in classes:
            np.maximum(g_c, u_c + w_c * (b_c - P_c @ u), out=u_c)
        residual = _max_violation(u, g, P @ u - b)
        if residual <= config.tol:
            break
    u = u[rank]
    report = SolveReport(
        converged=residual <= config.tol,
        iterations=sweeps,
        residual=residual,
        active_count=int(np.count_nonzero(u <= obs)),
        seconds=time.perf_counter() - t0,
    )
    return u, report


def _pcg(matvec, r, x, precond, target, max_iter):
    """Preconditioned conjugate gradients from ``x``, whose residual is ``r``.

    The caller passes the start residual b - A x, so a start costs no
    matvec here, and hands ``x`` and ``r`` over: both are updated in place.
    ``matvec`` and ``precond`` return arrays of their own, which the
    iteration overwrites: the first preconditioned residual becomes the
    search direction p, and each product Ap the work vector of the x and r
    updates.  The iteration stops once the 2-norm of the residual is at
    most the absolute ``target``.  Returns (x, iterations, converged,
    ||b - Ax|| of the returned x).  A step with p.Ap <= 0, or a
    preconditioner whose factorization finds the operator not positive
    definite (``LinAlgError``), means A is not SPD; the iteration stops
    there and reports failure.
    """
    p = None
    rz = 1.0
    for it in range(max_iter + 1):
        rnorm = float(np.linalg.norm(r))
        if rnorm <= target:
            return x, it, True, rnorm
        if it == max_iter:
            break
        try:
            z = precond(r)
        except np.linalg.LinAlgError:
            return x, it, False, rnorm
        rz_new = float(r @ z)
        if p is None:
            p = z
        else:
            p *= rz_new / rz
            p += z
        del z  # p holds it
        rz = rz_new
        work = matvec(p)
        pAp = float(p @ work)
        if pAp <= 0.0:
            return x, it + 1, False, rnorm
        alpha = rz / pAp
        work *= alpha
        r -= work
        np.multiply(p, alpha, out=work)
        x += work
        del work  # dead before the next product is made
    return x, max_iter, False, rnorm


def _masked_output(out, arg, free):
    """``out * free`` for the output ``out`` of a product of ``arg``: in
    place, unless ``out`` may share memory with ``arg`` (an ``apply`` may
    return its input), which the solver does not own."""
    if np.may_share_memory(out, arg):
        return out * free
    out *= free
    return out


def active_set_solve(system, obs: np.ndarray, config: SolverConfig = SolverConfig(),
                     x0: np.ndarray | None = None, held: np.ndarray | None = None):
    """Primal-dual active set iteration, run as an inexact semismooth Newton method.

    The contact indicator is lambda - d*(u - obs) > 0 with d = diag(A) and
    lambda = Au - b; ties (u = obs, lambda = 0) count as inactive.  Every
    linear solve is one step: it holds the active entries at the obstacle
    and solves for the rest on full-length vectors that are zero on the
    active set, with ``apply = system.precond()``.  When ``apply`` is
    ``exact``, the step is one apply of it to the masked right-hand side
    (b - A where(active, obs, 0)) on the inactive entries; otherwise it runs
    conjugate gradients preconditioned with it from the current iterate,
    whose start residual (b - A where(active, obs, u)) on the inactive
    entries costs one matvec, or none when the set holds no entry off the
    obstacle: then it is -lambda there.  The cold start (no ``x0``) is the
    step with nothing held, from zero: its start residual is b, taken
    without a matvec, and its solution is lifted onto the obstacle.  After each update
    one more matvec gives lambda.  The first update holds the contact
    indicator of the start, or the boolean mask ``held`` when one is given
    (the set of a nearby problem already solved, say); the start still gives
    the start residual, so a start that already solves takes no update.  The
    method converges from any start set on M-matrix systems, so ``held``
    changes the path, not the answer.

    The primal-dual active set method is a semismooth Newton method
    (Hintermüller, Ito and Kunisch, SIOPT 2003), so an update's linear solve
    need only be as accurate as the stop test requires (Eisenstat and
    Walker, SISC 1996).  Conjugate gradients stop at an absolute target for
    the 2-norm of the masked residual.  The tight target is
    ``max(0.01 tol, 1e-13 ||b||)``, the second term a round-off floor; the
    cold start solves to it.  A set solved for the first time gets the
    loose target: a tenth of the 2-norm of min(u - obs, lambda), never
    below the tight one.  A solve is tight when it reaches the tight
    target, whatever it asked for; an exact apply is tight.  When the set
    repeats after a loose solve, that set is solved once more to the tight
    target; a revisited earlier set (a cycle) makes every remaining solve
    tight.  The iteration stops when the complementarity residual drops
    below tol or the set repeats after a tight solve; a set revisited after
    a tight solve of it ends the solve with ``converged=False``.
    A failed step (not positive definite, or out of conjugate gradient
    steps) ends the iteration; a failed cold start, unless it only ran out
    of steps, ends the solve before any update with ``converged=False``.  A
    ``precond()`` that raises ``numpy.linalg.LinAlgError`` leaves no apply:
    no cold start and no update run, and the start is reported unconverged.

    ``seconds`` spans the whole call, ``precond()`` included.  ``iterations``
    counts the updates (every linear solve of an active set, the tight
    re-solve included), ``inner_iterations`` every conjugate gradient step
    or exact apply (the cold start's included), and ``trace`` holds one
    record per update: ``active`` (entries held at the obstacle),
    ``changed`` (entries whose membership differs from the previous
    update's set; the first update counts its whole set), ``target`` (the
    absolute target asked of conjugate gradients; the tight target for an
    exact apply), ``pcg`` (their steps; 1 for an exact apply),
    ``residual`` (the max-norm complementarity residual after the update)
    and ``tight``.  ``active_count`` counts the entries that the returned u
    holds at the obstacle: the set of the last update, or the entries on
    the obstacle when no update ran.
    """
    t0 = time.perf_counter()
    b = system.b
    tight_target = max(0.01 * config.tol, 1e-13 * float(np.linalg.norm(b)))

    def loose_target(u, lam):
        return max(tight_target, 0.1 * float(np.linalg.norm(np.minimum(u - obs, lam))))

    d = system.diag()
    try:
        apply = system.precond()
    except np.linalg.LinAlgError:
        apply = None  # the operator is not positive definite: no solve runs
    exact = getattr(apply, "exact", False)
    zero = np.broadcast_to(0.0, system.n)  # cold and exact starts; a view, no memory
    cg_max = 500  # steps of one conjugate gradient solve, at any system size

    def start_residual(active, u, lam=None):
        """The start residual (b - A where(active, obs, start)) on the free
        entries, in an array of its own, with start = u, or zero for an
        exact apply.  ``lam`` = A u - b is overwritten to give it without a
        matvec when where(active, obs, u) is u: the set holds no entry off
        the obstacle, and b - Au rounds as -(Au - b)."""
        start = zero if exact else u
        if lam is not None and not exact and not np.any(active & (u != obs)):
            r = np.negative(lam, out=lam)
        elif start is zero and not active.any():
            r = b.copy()  # b - A 0, without the matvec
        else:
            r = system.matvec(np.where(active, obs, start))
            np.subtract(b, r, out=r)
        r *= ~active
        return r

    def step(active, u, r, target):
        """The solve that holds ``active`` at the obstacle, from the iterate
        ``u`` and its ``start_residual`` ``r``, which it takes over:
        (solution, steps, ok, tight)."""
        if exact:
            try:
                return apply(r, active), 1, True, True
            except np.linalg.LinAlgError:
                return u, 0, False, False
        free = ~active
        x, it, ok, achieved = _pcg(lambda v: _masked_output(system.matvec(v), v, free), r,
                                   u * free,
                                   lambda v: _masked_output(apply(v, active), v, free),
                                   target, cg_max)
        return x, it, ok, achieved <= tight_target

    max_updates = config.max_iter if config.max_iter is not None else 100
    inner_total = 0
    ok = apply is not None
    if x0 is None and ok:
        # cold start: the step with nothing held, lifted onto the obstacle;
        # out of conjugate gradient steps, it still starts the updates
        nothing = np.zeros(system.n, dtype=bool)
        x0, inner_total, ok, _ = step(nothing, zero, start_residual(nothing, zero),
                                      tight_target)
        ok = ok or inner_total == cg_max
    u = np.maximum(np.asarray(obs if x0 is None else x0, dtype=float), obs)
    del x0  # the cold start's solution, dead once lifted
    lam = system.matvec(u) - b
    if held is None:
        active = (lam - d * (u - obs)) > 0.0
    else:
        active = np.array(held, dtype=bool)
        if active.shape != (system.n,):
            raise ValueError(f"held must have length {system.n}, got shape {active.shape}")
    residual = _max_violation(u, obs, lam)

    solved = {}  # set (as bytes) -> whether its last solve was tight
    all_tight = False  # set by a cycle: every remaining solve is tight
    trace = []
    previous = np.zeros_like(active)
    updates = 0
    converged = ok and residual <= config.tol
    while ok and not converged and updates < max_updates:
        key = np.packbits(active).tobytes()
        if solved.get(key):
            break  # the set repeats after a tight solve, or cycles back to it
        changed = int(np.count_nonzero(active != previous))
        if key in solved and changed:
            all_tight = True  # an earlier set, not the one just solved
        updates += 1
        target = tight_target if exact or all_tight or key in solved else loose_target(u, lam)
        r = start_residual(active, u, lam)
        del lam  # r holds it, or no longer needs it
        sol, it, ok, tight = step(active, u, r, target)
        del r
        inner_total += it
        u = np.where(active, obs, sol)
        del sol
        solved[key] = tight
        lam = system.matvec(u) - b
        residual = _max_violation(u, obs, lam)
        trace.append({"active": int(np.count_nonzero(active)), "changed": changed,
                      "target": target, "pcg": it, "residual": residual, "tight": tight})
        converged = residual <= config.tol
        if ok:
            previous, active = active, (lam - d * (u - obs)) > 0.0

    report = SolveReport(
        converged=converged,
        iterations=updates,
        residual=residual,
        active_count=trace[-1]["active"] if trace else int(np.count_nonzero(u <= obs)),
        seconds=time.perf_counter() - t0,
        inner_iterations=inner_total,
        trace=trace,
    )
    return u, report


def solve_lcp(system, obs: np.ndarray, config: SolverConfig,
              x0: np.ndarray | None = None, held: np.ndarray | None = None):
    """``config.method``'s solve from ``x0``; projected SOR ignores ``held``."""
    if config.method == "psor":
        return psor_solve(system, obs, config, x0)
    return active_set_solve(system, obs, config, x0, held)


def brute_force_solve(A: np.ndarray, b: np.ndarray, obs: np.ndarray,
                      tol: float = 1e-11) -> np.ndarray:
    """Reference LCP solution by enumerating active sets (dense, n <= 16).

    For SPD A the solution is unique; the first feasible candidate
    (u >= obs, lambda >= 0 on the active set, lambda = 0 elsewhere) wins.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    obs = np.asarray(obs, dtype=float)
    n = A.shape[0]
    if n > 16:
        raise ValueError("brute-force enumeration is for tiny test problems")
    scale = max(np.max(np.abs(A)), np.max(np.abs(b)), 1.0)
    best = None
    best_viol = np.inf
    for size in range(n + 1):
        for act in combinations(range(n), size):
            active = np.zeros(n, dtype=bool)
            active[list(act)] = True
            u = np.where(active, obs, 0.0)
            idx = np.flatnonzero(~active)
            if idx.size > 0:
                rhs = b[idx] - A[np.ix_(idx, np.flatnonzero(active))] @ obs[active]
                u[idx] = np.linalg.solve(A[np.ix_(idx, idx)], rhs)
            lam = A @ u - b
            viol = max(
                float(np.max(obs - u, initial=0.0)),
                float(np.max(-lam[active], initial=0.0)),
            )
            if viol <= tol * scale:
                return u
            if viol < best_viol:
                best_viol = viol
                best = u
    assert best is not None
    return best
