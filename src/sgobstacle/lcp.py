"""Solvers for the linear complementarity problem u >= g, Au >= b, complementary.

Systems are given as objects exposing ``n``, ``b``, ``matvec``, ``diag``,
``precond()`` (approximate inverse of A used by conjugate gradients),
``reduced_precond(active)`` and ``explicit()`` (returns the CSR matrix, or
None); A must be symmetric positive definite.  ``reduced_precond`` takes
the boolean mask of an active-set update and returns a full-length
approximate inverse of the inactive block for vectors that are zero on the
active entries.  Updates never leave the index space of A: masking the
matvec and the preconditioner output holds the active entries at zero.
The Galerkin system returns its Kronecker preconditioner, which does not
depend on the set; the plain sparse system solves the inactive block
exactly by banded Cholesky, so each of its updates costs one conjugate
gradient step.

The active set method is an inexact semismooth Newton iteration: while the
set still moves, an update's conjugate gradients stop at a relative target
tied to the complementarity residual, and once the set repeats after such a
loose solve, that set is solved once more to the tight target before the
iteration stops.  ``iterations`` counts every update, the tight re-solve
included, and ``trace`` records each one (``active_set_solve``).

Projected SOR (Cryer, SIAM J. Control 1971) sweeps the rows of the explicit
matrix in multicolour order: a greedy colouring, made once per solve, splits
the rows into classes that do not couple, and the matrix is permuted once so
that each class owns a contiguous row slice.  A class is updated as one
projected step whose row products are one CSR product of its slice, and the
complementarity residual after each sweep is one product of the permuted
matrix.  That is sequential SOR with the rows taken class by class, so it
converges for SPD A and omega in (0, 2); ``iterations`` counts sweeps.
"""

from __future__ import annotations

import time
from bisect import bisect_left
from dataclasses import asdict, dataclass, field
from itertools import combinations

import numpy as np
import scipy.sparse as sp
from scipy.linalg import cho_solve_banded, cholesky_banded

from ._checks import integer, number

__all__ = [
    "SolverConfig",
    "SolveReport",
    "SolverNotConverged",
    "SparseObstacleSystem",
    "complementarity_residual",
    "greedy_colouring",
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
    conjugate gradient solves of the active-set method derive their
    relative residual target from ``tol`` and take at most 500 steps each,
    whatever the system size.
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


class SparseObstacleSystem:
    """Plain sparse LCP data; the preconditioners are exact banded Cholesky solves.

    The band is read off the CSR pattern, so the solves are cheap for the
    banded matrices of P1 stiffness on structured meshes.  A matrix that is
    not positive definite raises ``numpy.linalg.LinAlgError`` on the first
    apply, which conjugate gradients report as a failed solve.
    """

    def __init__(self, A, b):
        self.A = sp.csr_array(A)
        self.b = np.asarray(b, dtype=float)
        self.n = self.A.shape[0]
        if self.A.shape != (self.n, self.n):
            raise ValueError(f"A must be square, got shape {self.A.shape}")
        if self.b.shape != (self.n,):
            raise ValueError(f"b must have length {self.n}, got shape {self.b.shape}")
        rows = np.repeat(np.arange(self.n), np.diff(self.A.indptr))
        lower = self.A.indices <= rows
        self._lower = rows[lower], self.A.indices[lower], self.A.data[lower]

    def matvec(self, v):
        return self.A @ v

    def diag(self):
        return self.A.diagonal()

    def explicit(self):
        return self.A

    def precond(self):
        """Exact solve with A: ``reduced_precond`` with nothing active."""
        return self.reduced_precond(np.zeros(self.n, dtype=bool))

    def reduced_precond(self, active):
        """Exact solve with A[inactive][:, inactive], on full-length vectors.

        The ``active`` rows and columns of A are zeroed with a unit diagonal,
        which decouples them and keeps the band, so a vector that is zero on
        the active entries comes back zero there.  The factorization runs on
        the first apply.
        """
        rows, cols, vals = self._lower
        keep = ~(active[rows] | active[cols])
        unit = np.flatnonzero(active)
        return _banded_cholesky_solver(np.concatenate((rows[keep], unit)),
                                       np.concatenate((cols[keep], unit)),
                                       np.concatenate((vals[keep], np.ones(unit.size))),
                                       self.n)


def _banded_cholesky_solver(rows, cols, vals, n):
    """Solve with the SPD matrix whose lower triangle has the given entries.

    LAPACK banded Cholesky (lower form, band from the largest row - col);
    duplicate entries are summed.  The factorization runs on the first call.
    """
    factor = []

    def solve(r):
        if not factor:
            offset = rows - cols
            depth = int(offset.max(initial=0)) + 1
            band = np.bincount(offset * n + cols, weights=vals,
                               minlength=depth * n).reshape(depth, n)
            factor.append(cholesky_banded(band, lower=True, check_finite=False))
        return cho_solve_banded((factor[0], True), r, check_finite=False)

    return solve


def complementarity_residual(system, u: np.ndarray, obs: np.ndarray) -> float:
    """max-norm of min(u - obs, Au - b), zero exactly at the solution."""
    return _max_violation(u, obs, system.matvec(u) - system.b)


def _max_violation(u, obs, lam) -> float:
    """max-norm of min(u - obs, lam): the complementarity residual for lam = Au - b."""
    return float(np.abs(np.minimum(u - obs, lam)).max())


_COLOUR_CHUNK = 64  # rows whose row pointers and column indices are Python ints at once


def greedy_colouring(A) -> list:
    """First-fit greedy colouring of the rows of a CSR matrix, in row order.

    Returns one colour (0, 1, ...) per row as a list of ints: row i gets the
    smallest colour that no row stored in row i's pattern already has.  For
    a matrix with a symmetric pattern (every symmetric A) no stored
    off-diagonal entry then joins two rows of one colour.  The row pointers
    and column indices become Python ints one chunk of rows at a time, which
    keeps the memory of the colouring small next to A itself.
    """
    n = A.shape[0]
    colour = [-1] * n
    for start in range(0, n, _COLOUR_CHUNK):
        ptr = A.indptr[start:start + _COLOUR_CHUNK + 1].tolist()
        cols = A.indices[ptr[0]:ptr[-1]].tolist()
        for i in range(len(ptr) - 1):
            used = {colour[j] for j in cols[ptr[i] - ptr[0]:ptr[i + 1] - ptr[0]]}
            c = 0
            while c in used:
                c += 1
            colour[start + i] = c
    return colour


def _colour_ordered(A):
    """A with rows and columns in greedy colour order, as one CSR matrix.

    Returns (P, bounds, order, rank): row k of P is row ``order[k]`` of A
    with its columns renumbered by ``rank``, which inverts ``order``, and
    colour c owns the rows ``bounds[c]:bounds[c + 1]``.  P keeps the order
    of A's stored entries within each row.  When A's rows already are in
    colour order (one colour, or a dense matrix) P is A itself and
    ``order`` and ``rank`` are full slices.  This runs on every PSOR call,
    so a Monte Carlo block of one-node samples (a diagonal matrix) costs
    one colouring pass here and no permutation.
    """
    colour = greedy_colouring(A)
    ranked = sorted(colour)
    bounds = [bisect_left(ranked, c) for c in range(ranked[-1] + 2)]
    if ranked == colour:
        return A, bounds, slice(None), slice(None)
    order = np.argsort(colour, kind="stable")
    rank = order.argsort()
    lengths = (A.indptr[1:] - A.indptr[:-1])[order]
    ptr = np.zeros_like(A.indptr)
    lengths.cumsum(out=ptr[1:])
    gather = (A.indptr[:-1][order] - ptr[:-1]).repeat(lengths) + np.arange(ptr[-1])
    P = sp.csr_array((A.data[gather], rank[A.indices[gather]], ptr), shape=A.shape)
    return P, bounds, order, rank


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


def _pcg(matvec, b, x0, precond, rtol, max_iter):
    """Preconditioned conjugate gradients.

    Returns (x, iterations, converged, relative residual ||b - Ax|| / ||b||
    of the returned x).  A step with p.Ap <= 0, or a preconditioner whose
    factorization finds the operator not positive definite
    (``LinAlgError``), means A is not SPD; the iteration stops there and
    reports failure.
    """
    x = x0.copy()
    r = b - matvec(x)
    scale = max(float(np.linalg.norm(b)), 1e-300)
    p = None
    rz = 1.0
    for it in range(max_iter + 1):
        rnorm = float(np.linalg.norm(r)) / scale
        if rnorm <= rtol:
            return x, it, True, rnorm
        if it == max_iter:
            break
        try:
            z = precond(r)
        except np.linalg.LinAlgError:
            return x, it, False, rnorm
        rz_new = float(r @ z)
        p = z.copy() if p is None else z + (rz_new / rz) * p
        rz = rz_new
        Ap = matvec(p)
        pAp = float(p @ Ap)
        if pAp <= 0.0:
            return x, it + 1, False, rnorm
        alpha = rz / pAp
        x += alpha * p
        r -= alpha * Ap
    return x, max_iter, False, rnorm


def active_set_solve(system, obs: np.ndarray, config: SolverConfig = SolverConfig(),
                     x0: np.ndarray | None = None):
    """Primal-dual active set iteration, run as an inexact semismooth Newton method.

    The contact indicator is lambda - d*(u - obs) > 0 with d = diag(A) and
    lambda = Au - b; ties (u = obs, lambda = 0) count as inactive.  Each
    update holds the active entries at the obstacle and solves for the rest
    by conjugate gradients on full-length vectors that are zero on the
    active set, preconditioned with ``system.reduced_precond(active)`` and
    warm-started from the current iterate.

    The primal-dual active set method is a semismooth Newton method
    (Hintermüller, Ito and Kunisch, SIOPT 2003), so an update's linear solve
    need only be as accurate as the current complementarity residual
    (Eisenstat and Walker, SISC 1996).  A set solved for the first time
    gets the loose relative target ``rtol_loose``: a tenth of the 2-norm of
    min(u - obs, lambda) over that of the update's right-hand side, never
    below ``rtol_tight``.  A solve is tight when it reaches ``rtol_tight``,
    whatever it asked for (an exact preconditioner does so in one step).
    When the set repeats after a loose solve, that set is solved once more
    at ``rtol_tight``; a revisited earlier set (a cycle) makes every
    remaining solve tight.  The iteration stops when the complementarity
    residual drops below tol or the set repeats after a tight solve; a set
    revisited after a tight solve of it ends the solve with
    ``converged=False``, and so does a system whose ``precond()`` raises
    ``numpy.linalg.LinAlgError``.

    ``iterations`` counts the updates (every linear solve of an active set,
    the tight re-solve included), ``inner_iterations`` every conjugate
    gradient step (the unconstrained cold-start solve included), and
    ``trace`` holds one record per update: ``active`` (entries held at the
    obstacle), ``changed`` (entries whose membership differs from the
    previous update's set; the first update counts its whole set),
    ``rtol`` (the relative target asked of conjugate gradients), ``pcg``
    (their steps), ``residual`` (the max-norm complementarity residual
    after the update) and ``tight``.
    """
    rtol_tight = max(1e-13, min(1e-10, config.tol * 1e-4))

    def rtol_loose(u, lam, rhs):
        return max(rtol_tight, 0.1 * float(np.linalg.norm(np.minimum(u - obs, lam)))
                   / max(float(np.linalg.norm(rhs)), 1e-300))

    b = system.b
    d = system.diag()
    try:
        precond = system.precond()
    except np.linalg.LinAlgError:
        # precond() found the operator not positive definite
        u = np.array(obs if x0 is None else np.maximum(x0, obs), dtype=float)
        return u, SolveReport(converged=False, iterations=0,
                              residual=complementarity_residual(system, u, obs),
                              active_count=int(np.count_nonzero(u <= obs)),
                              seconds=0.0)
    cg_max = 500  # steps of one conjugate gradient solve, at any system size
    max_updates = config.max_iter if config.max_iter is not None else 100
    t0 = time.perf_counter()
    inner_total = 0
    if x0 is None:
        # cold start: the unconstrained solution, lifted onto the obstacle
        x0, inner_total, _, _ = _pcg(system.matvec, b, np.zeros(system.n), precond,
                                     rtol_tight, cg_max)
    u = np.maximum(np.asarray(x0, dtype=float), obs)
    lam = system.matvec(u) - b
    active = (lam - d * (u - obs)) > 0.0
    residual = _max_violation(u, obs, lam)

    solved = {}  # set (as bytes) -> whether its last solve was tight
    all_tight = False  # set by a cycle: every remaining solve is tight
    trace = []
    previous = np.zeros_like(active)
    updates = 0
    converged = residual <= config.tol
    while not converged and updates < max_updates:
        key = np.packbits(active).tobytes()
        if solved.get(key):
            break  # the set repeats after a tight solve, or cycles back to it
        changed = int(np.count_nonzero(active != previous))
        if key in solved and changed:
            all_tight = True  # an earlier set, not the one just solved
        updates += 1

        # the inactive system on full-length vectors, held at zero on the
        # active entries by masking the matvec and the preconditioner output
        free = ~active
        rhs = (b - system.matvec(np.where(active, obs, 0.0))) * free
        rtol = rtol_tight if all_tight or key in solved else rtol_loose(u, lam, rhs)
        reduced = system.reduced_precond(active)
        sol, it, ok, achieved = _pcg(lambda v: system.matvec(v) * free, rhs, u * free,
                                     lambda r: reduced(r) * free, rtol, cg_max)
        inner_total += it
        u = np.where(active, obs, sol)
        tight = achieved <= rtol_tight
        solved[key] = tight
        lam = system.matvec(u) - b
        residual = _max_violation(u, obs, lam)
        trace.append({"active": int(np.count_nonzero(active)), "changed": changed,
                      "rtol": rtol, "pcg": it, "residual": residual, "tight": tight})
        converged = residual <= config.tol
        if not ok:
            break
        previous, active = active, (lam - d * (u - obs)) > 0.0

    report = SolveReport(
        converged=converged,
        iterations=updates,
        residual=residual,
        active_count=int(np.sum(active)),
        seconds=time.perf_counter() - t0,
        inner_iterations=inner_total,
        trace=trace,
    )
    return u, report


def solve_lcp(system, obs: np.ndarray, config: SolverConfig,
              x0: np.ndarray | None = None):
    if config.method == "psor":
        return psor_solve(system, obs, config, x0)
    return active_set_solve(system, obs, config, x0)


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
