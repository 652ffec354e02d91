"""Solvers for the linear complementarity problem u >= g, Au >= b, complementary.

Systems are given as objects exposing ``n``, ``b``, ``matvec``, ``diag``,
``precond`` (approximate inverse used by conjugate gradients) and
``explicit`` (CSR matrix or None).  Tensor Galerkin systems and plain sparse
systems both implement this protocol; A must be symmetric positive definite.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from itertools import combinations
from typing import Callable

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

__all__ = [
    "SolverConfig",
    "SolveReport",
    "SparseObstacleSystem",
    "complementarity_residual",
    "psor_solve",
    "active_set_solve",
    "solve_lcp",
    "brute_force_solve",
]


@dataclass(frozen=True)
class SolverConfig:
    """Knobs shared by both solvers.

    ``max_iter`` counts PSOR sweeps or active-set updates; None picks 50
    sweeps for PSOR and 100 updates for the active-set method.  ``cg_tol``
    is the relative residual target of the inner conjugate gradient solves
    (None derives it from ``tol``).
    """

    method: str = "active-set"
    omega: float = 1.5
    tol: float = 1e-8
    max_iter: int | None = None
    cg_tol: float | None = None
    cg_max_iter: int | None = None
    record_energy: bool = False

    def __post_init__(self):
        if self.method not in ("psor", "active-set"):
            raise ValueError(f"unknown solver method {self.method!r}")
        if not (0.0 < self.omega < 2.0):
            raise ValueError("omega must lie in (0, 2)")
        if self.tol <= 0.0:
            raise ValueError("tol must be positive")


@dataclass
class SolveReport:
    converged: bool
    iterations: int
    residual: float
    active_count: int
    seconds: float
    inner_iterations: int = 0
    energy_trace: list = field(default_factory=list)

    def as_dict(self) -> dict:
        return {
            "converged": self.converged,
            "iterations": self.iterations,
            "residual": self.residual,
            "active_count": self.active_count,
            "seconds": self.seconds,
            "inner_iterations": self.inner_iterations,
        }


class SparseObstacleSystem:
    """Plain sparse LCP data; the preconditioner is a full LU solve."""

    def __init__(self, A, b):
        self.A = sp.csr_array(A)
        self.b = np.asarray(b, dtype=float)
        self.n = self.A.shape[0]
        assert self.A.shape == (self.n, self.n)
        assert self.b.shape == (self.n,)
        self._lu = None

    def matvec(self, v):
        return self.A @ v

    def diag(self):
        return self.A.diagonal()

    def explicit(self):
        return self.A

    def precond(self):
        if self._lu is None:
            self._lu = spla.splu(sp.csc_matrix(self.A))
        return self._lu.solve


def complementarity_residual(system, u: np.ndarray, obs: np.ndarray) -> float:
    """max-norm of min(u - obs, Au - b), zero exactly at the solution."""
    r = system.matvec(u) - system.b
    return float(np.max(np.abs(np.minimum(u - obs, r))))


def _energy(system, u):
    return 0.5 * float(u @ system.matvec(u)) - float(system.b @ u)


def psor_solve(system, obs: np.ndarray, config: SolverConfig = SolverConfig(method="psor"),
               x0: np.ndarray | None = None):
    """Projected SOR sweeps; converges for SPD A and omega in (0, 2).

    Needs the explicit CSR matrix for row access.  Returns (u, SolveReport);
    ``iterations`` counts full sweeps.
    """
    A = system.explicit()
    if A is None:
        raise ValueError("projected SOR needs an explicit sparse matrix")
    n = system.n
    b = system.b
    indptr, indices, data = A.indptr, A.indices, A.data
    diag = A.diagonal()
    assert np.all(diag > 0.0)
    u = np.array(obs if x0 is None else np.maximum(x0, obs), dtype=float)
    omega = config.omega
    max_sweeps = config.max_iter if config.max_iter is not None else 50
    t0 = time.perf_counter()
    trace = []
    residual = np.inf
    sweeps = 0
    for sweeps in range(1, max_sweeps + 1):
        for i in range(n):
            sl = slice(indptr[i], indptr[i + 1])
            row_dot = data[sl] @ u[indices[sl]]
            gs = u[i] + (b[i] - row_dot) / diag[i]
            u[i] = max(obs[i], (1.0 - omega) * u[i] + omega * gs)
        residual = complementarity_residual(system, u, obs)
        if config.record_energy:
            trace.append(_energy(system, u))
        if residual <= config.tol:
            break
    report = SolveReport(
        converged=residual <= config.tol,
        iterations=sweeps,
        residual=residual,
        active_count=int(np.sum(u <= obs)),
        seconds=time.perf_counter() - t0,
        energy_trace=trace,
    )
    return u, report


def _pcg(matvec, b, x0, precond, rtol, max_iter):
    """Preconditioned conjugate gradients; returns (x, iterations, converged).

    A step with p.Ap <= 0 means the operator is not positive definite on the
    Krylov space; the iteration stops there and reports failure.
    """
    x = x0.copy()
    r = b - matvec(x)
    target = rtol * max(float(np.linalg.norm(b)), 1e-300)
    if np.linalg.norm(r) <= target:
        return x, 0, True
    z = precond(r)
    p = z.copy()
    rz = float(r @ z)
    for it in range(1, max_iter + 1):
        Ap = matvec(p)
        pAp = float(p @ Ap)
        if pAp <= 0.0:
            return x, it, False
        alpha = rz / pAp
        x += alpha * p
        r -= alpha * Ap
        if np.linalg.norm(r) <= target:
            return x, it, True
        z = precond(r)
        rz_new = float(r @ z)
        p = z + (rz_new / rz) * p
        rz = rz_new
    return x, max_iter, False


def _solve_inactive(system, inactive, rhs, x0, rtol, max_iter, precond):
    """Solve the reduced SPD system on the inactive index set by PCG."""
    n = system.n
    scratch = np.zeros(n)

    def matvec_red(v):
        scratch[:] = 0.0
        scratch[inactive] = v
        return system.matvec(scratch)[inactive]

    def precond_red(r):
        scratch[:] = 0.0
        scratch[inactive] = r
        return precond(scratch)[inactive]

    return _pcg(matvec_red, rhs, x0, precond_red, rtol, max_iter)


def active_set_solve(system, obs: np.ndarray, config: SolverConfig = SolverConfig(),
                     x0: np.ndarray | None = None):
    """Primal-dual active set iteration.

    The contact indicator is lambda - d*(u - obs) > 0 with d = diag(A) and
    lambda = Au - b; ties (u = obs, lambda = 0) count as inactive.  Each
    update solves the linear system on the inactive set by preconditioned
    conjugate gradients, warm-started from the current iterate.  The
    iteration stops when the active set repeats or the complementarity
    residual drops below tol; a revisited earlier set (a cycle) aborts with
    ``converged=False``.
    """
    n = system.n
    b = system.b
    d = system.diag()
    precond = system.precond()
    rtol = config.cg_tol if config.cg_tol is not None else max(1e-13, min(1e-10, config.tol * 1e-4))
    cg_max = config.cg_max_iter if config.cg_max_iter is not None else max(500, 2 * n)
    max_updates = config.max_iter if config.max_iter is not None else 100
    t0 = time.perf_counter()
    inner_total = 0

    if x0 is not None:
        u = np.maximum(np.asarray(x0, dtype=float), obs)
    else:
        u, it, ok = _pcg(system.matvec, b, np.zeros(n), precond, rtol,
                         cg_max)
        inner_total += it
        u = np.maximum(u, obs)
    lam = system.matvec(u) - b
    active = (lam - d * (u - obs)) > 0.0

    seen = set()
    residual = complementarity_residual(system, u, obs)
    updates = 0
    converged = residual <= config.tol
    while not converged and updates < max_updates:
        updates += 1
        key = active.tobytes()
        if key in seen:
            break
        seen.add(key)

        u_new = np.where(active, obs, 0.0)
        inactive = np.flatnonzero(~active)
        if inactive.size > 0:
            rhs = (b - system.matvec(u_new))[inactive]
            sol, it, ok = _solve_inactive(system, inactive, rhs, u[inactive],
                                          rtol, cg_max, precond)
            inner_total += it
            if not ok:
                u_new[inactive] = sol
                u = u_new
                residual = complementarity_residual(system, u, obs)
                break
            u_new[inactive] = sol
        u = u_new
        lam = system.matvec(u) - b
        new_active = (lam - d * (u - obs)) > 0.0
        residual = complementarity_residual(system, u, obs)
        if residual <= config.tol or np.array_equal(new_active, active):
            active = new_active
            converged = residual <= config.tol
            break
        active = new_active

    report = SolveReport(
        converged=converged,
        iterations=updates,
        residual=residual,
        active_count=int(np.sum(active)),
        seconds=time.perf_counter() - t0,
        inner_iterations=inner_total,
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
