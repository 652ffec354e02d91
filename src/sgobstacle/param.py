"""Parameter boxes, probability densities and multilinear hat Gramians.

The parametric domain is a box, discretized per dimension by a partition
into cells carrying piecewise linear hat functions.  The tensor products of
these hats form the multilinear basis; all inner products are taken with the
product probability density.  Every integral against a density (moments,
hat Gramians, the reference statistics of ``stats``) uses one composite
rule, ``Density1D.rule``, on the cached Gauss-Legendre points of
``gauss_legendre``.  A tensor Gramian is kept as its 1-D factors and
applied one dimension at a time (``kron_apply``).  Every product over the
parameter dimensions is empty when there are none (M = 0, deterministic
data): one node, unit weight and identity Gramians.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
import scipy.sparse as sp

__all__ = [
    "gauss_legendre",
    "tensor_points",
    "kron_apply",
    "Density1D",
    "ParamGrid",
    "Gramians",
    "build_param_grid",
    "deterministic_grid",
    "assemble_gramians",
    "multilinear_evaluate",
]

# Cells and points per cell of the composite rule behind ``Density1D.moment``.
MOMENT_CELLS = 64
MOMENT_POINTS = 10


@functools.lru_cache(maxsize=None)
def gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the n-point Gauss-Legendre rule on [-1, 1].

    Built once per n and cached, so both arrays are read-only.
    """
    x, w = np.polynomial.legendre.leggauss(n)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def tensor_points(axes: Sequence[np.ndarray]) -> np.ndarray:
    """All points of the tensor grid of the 1-D ``axes``, one row each, in C
    order (last axis fastest): shape (prod of the axis lengths, len(axes)),
    so (1, 0) without axes."""
    shape = tuple(len(a) for a in axes)
    points = np.empty((math.prod(shape), len(shape)))
    for d, g in enumerate(np.meshgrid(*axes, indexing="ij")):
        points[:, d] = g.ravel()
    return points


def kron_apply(factors: Sequence[np.ndarray], V: np.ndarray) -> np.ndarray:
    """(F_0 ⊗ F_1 ⊗ ...) V for square factors F_d and V of shape (J, ...),
    J the product of the factor sizes, one dimension at a time on C-ordered
    reshapes.  Without factors the product is the identity and V is returned
    as it is."""
    shape = V.shape
    lead = 1
    for F in factors:
        n_d = F.shape[0]
        V = np.matmul(F, V.reshape(lead, n_d, -1))
        lead *= n_d
    return V.reshape(shape)


@dataclass(frozen=True)
class Density1D:
    """Probability density on an interval, with optional exact sampling."""

    kind: str
    support: tuple[float, float]
    pdf: Callable[[np.ndarray], np.ndarray]
    sampler: Callable[[np.random.Generator, int], np.ndarray] | None = None

    def __post_init__(self):
        c, d = self.support
        if not d > c:
            raise ValueError(f"empty support ({c}, {d})")
        mass = self.moment(0)
        if abs(mass - 1.0) > 1e-9:
            raise ValueError(f"density {self.kind!r} integrates to {mass!r}, not 1")

    def rule(self, breaks: np.ndarray, n_pts: int) -> tuple[np.ndarray, np.ndarray]:
        """Composite Gauss-Legendre rule with ``n_pts`` points on each cell
        between consecutive ``breaks``: the nodes y and the weights w p(y),
        both of shape (cells, n_pts)."""
        gx, gw = gauss_legendre(n_pts)
        a, b = breaks[:-1, None], breaks[1:, None]
        half = 0.5 * (b - a)
        y = 0.5 * (a + b) + half * gx
        return y, half * gw * self.pdf(y)

    def moment(self, k: int) -> float:
        """integral of y^k p(y) on MOMENT_CELLS equal cells of the support."""
        y, w = self.rule(np.linspace(*self.support, MOMENT_CELLS + 1), MOMENT_POINTS)
        return float(np.sum(w * y ** k))

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        if self.sampler is None:
            raise ValueError(f"density {self.kind!r} has no sampler")
        return self.sampler(rng, n)

    @staticmethod
    def uniform(c: float, d: float) -> "Density1D":
        if not d > c:
            raise ValueError(f"empty support ({c}, {d})")
        height = 1.0 / (d - c)
        return Density1D(
            kind="uniform",
            support=(float(c), float(d)),
            pdf=lambda y: np.where((y >= c) & (y <= d), height, 0.0),
            sampler=lambda rng, n: rng.uniform(c, d, n),
        )

    @staticmethod
    def exp_uniform(a: float = -1.0, b: float = 1.0) -> "Density1D":
        """Law of y = exp(xi) with xi uniform on (a, b): p(y) = 1/((b-a) y)."""
        c, d = np.exp(a), np.exp(b)
        width = b - a
        return Density1D(
            kind="exp-uniform",
            support=(float(c), float(d)),
            pdf=lambda y: np.where((y >= c) & (y <= d), 1.0 / (width * y), 0.0),
            sampler=lambda rng, n: np.exp(rng.uniform(a, b, n)),
        )


@dataclass(frozen=True)
class ParamGrid:
    """Tensor grid on a parameter box with per-dimension hat functions.

    Parameter nodes are enumerated in C order (last dimension fastest), so
    the flat node index matches Kronecker products taken dimension 0 first.
    """

    densities: tuple[Density1D, ...]
    breakpoints: tuple[np.ndarray, ...]

    @property
    def n_dims(self) -> int:
        return len(self.densities)

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(len(b) for b in self.breakpoints)

    @property
    def n_nodes(self) -> int:
        return math.prod(self.shape)

    @property
    def s(self) -> float:
        """Largest parametric cell width over all dimensions (0 if M = 0)."""
        return max((float(np.max(np.diff(b))) for b in self.breakpoints), default=0.0)

    def nodes(self) -> np.ndarray:
        """All parameter nodes as a (n_nodes, n_dims) array, C order."""
        return tensor_points(self.breakpoints)


def build_param_grid(densities: Sequence[Density1D], cells: int | Sequence[int]) -> ParamGrid:
    """Uniform partition of each density's support into ``cells`` cells.

    With no densities the data are deterministic: the grid is
    ``deterministic_grid()``, one parameter node of unit weight.
    """
    densities = tuple(densities)
    if np.isscalar(cells):
        cells = [int(cells)] * len(densities)
    if len(cells) != len(densities):
        raise ValueError("one cell count per dimension required")
    breaks = []
    for rho, m in zip(densities, cells):
        if m < 1:
            raise ValueError("each dimension needs at least one cell")
        c, d = rho.support
        breaks.append(np.linspace(c, d, m + 1))
    return ParamGrid(densities=densities, breakpoints=tuple(breaks))


def deterministic_grid() -> ParamGrid:
    """Zero-dimensional grid: a single parameter node with unit weight."""
    return ParamGrid(densities=(), breakpoints=())


@dataclass(frozen=True)
class Gramians:
    """Density-weighted Gramians of the multilinear basis, as 1-D factors.

    Term k = 0 is the plain Gramian G_0[j, t] = <psi_j, psi_t> and term
    k = d + 1 the Gramian G_k[j, t] = <y_d psi_j, psi_t> of dimension d, all
    with the product density.  ``mass[d]`` and ``mass_y[d]`` are the dense
    weighted mass matrices of the hats of dimension d, without and with the
    factor y_d, and G_k is the Kronecker product of ``factors(k)``, dimension
    0 first.  g0[t] = <psi_t, 1> and gk[d][t] = <y_d, psi_t> are the basis
    integrals, the row sums of G_0 and G_{d+1}.  With no dimensions every
    G_k is the 1 x 1 identity and g0 = [1].
    """

    g0: np.ndarray
    gk: tuple[np.ndarray, ...]
    mass: tuple[np.ndarray, ...]
    mass_y: tuple[np.ndarray, ...]

    def factors(self, k: int) -> list[np.ndarray]:
        """The 1-D factors of G_k: ``mass``, with ``mass_y[k - 1]`` in slot
        k - 1 for k >= 1."""
        return [my if d == k - 1 else m
                for d, (m, my) in enumerate(zip(self.mass, self.mass_y))]

    def diagonal(self, k: int) -> np.ndarray:
        """The diagonal of G_k, the Kronecker product of the factors' diagonals."""
        return functools.reduce(np.kron, [np.diag(F) for F in self.factors(k)], np.ones(1))

    def matrix(self, k: int) -> sp.csr_array:
        """G_k as a sparse CSR matrix; only an explicit Kronecker matrix needs it."""
        mats = [sp.csr_array(F) for F in self.factors(k)] or [sp.csr_array(np.ones((1, 1)))]
        return functools.reduce(lambda A, F: sp.kron(A, F, format="csr"), mats)

    def eigenbasis(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """Per-dimension generalized eigenpairs of ``mass_y[d]`` against ``mass[d]``.

        Returns one (W_d, lam_d) per dimension with W_d^T mass[d] W_d = I and
        W_d^T mass_y[d] W_d = diag(lam_d), from the Cholesky factor L of
        mass[d] and the symmetric eigenproblem of L^-1 mass_y[d] L^-T.
        W = W_0 ⊗ W_1 ⊗ ... then turns G_0 into the identity and every other
        G_k into a diagonal at once: the doubly orthogonal basis of the hats.
        Each lam_d lies in the support of the density of dimension d.
        """
        basis = []
        for m0, my in zip(self.mass, self.mass_y):
            L = np.linalg.cholesky(m0)
            lam, Q = np.linalg.eigh(np.linalg.solve(L, np.linalg.solve(L, my).T))
            basis.append((np.linalg.solve(L.T, Q), lam))
        return basis


def _hat_factors_1d(rho: Density1D, breaks: np.ndarray, n_pts: int):
    """Per-dimension weighted mass matrices of the hats, (mass, mass_y), from
    the per-cell rule of ``rho``."""
    y, w = rho.rule(breaks, n_pts)
    h = np.diff(breaks)[:, None]
    left, right = (breaks[1:, None] - y) / h, (y - breaks[:-1, None]) / h
    v = np.stack([w, w * y])  # cell weights without and with the factor y
    n, d = len(breaks), np.arange(len(breaks) - 1)
    mass = np.zeros((2, n, n))
    mass[:, d, d] += np.sum(v * left * left, axis=-1)
    mass[:, d + 1, d + 1] += np.sum(v * right * right, axis=-1)
    mass[:, d, d + 1] = mass[:, d + 1, d] = np.sum(v * left * right, axis=-1)
    return mass[0], mass[1]


def assemble_gramians(grid: ParamGrid, n_pts: int = 12) -> Gramians:
    """The 1-D Gramian factors of each dimension and the basis integrals.

    The hats sum to one, so the basis integrals are row sums of the
    Gramians, g0 = G_0 1 and gk[d] = G_{d+1} 1: Kronecker products of the
    factors' row sums.  ``n_pts`` Gauss-Legendre points per parametric cell;
    12 points integrate the smooth densities used here to machine precision,
    which keeps the normalization error out of derived statistics.
    """
    factors = [_hat_factors_1d(rho, brk, n_pts)
               for rho, brk in zip(grid.densities, grid.breakpoints)]

    def basis_integrals(k):
        rows = [f[1] if d == k - 1 else f[0] for d, f in enumerate(factors)]
        return functools.reduce(np.kron, [F.sum(axis=1) for F in rows], np.ones(1))

    return Gramians(g0=basis_integrals(0),
                    gk=tuple(basis_integrals(k) for k in range(1, grid.n_dims + 1)),
                    mass=tuple(f[0] for f in factors), mass_y=tuple(f[1] for f in factors))


def multilinear_evaluate(grid: ParamGrid, block_values: np.ndarray,
                         y: np.ndarray) -> np.ndarray:
    """Evaluate the multilinear interpolant at parameter points.

    ``block_values`` has shape (n_nodes, ...) with one block per parameter
    node (C order); ``y`` has shape (n_pts, n_dims).  Returns (n_pts, ...).
    Other shapes raise ValueError.
    """
    y = np.atleast_2d(np.asarray(y, dtype=float))
    npts = y.shape[0]
    if y.shape[1] != grid.n_dims:
        raise ValueError(f"parameter points have {y.shape[1]} coordinates, "
                         f"the grid has {grid.n_dims} dimensions")
    if block_values.shape[0] != grid.n_nodes:
        raise ValueError(f"{block_values.shape[0]} blocks given for "
                         f"{grid.n_nodes} parameter nodes")

    shape = grid.shape
    strides = np.ones(grid.n_dims, dtype=np.int64)
    for d in range(grid.n_dims - 2, -1, -1):
        strides[d] = strides[d + 1] * shape[d + 1]

    cells = []
    wright = []
    for d in range(grid.n_dims):
        brk = grid.breakpoints[d]
        yd = np.clip(y[:, d], brk[0], brk[-1])
        c = np.clip(np.searchsorted(brk, yd, side="right") - 1, 0, len(brk) - 2)
        cells.append(c)
        wright.append((yd - brk[c]) / (brk[c + 1] - brk[c]))

    out = np.zeros((npts,) + block_values.shape[1:])
    extra = (None,) * (block_values.ndim - 1)
    for corner in range(2 ** grid.n_dims):
        idx = np.zeros(npts, dtype=np.int64)
        w = np.ones(npts)
        for d in range(grid.n_dims):
            bit = (corner >> d) & 1
            idx += (cells[d] + bit) * strides[d]
            w = w * (wright[d] if bit else 1.0 - wright[d])
        out += w[(slice(None),) + extra] * block_values[idx]
    return out
