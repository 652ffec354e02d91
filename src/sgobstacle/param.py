"""Parameter boxes, probability densities and multilinear hat Gramians.

The parametric domain is a box, discretized per dimension by a partition
into cells carrying piecewise linear hat functions.  The tensor products of
these hats form the multilinear basis; all inner products are taken with the
product probability density.  Every integral against a density (moments,
hat Gramians, the reference statistics of ``stats``) uses one composite
rule, ``Density1D.rule``, on the cached Gauss-Legendre points of
``gauss_legendre``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
import scipy.sparse as sp

__all__ = [
    "gauss_legendre",
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
        return int(np.prod(self.shape)) if self.n_dims else 1

    @property
    def s(self) -> float:
        """Largest parametric cell width over all dimensions (0 if M = 0)."""
        if self.n_dims == 0:
            return 0.0
        return max(float(np.max(np.diff(b))) for b in self.breakpoints)

    def nodes(self) -> np.ndarray:
        """All parameter nodes as a (n_nodes, n_dims) array, C order."""
        if self.n_dims == 0:
            return np.zeros((1, 0))
        grids = np.meshgrid(*self.breakpoints, indexing="ij")
        return np.column_stack([g.ravel() for g in grids])


def build_param_grid(densities: Sequence[Density1D], cells: int | Sequence[int]) -> ParamGrid:
    """Uniform partition of each density's support into ``cells`` cells.

    With no densities the data are deterministic: the grid is
    ``deterministic_grid()``, one parameter node of unit weight.
    """
    densities = tuple(densities)
    if len(densities) == 0:
        return deterministic_grid()
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
    """Density-weighted Gramians of the multilinear basis.

    G0[j, t] = <psi_j, psi_t>, Gk[j, t] = <y_k psi_j, psi_t>,
    g0[t] = <psi_t, 1>, gk[t] = <y_k, psi_t>; all with the product density.
    ``mass[d]`` and ``mass_y[d]`` are the dense weighted mass matrices of the
    hats of dimension d, without and with the factor y_d.  G0 is the
    Kronecker product of the ``mass`` factors, dimension 0 first, and Gk the
    same product with ``mass_y[k]`` in slot k (both empty if M = 0).
    """

    G0: sp.csr_array
    Gk: tuple[sp.csr_array, ...]
    g0: np.ndarray
    gk: tuple[np.ndarray, ...]
    mass: tuple[np.ndarray, ...]
    mass_y: tuple[np.ndarray, ...]

    def eigenbasis(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """Per-dimension generalized eigenpairs of ``mass_y[d]`` against ``mass[d]``.

        Returns one (W_d, lam_d) per dimension with W_d^T mass[d] W_d = I and
        W_d^T mass_y[d] W_d = diag(lam_d), from the Cholesky factor L of
        mass[d] and the symmetric eigenproblem of L^-1 mass_y[d] L^-T.
        W = W_0 ⊗ W_1 ⊗ ... then turns G0 into the identity and every Gk into
        a diagonal at once: the doubly orthogonal basis of the hats.  Each
        lam_d lies in the support of the density of dimension d.
        """
        basis = []
        for m0, my in zip(self.mass, self.mass_y):
            L = np.linalg.cholesky(m0)
            lam, Q = np.linalg.eigh(np.linalg.solve(L, np.linalg.solve(L, my).T))
            basis.append((np.linalg.solve(L.T, Q), lam))
        return basis


def _hat_factors_1d(rho: Density1D, breaks: np.ndarray, n_pts: int):
    """Per-dimension weighted mass matrices and moment vectors of the hats,
    (mass, mass_y, vec, vec_y), from the per-cell rule of ``rho``."""
    y, w = rho.rule(breaks, n_pts)
    h = np.diff(breaks)[:, None]
    left, right = (breaks[1:, None] - y) / h, (y - breaks[:-1, None]) / h
    v = np.stack([w, w * y])  # cell weights without and with the factor y
    n, d = len(breaks), np.arange(len(breaks) - 1)
    mass, vec = np.zeros((2, n, n)), np.zeros((2, n))
    mass[:, d, d] += np.sum(v * left * left, axis=-1)
    mass[:, d + 1, d + 1] += np.sum(v * right * right, axis=-1)
    mass[:, d, d + 1] = mass[:, d + 1, d] = np.sum(v * left * right, axis=-1)
    vec[:, :-1] += np.sum(v * left, axis=-1)
    vec[:, 1:] += np.sum(v * right, axis=-1)
    return mass[0], mass[1], vec[0], vec[1]


def assemble_gramians(grid: ParamGrid, n_pts: int = 12) -> Gramians:
    """Assemble the tensor Gramians by Kronecker products of 1D factors.

    ``n_pts`` Gauss-Legendre points per parametric cell; 12 points integrate
    the smooth densities used here to machine precision, which keeps the
    normalization error out of derived statistics.
    """
    if grid.n_dims == 0:
        one = sp.csr_array(np.array([[1.0]]))
        return Gramians(G0=one, Gk=(), g0=np.array([1.0]), gk=(), mass=(), mass_y=())

    factors = [_hat_factors_1d(rho, brk, n_pts)
               for rho, brk in zip(grid.densities, grid.breakpoints)]

    def kron_chain(mats):
        out = sp.csr_array(mats[0])
        for m in mats[1:]:
            out = sp.kron(out, sp.csr_array(m), format="csr")
        return out

    def kron_vec(vecs):
        out = vecs[0]
        for v in vecs[1:]:
            out = np.kron(out, v)
        return out

    mass = tuple(f[0] for f in factors)
    G0 = kron_chain(mass)
    g0 = kron_vec([f[2] for f in factors])
    Gk = []
    gk = []
    for k in range(grid.n_dims):
        mats = [factors[d][1] if d == k else factors[d][0] for d in range(grid.n_dims)]
        vecs = [factors[d][3] if d == k else factors[d][2] for d in range(grid.n_dims)]
        Gk.append(kron_chain(mats))
        gk.append(kron_vec(vecs))
    G0.sort_indices()
    for G in Gk:
        G.sort_indices()
    return Gramians(G0=G0, Gk=tuple(Gk), g0=g0, gk=tuple(gk), mass=mass,
                    mass_y=tuple(f[1] for f in factors))


def multilinear_evaluate(grid: ParamGrid, block_values: np.ndarray,
                         y: np.ndarray) -> np.ndarray:
    """Evaluate the multilinear interpolant at parameter points.

    ``block_values`` has shape (n_nodes, ...) with one block per parameter
    node (C order); ``y`` has shape (n_pts, n_dims).  Returns (n_pts, ...).
    Other shapes raise ValueError.
    """
    if grid.n_dims == 0:
        return np.broadcast_to(block_values[0], (y.shape[0],) + block_values.shape[1:]).copy()
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
