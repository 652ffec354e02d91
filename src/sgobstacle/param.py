"""Parameter boxes, probability densities and multilinear hat Gramians.

The parametric domain is a box, discretized per dimension by a partition
into cells carrying piecewise linear hat functions.  The tensor products of
these hats form the multilinear basis; all inner products are taken with the
product probability density.  Each density is the law of y = map(xi) with
xi uniform on an interval, so every integral against it (the hat
Gramians and the reference statistics of ``stats``) is one composite
Gauss-Legendre rule in xi, ``Density1D.rule``, on the cached points of
``gauss_legendre``, and every draw is map(xi) of a uniform draw.  The hats
sum to one, so the means E[y_d] are the entry sums of the y-weighted
factors, ``Gramians.mass_y[d].sum()``, and need no rule of their own.  A
tensor Gramian is kept as its 1-D factors and applied one dimension at a
time (``kron_apply``); the same product of the hat values at other points
(``hat_values``) evaluates the multilinear interpolant there.  Every
product over the parameter dimensions is empty when there are none
(M = 0, deterministic data): one node, unit weight and identity Gramians.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

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
    "hat_values",
]

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
    """(F_0 ⊗ F_1 ⊗ ...) V for factors F_d of shape (m_d, n_d) and V of shape
    (J, ...), J the product of the n_d, one dimension at a time on C-ordered
    reshapes: the result has shape (prod of the m_d, ...).  Without factors
    the product is the identity and V is returned as it is."""
    trailing = V.shape[1:]
    lead = 1
    for F in factors:
        V = np.matmul(F, V.reshape(lead, F.shape[1], -1))
        lead *= F.shape[0]
    return V.reshape((lead,) + trailing)


def hat_values(breaks: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Values (len(y), len(breaks)) of the hats on ``breaks`` at the points
    ``y``, each point clamped into [breaks[0], breaks[-1]] first."""
    y = np.clip(y, breaks[0], breaks[-1])
    cell = np.clip(np.searchsorted(breaks, y, side="right") - 1, 0, len(breaks) - 2)
    right = (y - breaks[cell]) / (breaks[cell + 1] - breaks[cell])
    values = np.zeros((len(y), len(breaks)))
    rows = np.arange(len(y))
    values[rows, cell] = 1.0 - right
    values[rows, cell + 1] = right
    return values


# y = map(xi) of each kind of density, the inverse map xi(y), and the widest
# xi interval one Gauss rule of ``Density1D.rule`` spans.  The hats are
# polynomials in xi under the identity, so one rule spans any cell; under exp
# their products are sums of exp(j xi), j <= 3, which 12 points integrate to
# roundoff over an xi width of 2.
_MAPS = {"uniform": (lambda xi: xi, lambda y: y, math.inf),
         "exp-uniform": (np.exp, np.log, 2.0)}


@dataclass(frozen=True)
class Density1D:
    """Law of y = map(xi) with xi uniform on (lo, hi): the identity map for
    ``uniform`` and exp for ``exp-uniform``.

    In xi the density is the constant 1 / (hi - lo), so every integral and
    every draw is taken in xi, and the weights of a rule sum to one by
    construction.
    """

    kind: str
    lo: float
    hi: float

    def __post_init__(self):
        if self.kind not in _MAPS:
            raise ValueError(f"unknown density kind {self.kind!r}")
        c, d = self.support
        if not (d > c and self.hi - self.lo < math.inf):
            raise ValueError(f"empty or unbounded support ({c}, {d})")

    @property
    def support(self) -> tuple[float, float]:
        """The interval (map(lo), map(hi)) of y."""
        to_y = _MAPS[self.kind][0]
        return float(to_y(self.lo)), float(to_y(self.hi))

    def rule(self, breaks: np.ndarray, n_pts: int) -> tuple[np.ndarray, np.ndarray]:
        """Composite Gauss-Legendre rule with ``n_pts`` points on the xi
        interval of each cell between consecutive ``breaks`` (in y): the
        nodes y = map(xi) and the weights, which hold the density, both of
        shape (cells, pieces * n_pts).  Every cell is cut into the same
        number of equal pieces in xi, the fewest that keep each piece within
        the span of the map (one piece for ``uniform``)."""
        to_y, to_xi, span = _MAPS[self.kind]
        xi = to_xi(breaks)
        pieces = max(1, math.ceil(float(np.max(np.diff(xi))) / span))
        t = np.linspace(0.0, 1.0, pieces + 1)
        ends = xi[:-1, None] * (1.0 - t) + xi[1:, None] * t  # exact at t = 0 and 1
        a, b = ends[:, :-1, None], ends[:, 1:, None]
        half = 0.5 * (b - a)
        gx, gw = gauss_legendre(n_pts)
        shape = (len(xi) - 1, pieces * n_pts)
        return (to_y(0.5 * (a + b) + half * gx).reshape(shape),
                (half * gw / (self.hi - self.lo)).reshape(shape))

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """n draws of y, map(xi) of uniform draws of xi."""
        return _MAPS[self.kind][0](rng.uniform(self.lo, self.hi, n))

    @staticmethod
    def uniform(c: float, d: float) -> "Density1D":
        return Density1D("uniform", float(c), float(d))

    @staticmethod
    def exp_uniform(a: float = -1.0, b: float = 1.0) -> "Density1D":
        """Law of y = exp(xi) with xi uniform on (a, b): p(y) = 1/((b-a) y)."""
        return Density1D("exp-uniform", float(a), float(b))


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
        """G_k as a sparse CSR matrix, the Kronecker product of its 1-D factors.

        Exact zeros of the factors (the y-weighted mass of a hat centred at
        y = 0) are not stored.  Only ``SGSystem.explicit`` needs it, and it
        reads the stored entries, so G_k is never dense.
        """
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
    factors' row sums.  ``n_pts`` Gauss-Legendre points per piece of a
    parametric cell, taken in xi (``Density1D.rule``), so g0 sums to one up
    to roundoff on any number of cells; 12 points integrate the hat
    products to roundoff at any bounds.
    """
    factors = [_hat_factors_1d(rho, brk, n_pts)
               for rho, brk in zip(grid.densities, grid.breakpoints)]

    def basis_integrals(k):
        rows = [f[1] if d == k - 1 else f[0] for d, f in enumerate(factors)]
        return functools.reduce(np.kron, [F.sum(axis=1) for F in rows], np.ones(1))

    return Gramians(g0=basis_integrals(0),
                    gk=tuple(basis_integrals(k) for k in range(1, grid.n_dims + 1)),
                    mass=tuple(f[0] for f in factors), mass_y=tuple(f[1] for f in factors))
