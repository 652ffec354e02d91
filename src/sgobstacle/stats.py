"""Moments of the discrete solution and reference statistics of exact solutions.

First and second moments of a tensor Galerkin solution reduce to weighted
sums of the coefficient blocks: the parametric basis integrals g0 give the
mean, the Gramian G0 gives the second moment.  Reference statistics of a
known parametric solution are tensor Gauss-Legendre quadratures against the
product density.
"""

from __future__ import annotations

import csv
import functools
import logging
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .fem import SpatialFunction
from .mesh import Mesh, write_vtk
from .param import Density1D
from .system import SGSystem

__all__ = [
    "StatField",
    "ParametricFunction",
    "sg_mean",
    "sg_second_moment",
    "sg_variance",
    "exact_statistic",
    "write_stat_csv",
    "write_stat_vtk",
]

VAR_CLIP_TOL = 1e-12

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class StatField:
    """A nodal scalar field over the full mesh node set.

    ``n_clipped`` counts nodes whose value was rounded up to zero; only the
    variance field ever sets it.
    """

    mesh: Mesh
    name: str
    values: np.ndarray
    n_clipped: int = 0

    def __post_init__(self):
        assert self.values.shape == (self.mesh.n_nodes,)


def _full_blocks(system: SGSystem, u: np.ndarray) -> np.ndarray:
    """Coefficient blocks extended by boundary data, shape (J, n_nodes)."""
    return system.mesh.full_values(u.reshape(system.n_param, system.n_spatial),
                                   system.boundary_values.T)


def sg_mean(system: SGSystem, u: np.ndarray) -> StatField:
    full = _full_blocks(system, u)
    vals = system.gram.g0 @ full
    return StatField(mesh=system.mesh, name="mean", values=vals)


def sg_second_moment(system: SGSystem, u: np.ndarray) -> StatField:
    full = _full_blocks(system, u)
    vals = np.sum(full * (system.gram.G0 @ full), axis=0)
    return StatField(mesh=system.mesh, name="second_moment", values=vals)


def sg_variance(system: SGSystem, u: np.ndarray) -> StatField:
    """Second moment minus squared mean, clipped at zero.

    Small negative values (quadrature and solver roundoff) are tolerated up
    to VAR_CLIP_TOL relative to the field scale and clipped, with the count
    recorded on the returned field; anything more negative raises.
    """
    mean = sg_mean(system, u).values
    m2 = sg_second_moment(system, u).values
    var = m2 - mean ** 2
    scale = max(float(np.max(np.abs(m2))), 1.0)
    if float(np.min(var)) < -VAR_CLIP_TOL * scale:
        raise FloatingPointError(
            f"variance fell below -{VAR_CLIP_TOL} * scale: {float(np.min(var))!r}")
    n_clipped = int(np.count_nonzero(var < 0.0))
    if n_clipped:
        log.warning("clipped %d negative variance node(s), most negative %.3e",
                    n_clipped, float(np.min(var)))
    return StatField(mesh=system.mesh, name="variance",
                     values=np.maximum(var, 0.0), n_clipped=n_clipped)


@dataclass(frozen=True)
class ParametricFunction:
    """u(x, y) with values and x-gradient, vectorized over x and y batches.

    ``value(x, y)`` takes spatial points x of shape (n, 2) and parameter
    points y of shape (..., M) and returns shape ``y.shape[:-1] + (n,)``;
    ``grad(x, y)`` returns ``y.shape[:-1] + (n, 2)``.  A single point y of
    shape (M,) gives (n,) and (n, 2); a block of shape (B, M) gives (B, n)
    and (B, n, 2).
    """

    value: Callable[[np.ndarray, np.ndarray], np.ndarray]
    grad: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None


def tensor_quadrature(densities: tuple[Density1D, ...], order: int):
    """Tensor Gauss-Legendre nodes on the parameter box with density weights."""
    if len(densities) == 0:
        return np.zeros((1, 0)), np.ones(1)
    gx, gw = np.polynomial.legendre.leggauss(order)
    pts_1d, wts_1d = [], []
    for rho in densities:
        c, d = rho.support
        pts_1d.append(0.5 * (c + d) + 0.5 * (d - c) * gx)
        wts_1d.append(0.5 * (d - c) * gw * rho.pdf(pts_1d[-1]))
    grids = np.meshgrid(*pts_1d, indexing="ij")
    return np.column_stack([g.ravel() for g in grids]), functools.reduce(np.kron, wts_1d)


# Values (parameter nodes x spatial points) evaluated per chunk of the
# parameter quadrature; keeps the working set at a few MB for any mesh.
_CHUNK_VALUES = 2 ** 18


def _exact_moments(analytic: ParametricFunction, x: np.ndarray, densities,
                   quad_order: int, moments: tuple[int, ...], with_grad: bool):
    """E[u^k] and, if asked, E[k u^(k-1) grad u] at points x for each k >= 1.

    One sweep over the tensor quadrature nodes in chunks; each chunk is a
    single batched call of ``analytic.value`` (and ``analytic.grad``).
    Returns (values, grads): lists over ``moments`` of arrays of shape (n,)
    and (n, 2); grads is None without ``with_grad``.
    """
    nodes, weights = tensor_quadrature(tuple(densities), quad_order)
    n = x.shape[0]
    chunk = max(1, _CHUNK_VALUES // max(n, 1))
    vals = [np.zeros(n) for _ in moments]
    grads = [np.zeros((n, 2)) for _ in moments] if with_grad else None
    for start in range(0, len(weights), chunk):
        y = nodes[start:start + chunk]
        w = weights[start:start + chunk]
        V = np.asarray(analytic.value(x, y))
        G = np.asarray(analytic.grad(x, y)) if with_grad else None
        for i, k in enumerate(moments):
            if k == 1:
                vals[i] += w @ V
                if with_grad:
                    grads[i] += np.einsum("b,bnd->nd", w, G)
                continue
            wv = w[:, None] * V ** (k - 1)
            vals[i] += np.einsum("bn,bn->n", wv, V)
            if with_grad:
                # one reduction per component: "bn,bnd->nd" in a single
                # einsum runs about twice as long on (B, n, 2) blocks
                for d in range(2):
                    grads[i][:, d] += k * np.einsum("bn,bn->n", wv, G[..., d])
    return vals, grads


def exact_statistic(analytic: ParametricFunction, densities, moment: int = 1,
                    quad_order: int = 64) -> SpatialFunction:
    """Spatial function x -> E[u(x, .)^moment] by tensor quadrature.

    The returned gradient is E[moment * u^(moment-1) grad u] and requires
    ``analytic.grad``.  Intended for solutions smooth in y; 64 points per
    dimension leave the parametric quadrature error far below the spatial
    discretization errors studied here.
    """
    densities = tuple(densities)

    def values(x: np.ndarray) -> np.ndarray:
        vals, _ = _exact_moments(analytic, np.atleast_2d(x), densities,
                                 quad_order, (moment,), with_grad=False)
        return vals[0]

    grad = None
    if analytic.grad is not None:
        def grad(x: np.ndarray) -> np.ndarray:
            _, grads = _exact_moments(analytic, np.atleast_2d(x), densities,
                                      quad_order, (moment,), with_grad=True)
            return grads[0]

    return SpatialFunction(values=values, grad=grad)


def write_stat_csv(field: StatField, path: str) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x1", "x2", "value"])
        for (x1, x2), v in zip(field.mesh.nodes, field.values):
            writer.writerow([f"{x1:.16g}", f"{x2:.16g}", f"{v:.16e}"])


def write_stat_vtk(fields: list[StatField], path: str) -> None:
    if not fields:
        raise ValueError("no fields to write")
    mesh = fields[0].mesh
    write_vtk(mesh, path, point_data={f.name: f.values for f in fields},
              title="solution statistics")
