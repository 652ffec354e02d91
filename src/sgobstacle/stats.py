"""Moments of the discrete solution and reference statistics of exact solutions.

First and second moments of a tensor Galerkin solution reduce to weighted
sums of the coefficient blocks: the parametric basis integrals g0 give the
mean, and the Gramian G_0, applied by its 1-D factors, the second moment
and, on the blocks centred at the mean, the variance.  Reference statistics
of a known product solution u(x, y) = phi(x) psi(y) are
E[u^k] = phi^k E[psi^k]: the scalars E[psi^k] (``psi_moments``) are one
tensor Gauss-Legendre quadrature against the product density, built from
the per-dimension rules of ``param.Density1D.rule``, and scale phi^k and
its gradient at any spatial points.
"""

from __future__ import annotations

import csv
import functools
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ._checks import integer
from .fem import SpatialFunction
from .mesh import Mesh, write_vtk
from .param import Density1D, kron_apply, tensor_points
from .system import SGSystem

__all__ = [
    "StatField",
    "ParametricFunction",
    "sg_mean",
    "sg_second_moment",
    "sg_variance",
    "psi_moments",
    "exact_statistic",
    "write_stat_csv",
    "write_stat_vtk",
]

@dataclass(frozen=True)
class StatField:
    """A nodal scalar field over the full mesh node set."""

    mesh: Mesh
    name: str
    values: np.ndarray

    def __post_init__(self):
        assert self.values.shape == (self.mesh.n_nodes,)


def _full_blocks(system: SGSystem, u: np.ndarray) -> np.ndarray:
    """Coefficient blocks extended by boundary data, shape (J, n_nodes)."""
    return system.mesh.full_values(u.reshape(system.n_param, system.n_spatial),
                                   system.boundary_values)


def sg_mean(system: SGSystem, u: np.ndarray) -> StatField:
    full = _full_blocks(system, u)
    vals = system.gram.g0 @ full
    return StatField(mesh=system.mesh, name="mean", values=vals)


def sg_second_moment(system: SGSystem, u: np.ndarray) -> StatField:
    full = _full_blocks(system, u)
    vals = np.sum(full * kron_apply(system.gram.factors(0), full), axis=0)
    return StatField(mesh=system.mesh, name="second_moment", values=vals)


def sg_variance(system: SGSystem, u: np.ndarray) -> StatField:
    """Centred form (U - m)^T G_0 (U - m) per node, with U the coefficient
    blocks and m = g0 U the mean.

    Since g0 = G_0 1 and the hats sum to one, it equals the second moment
    minus the squared mean without subtracting the two.  G_0 is positive
    definite, so only roundoff at nodes where u does not depend on y can
    fall below zero; it is clipped.
    """
    full = _full_blocks(system, u)
    dev = full - system.gram.g0 @ full
    var = np.sum(dev * kron_apply(system.gram.factors(0), dev), axis=0)
    return StatField(mesh=system.mesh, name="variance", values=np.maximum(var, 0.0))


@dataclass(frozen=True)
class ParametricFunction:
    """A product u(x, y) = space(x) * param(y) with its x-gradient.

    ``space`` maps spatial points x of shape (n, 2) to (n,), ``param`` maps
    parameter points y of shape (..., M) to ``y.shape[:-1]`` and
    ``space_grad`` maps x to (n, 2).  ``value(x, y)`` returns shape
    ``y.shape[:-1] + (n,)`` and ``grad(x, y)`` returns
    ``y.shape[:-1] + (n, 2)``: a single point y of shape (M,) gives (n,) and
    (n, 2), a block of shape (B, M) gives (B, n) and (B, n, 2).
    """

    space: Callable[[np.ndarray], np.ndarray]
    param: Callable[[np.ndarray], np.ndarray]
    space_grad: Callable[[np.ndarray], np.ndarray] | None = None

    def value(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return np.multiply.outer(self.param(y), self.space(np.atleast_2d(x)))

    def grad(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return np.multiply.outer(self.param(y), self.space_grad(np.atleast_2d(x)))


def tensor_quadrature(densities: tuple[Density1D, ...], order: int):
    """Tensor Gauss-Legendre nodes on the parameter box with density weights:
    the product of the one-cell ``Density1D.rule`` of each dimension."""
    rules = [rho.rule(np.array(rho.support), order) for rho in densities]
    return (tensor_points([y[0] for y, _ in rules]),
            functools.reduce(np.kron, [w[0] for _, w in rules], np.ones(1)))


def psi_moments(analytic: ParametricFunction, densities, quad_order: int,
                moments: tuple[int, ...]) -> np.ndarray:
    """The scalars E[psi^k] of ``analytic.param`` for each k in ``moments``,
    from one tensor quadrature of order ``quad_order``: psi is evaluated
    once on its nodes."""
    nodes, weights = tensor_quadrature(tuple(densities), quad_order)
    psi = analytic.param(nodes)
    return np.array([weights @ psi ** k for k in moments])


def exact_statistic(analytic: ParametricFunction, densities, moment: int = 1,
                    quad_order: int = 64) -> SpatialFunction:
    """Spatial function x -> E[u(x, .)^moment] = E[psi^moment] phi(x)^moment.

    E[psi^moment] is one tensor quadrature (``psi_moments``), taken here
    once.  ``moment`` is an integer >= 1.  Intended for solutions smooth in
    y; 64 points per dimension leave the parametric quadrature error far
    below the spatial discretization errors studied here.
    """
    moment = integer(moment, "moment", 1)
    (m,) = psi_moments(analytic, densities, quad_order, (moment,))
    return SpatialFunction(values=lambda x: m * analytic.space(np.atleast_2d(x)) ** moment)


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
