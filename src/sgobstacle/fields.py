"""Parametric coefficient fields and their spatial data.

An affine field is mu(x) + sum_k c_k phi_k(x) y_{d_k}; several modes may
attach to the same parameter dimension.  Every coefficient, source and
obstacle is such a field.  Dirichlet data are plain callables (x, y) ->
values that take a block of parameter rows at once: for points x (n, 2)
and y (..., M) they return values of shape y.shape[:-1] + (n,), the shapes
of an exact solution's ``value`` (``stats.ParametricFunction``).
``affine_factors`` maps the affine terms of a, f and g through the mesh
operator (``fem.P1Operator``) once: the Galerkin system contracts them with
its Gramians, and a Monte Carlo block takes its samples' data as [1, y]
times them.  ``fold_terms`` groups stiffness terms that are multiples of
each other, so both can treat such a group as one spatial shape.  ``lift``
is the one Dirichlet lifting of both.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .fem import P1Operator, SpatialFunction, as_spatial_function

__all__ = [
    "AffineMode",
    "AffineField",
    "AffineFactors",
    "FieldBounds",
    "affine_factors",
    "bounds_check",
    "fold_terms",
    "lift",
]


# A term joins the group of an earlier term K when ‖K_k − c K‖ <= FOLD_RTOL ‖K_k‖
# for c = <K_k, K> / <K, K>: a rounding floor, like the tight solve target's
# 1e-13 ‖b‖.
FOLD_RTOL = 1e-13


@dataclass(frozen=True)
class AffineMode:
    coeff: float
    shape: SpatialFunction
    dim: int


@dataclass(frozen=True)
class AffineField:
    """mu(x) + sum over modes of coeff * shape(x) * y[dim]."""

    mean: SpatialFunction
    modes: tuple[AffineMode, ...] = ()

    @staticmethod
    def build(mean, modes: Sequence[tuple[float, object, int]] = ()) -> "AffineField":
        built = tuple(AffineMode(float(c), as_spatial_function(s), int(d))
                      for c, s, d in modes)
        return AffineField(mean=as_spatial_function(mean), modes=built)

    @property
    def n_dims(self) -> int:
        """Smallest parameter dimension count covering all modes."""
        return 1 + max((m.dim for m in self.modes), default=-1)

    def evaluate(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Field values at points x (n, 2) for one parameter vector y (M,)."""
        y = np.asarray(y, dtype=float)
        return np.concatenate(([1.0], y)) @ self.terms(x, y.size)

    def terms(self, x: np.ndarray, n_dims: int) -> np.ndarray:
        """Values (1 + n_dims, n) at points x of the mean and of the summed
        modes of each parameter dimension; a dimension without modes has a
        zero row."""
        if self.n_dims > n_dims:
            raise ValueError(f"mode dimension {self.n_dims - 1} outside the "
                             f"{n_dims} parameter dimensions")
        x = np.atleast_2d(np.asarray(x, dtype=float))
        out = np.zeros((1 + n_dims, x.shape[0]))
        out[0] = self.mean.values(x)
        for m in self.modes:
            out[1 + m.dim] += m.coeff * np.asarray(m.shape.values(x))
        return out


@dataclass(frozen=True)
class FieldBounds:
    lo: float
    hi: float


def bounds_check(field: AffineField, supports: Sequence[tuple[float, float]],
                 points: np.ndarray) -> FieldBounds:
    """Range of an affine field over a parameter box and a set of points.

    At each point the field is mu + sum_d s_d y_d, with s_d the summed modes
    of dimension d, so over the box its extremes take each y_d at the end
    of its support that makes s_d y_d smallest or largest.  The range is
    the min/max of these over the supplied spatial points (typically mesh
    nodes).
    """
    ends = np.asarray(supports, dtype=float).reshape(-1, 2)
    terms = field.terms(points, len(ends))
    mean_vals, slope = terms[0], terms[1:]
    at_lo, at_hi = slope * ends[:, :1], slope * ends[:, 1:]
    lo = mean_vals + np.minimum(at_lo, at_hi).sum(axis=0)
    hi = mean_vals + np.maximum(at_lo, at_hi).sum(axis=0)
    return FieldBounds(lo=float(lo.min()), hi=float(hi.max()))


@dataclass(frozen=True)
class AffineFactors:
    """Interior spatial data of a, f and g, one row per affine term:
    a's stiffness entries (rows, nnz) on the ``interior`` and ``coupling``
    blocks of the mesh operator, f's interior loads and g's values at the
    interior nodes (rows, I)."""

    K_ii: np.ndarray
    K_ib: np.ndarray
    load: np.ndarray
    obs: np.ndarray


def affine_factors(op: P1Operator, a: AffineField, f: AffineField, g: AffineField,
                   n_dims: int) -> AffineFactors:
    """The spatial data of the affine terms of a, f and g over ``n_dims`` dimensions.

    Row 0 is the mean and row k + 1 parameter dimension k; the rows of a
    dimension on which a field has no mode are zero.  The data are linear
    in the terms, so [1, y] times them are the data of the field at y.
    """
    a_integrals = op.integrals(a.terms(op.points, n_dims))
    loads = op.load(f.terms(op.points, n_dims))[..., op.mesh.interior]
    return AffineFactors(op.interior.data(a_integrals), op.coupling.data(a_integrals),
                         loads, g.terms(op.mesh.nodes[op.mesh.interior], n_dims))


def fold_terms(rows) -> list:
    """Group the terms ``rows`` (entry vectors on one shared pattern) by
    spatial shape.

    Returns one (g, ratios) per group, in the order of each group's first
    term g: ``ratios`` has an entry per term, c for each term k of the
    group, with rows[k] = c rows[g] to rounding (``FOLD_RTOL``, in the 2-norm
    of the entries, which is the Frobenius norm of the matrices), 1.0 for g
    itself and 0 off the group, so a combination w @ rows of the group's
    terms is (w @ ratios) rows[g].  Terms are taken in order, and each joins
    the first group that fits it or opens a new one.  An all-zero term joins
    no group, so no ratio divides by a zero norm.
    """
    groups = []
    for k, row in enumerate(rows):
        norm = np.linalg.norm(row)
        if norm == 0.0:
            continue
        for g, ratios in groups:
            c = (row @ rows[g]) / (rows[g] @ rows[g])
            if np.linalg.norm(row - c * rows[g]) <= FOLD_RTOL * norm:
                ratios[k] = c
                break
        else:
            ratios = np.zeros(len(rows))
            ratios[k] = 1.0
            groups.append((k, ratios))
    return groups


def lift(op: P1Operator, dirichlet, y_points: np.ndarray, K_ib: np.ndarray):
    """Dirichlet data D (J, n_boundary) at the parameter points (zero without
    ``dirichlet``, one call of it on all J points otherwise) and the lifting
    K_ib D.

    The coupling entries ``K_ib`` (..., nnz) broadcast against the rows of
    D: a Monte Carlo block (J, nnz) pairs sample j with row j, and the
    Galerkin stack (T, 1, nnz) of its affine terms applies each term to
    every row (T, J, I) before its Gramians contract them.
    """
    x_boundary = op.mesh.nodes[op.mesh.boundary]
    D = np.zeros((len(y_points), len(x_boundary)))
    if dirichlet is not None:
        D[:] = dirichlet(x_boundary, y_points)
    return D, op.coupling.apply(K_ib, D)

