"""Parametric coefficient fields, their spatial factors and the parameter draw.

An affine field is mu(x) + sum_k c_k phi_k(x) y_{d_k}; several modes may
attach to the same parameter dimension.  Non-affine parametric fields are
plain callables (x, y) -> values; frozen at one parameter point they are
affine fields with no modes, which is how the Monte Carlo path uses them.
``affine_factors`` turns a, f, g into interior spatial factors once, for
both the tensor Galerkin system and the Monte Carlo sample blocks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .fem import (SpatialFunction, as_spatial_function, assemble_load,
                  assemble_weighted_stiffness)
from .mesh import Mesh

__all__ = [
    "AffineMode",
    "AffineField",
    "AffineFactors",
    "FieldBounds",
    "affine_factors",
    "bounds_check",
    "contract",
    "sample_parameters",
]


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
        x = np.atleast_2d(np.asarray(x, dtype=float))
        out = np.asarray(self.mean.values(x), dtype=float).copy()
        for m in self.modes:
            out += m.coeff * np.asarray(m.shape.values(x)) * float(y[m.dim])
        return out

    def dim_weight(self, dim: int):
        """Combined spatial weight of all modes on one dimension, or None."""
        parts = [m for m in self.modes if m.dim == dim]
        if not parts:
            return None

        def combined(x, parts=tuple(parts)):
            out = np.zeros(x.shape[0])
            for m in parts:
                out += m.coeff * np.asarray(m.shape.values(x))
            return out

        return combined


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
    points = np.atleast_2d(points)
    n_dims = len(supports)
    slope = np.zeros((n_dims, points.shape[0]))
    for m in field.modes:
        if m.dim >= n_dims:
            raise ValueError(f"mode dimension {m.dim} outside parameter box")
        slope[m.dim] += m.coeff * np.asarray(m.shape.values(points))
    ends = np.asarray(supports, dtype=float).reshape(n_dims, 2)
    at_lo, at_hi = slope * ends[:, :1], slope * ends[:, 1:]
    mean_vals = np.asarray(field.mean.values(points), dtype=float)
    lo = mean_vals + np.minimum(at_lo, at_hi).sum(axis=0)
    hi = mean_vals + np.maximum(at_lo, at_hi).sum(axis=0)
    return FieldBounds(lo=float(lo.min()), hi=float(hi.max()))


@dataclass(frozen=True)
class AffineFactors:
    """Interior spatial factors of affine data a, f, g, one entry per affine term.

    Entry 0 is the mean and entry k + 1 parameter dimension k; an entry is
    None where the field has no mode on that dimension.  ``K_ii`` and
    ``K_ib`` are the interior and interior-to-boundary blocks of a's
    weighted stiffness, ``load`` f's interior load vectors and ``obs`` g's
    values at the interior nodes.
    """

    x_boundary: np.ndarray
    K_ii: list
    K_ib: list
    load: list
    obs: list

    def lift(self, rhs: np.ndarray, dirichlet, y_points, weights) -> np.ndarray:
        """Subtract the Dirichlet lifting from ``rhs`` blocks (J, I) and return D.

        D (n_boundary, J) holds the Dirichlet data at the J parameter points
        ``y_points`` (zero without data, ``dirichlet`` None), and the lifting
        is sum_k W_k (K_ib,k D)^T with one (J, J) weight per term: the
        Gramians G0, Gk for the Galerkin system, diag(1) and diag(y_k) over
        a block of samples.
        """
        D = np.zeros((len(self.x_boundary), len(y_points)))
        if dirichlet is None:
            return D
        for j, y in enumerate(y_points):
            D[:, j] = dirichlet(self.x_boundary, y)
        for W, K_ib in zip(weights, self.K_ib):
            if K_ib is not None:
                rhs -= W @ (K_ib @ D).T
        return D


def affine_factors(mesh: Mesh, a: AffineField, f: AffineField, g: AffineField,
                   n_dims: int) -> AffineFactors:
    """Assemble the interior spatial factors of a, f and g over ``n_dims`` dimensions.

    Every stiffness factor stores the full CSR pattern of the mesh, explicit
    zeros included, so the ``K_ii`` entries share one ``indptr`` and
    ``indices`` and differ only in their data.
    """
    if not all(isinstance(fld, AffineField) for fld in (a, f, g)):
        raise TypeError("spatial factors need affine fields a, f and g")
    if max(a.n_dims, f.n_dims, g.n_dims) > n_dims:
        raise ValueError("field parameter dimensions exceed the parameter count")
    interior = mesh.interior
    bnd = np.flatnonzero(mesh.boundary)
    x_int = mesh.nodes[interior]

    def per_term(fld, factor):
        return [None if w is None else factor(w)
                for w in (fld.mean, *map(fld.dim_weight, range(n_dims)))]

    def stiffness(w):
        rows = assemble_weighted_stiffness(mesh, w)[interior]
        return rows[:, interior], rows[:, bnd]

    blocks = per_term(a, stiffness)
    return AffineFactors(
        x_boundary=mesh.nodes[bnd],
        K_ii=[None if b is None else b[0] for b in blocks],
        K_ib=[None if b is None else b[1] for b in blocks],
        load=per_term(f, lambda w: assemble_load(mesh, w)[interior]),
        obs=per_term(g, lambda w: np.asarray(as_spatial_function(w).values(x_int),
                                             dtype=float)),
    )


def contract(terms: list, weights) -> np.ndarray:
    """sum_k outer(w_k, t_k) over the terms that are not None: (J, n) blocks.

    ``terms`` is one ``AffineFactors`` list of vectors, and ``weights``
    holds one length-J vector per term (the mean's first).
    """
    out = weights[0][:, None] * terms[0]
    for w, t in zip(weights[1:], terms[1:]):
        if t is not None:
            out += w[:, None] * t
    return out


def scenario_rng(seed: int, index: int) -> np.random.Generator:
    """Independent stream for one sample, reproducible from (seed, index)."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(index,)))


def sample_parameters(densities, seed: int, index: int) -> np.ndarray:
    """Draw one parameter vector y, one entry per density.

    The stream depends only on (seed, index), so samples can be drawn in
    any order.
    """
    rng = scenario_rng(seed, index)
    return np.array([rho.sample(rng, 1)[0] for rho in densities])
