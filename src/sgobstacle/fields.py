"""Parametric coefficient fields and sampled scenarios.

An affine field is mu(x) + sum_k c_k phi_k(x) y_{d_k}; several modes may
attach to the same parameter dimension.  Non-affine parametric fields are
plain callables (x, y) -> values and are only usable by the sampling paths.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from .fem import SpatialFunction, as_spatial_function

__all__ = [
    "AffineMode",
    "AffineField",
    "FieldBounds",
    "SampledScenario",
    "bounds_check",
    "sample_scenario",
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
class SampledScenario:
    """One parameter draw with frozen spatial evaluators."""

    y: np.ndarray
    a: Callable[[np.ndarray], np.ndarray]
    f: Callable[[np.ndarray], np.ndarray]
    g: Callable[[np.ndarray], np.ndarray]


def _freeze(fld, y: np.ndarray):
    if isinstance(fld, AffineField):
        return lambda x: fld.evaluate(x, y)
    return lambda x: np.asarray(fld(np.atleast_2d(x), y), dtype=float)


def scenario_rng(seed: int, index: int) -> np.random.Generator:
    """Independent stream for one sample, reproducible from (seed, index)."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(index,)))


def sample_scenario(fields: Mapping[str, object], densities, seed: int,
                    index: int = 0) -> SampledScenario:
    """Draw y from the given per-dimension densities and freeze the fields.

    ``fields`` maps 'a', 'f', 'g' to AffineFields or callables (x, y) -> v.
    The stream depends only on (seed, index), so scenarios can be generated
    in any order.
    """
    rng = scenario_rng(seed, index)
    y = np.array([rho.sample(rng, 1)[0] for rho in densities])
    return SampledScenario(
        y=y,
        a=_freeze(fields["a"], y),
        f=_freeze(fields["f"], y),
        g=_freeze(fields["g"], y),
    )
