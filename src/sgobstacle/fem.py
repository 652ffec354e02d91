"""P1 finite element assembly and norms on triangular meshes.

All assembly routines return operators over the full node set; Dirichlet
conditions are applied by the callers through index restriction.  Element
contributions are accumulated serially in triangle order, so repeated runs
produce bitwise-identical matrices.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.sparse as sp

from .mesh import Mesh, triangle_quadrature

__all__ = [
    "SpatialFunction",
    "assemble_weighted_stiffness",
    "assemble_mass",
    "assemble_load",
    "interpolate_nodal",
    "evaluate_p1",
    "norm_error",
]


@dataclass(frozen=True)
class SpatialFunction:
    """A scalar function of x = (x1, x2) with an optional gradient.

    ``values`` maps an (n, 2) point array to an (n,) array; ``grad`` maps it
    to an (n, 2) array.
    """

    values: Callable[[np.ndarray], np.ndarray]
    grad: Callable[[np.ndarray], np.ndarray] | None = None

    @staticmethod
    def constant(c: float) -> "SpatialFunction":
        return SpatialFunction(
            values=lambda x: np.full(x.shape[0], float(c)),
            grad=lambda x: np.zeros((x.shape[0], 2)),
        )


def as_spatial_function(f) -> SpatialFunction:
    if isinstance(f, SpatialFunction):
        return f
    if np.isscalar(f):
        return SpatialFunction.constant(float(f))
    return SpatialFunction(values=f)


def _triangle_geometry(mesh: Mesh):
    """Vertex coords, areas and constant P1 gradients for all triangles."""
    p = mesh.nodes[mesh.triangles]  # (nt, 3, 2)
    d1 = p[:, 1] - p[:, 0]
    d2 = p[:, 2] - p[:, 0]
    det = d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]
    area = 0.5 * det
    # gradients of the three barycentric coordinates, shape (nt, 3, 2)
    grads = np.empty((p.shape[0], 3, 2))
    grads[:, 1, 0] = d2[:, 1] / det
    grads[:, 1, 1] = -d2[:, 0] / det
    grads[:, 2, 0] = -d1[:, 1] / det
    grads[:, 2, 1] = d1[:, 0] / det
    grads[:, 0] = -grads[:, 1] - grads[:, 2]
    return p, area, grads


def _quad_points(mesh: Mesh, degree: int):
    """Physical quadrature points (nt, nq, 2), shape values (nq, 3), weights."""
    rule = triangle_quadrature(degree)
    s = rule.points[:, 0]
    t = rule.points[:, 1]
    shapes = np.column_stack([1.0 - s - t, s, t])  # (nq, 3)
    p = mesh.nodes[mesh.triangles]  # (nt, 3, 2)
    pts = np.einsum("qv,tvd->tqd", shapes, p)
    return pts, shapes, rule.weights


def _eval_weight(weight, pts_flat: np.ndarray) -> np.ndarray:
    """Weight values at the points; None is the unit weight."""
    weight = as_spatial_function(1.0 if weight is None else weight)
    return np.asarray(weight.values(pts_flat), dtype=float)


def assemble_weighted_stiffness(mesh: Mesh, weight=None, quad_degree: int = 2) -> sp.csr_array:
    """Assemble K with K[r, i] = integral of weight(x) grad(phi_i).grad(phi_r).

    ``weight`` may be None (unit coefficient), a scalar, a callable on point
    batches, or a SpatialFunction.  Returns a CSR matrix over all nodes.
    """
    _, area, grads = _triangle_geometry(mesh)
    pts, _, wq = _quad_points(mesh, quad_degree)
    nt, nq, _ = pts.shape
    wvals = _eval_weight(weight, pts.reshape(-1, 2)).reshape(nt, nq)
    # integral of weight over each triangle: 2*A_T * sum_q w_q weight(x_q)
    wint = 2.0 * area * (wvals @ wq)
    local = np.einsum("tid,tjd->tij", grads, grads) * wint[:, None, None]
    rows = np.repeat(mesh.triangles, 3, axis=1).ravel()
    cols = np.tile(mesh.triangles, (1, 3)).ravel()
    n = mesh.n_nodes
    K = sp.coo_array((local.ravel(), (rows, cols)), shape=(n, n)).tocsr()
    K.sum_duplicates()
    K.sort_indices()
    return K


def assemble_mass(mesh: Mesh, weight=None, quad_degree: int = 2) -> sp.csr_array:
    """Assemble M with M[r, i] = integral of weight(x) phi_i phi_r."""
    _, area, _ = _triangle_geometry(mesh)
    pts, shapes, wq = _quad_points(mesh, quad_degree)
    nt, nq, _ = pts.shape
    wvals = _eval_weight(weight, pts.reshape(-1, 2)).reshape(nt, nq)
    # local[t, i, j] = 2*A_T sum_q w_q weight_q N_i(q) N_j(q)
    wmat = np.einsum("q,tq,qi,qj->tij", wq, wvals, shapes, shapes)
    local = 2.0 * area[:, None, None] * wmat
    rows = np.repeat(mesh.triangles, 3, axis=1).ravel()
    cols = np.tile(mesh.triangles, (1, 3)).ravel()
    n = mesh.n_nodes
    M = sp.coo_array((local.ravel(), (rows, cols)), shape=(n, n)).tocsr()
    M.sum_duplicates()
    M.sort_indices()
    return M


def assemble_load(mesh: Mesh, source, quad_degree: int = 2) -> np.ndarray:
    """Assemble f with f[r] = integral of source(x) phi_r, over all nodes."""
    _, area, _ = _triangle_geometry(mesh)
    pts, shapes, wq = _quad_points(mesh, quad_degree)
    nt, nq, _ = pts.shape
    svals = _eval_weight(source, pts.reshape(-1, 2)).reshape(nt, nq)
    local = 2.0 * area[:, None] * np.einsum("q,tq,qi->ti", wq, svals, shapes)
    f = np.zeros(mesh.n_nodes)
    np.add.at(f, mesh.triangles.ravel(), local.ravel())
    return f


def interpolate_nodal(mesh: Mesh, fn) -> np.ndarray:
    """Nodal interpolant coefficients of a function (P1 interpolation)."""
    return _eval_weight(fn, mesh.nodes)


def _nodal_coefficients(mesh: Mesh, coeffs) -> np.ndarray:
    """``coeffs`` as a float array with one entry per mesh node, else ValueError."""
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.shape != (mesh.n_nodes,):
        raise ValueError(f"need one coefficient per mesh node ({mesh.n_nodes}), "
                         f"got shape {coeffs.shape}")
    return coeffs


def evaluate_p1(mesh: Mesh, coeffs: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Evaluate a P1 field given by full nodal coefficients at arbitrary points.

    Points are clamped into the mesh rectangle, then located in the structured
    grid; a point on the cell diagonal belongs to either triangle (the two
    interpolants agree there).
    """
    coeffs = _nodal_coefficients(mesh, coeffs)
    x0, x1, y0, y1 = mesh.rect
    px = np.clip(points[:, 0], x0, x1)
    py = np.clip(points[:, 1], y0, y1)
    cx = np.minimum((px - x0) / mesh.dx, mesh.nx - 1e-12).astype(np.int64)
    cy = np.minimum((py - y0) / mesh.dy, mesh.ny - 1e-12).astype(np.int64)
    xi = (px - x0) / mesh.dx - cx
    eta = (py - y0) / mesh.dy - cy
    bl = cy * (mesh.nx + 1) + cx
    vbl = coeffs[bl]
    vbr = coeffs[bl + 1]
    vtl = coeffs[bl + mesh.nx + 1]
    vtr = coeffs[bl + mesh.nx + 2]
    lower = eta <= xi
    out = np.where(
        lower,
        vbl + xi * (vbr - vbl) + eta * (vtr - vbr),
        vbl + xi * (vtr - vtl) + eta * (vtl - vbl),
    )
    return out


def norm_error(mesh: Mesh, coeffs: np.ndarray, exact, kind: str = "l2",
               quad_degree: int = 5) -> float:
    """Norm of (P1 field - exact) over the mesh.

    kind = "l2" integrates the squared difference of values; kind = "h1semi"
    integrates the squared difference of gradients and requires ``exact`` to
    provide a gradient.  Passing zero coefficients and kind of choice yields
    the norm of ``exact`` itself with the same quadrature.
    """
    exact = as_spatial_function(exact)
    coeffs = _nodal_coefficients(mesh, coeffs)
    _, area, grads = _triangle_geometry(mesh)
    pts, shapes, wq = _quad_points(mesh, quad_degree)
    nt, nq, _ = pts.shape
    tri_vals = coeffs[mesh.triangles]  # (nt, 3)

    if kind == "l2":
        uh = tri_vals @ shapes.T  # (nt, nq)
        ue = np.asarray(exact.values(pts.reshape(-1, 2))).reshape(nt, nq)
        sq = ((uh - ue) ** 2) @ wq
    elif kind == "h1semi":
        if exact.grad is None:
            raise ValueError("h1semi error needs an exact gradient")
        guh = np.einsum("tv,tvd->td", tri_vals, grads)  # constant per triangle
        ge = np.asarray(exact.grad(pts.reshape(-1, 2))).reshape(nt, nq, 2)
        diff = ge - guh[:, None, :]
        sq = np.einsum("tqd,tqd,q->t", diff, diff, wq)
    else:
        raise ValueError(f"unknown norm kind {kind!r}")
    return float(np.sqrt(np.sum(2.0 * area * sq)))
