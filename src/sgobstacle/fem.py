"""P1 finite element assembly and norms on triangular meshes.

``P1Operator`` is the one assembly path: it holds the linear maps of one
mesh (the CSR patterns of the interior and the interior-boundary node
couplings with their stiffness maps, and the load map), so assembly is one
sparse product for any number of coefficient rows.  Each map sums in a
fixed order, so repeated runs produce bitwise-identical matrices.
``evaluate_p1`` evaluates any number of P1 fields at once, and
``p1_distance`` is the one quadrature of L2 and H1-seminorm errors.  The
module owns the two triangle rules (``_RULES``) and the P1 triangle geometry.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np
import scipy.sparse as sp

from .mesh import Mesh

__all__ = [
    "Block",
    "P1Operator",
    "SpatialFunction",
    "assembly_points",
    "evaluate_p1",
    "p1_distance",
]


@dataclass(frozen=True)
class SpatialFunction:
    """A scalar function of x = (x1, x2): ``values`` maps an (n, 2) point
    array to an (n,) array."""

    values: Callable[[np.ndarray], np.ndarray]

    @staticmethod
    def constant(c: float) -> "SpatialFunction":
        return SpatialFunction(values=lambda x: np.full(x.shape[0], float(c)))


def as_spatial_function(f) -> SpatialFunction:
    if isinstance(f, SpatialFunction):
        return f
    if np.isscalar(f):
        return SpatialFunction.constant(float(f))
    return SpatialFunction(values=f)


def _triangle_geometry(mesh: Mesh):
    """Areas and constant P1 gradients (nt, 3, 2) of all triangles."""
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
    return area, grads


ASSEMBLY_DEGREE = 2  # triangle rule of the loads and the coefficient integrals


# Rules on the reference triangle {(s, t): s, t >= 0, s + t <= 1}, by the
# degree up to which they are exact: points (nq, 2) and weights (nq,).  The
# weights sum to 1/2, the reference area, so the integral over a triangle T
# is 2 |T| sum_q w_q f(x_q).  Degree 5 is Radon's seven-point rule: the
# centroid and two orbits of barycentric coordinates (a, a, 1 - 2a).
_RULES = {
    2: (np.array([[1 / 6, 1 / 6], [2 / 3, 1 / 6], [1 / 6, 2 / 3]]), np.full(3, 1 / 6)),
    5: (np.array([[1 / 3, 1 / 3]] + [p for a in (0.470142064105115, 0.101286507323456)
                                     for p in ([a, a], [1 - 2 * a, a], [a, 1 - 2 * a])]),
        np.repeat([0.1125, 0.132394152788506 / 2, 0.125939180544827 / 2], [1, 3, 3])),
}


def _reference_rule(degree: int) -> tuple[np.ndarray, np.ndarray]:
    """Values (nq, 3) of the three vertex shapes at the points of the
    triangle rule of ``degree`` (2 or 5), and its weights."""
    points, weights = _RULES[degree]
    s, t = points.T
    return np.column_stack([1.0 - s - t, s, t]), weights


def _rule_points(mesh: Mesh, shapes: np.ndarray) -> np.ndarray:
    """Points (n_triangles * nq, 2), triangle by triangle, of vertex ``shapes`` (nq, 3)."""
    return (shapes @ mesh.nodes[mesh.triangles]).reshape(-1, 2)


def assembly_points(mesh: Mesh) -> np.ndarray:
    """The points (n_triangles * nq, 2), triangle by triangle, at which
    ``P1Operator`` takes the values of coefficients and sources."""
    return _rule_points(mesh, _reference_rule(ASSEMBLY_DEGREE)[0])


def _columns(rows: np.ndarray, values: np.ndarray, n_rows: int) -> sp.csr_array:
    """The matrix whose column c holds ``values[c]`` at the distinct rows ``rows[c]``."""
    n, k = rows.shape
    return sp.csc_array((values.ravel(), rows.ravel(), np.arange(0, n * k + 1, k)),
                        shape=(n_rows, n)).tocsr()


def _apply(A: sp.csr_array, X: np.ndarray) -> np.ndarray:
    """A applied to the last axis of X: (..., n) -> (..., A.shape[0])."""
    return (A @ X.reshape(-1, X.shape[-1]).T).T.reshape(X.shape[:-1] + (A.shape[0],))


@dataclass(frozen=True)
class Block:
    """Couplings of a row node set with a column node set: a CSR pattern and
    its stiffness map ``S`` (nnz, n_triangles) from the triangle integrals
    of a coefficient to the stored entries, explicit zeros included."""

    shape: tuple[int, int]
    indptr: np.ndarray
    indices: np.ndarray
    S: sp.csr_array

    def data(self, integrals: np.ndarray) -> np.ndarray:
        """Stored entries (..., nnz) from triangle integrals (..., n_triangles)."""
        return _apply(self.S, integrals)

    @cached_property
    def _row_sums(self) -> sp.csr_array:
        """The (n, nnz) matrix that sums the stored entries of each row."""
        nnz = self.indices.size
        return sp.csr_array((np.ones(nnz), np.arange(nnz), self.indptr),
                            shape=(self.shape[0], nnz))

    def apply(self, data: np.ndarray, V: np.ndarray) -> np.ndarray:
        """Products (..., n) of the matrices with entries ``data`` (..., nnz)
        and the vectors ``V`` (..., m), broadcast row by row."""
        return _apply(self._row_sums, data * V[..., self.indices])

    def pattern(self, B: int) -> tuple[np.ndarray, np.ndarray]:
        """``indptr`` and ``indices`` of the block-diagonal matrix of B copies
        of the pattern; those of fewer copies are their prefixes."""
        nnz, m = self.indices.size, self.shape[1]
        j = np.arange(B)[:, None]
        return (np.append((self.indptr[:-1] + nnz * j).ravel(), B * nnz),
                (self.indices + m * j).ravel())

    def csr(self, data: np.ndarray, pattern=None) -> sp.csr_array:
        """The matrix with entries ``data``; the rows of a (B, nnz) array are
        the diagonal blocks of a block-diagonal matrix, whose pattern is the
        prefix of ``pattern`` (``Block.pattern`` of B or more copies) when
        one is given.

        The result shares memory with its inputs: its ``data`` views a
        contiguous ``data``, its ``indices`` and ``indptr`` a given ``pattern``.
        So an in-place change of it (``eliminate_zeros``, ``sum_duplicates``,
        ``*=``) rewrites those arrays, such as the stiffness rows of
        ``fields.affine_factors`` or a cached pattern, under every matrix
        built from them later: ``.copy()`` it first."""
        data = np.atleast_2d(data)
        (B, nnz), (n, m) = data.shape, self.shape
        indptr, indices = self.pattern(B) if pattern is None else pattern
        return sp.csr_array((data.ravel(), indices[:B * nnz], indptr[:B * n + 1]),
                            shape=(B * n, B * m))


def _stiffness_blocks(mesh: Mesh, grads: np.ndarray) -> tuple[Block, Block]:
    """The couplings of the interior nodes with the interior and with the
    boundary nodes, cut from the pattern of all node couplings and its
    stiffness map, whose column t holds the gradient products ``grads`` of
    triangle t."""
    tri, n, nt = mesh.triangles, mesh.n_nodes, mesh.n_triangles
    pairs, slot = np.unique((tri[:, :, None] * n + tri[:, None, :]).reshape(nt, 9),
                            return_inverse=True)
    S = _columns(slot.reshape(nt, 9), np.einsum("tid,tjd->tij", grads, grads), pairs.size)
    rows, cols = pairs // n, pairs % n
    number = np.empty(n, dtype=np.int64)  # a node's place in its own node set
    for nodes in (mesh.interior, np.flatnonzero(mesh.boundary)):
        number[nodes] = np.arange(nodes.size)

    def block(on_boundary: bool) -> Block:
        keep = np.flatnonzero(~mesh.boundary[rows] & (mesh.boundary[cols] == on_boundary))
        n_rows, n_cols = mesh.interior.size, int(np.sum(mesh.boundary == on_boundary))
        indptr = np.append(0, np.cumsum(np.bincount(number[rows[keep]], minlength=n_rows)))
        return Block((n_rows, n_cols), indptr, number[cols[keep]], S[keep])

    return block(False), block(True)


class P1Operator:
    """The linear assembly maps of one mesh: a P1 stiffness matrix is linear
    in the integrals of its coefficient over the triangles, a load vector (a
    mass matrix) in its source (weight) at the ``points`` of ``assembly_points``.
    ``interior`` couples the interior nodes with themselves and ``coupling``
    with the boundary nodes: the two blocks that Dirichlet conditions need."""

    def __init__(self, mesh: Mesh):
        area, grads = _triangle_geometry(mesh)
        self._shapes, self._wq = _reference_rule(ASSEMBLY_DEGREE)
        self.mesh, self.points, self._area2 = mesh, _rule_points(mesh, self._shapes), 2.0 * area
        self.interior, self.coupling = _stiffness_blocks(mesh, grads)
        self._load = _columns(np.repeat(mesh.triangles, self._wq.size, axis=0),
                              self._area2[:, None, None] * self._wq[:, None] * self._shapes,
                              mesh.n_nodes)

    def integrals(self, values: np.ndarray) -> np.ndarray:
        """Triangle integrals (..., n_triangles) of values (..., n_points) at ``points``."""
        return self._area2 * (values.reshape(values.shape[:-1] + (-1, self._wq.size))
                              @ self._wq)

    def load(self, values: np.ndarray) -> np.ndarray:
        """Load vectors (..., n_nodes) of source values (..., n_points) at ``points``."""
        return _apply(self._load, values)


def _nodal_coefficients(mesh: Mesh, coeffs) -> np.ndarray:
    """``coeffs`` as a float array whose rows hold one entry per mesh node,
    else ValueError."""
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.shape[-1:] != (mesh.n_nodes,):
        raise ValueError(f"need one coefficient per mesh node ({mesh.n_nodes}), "
                         f"got shape {coeffs.shape}")
    return coeffs


def evaluate_p1(mesh: Mesh, coeffs: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Evaluate P1 fields given by full nodal coefficients at arbitrary points.

    ``coeffs`` has shape (..., n_nodes), one field per row, and the result
    (..., n_points).  Points are clamped into the mesh rectangle, then
    located in the structured grid; a point on the cell diagonal belongs to
    either triangle (the two interpolants agree there).
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
    vbl = coeffs[..., bl]
    vbr = coeffs[..., bl + 1]
    vtl = coeffs[..., bl + mesh.nx + 1]
    vtr = coeffs[..., bl + mesh.nx + 2]
    # slopes along x and y on the lower-right or the upper-left triangle
    lower = eta <= xi
    slope_x = np.where(lower, vbr - vbl, vtr - vtl)
    slope_y = np.where(lower, vtr - vbr, vtl - vbl)
    return vbl + xi * slope_x + eta * slope_y


def p1_distance(mesh: Mesh, coeffs: np.ndarray, exact) -> tuple[np.ndarray, np.ndarray]:
    """L2 and H1-seminorm distances of P1 fields to exact data, by the
    degree-5 rule on each triangle.

    ``coeffs`` has shape (..., n_nodes), one field of full nodal coefficients
    per row.  ``exact`` maps the (n_points, 2) quadrature points to the exact
    values (..., n_points) and gradients (..., n_points, 2), and the result
    is the pair of distances (...) of the values and of the gradients.  Zero
    coefficients give the norms of the exact data itself.  Exact data of any
    other shape raise ValueError.
    """
    coeffs = _nodal_coefficients(mesh, coeffs)
    lead = coeffs.shape[:-1]
    area, grads = _triangle_geometry(mesh)
    shapes, wq = _reference_rule(5)
    nt, nq = mesh.n_triangles, wq.size
    pts = _rule_points(mesh, shapes)
    values, gradients = (np.asarray(e, dtype=float) for e in exact(pts))
    want = lead + (nt * nq,)
    if values.shape != want or gradients.shape != want + (2,):
        raise ValueError(f"need exact values of shape {want} and gradients of shape "
                         f"{want + (2,)}, got {values.shape} and {gradients.shape}")
    tri_vals = coeffs[..., mesh.triangles]  # (..., nt, 3)
    sq = ((tri_vals @ shapes.T - values.reshape(lead + (nt, nq))) ** 2) @ wq
    guh = np.einsum("...tv,tvd->...td", tri_vals, grads)  # constant per triangle
    diff = gradients.reshape(lead + (nt, nq, 2)) - guh[..., None, :]
    sq_grad = np.einsum("...tqd,...tqd,q->...t", diff, diff, wq)
    return tuple(np.sqrt(np.sum(2.0 * area * q, axis=-1)) for q in (sq, sq_grad))
