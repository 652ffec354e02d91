"""Uniform triangulations of axis-aligned rectangles.

Every cell of the nx-by-ny grid is split along its bottom-left to top-right
diagonal into two counterclockwise triangles, so each interior node touches
six triangles.  Node numbering is row-major (x fastest).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["Mesh", "build_uniform_mesh", "write_vtk"]

Rect = tuple[float, float, float, float]


@dataclass(frozen=True)
class Mesh:
    """Conforming P1 triangulation of a rectangle.

    Attributes
    ----------
    rect : tuple
        (x0, x1, y0, y1) with x0 < x1, y0 < y1.
    nx, ny : int
        Number of cells per direction.
    nodes : ndarray, shape (n_nodes, 2)
        Vertex coordinates, row-major over the structured grid.
    triangles : ndarray, shape (n_triangles, 3)
        Vertex indices, counterclockwise.
    boundary : ndarray of bool, shape (n_nodes,)
        True for nodes on the rectangle boundary.
    """

    rect: Rect
    nx: int
    ny: int
    nodes: np.ndarray
    triangles: np.ndarray
    boundary: np.ndarray
    interior: np.ndarray = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "interior", np.flatnonzero(~self.boundary))

    @property
    def n_nodes(self) -> int:
        return self.nodes.shape[0]

    @property
    def n_triangles(self) -> int:
        return self.triangles.shape[0]

    @property
    def dx(self) -> float:
        return (self.rect[1] - self.rect[0]) / self.nx

    @property
    def dy(self) -> float:
        return (self.rect[3] - self.rect[2]) / self.ny

    def full_values(self, interior_values, boundary_values) -> np.ndarray:
        """Values on every node from the values at the interior and boundary nodes.

        The two arrays share their leading axes; the last one runs over
        ``interior`` and over the boundary nodes in index order.
        """
        interior_values = np.asarray(interior_values)
        full = np.zeros(interior_values.shape[:-1] + (self.n_nodes,))
        full[..., self.interior] = interior_values
        full[..., self.boundary] = boundary_values
        return full

    def cell_side(self) -> float:
        """Largest cell edge length (the h reported in convergence tables)."""
        return max(self.dx, self.dy)


def build_uniform_mesh(rect: Rect, nx: int, ny: int | None = None) -> Mesh:
    """Build the uniform criss-cross-free triangulation of ``rect``.

    Parameters
    ----------
    rect : tuple
        (x0, x1, y0, y1).
    nx : int
        Cells in the x direction, >= 1.
    ny : int, optional
        Cells in the y direction; defaults to nx.
    """
    if ny is None:
        ny = nx
    x0, x1, y0, y1 = map(float, rect)
    if not (x1 > x0 and y1 > y0):
        raise ValueError(f"degenerate rectangle {rect!r}")
    if nx < 1 or ny < 1:
        raise ValueError("nx and ny must be at least 1")

    xs = np.linspace(x0, x1, nx + 1)
    ys = np.linspace(y0, y1, ny + 1)
    X, Y = np.meshgrid(xs, ys, indexing="xy")
    nodes = np.column_stack([X.ravel(), Y.ravel()])

    ix, iy = np.meshgrid(np.arange(nx), np.arange(ny), indexing="xy")
    ix = ix.ravel()
    iy = iy.ravel()
    bl = iy * (nx + 1) + ix
    br = bl + 1
    tl = bl + (nx + 1)
    tr = tl + 1
    # lower-right triangle (bl, br, tr) and upper-left triangle (bl, tr, tl)
    triangles = np.empty((2 * nx * ny, 3), dtype=np.int64)
    triangles[0::2] = np.column_stack([bl, br, tr])
    triangles[1::2] = np.column_stack([bl, tr, tl])

    gx, gy = np.meshgrid(np.arange(nx + 1), np.arange(ny + 1), indexing="xy")
    boundary = (
        (gx.ravel() == 0) | (gx.ravel() == nx) | (gy.ravel() == 0) | (gy.ravel() == ny)
    )

    return Mesh(rect=(x0, x1, y0, y1), nx=nx, ny=ny, nodes=nodes,
                triangles=triangles, boundary=boundary)


def write_vtk(mesh: Mesh, path: str, point_data: dict[str, np.ndarray] | None = None,
              title: str = "mesh") -> None:
    """Write the mesh (and optional nodal scalar fields) as legacy ASCII VTK."""
    lines = [
        "# vtk DataFile Version 2.0",
        title,
        "ASCII",
        "DATASET UNSTRUCTURED_GRID",
        f"POINTS {mesh.n_nodes} double",
    ]
    lines.extend(f"{x:.16g} {y:.16g} 0" for x, y in mesh.nodes.tolist())
    lines.append(f"CELLS {mesh.n_triangles} {4 * mesh.n_triangles}")
    lines.extend(f"3 {i} {j} {k}" for i, j, k in mesh.triangles.tolist())
    lines.append(f"CELL_TYPES {mesh.n_triangles}")
    lines.extend(["5"] * mesh.n_triangles)
    if point_data:
        lines.append(f"POINT_DATA {mesh.n_nodes}")
        for name, values in point_data.items():
            values = np.asarray(values)
            if values.shape != (mesh.n_nodes,):
                raise ValueError(f"field {name!r} has shape {values.shape}, "
                                 f"expected ({mesh.n_nodes},)")
            lines.append(f"SCALARS {name} double 1")
            lines.append("LOOKUP_TABLE default")
            lines.extend(f"{v:.16g}" for v in values.tolist())
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
