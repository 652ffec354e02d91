import numpy as np
import pytest

from sgobstacle.fem import _triangle_geometry
from sgobstacle.mesh import build_uniform_mesh, write_vtk


class TestUniformMesh:
    def test_counts(self):
        mesh = build_uniform_mesh((0.0, 1.0, 0.0, 1.0), 4)
        assert mesh.n_nodes == 25
        assert mesh.n_triangles == 32
        assert mesh.boundary.sum() == 16
        assert len(mesh.interior) == 9

    def test_rectangular_counts(self):
        mesh = build_uniform_mesh((0.0, 2.0, 0.0, 1.0), 4, 2)
        assert mesh.n_nodes == 15
        assert mesh.n_triangles == 16
        assert mesh.dx == pytest.approx(0.5)
        assert mesh.dy == pytest.approx(0.5)

    def test_areas_positive_and_sum_to_domain(self):
        mesh = build_uniform_mesh((-1.5, 1.5, -1.5, 1.5), 8)
        areas = _triangle_geometry(mesh)[0]
        assert np.all(areas > 0)
        assert areas.sum() == pytest.approx(9.0, rel=1e-13)

    def test_mesh_size_is_diagonal(self):
        mesh = build_uniform_mesh((0.0, 1.0, 0.0, 1.0), 4)
        assert mesh.cell_side() == pytest.approx(0.25, rel=1e-13)

    def test_refinement_halves_cell_side(self):
        coarse = build_uniform_mesh((0.0, 3.0, 0.0, 3.0), 4)
        fine = build_uniform_mesh((0.0, 3.0, 0.0, 3.0), 8)
        assert fine.cell_side() == pytest.approx(coarse.cell_side() / 2)

    def test_interior_node_touches_six_triangles(self):
        mesh = build_uniform_mesh((0.0, 1.0, 0.0, 1.0), 4)
        counts = np.bincount(mesh.triangles.ravel(), minlength=mesh.n_nodes)
        assert np.all(counts[mesh.interior] == 6)

    def test_boundary_flags_match_coordinates(self):
        mesh = build_uniform_mesh((-1.0, 1.0, -1.0, 1.0), 5)
        x, y = mesh.nodes[:, 0], mesh.nodes[:, 1]
        on_edge = (x == -1.0) | (x == 1.0) | (y == -1.0) | (y == 1.0)
        assert np.array_equal(on_edge, mesh.boundary)

    def test_counterclockwise_orientation(self):
        mesh = build_uniform_mesh((0.0, 1.0, 0.0, 2.0), 3, 6)
        assert np.all(_triangle_geometry(mesh)[0] > 0)

    def test_degenerate_rect_rejected(self):
        with pytest.raises(ValueError):
            build_uniform_mesh((1.0, 1.0, 0.0, 1.0), 4)
        with pytest.raises(ValueError):
            build_uniform_mesh((0.0, 1.0, 0.0, 1.0), 0)


def test_vtk_dump(tmp_path):
    mesh = build_uniform_mesh((0.0, 1.0, 0.0, 1.0), 2)
    path = tmp_path / "mesh.vtk"
    write_vtk(mesh, str(path), point_data={"height": np.arange(mesh.n_nodes, dtype=float)})
    text = path.read_text().splitlines()
    assert text[0] == "# vtk DataFile Version 2.0"
    assert "DATASET UNSTRUCTURED_GRID" in text
    assert f"POINTS {mesh.n_nodes} double" in text
    assert f"CELLS {mesh.n_triangles} {4 * mesh.n_triangles}" in text
    assert "SCALARS height double 1" in text
    # every cell is a linear triangle
    start = text.index(f"CELL_TYPES {mesh.n_triangles}") + 1
    assert all(line == "5" for line in text[start:start + mesh.n_triangles])


def test_vtk_rejects_bad_field_shape(tmp_path):
    mesh = build_uniform_mesh((0.0, 1.0, 0.0, 1.0), 2)
    with pytest.raises(ValueError):
        write_vtk(mesh, str(tmp_path / "bad.vtk"), point_data={"f": np.zeros(3)})
