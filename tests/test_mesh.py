import numpy as np
import pytest

from pffrac.mesh import (
    Mesh,
    MeshError,
    generate_grid,
    generate_structured,
    parse_gmsh,
    select_nodes,
    write_gmsh,
)

TWO_TRI_SQUARE = """$MeshFormat
2.2 0 8
$EndMeshFormat
$Nodes
4
1 0 0 0
2 1 0 0
3 1 1 0
4 0 1 0
$EndNodes
$Elements
2
1 2 2 0 0 1 2 3
2 2 2 0 0 1 3 4
$EndElements
"""


def tet_volume(nodes, conn):
    a, b, c, d = (nodes[i] for i in conn)
    return np.dot(b - a, np.cross(c - a, d - a)) / 6.0


class TestParseGmsh:
    def test_two_triangle_square(self):
        mesh = parse_gmsh(TWO_TRI_SQUARE)
        assert mesh.dim == 2
        assert mesh.n_nodes == 4
        assert mesh.n_elements == 2
        assert mesh.measure() == pytest.approx(1.0, rel=1e-15)

    def test_inverted_triangle_reoriented(self):
        text = TWO_TRI_SQUARE.replace("1 2 2 0 0 1 2 3", "1 2 2 0 0 1 3 2")
        mesh = parse_gmsh(text)
        assert np.all(mesh.element_measures() > 0)
        assert mesh.measure() == pytest.approx(1.0, rel=1e-15)

    def test_physical_tags_to_node_sets(self):
        # 3x3 grid written back with top/bottom sets, reparsed, and checked
        # against the coordinate predicate
        base = generate_structured(2, [1.0, 1.0], [2, 2])
        base.node_sets = {
            "bottom": select_nodes(base, lambda x: x[:, 1], 1e-9),
            "top": select_nodes(base, lambda x: x[:, 1] - 1.0, 1e-9),
        }
        mesh = parse_gmsh(write_gmsh(base))
        for tag, y0 in (("top", 1.0), ("bottom", 0.0)):
            expect = np.flatnonzero(np.abs(mesh.nodes[:, 1] - y0) <= 1e-9)
            assert np.array_equal(mesh.node_sets[tag], expect)

    def test_side_sets_are_boundary_facets(self):
        base = generate_structured(2, [1.0, 1.0], [2, 2])
        top = select_nodes(base, lambda x: x[:, 1] - 1.0, 1e-9)
        base.side_sets = {"top": [(int(top[i]), int(top[i + 1])) for i in range(len(top) - 1)]}
        mesh = parse_gmsh(write_gmsh(base))
        assert len(mesh.side_sets["top"]) == 2
        mesh.validate()

    def test_roundtrip_bitwise(self, rng):
        mesh = generate_structured(2, [1.25, 0.75], [3, 2])
        mesh.nodes += 1e-9 * rng.normal(size=mesh.nodes.shape)  # irrational-ish coords
        mesh.node_sets = {"left": select_nodes(mesh, lambda x: x[:, 0], 1e-6)}
        back = parse_gmsh(write_gmsh(mesh))
        assert np.array_equal(back.nodes, mesh.nodes)
        assert np.array_equal(back.elements, mesh.elements)
        assert np.array_equal(back.node_sets["left"], mesh.node_sets["left"])

    def test_binary_rejected(self):
        with pytest.raises(MeshError, match="binary"):
            parse_gmsh(TWO_TRI_SQUARE.replace("2.2 0 8", "2.2 1 8"))

    def test_malformed_header(self):
        with pytest.raises(MeshError):
            parse_gmsh("$Nodes\nnot-a-count\n$EndNodes\n")

    def test_missing_node_reference(self):
        text = TWO_TRI_SQUARE.replace("2 2 2 0 0 1 3 4", "2 2 2 0 0 1 3 9")
        with pytest.raises(MeshError, match="missing node"):
            parse_gmsh(text)


class TestGenerators:
    def test_single_cell_2d(self):
        mesh = generate_structured(2, [1.0, 1.0], [1, 1])
        assert (mesh.n_nodes, mesh.n_elements) == (4, 2)
        assert mesh.measure() == pytest.approx(1.0, rel=1e-15)

    def test_partition_of_unity_2d(self):
        mesh = generate_structured(2, [1.0, 1.0], [2, 2])
        assert (mesh.n_nodes, mesh.n_elements) == (9, 8)
        assert mesh.measure() == pytest.approx(1.0, rel=1e-12)

    def test_single_cell_3d_volume_oracle(self):
        mesh = generate_structured(3, [1.0, 1.0, 1.0], [1, 1, 1])
        assert (mesh.n_nodes, mesh.n_elements) == (8, 6)
        total = sum(tet_volume(mesh.nodes, conn) for conn in mesh.elements)
        assert total == pytest.approx(1.0, rel=1e-12)
        assert all(tet_volume(mesh.nodes, conn) > 0 for conn in mesh.elements)

    def test_domain_measure(self):
        mesh = generate_structured(3, [2.0, 1.0, 0.5], [3, 2, 2])
        assert mesh.measure() == pytest.approx(1.0, rel=1e-12)

    def test_auto_node_sets(self):
        mesh = generate_structured(2, [1.0, 1.0], [2, 2])
        assert len(mesh.node_sets["ymax"]) == 3
        assert np.allclose(mesh.nodes[mesh.node_sets["ymax"], 1], 1.0)

    def test_bad_extent(self):
        with pytest.raises(MeshError):
            generate_structured(2, [0.0, 1.0], [1, 1])
        with pytest.raises(MeshError):
            generate_structured(2, [1.0, 1.0], [0, 1])

    def test_filtered_grid_drops_cells(self):
        axes = [np.linspace(0, 1, 3), np.linspace(0, 1, 3)]
        mesh = generate_grid(axes, keep=lambda c: c[0] < 0.5 or c[1] < 0.5)
        assert mesh.n_elements == 6  # one quadrant removed
        assert mesh.measure() == pytest.approx(0.75, rel=1e-12)


class TestSelectNodes:
    def test_top_corners(self):
        mesh = generate_structured(2, [1.0, 1.0], [1, 1])
        ids = select_nodes(mesh, lambda x: x[:, 1] - 1.0, 1e-9)
        assert len(ids) == 2
        assert np.allclose(mesh.nodes[ids, 1], 1.0)

    def test_origin_only(self):
        mesh = generate_structured(2, [1.0, 1.0], [1, 1])
        ids = select_nodes(mesh, lambda x: x[:, 0] + x[:, 1], 1e-9)
        assert len(ids) == 1
        assert np.allclose(mesh.nodes[ids[0]], [0.0, 0.0])

    def test_mid_row(self):
        mesh = generate_structured(2, [1.0, 1.0], [2, 2])
        ids = select_nodes(mesh, lambda x: x[:, 1] - 0.5, 1e-9)
        assert len(ids) == 3

    def test_empty_is_valid(self):
        mesh = generate_structured(2, [1.0, 1.0], [1, 1])
        assert select_nodes(mesh, lambda x: x[:, 0] - 7.0, 1e-9).size == 0

    def test_tol_must_be_positive(self):
        mesh = generate_structured(2, [1.0, 1.0], [1, 1])
        with pytest.raises(ValueError):
            select_nodes(mesh, lambda x: x[:, 0], 0.0)


def test_validate_rejects_interior_facet():
    mesh = generate_structured(2, [1.0, 1.0], [1, 1])
    # the diagonal is shared by both triangles
    mesh.side_sets = {"bad": [(0, 3)]}
    with pytest.raises(MeshError, match="owned by 2"):
        mesh.validate()


def test_validate_builds_facet_map_only_for_side_sets(monkeypatch):
    calls = []
    real = Mesh.boundary_facets

    def spy(self):
        calls.append(self)
        return real(self)

    monkeypatch.setattr(Mesh, "boundary_facets", spy)
    mesh = generate_structured(2, [1.0, 1.0], [2, 2])
    mesh.validate()
    assert calls == []
    bottom = mesh.node_sets["ymin"]
    mesh.side_sets = {"bottom": [(int(bottom[0]), int(bottom[1]))]}
    mesh.validate()
    assert calls == [mesh]


def test_duplicated_nodes_not_merged():
    mesh = generate_structured(2, [1.0, 1.0], [1, 1])
    nodes = np.vstack([mesh.nodes, mesh.nodes[0]])
    dup = Mesh(dim=2, nodes=nodes, elements=mesh.elements)
    back = parse_gmsh(write_gmsh(dup))
    assert back.n_nodes == 5
