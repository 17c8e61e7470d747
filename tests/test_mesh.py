import numpy as np
import pytest

from conftest import box_mesh
from oracles import element_measures
from pffrac import presets
from pffrac.mesh import _CELL_SIMPLICES, Mesh, MeshError, generate_grid, select_nodes


def tet_volume(nodes, conn):
    a, b, c, d = (nodes[i] for i in conn)
    return np.dot(b - a, np.cross(c - a, d - a)) / 6.0


class TestGenerators:
    def test_single_cell_2d(self):
        mesh = box_mesh([1.0, 1.0], [1, 1])
        assert (mesh.n_nodes, mesh.n_elements) == (4, 2)
        assert element_measures(mesh).sum() == pytest.approx(1.0, rel=1e-15)

    def test_partition_of_unity_2d(self):
        mesh = box_mesh([1.0, 1.0], [2, 2])
        assert (mesh.n_nodes, mesh.n_elements) == (9, 8)
        assert element_measures(mesh).sum() == pytest.approx(1.0, rel=1e-12)

    def test_single_cell_3d_volume_oracle(self):
        mesh = box_mesh([1.0, 1.0, 1.0], [1, 1, 1])
        assert (mesh.n_nodes, mesh.n_elements) == (8, 6)
        total = sum(tet_volume(mesh.nodes, conn) for conn in mesh.elements)
        assert total == pytest.approx(1.0, rel=1e-12)
        assert all(tet_volume(mesh.nodes, conn) > 0 for conn in mesh.elements)

    def test_domain_measure(self):
        mesh = box_mesh([2.0, 1.0, 0.5], [3, 2, 2])
        assert element_measures(mesh).sum() == pytest.approx(1.0, rel=1e-12)

    def test_bad_extent(self):
        with pytest.raises(MeshError):
            generate_grid([[0.0, 0.0], [0.0, 1.0]])  # zero extent
        with pytest.raises(MeshError):
            generate_grid([[0.0], [0.0, 1.0]])  # no cell
        with pytest.raises(MeshError):
            generate_grid([[0.0, 1.0]])  # one axis

    def test_filtered_grid_drops_cells(self):
        axes = [np.linspace(0, 1, 3), np.linspace(0, 1, 3)]
        mesh = generate_grid(axes, keep=lambda c: (c[:, 0] < 0.5) | (c[:, 1] < 0.5))
        assert mesh.n_elements == 6  # one quadrant removed
        assert element_measures(mesh).sum() == pytest.approx(0.75, rel=1e-12)
        assert mesh.n_nodes == 8  # the far corner node is dropped


class TestSelectNodes:
    def test_top_corners(self):
        mesh = box_mesh([1.0, 1.0], [1, 1])
        ids = select_nodes(mesh, lambda x: x[:, 1] - 1.0)
        assert len(ids) == 2
        assert np.allclose(mesh.nodes[ids, 1], 1.0)

    def test_origin_only(self):
        mesh = box_mesh([1.0, 1.0], [1, 1])
        ids = select_nodes(mesh, lambda x: x[:, 0] + x[:, 1])
        assert len(ids) == 1
        assert np.allclose(mesh.nodes[ids[0]], [0.0, 0.0])

    def test_mid_row(self):
        mesh = box_mesh([1.0, 1.0], [2, 2])
        ids = select_nodes(mesh, lambda x: x[:, 1] - 0.5)
        assert len(ids) == 3

    def test_empty_is_valid(self):
        mesh = box_mesh([1.0, 1.0], [1, 1])
        assert select_nodes(mesh, lambda x: x[:, 0] - 7.0).size == 0


class TestValidate:
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_coordinates(self, value):
        mesh = box_mesh([1.0, 1.0], [2, 2])
        nodes = mesh.nodes.copy()
        nodes[4, 1] = value
        with pytest.raises(MeshError, match="non-finite node coordinates"):
            Mesh(dim=2, nodes=nodes, elements=mesh.elements).validate()

    @pytest.mark.parametrize("index", [-1, 9])
    def test_element_index_out_of_range(self, index):
        mesh = box_mesh([1.0, 1.0], [2, 2])
        assert mesh.n_nodes == 9
        elements = mesh.elements.copy()
        elements[3, 1] = index
        with pytest.raises(MeshError, match="element references missing node"):
            Mesh(dim=2, nodes=mesh.nodes, elements=elements).validate()


@pytest.mark.parametrize("dim", [2, 3])
def test_cell_simplices_are_positive_on_the_unit_cell(dim):
    corners = np.array([[c >> ax & 1 for ax in range(dim)] for c in range(2**dim)], dtype=np.float64)
    meas = element_measures(Mesh(dim=dim, nodes=corners, elements=_CELL_SIMPLICES[dim]))
    assert meas.tolist() == ([0.5] * 2 if dim == 2 else [1.0 / 6.0] * 6)


def test_duplicated_nodes_not_merged():
    # the two faces of a slit are coincident nodes: a mesh whose second
    # triangle takes a copy of node 0 keeps both copies and validates
    mesh = box_mesh([1.0, 1.0], [1, 1])
    elements = mesh.elements.copy()
    elements[1][elements[1] == 0] = 4
    dup = Mesh(dim=2, nodes=np.vstack([mesh.nodes, mesh.nodes[0]]), elements=elements)
    dup.validate()
    assert dup.n_nodes == 5 and np.array_equal(dup.nodes[4], dup.nodes[0])
    assert np.array_equal(dup.elements[0], mesh.elements[0]) and 4 in dup.elements[1]


# Kuhn decomposition of the unit cube into 6 tets along the v0-v7 diagonal,
# vertex offsets ordered (dx, dy, dz) -> index dx + 2*dy + 4*dz.
CUBE_TETS = [
    (0, 1, 3, 7),
    (0, 3, 2, 7),
    (0, 2, 6, 7),
    (0, 6, 4, 7),
    (0, 4, 5, 7),
    (0, 5, 1, 7),
]


def orient(coords, elements, dim) -> np.ndarray:
    """``elements`` with the last two nodes swapped where the signed
    measure is negative."""
    elements = elements.copy()
    flip = element_measures(Mesh(dim=dim, nodes=coords, elements=elements)) < 0.0
    elements[flip, -2:] = elements[flip, -2:][:, ::-1]
    return elements


def loop_grid(axes, keep=None) -> Mesh:
    """Reference ``generate_grid``: one Python loop per dimension over the
    cells, ``keep(center) -> bool`` called on each cell center, and each
    element measured and oriented, so comparing bitwise with
    ``generate_grid`` shows that no grid element needs a flip."""
    axes = [np.asarray(a, dtype=np.float64) for a in axes]
    dim = len(axes)
    if dim not in (2, 3):
        raise MeshError("generate_grid needs 2 or 3 axes")
    for a in axes:
        if a.size < 2 or np.any(np.diff(a) <= 0):
            raise MeshError("axis coordinates must be strictly increasing")

    if dim == 2:
        xs, ys = axes
        nx, ny = xs.size, ys.size
        X, Y = np.meshgrid(xs, ys, indexing="ij")
        coords = np.column_stack([X.ravel(), Y.ravel()])

        def nid(i, j):
            return i * ny + j

        elements = []
        for i in range(nx - 1):
            for j in range(ny - 1):
                if keep is not None:
                    cx = 0.5 * (xs[i] + xs[i + 1])
                    cy = 0.5 * (ys[j] + ys[j + 1])
                    if not keep(np.array([cx, cy])):
                        continue
                n00, n10 = nid(i, j), nid(i + 1, j)
                n01, n11 = nid(i, j + 1), nid(i + 1, j + 1)
                elements.append([n00, n10, n11])
                elements.append([n00, n11, n01])
    else:
        xs, ys, zs = axes
        nx, ny, nz = xs.size, ys.size, zs.size
        X, Y, Z = np.meshgrid(xs, ys, zs, indexing="ij")
        coords = np.column_stack([X.ravel(), Y.ravel(), Z.ravel()])

        def nid(i, j, k):
            return (i * ny + j) * nz + k

        elements = []
        for i in range(nx - 1):
            for j in range(ny - 1):
                for k in range(nz - 1):
                    if keep is not None:
                        c = np.array(
                            [
                                0.5 * (xs[i] + xs[i + 1]),
                                0.5 * (ys[j] + ys[j + 1]),
                                0.5 * (zs[k] + zs[k + 1]),
                            ]
                        )
                        if not keep(c):
                            continue
                    corner = [
                        nid(i + dx, j + dy, k + dz)
                        for dz in (0, 1)
                        for dy in (0, 1)
                        for dx in (0, 1)
                    ]
                    # corner[] is ordered dx + 2*dy + 4*dz
                    for tet in CUBE_TETS:
                        elements.append([corner[v] for v in tet])

    elements = np.asarray(elements, dtype=np.int64)
    if keep is not None:
        used = np.unique(elements)
        remap = -np.ones(coords.shape[0], dtype=np.int64)
        remap[used] = np.arange(used.size)
        coords = coords[used]
        elements = remap[elements]

    mesh = Mesh(dim=dim, nodes=coords, elements=orient(coords, elements, dim))
    mesh.validate()
    return mesh


def loop_grid_vectorized_keep(axes, keep=None) -> Mesh:
    """``loop_grid`` driven by a vectorized ``keep``, one cell at a time."""
    if keep is None:
        return loop_grid(axes)
    return loop_grid(axes, keep=lambda c: bool(keep(c[None, :])[0]))


def assert_same_mesh(got: Mesh, want: Mesh):
    """Bitwise equal nodes, elements in the same order."""
    assert got.dim == want.dim
    assert got.nodes.shape == want.nodes.shape and got.nodes.tobytes() == want.nodes.tobytes()
    assert got.elements.shape == want.elements.shape
    assert got.elements.tobytes() == want.elements.tobytes()


class TestGridOracle:
    def test_random_axes(self, rng):
        for trial in range(30):
            dim = 2 + trial % 2
            axes = [np.cumsum(rng.uniform(0.05, 1.0, rng.integers(2, 7))) - 0.5 for _ in range(dim)]
            assert_same_mesh(generate_grid(axes), loop_grid(axes))
            # drop the cells on one side of a random plane through the box
            # center, so cells, and with them some nodes, go missing
            normal = rng.normal(size=dim)
            mid = np.array([0.5 * (a[0] + a[-1]) for a in axes])

            def keep(c):
                return (c - mid) @ normal <= 0.25 * np.abs(normal).sum()

            assert_same_mesh(generate_grid(axes, keep=keep), loop_grid_vectorized_keep(axes, keep=keep))

    @pytest.mark.parametrize(
        "name,scale",
        [("sent", 0.1), ("sent", 0.2), ("sens", 0.05), ("lshape", 0.2), ("bend3d", 0.2), ("bend3d", 0.3)],
    )
    def test_preset_meshes(self, monkeypatch, name, scale):
        got = presets.load_preset(name, scale).mesh
        monkeypatch.setattr(presets, "generate_grid", loop_grid_vectorized_keep)
        assert_same_mesh(got, presets.load_preset(name, scale).mesh)
