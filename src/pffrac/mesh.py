"""Simplex meshes: the mesh type, the tensor-product grid generator, node selection.

Meshes are immutable after construction (plain numpy arrays, never mutated by
the solvers) and hold 3-node triangles (2-D) or 4-node tetrahedra (3-D) with
named node sets, the only boundary tags that loads, constraints and outputs
read.  Slits in notched specimens are represented by duplicated nodes along
the notch line; coincident nodes are never merged.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Mesh",
    "MeshError",
    "generate_grid",
    "select_nodes",
]


# Absolute coordinate tolerance (mm) of ``select_nodes``.
_SELECT_TOL = 1e-8


class MeshError(ValueError):
    """Invalid mesh data."""


@dataclass
class Mesh:
    """Simplex mesh with named node sets.

    Attributes
    ----------
    dim : int
        Spatial dimension, 2 or 3.
    nodes : np.ndarray, shape (n_nodes, dim)
        Node coordinates (mm), ids implicit by row (0-based, contiguous).
    elements : np.ndarray, shape (n_elements, dim + 1)
        Node indices per simplex; orientation gives positive signed measure.
    node_sets : dict[str, np.ndarray]
        Named sets of node ids (sorted).
    """

    dim: int
    nodes: np.ndarray
    elements: np.ndarray
    node_sets: dict = field(default_factory=dict)

    def __post_init__(self):
        self.nodes = np.asarray(self.nodes, dtype=np.float64)
        self.elements = np.asarray(self.elements, dtype=np.int64)
        if self.dim not in (2, 3):
            raise MeshError(f"dim must be 2 or 3, got {self.dim}")
        if self.nodes.ndim != 2 or self.nodes.shape[1] != self.dim:
            raise MeshError("nodes must be (n_nodes, dim)")
        if self.elements.ndim != 2 or self.elements.shape[1] != self.dim + 1:
            raise MeshError("elements must be (n_elements, dim + 1)")

    @property
    def n_nodes(self) -> int:
        return self.nodes.shape[0]

    @property
    def n_elements(self) -> int:
        return self.elements.shape[0]

    def validate(self) -> None:
        """Check that the coordinates are finite and that every element
        index names a node; raise MeshError on violation.  The orientation
        is checked by ``build_kernels``, which computes each element's
        Jacobian."""
        if not np.all(np.isfinite(self.nodes)):
            raise MeshError("non-finite node coordinates")
        if self.n_elements and (
            self.elements.min() < 0 or self.elements.max() >= self.n_nodes
        ):
            raise MeshError("element references missing node")


# ---------------------------------------------------------------------------
# Tensor-product grids
# ---------------------------------------------------------------------------

# Simplices of one grid cell, as indices into the cell's corners numbered
# dx + 2*dy + 4*dz by their (dx, dy, dz) offsets: two triangles along the
# 0-3 diagonal of a square, six tets along the 0-7 diagonal of a cube (Kuhn
# decomposition).  Each row lists its simplex's vertices in positive order:
# on a cell with increasing axes its signed measure is 1/2 (triangles) or
# 1/6 (tets) of the cell's.
_CELL_SIMPLICES = {
    2: np.array([(0, 1, 3), (0, 3, 2)]),
    3: np.array([(0, 1, 3, 7), (0, 3, 2, 7), (0, 2, 6, 7), (0, 6, 4, 7), (0, 4, 5, 7), (0, 5, 1, 7)]),
}


def generate_grid(axes, keep=None) -> Mesh:
    """Tensor-product simplex mesh from per-axis coordinate arrays.

    Nodes are numbered with the last axis fastest; cells are visited in the
    same order and each contributes its simplices in table order.  The
    elements are positively oriented by construction: every simplex of the
    cell table has positive signed measure on a cell whose axes increase,
    and the axes must increase strictly, so no element is measured or
    flipped to orient it (``build_kernels`` refuses a non-positive one).

    Parameters
    ----------
    axes : sequence of 1-D arrays
        Strictly increasing grid coordinates per axis (2 or 3 axes).
    keep : callable, optional
        Vectorized cell filter, the convention of ``select_nodes``: maps the
        (n_cells, dim) array of cell-center coordinates to an (n_cells,)
        boolean mask; cells mapping to False are omitted (unused nodes
        dropped).

    Returns
    -------
    Mesh with no node sets: the caller selects its own (``select_nodes``).
    """
    axes = [np.asarray(a, dtype=np.float64) for a in axes]
    dim = len(axes)
    if dim not in (2, 3):
        raise MeshError("generate_grid needs 2 or 3 axes")
    for a in axes:
        if a.size < 2 or np.any(np.diff(a) <= 0):
            raise MeshError("axis coordinates must be strictly increasing")

    shape = tuple(a.size for a in axes)
    coords = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, dim)
    ids = np.arange(coords.shape[0]).reshape(shape)
    # (n_cells, 2**dim) corner ids: corner c is offset by bit ax of c on axis ax
    offsets = [[c >> ax & 1 for ax in range(dim)] for c in range(2**dim)]
    corners = np.stack(
        [ids[tuple(slice(o, o + n - 1) for o, n in zip(off, shape))].ravel() for off in offsets], axis=-1
    )
    if keep is not None:
        centers = [0.5 * (a[:-1] + a[1:]) for a in axes]
        cells = np.stack(np.meshgrid(*centers, indexing="ij"), axis=-1).reshape(-1, dim)
        corners = corners[np.asarray(keep(cells), dtype=bool)]
    elements = corners[:, _CELL_SIMPLICES[dim]].reshape(-1, dim + 1)

    is_used = np.zeros(coords.shape[0], dtype=bool)
    is_used[elements] = True
    used = np.flatnonzero(is_used)
    remap = -np.ones(coords.shape[0], dtype=np.int64)
    remap[used] = np.arange(used.size)
    mesh = Mesh(dim=dim, nodes=coords[used], elements=remap[elements])
    mesh.validate()
    return mesh


def select_nodes(mesh: Mesh, predicate) -> np.ndarray:
    """Node ids where ``|predicate(coords)| <= _SELECT_TOL``: ``predicate``
    maps the (n_nodes, dim) coordinates to (n_nodes,) residuals (e.g.
    ``lambda x: x[:, 1] - 1.0`` for the y=1 line)."""
    res = np.asarray(predicate(mesh.nodes), dtype=np.float64)
    return np.flatnonzero(np.abs(res) <= _SELECT_TOL).astype(np.int64)
