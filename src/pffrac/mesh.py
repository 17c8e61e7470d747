"""Unstructured simplex meshes: Gmsh ASCII reader, tensor-product grid generator, node selection.

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
    "parse_gmsh",
    "generate_grid",
    "select_nodes",
]

# Gmsh element type ids of the subset we understand.
_GMSH_LINE = 1
_GMSH_TRI = 2
_GMSH_TET = 4
_GMSH_POINT = 15


class MeshError(ValueError):
    """Malformed mesh file or invalid mesh data."""


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

    def element_measures(self) -> np.ndarray:
        """Signed areas (2-D) / volumes (3-D) of all elements."""
        return _signed_measures(self.nodes, self.elements, self.dim)

    def validate(self) -> None:
        """Check structural invariants; raise MeshError on violation."""
        if not np.all(np.isfinite(self.nodes)):
            raise MeshError("non-finite node coordinates")
        if self.n_elements and (
            self.elements.min() < 0 or self.elements.max() >= self.n_nodes
        ):
            raise MeshError("element references missing node")
        meas = self.element_measures()
        if np.any(meas <= 0.0):
            bad = int(np.argmin(meas))
            raise MeshError(f"element {bad} has non-positive measure {meas[bad]}")


def _signed_measures(nodes: np.ndarray, elements: np.ndarray, dim: int) -> np.ndarray:
    x = nodes[elements]  # (n_e, nen, dim)
    if dim == 2:
        d1 = x[:, 1] - x[:, 0]
        d2 = x[:, 2] - x[:, 0]
        return 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])
    d1 = x[:, 1] - x[:, 0]
    d2 = x[:, 2] - x[:, 0]
    d3 = x[:, 3] - x[:, 0]
    return np.einsum("ij,ij->i", d1, np.cross(d2, d3)) / 6.0


def _fix_orientation(nodes: np.ndarray, elements: np.ndarray, dim: int) -> np.ndarray:
    """Swap the last two nodes of elements with non-positive signed measure."""
    elements = np.array(elements, dtype=np.int64, copy=True)
    meas = _signed_measures(nodes, elements, dim)
    flip = meas < 0.0
    if np.any(flip):
        elements[flip, -2], elements[flip, -1] = (
            elements[flip, -1].copy(),
            elements[flip, -2].copy(),
        )
        meas = _signed_measures(nodes, elements, dim)
    if np.any(meas <= 0.0):
        raise MeshError("degenerate element (zero measure)")
    return elements


# ---------------------------------------------------------------------------
# Gmsh ASCII v2.2
# ---------------------------------------------------------------------------

def parse_gmsh(text: str) -> Mesh:
    """Parse a Gmsh ASCII v2.2 file.

    Only element types 2 (tri3) and 4 (tet4) are retained as domain
    elements.  Physical groups of points and of codimension-one facets
    (lines in 2-D, triangles in 3-D) become node sets holding every node
    they touch, keyed by their physical name (or ``phys<tag>`` when no
    ``$PhysicalNames`` section names them).  Elements with non-positive
    measure are reoriented by swapping two nodes.
    """
    lines = text.splitlines()
    i = 0
    n = len(lines)

    phys_names: dict = {}  # (dim, tag) -> name
    raw_nodes: list = []
    node_id_map: dict = {}
    raw_elements: list = []  # (etype, phys_tag, node_ids)

    def _entries(header: str, idx: int) -> list:
        """The entry lines of the section whose name is on line ``idx``, as
        (1-based line number, line) pairs."""
        try:
            count = int(lines[idx + 1].split()[0])
        except (IndexError, ValueError) as exc:
            raise MeshError(f"malformed {header} section header") from exc
        if count < 0:
            raise MeshError(f"malformed {header} section header")
        entries = lines[idx + 2 : idx + 2 + count]
        if len(entries) < count:
            raise MeshError(f"truncated {header} section: {len(entries)} of {count} entries")
        return list(enumerate(entries, start=idx + 3))

    def _numbers(header: str, lineno: int, entry: str, fields: list, convert) -> list:
        """``fields`` of the entry line ``entry``, each converted by ``convert``."""
        try:
            return [convert(f) for f in fields]
        except ValueError:
            raise MeshError(f"non-numeric field in {header} section, line {lineno}: {entry.strip()!r}") from None

    while i < n:
        line = lines[i].strip()
        if line == "$MeshFormat":
            parts = lines[i + 1].split() if i + 1 < n else []
            if len(parts) < 3:
                raise MeshError("malformed $MeshFormat section header")
            if not parts[0].startswith("2."):
                raise MeshError(f"unsupported Gmsh format version {parts[0]}")
            if parts[1] != "0":
                raise MeshError("binary Gmsh files are not supported")
            i += 2
        elif line == "$PhysicalNames":
            entries = _entries("$PhysicalNames", i)
            for lineno, entry in entries:
                parts = entry.split(maxsplit=2)
                if len(parts) < 3:
                    raise MeshError("malformed $PhysicalNames entry")
                pdim, ptag = _numbers("$PhysicalNames", lineno, entry, parts[:2], int)
                phys_names[(pdim, ptag)] = parts[2].strip().strip('"')
            i += 2 + len(entries)
        elif line == "$Nodes":
            entries = _entries("$Nodes", i)
            for lineno, entry in entries:
                parts = entry.split()
                if len(parts) < 4:
                    raise MeshError("malformed $Nodes entry")
                node_id_map[_numbers("$Nodes", lineno, entry, parts[:1], int)[0]] = len(raw_nodes)
                raw_nodes.append(_numbers("$Nodes", lineno, entry, parts[1:4], float))
            i += 2 + len(entries)
        elif line == "$Elements":
            entries = _entries("$Elements", i)
            for lineno, entry in entries:
                parts = _numbers("$Elements", lineno, entry, entry.split(), int)
                if len(parts) < 3:
                    raise MeshError("malformed $Elements entry")
                etype, ntags = parts[1], parts[2]
                tags = parts[3 : 3 + ntags]
                conn = parts[3 + ntags :]
                phys = tags[0] if tags else 0
                raw_elements.append((etype, phys, conn))
            i += 2 + len(entries)
        elif line.startswith("$End"):
            i += 1
        elif line.startswith("$"):
            # skip unknown section up to its $End marker
            endtag = "$End" + line[1:]
            j = i + 1
            while j < n and lines[j].strip() != endtag:
                j += 1
            if j >= n:
                raise MeshError(f"malformed section {line}: missing {endtag}")
            i = j + 1
        else:
            i += 1

    if not raw_nodes:
        raise MeshError("no $Nodes section found")

    coords = np.asarray(raw_nodes, dtype=np.float64)
    dim = 3 if any(et == _GMSH_TET for et, _, _ in raw_elements) else 2

    def _remap(conn):
        try:
            return [node_id_map[c] for c in conn]
        except KeyError as exc:
            raise MeshError(f"element references missing node {exc}") from exc

    domain_type = _GMSH_TET if dim == 3 else _GMSH_TRI
    facet_type = _GMSH_TRI if dim == 3 else _GMSH_LINE

    elements = []
    node_sets: dict = {}

    def _set_name(pdim: int, ptag: int) -> str:
        return phys_names.get((pdim, ptag), f"phys{ptag}")

    for etype, phys, conn in raw_elements:
        conn = _remap(conn)
        if etype == domain_type:
            elements.append(conn)
        elif etype == facet_type and phys:
            node_sets.setdefault(_set_name(dim - 1, phys), set()).update(conn)
        elif etype == _GMSH_POINT and phys:
            node_sets.setdefault(_set_name(0, phys), set()).update(conn)
        # other element types are outside the supported subset: skipped

    if not elements:
        raise MeshError("no domain elements (tri3/tet4) found")

    elems = _fix_orientation(coords[:, :dim], np.asarray(elements, np.int64), dim)
    mesh = Mesh(
        dim=dim,
        nodes=coords[:, :dim],
        elements=elems,
        node_sets={k: np.array(sorted(v), dtype=np.int64) for k, v in node_sets.items()},
    )
    mesh.validate()
    return mesh


# ---------------------------------------------------------------------------
# Tensor-product grids
# ---------------------------------------------------------------------------

# Simplices of one grid cell, as indices into the cell's corners numbered
# dx + 2*dy + 4*dz by their (dx, dy, dz) offsets: two triangles along the
# 0-3 diagonal of a square, six tets along the 0-7 diagonal of a cube (Kuhn
# decomposition).
_CELL_SIMPLICES = {
    2: np.array([(0, 1, 3), (0, 3, 2)]),
    3: np.array([(0, 1, 3, 7), (0, 3, 2, 7), (0, 2, 6, 7), (0, 6, 4, 7), (0, 4, 5, 7), (0, 5, 1, 7)]),
}


def generate_grid(axes, keep=None) -> Mesh:
    """Tensor-product simplex mesh from per-axis coordinate arrays.

    Nodes are numbered with the last axis fastest; cells are visited in the
    same order and each contributes its simplices in table order.

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
    Mesh with auto node sets "xmin", "xmax", "ymin", "ymax" ("zmin", "zmax")
    on the bounding planes of the coordinate axes.
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

    used = np.unique(elements)
    remap = -np.ones(coords.shape[0], dtype=np.int64)
    remap[used] = np.arange(used.size)
    coords = coords[used]
    elements = _fix_orientation(coords, remap[elements], dim)

    node_sets = {}
    labels = [("xmin", "xmax"), ("ymin", "ymax"), ("zmin", "zmax")][:dim]
    for ax, (lo_name, hi_name) in enumerate(labels):
        span = axes[ax][-1] - axes[ax][0]
        tol = 1e-12 * max(1.0, span)
        node_sets[lo_name] = np.flatnonzero(
            np.abs(coords[:, ax] - axes[ax][0]) <= tol
        ).astype(np.int64)
        node_sets[hi_name] = np.flatnonzero(
            np.abs(coords[:, ax] - axes[ax][-1]) <= tol
        ).astype(np.int64)

    mesh = Mesh(dim=dim, nodes=coords, elements=elements, node_sets=node_sets)
    mesh.validate()
    return mesh


def select_nodes(mesh: Mesh, predicate, tol: float = 1e-8) -> np.ndarray:
    """Node ids where ``|predicate(coords)| <= tol``.

    Parameters
    ----------
    predicate : callable
        Vectorized map from (n_nodes, dim) coordinates to (n_nodes,)
        residual values; a node is selected when the absolute residual is
        within ``tol`` (e.g. ``lambda x: x[:, 1] - 1.0`` for the y=1 line).
    tol : float
        Absolute coordinate tolerance (mm), > 0.
    """
    if tol <= 0.0:
        raise ValueError("tol must be > 0")
    res = np.asarray(predicate(mesh.nodes), dtype=np.float64)
    return np.flatnonzero(np.abs(res) <= tol).astype(np.int64)
