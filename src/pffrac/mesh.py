"""Unstructured simplex meshes: Gmsh ASCII I/O, structured generators, node selection.

Meshes are immutable after construction (plain numpy arrays, never mutated by
the solvers) and hold 3-node triangles (2-D) or 4-node tetrahedra (3-D) with
named node sets and boundary side sets.  Slits in notched specimens are
represented by duplicated nodes along the notch line; coincident nodes are
never merged.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Mesh",
    "MeshError",
    "parse_gmsh",
    "write_gmsh",
    "generate_structured",
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
    """Simplex mesh with tagged boundary entities.

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
    side_sets : dict[str, list[tuple]]
        Named lists of boundary facets (ordered node tuples).
    """

    dim: int
    nodes: np.ndarray
    elements: np.ndarray
    node_sets: dict = field(default_factory=dict)
    side_sets: dict = field(default_factory=dict)

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

    def measure(self) -> float:
        """Total mesh area/volume."""
        return float(np.sum(self.element_measures()))

    def boundary_facets(self) -> dict:
        """Map sorted facet node tuple -> list of owning element ids.

        A facet on the geometric boundary belongs to exactly one element.
        """
        faces: dict = {}
        nen = self.dim + 1
        for e, conn in enumerate(self.elements):
            for drop in range(nen):
                facet = tuple(sorted(int(c) for i, c in enumerate(conn) if i != drop))
                faces.setdefault(facet, []).append(e)
        return faces

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
        if not self.side_sets:
            return  # the facet map only serves the side-set check
        faces = self.boundary_facets()
        for name, facets in self.side_sets.items():
            for facet in facets:
                owners = faces.get(tuple(sorted(int(n) for n in facet)), [])
                if len(owners) != 1:
                    raise MeshError(
                        f"side set '{name}' facet {facet} owned by "
                        f"{len(owners)} elements (expected 1)"
                    )


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
    if np.any(_signed_measures(nodes, elements, dim) <= 0.0):
        raise MeshError("degenerate element (zero measure)")
    return elements


# ---------------------------------------------------------------------------
# Gmsh ASCII v2.2
# ---------------------------------------------------------------------------

def parse_gmsh(text: str) -> Mesh:
    """Parse a Gmsh ASCII v2.2 file.

    Only element types 2 (tri3) and 4 (tet4) are retained as domain
    elements; lines/triangles of codimension one become side sets and
    points become node sets, keyed by their physical name (or ``phys<tag>``
    when no ``$PhysicalNames`` section names them).  Elements with
    non-positive measure are reoriented by swapping two nodes.
    """
    lines = text.splitlines()
    i = 0
    n = len(lines)

    phys_names: dict = {}  # (dim, tag) -> name
    raw_nodes: list = []
    node_id_map: dict = {}
    raw_elements: list = []  # (etype, phys_tag, node_ids)

    def _section_count(header: str, idx: int) -> int:
        try:
            return int(lines[idx].split()[0])
        except (IndexError, ValueError) as exc:
            raise MeshError(f"malformed {header} section header") from exc

    while i < n:
        line = lines[i].strip()
        if line == "$MeshFormat":
            parts = lines[i + 1].split()
            if len(parts) < 3:
                raise MeshError("malformed $MeshFormat section header")
            if not parts[0].startswith("2."):
                raise MeshError(f"unsupported Gmsh format version {parts[0]}")
            if parts[1] != "0":
                raise MeshError("binary Gmsh files are not supported")
            i += 2
        elif line == "$PhysicalNames":
            count = _section_count("$PhysicalNames", i + 1)
            for k in range(count):
                parts = lines[i + 2 + k].split(maxsplit=2)
                pdim, ptag = int(parts[0]), int(parts[1])
                phys_names[(pdim, ptag)] = parts[2].strip().strip('"')
            i += 2 + count
        elif line == "$Nodes":
            count = _section_count("$Nodes", i + 1)
            for k in range(count):
                parts = lines[i + 2 + k].split()
                if len(parts) < 4:
                    raise MeshError("malformed $Nodes entry")
                node_id_map[int(parts[0])] = len(raw_nodes)
                raw_nodes.append([float(parts[1]), float(parts[2]), float(parts[3])])
            i += 2 + count
        elif line == "$Elements":
            count = _section_count("$Elements", i + 1)
            for k in range(count):
                parts = [int(p) for p in lines[i + 2 + k].split()]
                if len(parts) < 3:
                    raise MeshError("malformed $Elements entry")
                etype, ntags = parts[1], parts[2]
                tags = parts[3 : 3 + ntags]
                conn = parts[3 + ntags :]
                phys = tags[0] if tags else 0
                raw_elements.append((etype, phys, conn))
            i += 2 + count
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
    side_sets: dict = {}

    def _set_name(pdim: int, ptag: int) -> str:
        return phys_names.get((pdim, ptag), f"phys{ptag}")

    for etype, phys, conn in raw_elements:
        conn = _remap(conn)
        if etype == domain_type:
            elements.append(conn)
        elif etype == facet_type and phys:
            name = _set_name(dim - 1, phys)
            side_sets.setdefault(name, []).append(tuple(conn))
            node_sets.setdefault(name, set()).update(conn)
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
        side_sets=side_sets,
    )
    mesh.validate()
    return mesh


def write_gmsh(mesh: Mesh) -> str:
    """Serialize a Mesh back to Gmsh ASCII v2.2.

    Node sets are written as physical point elements and side sets as
    physical facet elements, so ``parse_gmsh(write_gmsh(m))`` restores
    coordinates bitwise and connectivity and sets exactly.
    """
    out = ["$MeshFormat", "2.2 0 8", "$EndMeshFormat"]

    names = []  # (dim, tag, name)
    tag_of: dict = {}
    tag = 1
    for name in mesh.node_sets:
        names.append((0, tag, name))
        tag_of[("node", name)] = tag
        tag += 1
    for name in mesh.side_sets:
        names.append((mesh.dim - 1, tag, name))
        tag_of[("side", name)] = tag
        tag += 1
    if names:
        out.append("$PhysicalNames")
        out.append(str(len(names)))
        for pdim, ptag, name in names:
            out.append(f'{pdim} {ptag} "{name}"')
        out.append("$EndPhysicalNames")

    out.append("$Nodes")
    out.append(str(mesh.n_nodes))
    for i, xyz in enumerate(mesh.nodes):
        coords = list(xyz) + [0.0] * (3 - mesh.dim)
        out.append(f"{i + 1} " + " ".join("%.17g" % c for c in coords))
    out.append("$EndNodes")

    eid = 1
    elem_lines = []
    for name, nids in mesh.node_sets.items():
        ptag = tag_of[("node", name)]
        for nid in nids:
            elem_lines.append(f"{eid} {_GMSH_POINT} 2 {ptag} {ptag} {int(nid) + 1}")
            eid += 1
    facet_type = _GMSH_TRI if mesh.dim == 3 else _GMSH_LINE
    for name, facets in mesh.side_sets.items():
        ptag = tag_of[("side", name)]
        for facet in facets:
            conn = " ".join(str(int(c) + 1) for c in facet)
            elem_lines.append(f"{eid} {facet_type} 2 {ptag} {ptag} {conn}")
            eid += 1
    domain_type = _GMSH_TET if mesh.dim == 3 else _GMSH_TRI
    for conn in mesh.elements:
        nodes = " ".join(str(int(c) + 1) for c in conn)
        elem_lines.append(f"{eid} {domain_type} 2 0 0 {nodes}")
        eid += 1

    out.append("$Elements")
    out.append(str(len(elem_lines)))
    out.extend(elem_lines)
    out.append("$EndElements")
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# Structured generators
# ---------------------------------------------------------------------------

# Kuhn decomposition of the unit cube into 6 tets along the v0-v7 diagonal,
# vertex offsets ordered (dx, dy, dz) -> index dx + 2*dy + 4*dz.
_CUBE_TETS = [
    (0, 1, 3, 7),
    (0, 3, 2, 7),
    (0, 2, 6, 7),
    (0, 6, 4, 7),
    (0, 4, 5, 7),
    (0, 5, 1, 7),
]


def generate_grid(axes, keep=None) -> Mesh:
    """Tensor-product simplex mesh from per-axis coordinate arrays.

    Parameters
    ----------
    axes : sequence of 1-D arrays
        Strictly increasing grid coordinates per axis (2 or 3 axes).
    keep : callable, optional
        ``keep(center) -> bool`` cell filter over cell-center coordinates;
        cells mapping to False are omitted (unused nodes dropped).

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
                    for tet in _CUBE_TETS:
                        elements.append([corner[v] for v in tet])

    elements = np.asarray(elements, dtype=np.int64)
    if keep is not None:
        used = np.unique(elements)
        remap = -np.ones(coords.shape[0], dtype=np.int64)
        remap[used] = np.arange(used.size)
        coords = coords[used]
        elements = remap[elements]

    elements = _fix_orientation(coords, elements, dim)

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


def generate_structured(dim: int, extents, divisions) -> Mesh:
    """Uniform structured mesh of a box: 2 triangles per 2-D cell,
    6 tetrahedra per 3-D cell.

    Parameters
    ----------
    dim : int
        2 or 3.
    extents : sequence of float
        Per-axis lengths (mm), all > 0.
    divisions : sequence of int
        Per-axis cell counts, all >= 1.
    """
    extents = [float(e) for e in extents]
    divisions = [int(d) for d in divisions]
    if len(extents) != dim or len(divisions) != dim:
        raise MeshError("extents/divisions length must equal dim")
    if any(e <= 0 for e in extents):
        raise MeshError("extents must be positive")
    if any(d < 1 for d in divisions):
        raise MeshError("divisions must be >= 1")
    axes = [np.linspace(0.0, e, d + 1) for e, d in zip(extents, divisions)]
    return generate_grid(axes)


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
