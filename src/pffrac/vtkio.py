"""VTK legacy BINARY snapshots of the simulation fields.

Each snapshot is an UNSTRUCTURED_GRID file with point data ``displacement``
(total displacement, 3 components) and ``damage``.  The four header lines
and every section header are text; line 3 reads ``BINARY``.  The data block
after a section header holds raw big-endian values, float64 for POINTS and
the point data and int32 for CELLS and CELL_TYPES, and is followed by a
newline.  VTK and ParaView read this layout.

These snapshots are the source of truth for the energy audit, which reads
every one back.  Raw doubles make that read a copy of the written array:
the round trip is bitwise by construction (-0.0, subnormals and the
extremes included), and neither side formats or parses a number, which
17-digit text spent most of its time on.

``write_field_snapshot`` is the one definition of the layout.  The audit
(``check-energy``) requires each snapshot to be exactly what it writes of
the run's mesh, reads the fields at the offsets that the layout fixes and
refuses any other file, naming it: bytes appended, points or cells that
are not the mesh's, another node count or the ASCII of earlier versions.
"""

from __future__ import annotations

import numpy as np

from .mesh import Mesh

__all__ = ["grid_text", "write_field_snapshot", "read_field_snapshot"]

_CELL_TYPE = {2: 5, 3: 10}  # VTK_TRIANGLE, VTK_TETRA
_HEADER = b"# vtk DataFile Version 3.0\npffrac field snapshot\nBINARY\nDATASET UNSTRUCTURED_GRID\n"


def _padded(values: np.ndarray, n_nodes: int) -> bytes:
    """Nodal vectors (n_nodes, dim) padded to three components, as a
    big-endian float64 block and its newline."""
    xyz = np.zeros((n_nodes, 3), dtype=">f8")
    xyz[:, : values.shape[1]] = values
    return xyz.tobytes() + b"\n"


def grid_text(mesh: Mesh) -> bytes:
    """The part that every snapshot of ``mesh`` shares, up to its point
    data: the file header and the POINTS, CELLS and CELL_TYPES sections.  A
    run formats it once and hands it to each ``write_field_snapshot``."""
    nen = mesh.dim + 1
    n_e = mesh.n_elements
    cells = np.empty((n_e, nen + 1), dtype=">i4")
    cells[:, 0] = nen
    cells[:, 1:] = mesh.elements
    return b"".join(
        [
            _HEADER,
            f"POINTS {mesh.n_nodes} double\n".encode(),
            _padded(mesh.nodes, mesh.n_nodes),
            f"CELLS {n_e} {cells.size}\n".encode(),
            cells.tobytes() + b"\n",
            f"CELL_TYPES {n_e}\n".encode(),
            np.full(n_e, _CELL_TYPE[mesh.dim], dtype=">i4").tobytes() + b"\n",
        ]
    )


def _field_headers(n_nodes: int) -> tuple:
    """The header lines before the displacement and before the damage
    block of a snapshot of ``n_nodes`` nodes."""
    return (
        f"POINT_DATA {n_nodes}\nVECTORS displacement double\n".encode(),
        b"SCALARS damage double 1\nLOOKUP_TABLE default\n",
    )


def write_field_snapshot(disp: np.ndarray, damage: np.ndarray, mesh: Mesh, path, grid: bytes) -> None:
    """Write total displacement (dim*n_nodes vector) and nodal damage after
    ``grid``, the mesh's ``grid_text``."""
    disp = np.asarray(disp, dtype=np.float64).reshape(mesh.n_nodes, mesh.dim)
    damage = np.asarray(damage, dtype=np.float64)
    if damage.shape != (mesh.n_nodes,):
        raise ValueError("damage must have one value per node")
    head_u, head_a = _field_headers(mesh.n_nodes)
    fields = b"".join([head_u, _padded(disp, mesh.n_nodes), head_a, damage.astype(">f8").tobytes() + b"\n"])
    with open(path, "wb") as fh:
        fh.write(grid)
        fh.write(fields)


def read_field_snapshot(path, mesh: Mesh, grid: bytes):
    """Read back (displacement, damage), as native float64, from the
    snapshot of ``mesh`` at ``path``; ``grid`` is the mesh's ``grid_text``.

    Returns the displacement as a flat dim*n_nodes vector.  The file must
    be the bytes that ``write_field_snapshot`` writes: ``grid``, the field
    headers of ``mesh.n_nodes`` and the two blocks, each with its newline.
    Any other file raises ``ValueError`` naming ``path``.
    """
    with open(path, "rb") as fh:
        data = fh.read()

    n = mesh.n_nodes
    head_u, head_a = _field_headers(n)
    at_u = len(grid) + len(head_u)
    at_a = at_u + 24 * n + 1 + len(head_a)
    size = at_a + 8 * n + 1
    if len(data) != size or not (
        data.startswith(grid)
        and data.startswith(head_u, len(grid))
        and data.startswith(b"\n" + head_a, at_u + 24 * n)
        and data.endswith(b"\n")
    ):
        kind = b"".join(data.split(b"\n", 3)[2:3]).decode("ascii", "replace")
        if kind != "BINARY":
            raise ValueError(f"snapshot is not legacy VTK BINARY: line 3 reads {kind!r} in {path}")
        raise ValueError(f"snapshot ({len(data)} bytes) is not the {size} bytes a run writes of {n} nodes in {path}")
    disp = np.frombuffer(data, ">f8", 3 * n, at_u).reshape(n, 3)[:, : mesh.dim]
    return disp.astype(np.float64).reshape(-1), np.frombuffer(data, ">f8", n, at_a).astype(np.float64)
