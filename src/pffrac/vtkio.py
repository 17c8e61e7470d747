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


def write_field_snapshot(disp: np.ndarray, damage: np.ndarray, mesh: Mesh, path, grid: bytes) -> None:
    """Write total displacement (dim*n_nodes vector) and nodal damage after
    ``grid``, the mesh's ``grid_text``."""
    disp = np.asarray(disp, dtype=np.float64).reshape(mesh.n_nodes, mesh.dim)
    damage = np.asarray(damage, dtype=np.float64)
    if damage.shape != (mesh.n_nodes,):
        raise ValueError("damage must have one value per node")
    fields = b"".join(
        [
            f"POINT_DATA {mesh.n_nodes}\nVECTORS displacement double\n".encode(),
            _padded(disp, mesh.n_nodes),
            b"SCALARS damage double 1\nLOOKUP_TABLE default\n",
            damage.astype(">f8").tobytes() + b"\n",
        ]
    )
    with open(path, "wb") as fh:
        fh.write(grid)
        fh.write(fields)


class _Reader:
    """A walk over the lines and blocks of a snapshot's bytes, in file
    order."""

    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def line(self) -> bytes:
        """The line at the current position, without its newline (all that
        is left if none follows); the position moves past it."""
        end = self.data.find(b"\n", self.pos)
        end = len(self.data) if end < 0 else end
        line = self.data[self.pos : end]
        self.pos = end + 1
        return line

    def header(self, prefix: str, n_counts: int = 0) -> list:
        """The ``n_counts`` counts that the header line at the current
        position gives after its keyword; the line must start with
        ``prefix``, and the position moves past it."""
        start = self.pos
        line = self.line()
        if not line.startswith(prefix.encode()):
            raise ValueError(f"snapshot missing {prefix!r} section")
        words = line.decode("ascii", "replace").split()
        counts = words[1 : 1 + n_counts]
        if len(counts) < n_counts or not all(w.isdigit() for w in counts):
            raise ValueError(f"snapshot header {' '.join(words)!r} at byte {start} gives no count")
        return [int(w) for w in counts]

    def block(self, dtype: str, count: int) -> np.ndarray:
        """The block of ``count`` values of ``dtype`` at the current
        position, a view of the bytes, which must be followed by a newline;
        the position moves past both."""
        start = self.pos
        end = start + count * np.dtype(dtype).itemsize
        if end > len(self.data):
            have = (len(self.data) - start) // np.dtype(dtype).itemsize
            raise ValueError(f"snapshot block at byte {start} holds {have} values, not {count}")
        if self.data[end : end + 1] != b"\n":
            raise ValueError(f"snapshot block at byte {start} is not {count} values and a newline")
        self.pos = end + 1
        return np.frombuffer(self.data, dtype, count, start)


def read_field_snapshot(path, dim: int):
    """Read back (displacement, damage) from a snapshot written above, as
    native float64.

    Returns the displacement as a flat dim*n_nodes vector.  The sections
    are read in the order they are written; the POINTS, CELLS and
    CELL_TYPES blocks are skipped by the sizes their headers give.  A file
    that is not legacy VTK BINARY (the ASCII snapshots of earlier versions),
    a missing header or a short block raises ``ValueError`` naming
    ``path``.
    """
    with open(path, "rb") as fh:
        data = fh.read()

    r = _Reader(data)
    try:
        r.header("# vtk DataFile")
        r.line()  # the title
        kind = r.line().decode("ascii", "replace")
        if kind != "BINARY":
            raise ValueError(f"snapshot is not legacy VTK BINARY: line 3 reads {kind!r}")
        r.header("DATASET UNSTRUCTURED_GRID")
        (n_points,) = r.header("POINTS", 1)
        r.block(">f8", 3 * n_points)
        r.block(">i4", r.header("CELLS", 2)[1])
        r.block(">i4", r.header("CELL_TYPES", 1)[0])
        r.header("POINT_DATA")
        r.header("VECTORS displacement")
        disp = r.block(">f8", 3 * n_points)
        r.header("SCALARS damage")
        r.header("LOOKUP_TABLE")
        damage = r.block(">f8", n_points)
    except ValueError as exc:
        raise ValueError(f"{exc} in {path}") from None
    return disp.reshape(n_points, 3)[:, :dim].astype(np.float64).reshape(-1), damage.astype(np.float64)
