"""VTK legacy ASCII snapshots of the simulation fields.

Writes UNSTRUCTURED_GRID files with point data ``displacement`` (total
displacement, 3 components) and ``damage``; values are printed with 17
significant digits so a read-back recovers the arrays bitwise.  These
snapshots are the source of truth for the energy audit.
"""

from __future__ import annotations

import numpy as np

from .mesh import Mesh

__all__ = ["grid_text", "write_field_snapshot", "read_field_snapshot"]

_CELL_TYPE = {2: 5, 3: 10}  # VTK_TRIANGLE, VTK_TETRA
_XYZ = "%.17g %.17g %.17g\n"


def _block(row: str, values: np.ndarray) -> str:
    """One ``row`` (a %-format line) per row of the 2-D array ``values``."""
    return (row * values.shape[0]) % tuple(values.ravel().tolist())


def grid_text(mesh: Mesh) -> str:
    """The blocks that every snapshot of ``mesh`` shares, up to its point
    data: the file header, POINTS, CELLS and CELL_TYPES.  A run formats them
    once and hands the text to each ``write_field_snapshot``."""
    xyz = np.zeros((mesh.n_nodes, 3))
    xyz[:, : mesh.dim] = mesh.nodes  # coordinates padded to three components
    nen = mesh.dim + 1
    n_e = mesh.n_elements
    return "".join(
        [
            "# vtk DataFile Version 3.0\npffrac field snapshot\nASCII\nDATASET UNSTRUCTURED_GRID\n",
            f"POINTS {mesh.n_nodes} double\n",
            _block(_XYZ, xyz),
            f"CELLS {n_e} {n_e * (nen + 1)}\n",
            _block(f"{nen}" + " %d" * nen + "\n", mesh.elements),
            f"CELL_TYPES {n_e}\n",
            f"{_CELL_TYPE[mesh.dim]}\n" * n_e,
        ]
    )


def write_field_snapshot(disp: np.ndarray, damage: np.ndarray, mesh: Mesh, path, grid: str) -> None:
    """Write total displacement (dim*n_nodes vector) and nodal damage after
    ``grid``, the mesh's ``grid_text``."""
    disp = np.asarray(disp, dtype=np.float64).reshape(mesh.n_nodes, mesh.dim)
    damage = np.asarray(damage, dtype=np.float64)
    if damage.shape != (mesh.n_nodes,):
        raise ValueError("damage must have one value per node")

    xyz = np.zeros((mesh.n_nodes, 3))
    xyz[:, : mesh.dim] = disp  # displacement padded to three components
    fields = "".join(
        [
            f"POINT_DATA {mesh.n_nodes}\nVECTORS displacement double\n",
            _block(_XYZ, xyz),
            "SCALARS damage double 1\nLOOKUP_TABLE default\n",
            _block("%.17g\n", damage[:, None]),
        ]
    )
    with open(path, "w") as fh:
        fh.write(grid)
        fh.write(fields)


def _seek(lines: list, i: int, prefix: str) -> int:
    """Index of the first line from ``i`` on that starts with ``prefix`` (in
    a snapshot written above, line ``i`` itself)."""
    while i < len(lines) and not lines[i].startswith(prefix):
        i += 1
    if i >= len(lines):
        raise ValueError(f"snapshot missing {prefix!r} section")
    return i


def _count(lines: list, i: int) -> int:
    """The count that the section header at line ``i`` gives after its
    keyword."""
    parts = lines[i].split()
    if len(parts) < 2 or not parts[1].isdigit():
        raise ValueError(f"snapshot header {lines[i]!r} at line {i + 1} gives no count")
    return int(parts[1])


def _values(lines: list, i: int, n: int, width: int) -> np.ndarray:
    """The n rows of ``width`` numbers starting at line ``i``, as (n, width)."""
    values = np.array(" ".join(lines[i : i + n]).split(), dtype=np.float64)
    if values.size != n * width:
        raise ValueError(f"snapshot block at line {i + 1} holds {values.size} values, not {n * width}")
    return values.reshape(n, width)


def read_field_snapshot(path, dim: int):
    """Read back (displacement, damage) from a snapshot written above.

    Returns the displacement as a flat dim*n_nodes vector.  The POINTS,
    CELLS and CELL_TYPES headers give the length of their blocks, which are
    skipped unread.  A snapshot that does not parse raises ``ValueError``
    naming ``path``.
    """
    with open(path) as fh:
        lines = fh.read().split("\n")

    try:
        i = _seek(lines, 0, "POINTS")
        n_points = _count(lines, i)
        i = _seek(lines, i + 1 + n_points, "CELLS")
        i = _seek(lines, i + 1 + _count(lines, i), "CELL_TYPES")
        i = _seek(lines, i + 1 + _count(lines, i), "VECTORS displacement")
        disp = _values(lines, i + 1, n_points, 3)
        i = _seek(lines, i + 1 + n_points, "SCALARS damage")
        i = _seek(lines, i, "LOOKUP_TABLE")
        damage = _values(lines, i + 1, n_points, 1).ravel()
    except ValueError as exc:
        raise ValueError(f"{exc} in {path}") from None
    return disp[:, :dim].reshape(-1), damage
