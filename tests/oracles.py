"""Reference implementations that the tests compare the program against.

They are test code: no run path calls them.  Each is a plain, from-scratch
form of something the program computes in a fused, cached or faster way (the
functional trace, the stored energy, the two-sided bounds and check, the
undegraded tangent, the displacement sparsity pattern, the 3-D principal
strains, the snapshot reader) or a writer for the fixtures the program reads
(Gmsh meshes).
"""

import numpy as np
import scipy.sparse as sp

from pffrac.energetics import check_two_sided, dis, erg, grad_term, penalty_energy
from pffrac.fem import ElementKernels
from pffrac.material import MaterialParams
from pffrac.mesh import _GMSH_LINE, _GMSH_POINT, _GMSH_TET, _GMSH_TRI, Mesh


def total_functional(u, u_d, a, a_n, kernels: ElementKernels, p: MaterialParams) -> float:
    """Penalized incremental functional: stored energy + incremental
    dissipation + irreversibility penalty (the quantity the alternating
    minimization descends on)."""
    return (
        erg(u, u_d, a, kernels, p)
        + grad_term(a, kernels, p)
        + (dis(a, kernels, p) - dis(a_n, kernels, p))
        + penalty_energy(a, a_n, kernels, p)
    )


def stored_energy(u1, u2, a, kernels: ElementKernels, p: MaterialParams) -> float:
    """Stored energy E: degraded bulk energy plus damage-gradient energy."""
    return erg(u1, u2, a, kernels, p) + grad_term(a, kernels, p)


def fresh_check(u_n, u_d_n, a_n, u_next, u_d_next, a_next, kernels: ElementKernels, p: MaterialParams, eta):
    """``check_two_sided`` of the step pair (n, n+1) with the bulk energy of
    each state under its own lifting evaluated here."""
    return check_two_sided(
        u_n, u_d_n, a_n, u_next, u_d_next, a_next, kernels, p, eta,
        erg_curr=erg(u_n, u_d_n, a_n, kernels, p),
        erg_next=erg(u_next, u_d_next, a_next, kernels, p),
    )


def upper_bound(u_n, u_d_n, u_d_next, a_n, kernels: ElementKernels, p: MaterialParams) -> float:
    """UB: lifting increment evaluated on the current state."""
    return erg(u_n, u_d_next, a_n, kernels, p) - erg(u_n, u_d_n, a_n, kernels, p)


def lower_bound(u_next, u_d_n, u_d_next, a_next, kernels: ElementKernels, p: MaterialParams) -> float:
    """LB: lifting increment evaluated on the next state, the proved pairing
    erg(u_next, u_d_next) - erg(u_next, u_d_n) at damage a_next."""
    return erg(u_next, u_d_next, a_next, kernels, p) - erg(u_next, u_d_n, a_next, kernels, p)


def element_dofs_pattern(edofs: np.ndarray, n: int, keep_map: np.ndarray):
    """CSC (indptr, indices) of the entries coupling the dofs of each
    element, renumbered by ``keep_map`` (-1 for dofs left out), and the data
    slot of every element-matrix entry (one past the end when left out): one
    sort over all element-matrix entries."""
    nd = edofs.shape[1]
    rows = np.broadcast_to(edofs[:, :, None], (edofs.shape[0], nd, nd)).ravel()
    cols = np.broadcast_to(edofs[:, None, :], (edofs.shape[0], nd, nd)).ravel()
    rows, cols = keep_map[rows], keep_map[cols]
    keep = (rows >= 0) & (cols >= 0)
    keys, inverse = np.unique(cols[keep] * n + rows[keep], return_inverse=True)
    slot = np.full(rows.size, keys.size, dtype=np.intp)
    slot[keep] = inverse
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(keys // n, minlength=n), out=indptr[1:])
    proto = sp.csc_matrix((np.zeros(keys.size), keys % n, indptr), shape=(n, n))
    return proto.indptr, proto.indices, slot


def eigh_spectrum(eps: np.ndarray):
    """Eigenvalues (ascending) and eigenvectors (columns) of a batch of
    symmetric 3x3 strains, by LAPACK (numpy's eigh)."""
    return np.linalg.eigh(eps)


def read_snapshot_by_line(path, dim: int):
    """(displacement, damage) of a VTK snapshot, found by testing every line
    for the next section header and converting value by value."""
    with open(path) as fh:
        tokens = fh.read().split("\n")

    i = 0

    def _seek(prefix: str) -> int:
        nonlocal i
        while i < len(tokens) and not tokens[i].startswith(prefix):
            i += 1
        if i >= len(tokens):
            raise ValueError(f"snapshot missing {prefix!r} section")
        return i

    _seek("POINTS")
    n_points = int(tokens[i].split()[1])
    i += 1 + n_points

    _seek("VECTORS displacement")
    i += 1
    disp = np.array([[float(v) for v in tokens[i + k].split()] for k in range(n_points)])
    i += n_points

    _seek("SCALARS damage")
    _seek("LOOKUP_TABLE")
    i += 1
    damage = np.array([float(tokens[i + k]) for k in range(n_points)])
    return disp[:, :dim].reshape(-1), damage


def elastic_tensor(dim: int, p: MaterialParams) -> np.ndarray:
    """Undegraded isotropic elasticity matrix in engineering Voigt form."""
    lam, mu = p.lam, p.mu
    if dim == 2:
        c = np.array(
            [
                [lam + 2 * mu, lam, 0.0],
                [lam, lam + 2 * mu, 0.0],
                [0.0, 0.0, mu],
            ]
        )
    else:
        c = np.zeros((6, 6))
        c[:3, :3] = lam
        c[np.arange(3), np.arange(3)] = lam + 2 * mu
        c[np.arange(3, 6), np.arange(3, 6)] = mu
    return c


def write_gmsh(mesh: Mesh, facet_groups=None) -> str:
    """Serialize a Mesh back to Gmsh ASCII v2.2.

    Node sets are written as physical point elements, so
    ``parse_gmsh(write_gmsh(m))`` restores coordinates bitwise and
    connectivity and node sets exactly.  ``facet_groups`` maps further
    physical names to lists of facets (node-id tuples: lines in 2-D,
    triangles in 3-D), written as physical facet elements; ``parse_gmsh``
    reads each back as the node set of every node its facets touch.
    """
    facet_groups = facet_groups or {}
    out = ["$MeshFormat", "2.2 0 8", "$EndMeshFormat"]

    names = []  # (dim, tag, name)
    tag_of: dict = {}
    tag = 1
    for name in mesh.node_sets:
        names.append((0, tag, name))
        tag_of[("node", name)] = tag
        tag += 1
    for name in facet_groups:
        names.append((mesh.dim - 1, tag, name))
        tag_of[("facet", name)] = tag
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
    for name, facets in facet_groups.items():
        ptag = tag_of[("facet", name)]
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
