"""Reference implementations that the tests compare the program against.

They are test code: no run path calls them.  Each is a plain, from-scratch
form of something the program computes in a fused, cached or faster way (the
total functional and the damage merit, the stored energy, the two-sided
bounds and check, the split energies, stresses and tangents, the undegraded
tangent, the displacement sparsity pattern, the 3-D principal strains, the
snapshot reader, the element measures), or a conversion between the strain
tensors the tests build and the Voigt rows the program takes, including the
3x3 embedding of a spectrum that the dense references work in.  One is a
loop: the breadth-first search for the start nodes of the band ordering.
"""

import collections
import math
import struct

import numpy as np
import scipy.sparse as sp

from pffrac.energetics import StateEnergy, check_two_sided, dis, erg, grad_term
from pffrac.fem import ElementKernels, beta_at_qp, degradation_weights, strain_spectrum
from pffrac.material import (
    _GAP_REL,
    AT2,
    VOIGT,
    MaterialParams,
    StrainSpectrum,
    degradation,
    principal_stresses,
    psi_split,
)
from pffrac.mesh import Mesh


def penalty_energy(a, a_n, kernels: ElementKernels, p: MaterialParams) -> float:
    """Irreversibility penalty (1/(2 eps)) * integral [beta - beta_n]_-^2,
    the potential whose gradient is the penalty residual term, summed
    exactly."""
    neg = np.minimum(beta_at_qp(kernels, a - a_n), 0.0)
    return 0.5 / p.eps_pen * math.fsum((kernels.wj * neg * neg).ravel().tolist())


def total_functional(u, u_d, a, a_n, kernels: ElementKernels, p: MaterialParams) -> float:
    """Penalized incremental functional: stored energy + incremental
    dissipation + irreversibility penalty (the quantity the alternating
    minimization descends on)."""
    return (
        bulk_energy(u, u_d, a, kernels, p)
        + grad_term(a, kernels, p)
        + (dis(a, kernels, p) - dis(a_n, kernels, p))
        + penalty_energy(a, a_n, kernels, p)
    )


def damage_merit(u, u_d, a, a_n, kernels: ElementKernels, p: MaterialParams) -> float:
    """The damage solve's merit, from scratch: the total functional with
    each term's integrand summed plainly, the terms at the quadrature points
    (R(beta) psi0_+, the dissipation density, the penalty) in one
    ``np.sum`` of w*j times their sum, the element-constant ones (psi0_-
    and the gradient energy density) in one ``np.sum`` of |e| times their
    sum, less ``dis(a_n)``."""
    psi_p, psi_m = psi_split(strain_spectrum(kernels, u + u_d), p)
    beta = beta_at_qp(kernels, a)
    gap = np.minimum(beta_at_qp(kernels, a - a_n), 0.0)
    r, _ = degradation(beta, p)
    if p.dissipation == AT2:
        density = (0.5 * p.gc / p.ell) * (beta * beta)
    else:
        density = (p.kappa * p.gc / p.ell) * beta
    at_qp = r * psi_p[:, None] + density + (0.5 / p.eps_pen) * (gap * gap)
    grad = np.einsum("edi,ei->ed", kernels.b_beta, a[kernels.elements])
    per_e = psi_m + (0.5 * p.gc * p.ell) * np.einsum("ed,ed->e", grad, grad)
    return float(np.sum(kernels.wj * at_qp) + np.sum(kernels.measures * per_e)) - dis(a_n, kernels, p)


def bulk_energy(u1, u2, a, kernels: ElementKernels, p: MaterialParams) -> float:
    """Degraded bulk energy ``erg`` of u1 + u2 at the damage a."""
    return erg(u1, u2, degradation_weights(kernels, a, p), kernels, p)


def stored_energy(u1, u2, a, kernels: ElementKernels, p: MaterialParams) -> float:
    """Stored energy E: degraded bulk energy plus damage-gradient energy."""
    return bulk_energy(u1, u2, a, kernels, p) + grad_term(a, kernels, p)


def evaluated_state(u, u_d, a, kernels: ElementKernels, p: MaterialParams) -> StateEnergy:
    """The state (u, u_d, a) with every term of the two-sided check
    (degradation weights, bulk and gradient energies, dissipation)
    evaluated here."""
    rw = degradation_weights(kernels, a, p)
    return StateEnergy(
        u=u,
        u_d=u_d,
        rw=rw,
        bulk_energy=erg(u, u_d, rw, kernels, p),
        grad_energy=grad_term(a, kernels, p),
        dissipation=dis(a, kernels, p),
    )


def fresh_check(u_n, u_d_n, a_n, u_next, u_d_next, a_next, kernels: ElementKernels, p: MaterialParams, eta):
    """``check_two_sided`` of the step pair (n, n+1) with every term of
    both states evaluated here (``evaluated_state``)."""
    return check_two_sided(
        evaluated_state(u_n, u_d_n, a_n, kernels, p),
        evaluated_state(u_next, u_d_next, a_next, kernels, p),
        kernels,
        p,
        eta,
    )


def upper_bound(u_n, u_d_n, u_d_next, a_n, kernels: ElementKernels, p: MaterialParams) -> float:
    """UB: lifting increment evaluated on the current state."""
    return bulk_energy(u_n, u_d_next, a_n, kernels, p) - bulk_energy(u_n, u_d_n, a_n, kernels, p)


def lower_bound(u_next, u_d_n, u_d_next, a_next, kernels: ElementKernels, p: MaterialParams) -> float:
    """LB: lifting increment evaluated on the next state, the proved pairing
    bulk_energy(u_next, u_d_next) - bulk_energy(u_next, u_d_n) at damage a_next."""
    return bulk_energy(u_next, u_d_next, a_next, kernels, p) - bulk_energy(u_next, u_d_n, a_next, kernels, p)


def element_dofs_pattern(edofs: np.ndarray, free: np.ndarray):
    """CSC (indptr, indices) of the entries coupling the dofs of each
    element, over the dofs where the mask ``free`` is True (ascending,
    renumbered from 0; the others are left out), and the data slot of every
    element-matrix entry (one past the end when left out): one sort over
    all element-matrix entries."""
    n = np.count_nonzero(free)
    keep_map = -np.ones(free.size, dtype=np.int64)
    keep_map[free] = np.arange(n)
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


def dirichlet_partition(mesh: Mesh, program) -> tuple:
    """(fixed, load) of the program's Dirichlet specs, taken one spec and
    one node at a time: the ascending union of the dofs the specs
    constrain, and the load vector in which a dof takes the scale of the
    last spec that constrains it, and 0 if none does."""
    fixed = set()
    load = np.zeros(mesh.dim * mesh.n_nodes)
    for bc in program.bcs:
        for node in mesh.node_sets[bc.node_set]:
            dof = mesh.dim * int(node) + bc.component
            fixed.add(dof)
            load[dof] = bc.scale
    return np.array(sorted(fixed), dtype=np.int64), load


def george_liu_starts(indptr: np.ndarray, indices: np.ndarray) -> list:
    """(start, size, moves) of each connected component of the symmetric
    graph (indptr, indices), components in the order of their lowest node,
    by a queue-driven breadth-first search: the George-Liu start node, the
    component's node count, and how often the search moved to a farther
    node.  The search starts at the component's lowest-degree node and
    moves to the lowest-degree node of its last level (ties by index) as
    long as that raises the eccentricity."""
    degree = np.diff(indptr)

    def distances(root: int) -> dict:
        dist = {root: 0}
        queue = collections.deque([root])
        while queue:
            i = queue.popleft()
            for j in indices[indptr[i] : indptr[i + 1]].tolist():
                if j not in dist:
                    dist[j] = dist[i] + 1
                    queue.append(j)
        return dist

    def lowest_degree(nodes) -> int:
        return min(nodes, key=lambda i: (degree[i], i))

    components, seen = [], set()
    for first in range(indptr.size - 1):
        if first in seen:
            continue
        members = distances(first)
        seen.update(members)
        dist, moves = distances(lowest_degree(members)), 0
        while True:
            ecc = max(dist.values())
            start = lowest_degree([i for i in members if dist[i] == ecc])
            farther = distances(start)
            if max(farther.values()) <= ecc:
                break
            dist, moves = farther, moves + 1
        components.append((start, len(members), moves))
    return components


def voigt_rows(eps) -> np.ndarray:
    """Engineering Voigt rows (nv, N) of the symmetric strain tensors
    ``eps`` (..., d, d), N the product of the leading axes: the input of
    ``StrainSpectrum``."""
    eps = np.asarray(eps, dtype=np.float64)
    d = eps.shape[-1]
    i, j = (np.array(x) for x in VOIGT[d])
    return (np.where(i == j, 1.0, 2.0) * eps.reshape(-1, d, d)[:, i, j]).T


def strain_tensor_from_voigt(v: np.ndarray, dim: int) -> np.ndarray:
    """Engineering-strain Voigt vector(s) (..., nv) to symmetric tensor(s)."""
    v = np.asarray(v, dtype=np.float64)
    out = np.zeros(v.shape[:-1] + (dim, dim))
    for k, (i, j) in enumerate(zip(*VOIGT[dim])):
        if i == j:
            out[..., i, i] = v[..., k]
        else:
            out[..., i, j] = out[..., j, i] = 0.5 * v[..., k]
    return out


def evaluate(split, s: StrainSpectrum, p: MaterialParams):
    """``split`` (``psi_split``, ``sigma_split`` or ``tangent_split``) of the
    spectrum ``s``; the last two also take its ``principal_stresses``."""
    if split is psi_split:
        return split(s, p)
    return split(s, principal_stresses(s.modes, p), p)


def split_of(split, eps, p: MaterialParams):
    """``split`` (``psi_split``, ``sigma_split`` or ``tangent_split``) of the
    strain tensors ``eps`` (..., d, d), each output shaped by the leading
    axes of ``eps``."""
    lead = np.shape(eps)[:-2]
    return tuple(x.reshape(lead + x.shape[1:]) for x in evaluate(split, StrainSpectrum(voigt_rows(eps)), p))


def embedding(s: StrainSpectrum):
    """Principal strains (N, 3) and directions (N, 3, 3), as columns, of the
    spectrum ``s`` in the 3x3 embedding: in plane strain the in-plane pair
    is followed by the out-of-plane pair (0, e_z)."""
    d, n = s.modes.shape
    w = np.zeros((n, 3))
    w[:, :d] = s.modes.T
    v = np.zeros((n, 3, 3))
    v[:, :d, :d] = s.directions.transpose(2, 1, 0)
    if d == 2:
        v[:, 2, 2] = 1.0
    return w, v


def eigh_spectrum(eps: np.ndarray):
    """Eigenvalues (ascending) and eigenvectors (columns) of a batch of
    symmetric 3x3 strains, by LAPACK (numpy's eigh)."""
    return np.linalg.eigh(eps)


def split_coeffs_dense(w: np.ndarray, p: MaterialParams):
    """Principal stresses f^pm and branch indicators h^pm (as 0.0/1.0) of
    the principal strains ``w`` (..., 3): f_a^+ = lam tr(eps_+) H(w_a > 0)
    + 2 mu <w_a>_+, the minus part mirrored with H(w_a <= 0)."""
    wp = np.maximum(w, 0.0)
    wm = np.minimum(w, 0.0)
    hp = (w > 0.0).astype(np.float64)
    hm = 1.0 - hp
    fp = p.lam * wp.sum(axis=-1, keepdims=True) * hp + 2.0 * p.mu * wp
    fm = p.lam * wm.sum(axis=-1, keepdims=True) * hm + 2.0 * p.mu * wm
    return fp, fm, hp, hm


def psi_split_dense(s: StrainSpectrum, p: MaterialParams):
    """Split energy densities lam/2 (tr eps_pm)^2 + mu eps_pm : eps_pm, with
    every sum over the three principal strains of the embedding taken along
    their axis."""
    w, _ = embedding(s)
    wp = np.maximum(w, 0.0)
    wm = np.minimum(w, 0.0)
    trp = wp.sum(axis=-1)
    trm = wm.sum(axis=-1)
    return (
        0.5 * p.lam * trp * trp + p.mu * (wp * wp).sum(axis=-1),
        0.5 * p.lam * trm * trm + p.mu * (wm * wm).sum(axis=-1),
    )


def sigma_split_dense(s: StrainSpectrum, p: MaterialParams):
    """Split stresses sum_a f_a^pm n_a (x) n_a as 3x3 tensors over all three
    eigenpairs of the embedding, read out in the Voigt order of the input
    dimension."""
    w, v = embedding(s)
    fp, fm, _, _ = split_coeffs_dense(w, p)
    vt = np.swapaxes(v, -1, -2)
    return tuple(((v * f[..., None, :]) @ vt)[(...,) + VOIGT[len(s.modes)]] for f in (fp, fm))


def tangent_split_c4(eps, p: MaterialParams):
    """Reference split tangents through fourth-order tensors: sum
    D_ab M_a (x) M_b and 1/2 g_ab P_ab (x) P_ab as 3x3x3x3 arrays over all
    three eigenpairs of the embedding, then read out the Voigt entries, for
    the strain tensors ``eps`` (..., d, d)."""
    eps = np.asarray(eps, dtype=np.float64)
    d = eps.shape[-1]
    w, v = embedding(StrainSpectrum(voigt_rows(eps)))
    w = w.reshape(eps.shape[:-2] + (3,))
    v = v.reshape(eps.shape[:-2] + (3, 3))
    fp, fm, hp, hm = split_coeffs_dense(w, p)
    idx = np.arange(3)
    dp = p.lam * hp[..., :, None] * hp[..., None, :]
    dp[..., idx, idx] += 2.0 * p.mu * hp
    dm = p.lam * hm[..., :, None] * hm[..., None, :]
    dm[..., idx, idx] += 2.0 * p.mu * hm
    c4p = np.einsum("...ab,...ia,...ja,...kb,...lb->...ijkl", dp, v, v, v, v)
    c4m = np.einsum("...ab,...ia,...ja,...kb,...lb->...ijkl", dm, v, v, v, v)

    gap_tol = _GAP_REL * (1.0 + np.linalg.norm(eps, axis=(-2, -1)))
    for a, b in ((0, 1), (0, 2), (1, 2)):
        dw = w[..., a] - w[..., b]
        small = np.abs(dw) < gap_tol
        safe = np.where(small, 1.0, dw)
        hbp = (0.5 * (w[..., a] + w[..., b]) > 0.0).astype(np.float64)
        gp = np.where(small, 2.0 * p.mu * hbp, (fp[..., a] - fp[..., b]) / safe)
        gm = np.where(small, 2.0 * p.mu * (1.0 - hbp), (fm[..., a] - fm[..., b]) / safe)
        pab = np.einsum("...i,...j->...ij", v[..., :, a], v[..., :, b])
        pab = pab + np.swapaxes(pab, -1, -2)
        pp = np.einsum("...ij,...kl->...ijkl", pab, pab)
        c4p = c4p + 0.5 * gp[..., None, None, None, None] * pp
        c4m = c4m + 0.5 * gm[..., None, None, None, None] * pp

    vi, vj = (np.array(x) for x in VOIGT[d])
    return tuple(c[..., vi[:, None], vj[:, None], vi[None, :], vj[None, :]] for c in (c4p, c4m))


# The bytes of the data block after each legacy VTK section header, by its
# keyword, from the header's counts and the points' count.
_BLOCK_BYTES = {
    "POINTS": lambda counts, n: 24 * counts[0],
    "CELLS": lambda counts, n: 4 * counts[1],
    "CELL_TYPES": lambda counts, n: 4 * counts[0],
    "VECTORS": lambda counts, n: 24 * n,
    "LOOKUP_TABLE": lambda counts, n: 8 * n,
}


def read_snapshot_by_line(path, dim: int):
    """(displacement, damage) of a legacy VTK BINARY snapshot, found by
    scanning its header lines from the top, stepping over the data block
    that each header announces, and unpacking the values of the two field
    blocks one big-endian double at a time."""
    with open(path, "rb") as fh:
        data = fh.read()

    offsets = {}
    n_points = 0
    pos = 0
    while pos < len(data):
        end = data.index(b"\n", pos)
        words = data[pos:end].decode("ascii").split()
        pos = end + 1
        if not words or words[0] not in _BLOCK_BYTES:
            continue  # the file header, POINT_DATA, SCALARS
        counts = [int(w) for w in words[1:] if w.isdigit()]
        if words[0] == "POINTS":
            n_points = counts[0]
        offsets[words[0]] = pos
        pos += _BLOCK_BYTES[words[0]](counts, n_points) + 1

    def doubles(offset, n):
        return [struct.unpack_from(">d", data, offset + 8 * k)[0] for k in range(n)]

    disp = np.array(doubles(offsets["VECTORS"], 3 * n_points)).reshape(n_points, 3)
    damage = np.array(doubles(offsets["LOOKUP_TABLE"], n_points))
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


def element_measures(mesh: Mesh) -> np.ndarray:
    """Signed areas (2-D) or volumes (3-D) of the mesh's elements, from the
    edge vectors at each element's first node."""
    x = mesh.nodes[mesh.elements]  # (n_e, nen, dim)
    d1 = x[:, 1] - x[:, 0]
    d2 = x[:, 2] - x[:, 0]
    if mesh.dim == 2:
        return 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])
    d3 = x[:, 3] - x[:, 0]
    return np.einsum("ij,ij->i", d1, np.cross(d2, d3)) / 6.0
