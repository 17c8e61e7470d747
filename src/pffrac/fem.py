"""P1 finite-element kernels and assembly of the coupled damage/displacement
residuals and consistent tangents.

Displacement dofs are interleaved per node (``dim * node + component``);
damage has one dof per node.  The total displacement field is always the sum
``U + U_D`` of the free vector U (zero on constrained dofs) and the Dirichlet
lifting U_D (prescribed values on constrained dofs, zero elsewhere).

Assembly is vectorized over elements.  Vectors are summed by
``np.bincount`` and matrices by ``np.add.at``, both in element order and
from zero, so identical inputs produce bitwise identical residuals and
matrices.  Each matrix has a sparsity pattern built once, on its first
assembly, and kept on the kernels: its band ordering and the slot of every
element entry.  The assembly target is the stored entries of the band
ordering, those on or above the reordered diagonal
(``linsolve.UpperMatrix``): an element entry's slot is the stored entry it
adds to, and the entries below the reordered diagonal are dropped, so the
assembled values are exactly the band that is factored, and the solve's
residual check runs on them.  The slots are in the index dtype of the
stored entries (int32 below 2**31 - 1).  One routine assembles both
systems: it forms their element vectors and matrices one block of
consecutive elements at a time, so the temporaries of the residuals and
tangents stay at the size of one block (``_BLOCK_BYTES``) whatever the
mesh size.
Both patterns come from one builder, ``SparsityPattern.build``, on the
kernels' ``NodeGraph``, and take scipy's reverse Cuthill-McKee order of
their structure unless a candidate node order gives a strictly narrower
band.  The damage pattern has one dof per node and no candidate, and comes
with the element blocks that do not depend on the state (gradient
stiffness and P1 mass products); the displacement pattern covers the free
dofs of one ``DofMap``, with the node-level pseudo-peripheral RCM as its
candidate.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linsolve import BandOrdering, UpperMatrix, concat_ranges, index_dtype, pseudo_peripheral_rcm
from .material import (
    VOIGT,
    MaterialParams,
    StrainSpectrum,
    degradation,
    principal_stresses,
    sigma_split,
    tangent_split,
)
from .mesh import Mesh, MeshError

__all__ = [
    "QuadratureRule",
    "ElementKernels",
    "DofMap",
    "TRI_RULE",
    "TET_RULE",
    "build_kernels",
    "strain_voigt",
    "strain_spectrum",
    "beta_at_qp",
    "grad_sq",
    "DamageFields",
    "damage_fields",
    "degradation_weights",
    "weights_from_beta",
    "residual_and_tangent_u",
    "residual_and_tangent_beta",
    "reaction_force",
]

# Bytes of the temporaries of one block of elements in an assembly, at
# _ENTRY_DOUBLES doubles per element-matrix entry: the largest rise of one
# call's traced peak per element of block size, over its matrix's entries,
# that tracemalloc showed (2.4-3.3 for both systems in 2-D and 3-D).
_BLOCK_BYTES = 2 * 2**20
_ENTRY_DOUBLES = 10 / 3


@dataclass(frozen=True)
class QuadratureRule:
    """Barycentric quadrature points and weights (summing to the reference
    simplex measure)."""

    points: np.ndarray
    weights: np.ndarray


# Degree-2 rules: 3-point on triangles, 4-point on tetrahedra.
TRI_RULE = QuadratureRule(
    points=np.array(
        [
            [2.0 / 3.0, 1.0 / 6.0, 1.0 / 6.0],
            [1.0 / 6.0, 2.0 / 3.0, 1.0 / 6.0],
            [1.0 / 6.0, 1.0 / 6.0, 2.0 / 3.0],
        ]
    ),
    weights=np.full(3, 1.0 / 6.0),
)

_TET_A = 0.5854101966249685  # (5 + 3*sqrt(5)) / 20
_TET_B = 0.1381966011250105  # (5 - sqrt(5)) / 20
TET_RULE = QuadratureRule(
    points=np.array(
        [
            [_TET_A, _TET_B, _TET_B, _TET_B],
            [_TET_B, _TET_A, _TET_B, _TET_B],
            [_TET_B, _TET_B, _TET_A, _TET_B],
            [_TET_B, _TET_B, _TET_B, _TET_A],
        ]
    ),
    weights=np.full(4, 1.0 / 24.0),
)

@dataclass
class ElementKernels:
    """Per-element shape data for the whole mesh (batched arrays).

    Attributes
    ----------
    b_u : (n_e, nv, nen*dim)
        Strain-displacement matrices (engineering Voigt rows).
    b_beta : (n_e, dim, nen)
        Damage-gradient matrices.
    shape_qp : (nqp, nen)
        P1 shape values at the quadrature points (identical per element).
    wj : (n_e, nqp)
        Quadrature weight times Jacobian determinant; rows sum to the
        element measure.
    measures : (n_e,)
        Element areas (2-D) or volumes (3-D), the row sums of ``wj``.
    udofs : (n_e, nen*dim)
        Displacement dofs of each element, in the column order of ``b_u``.
    """

    mesh: Mesh
    shape_qp: np.ndarray
    b_u: np.ndarray
    b_beta: np.ndarray
    wj: np.ndarray
    measures: np.ndarray
    udofs: np.ndarray
    # assembly data built on first use: the node graph, the displacement
    # (dofmap, pattern), the damage pattern and constant blocks
    graph: "NodeGraph | None" = field(default=None, repr=False)
    displacement: "tuple | None" = field(default=None, repr=False)
    damage: "DamageBlocks | None" = field(default=None, repr=False)

    @property
    def dim(self) -> int:
        return self.mesh.dim

    @property
    def elements(self) -> np.ndarray:
        return self.mesh.elements


def build_kernels(mesh: Mesh) -> ElementKernels:
    """Precompute P1 shape-function values, gradients and quadrature data.

    The gradients are in closed form, with no per-element LAPACK call.
    The Jacobian's columns are the edge vectors c_k = x_(k+1) - x_0, and
    ``detj`` is ad - bc in 2-D and c0 . (c1 x c2), its three products
    summed left to right, in 3-D; ``wj`` and ``measures`` are its bits
    times the quadrature weights.  The inverse Jacobian is the adjugate
    over ``detj``: in 2-D the adjugate of [[a, b], [c, d]] is
    [[d, -b], [-c, a]], in 3-D its rows are c1 x c2, c2 x c0 and c0 x c1.
    Shape function k >= 1 has the inverse's row k - 1 as its gradient, and
    shape function 0 has -row 0 - row 1 (- row 2), subtracted in that
    order.  Where a cofactor is an exact 0, as on the axis-aligned edges
    and faces of the preset grids, so is the gradient entry; a batched
    LAPACK inverse leaves about 1e-17 of residue there, and its other
    entries differ from these by at most 2 ulp on the presets.

    The memory layout of ``b_u`` is part of its bits: it is C-contiguous,
    and the einsum contractions over it sum in an order that follows the
    layout, so a ``b_u`` with equal values and other strides changes the
    results of a run.
    """
    dim, n_e = mesh.dim, mesh.n_elements
    nen = dim + 1
    x = mesh.nodes[mesh.elements]  # (n_e, nen, dim)
    edges = x[:, 1:] - x[:, :1]  # row k is the Jacobian's column c_k
    adj = np.empty_like(edges)
    if dim == 2:
        (a, c), (b, d) = edges[:, 0].T, edges[:, 1].T
        detj = a * d - b * c
        adj[:, 0, 0], adj[:, 0, 1], adj[:, 1, 0], adj[:, 1, 1] = d, -b, -c, a
    else:
        # row r is c_s x c_t: entry i is c_s[j] c_t[k] - c_s[k] c_t[j], the
        # products np.cross forms, of strided views of the edge rows
        cyclic = ((1, 2), (2, 0), (0, 1))
        for r, (s, t) in enumerate(cyclic):
            for i, (j, k) in enumerate(cyclic):
                np.multiply(edges[:, s, j], edges[:, t, k], out=adj[:, r, i])
                adj[:, r, i] -= edges[:, s, k] * edges[:, t, j]
        # summed left to right: einsum's summation order would follow strides
        terms = edges[:, 0] * adj[:, 0]
        detj = terms[:, 0] + terms[:, 1] + terms[:, 2]
    bad = np.flatnonzero(detj <= 0.0)
    if bad.size:
        raise MeshError(f"element {bad[0]} is inverted or flat: Jacobian determinant {detj[bad[0]]}")

    # row a is the gradient of shape function a; rows 1..dim are the inverse
    grads = np.empty((n_e, nen, dim))
    np.divide(adj, detj[:, None, None], out=grads[:, 1:])
    np.negative(grads[:, 1], out=grads[:, 0])
    for k in range(2, nen):
        grads[:, 0] -= grads[:, k]

    # row k maps the element dofs to strain component k, u_i,j + u_j,i (or
    # u_i,i on the diagonal); element dof dim*a + c is component c of node
    # a, so it reads gradient dim*a + j of the flat gradients where c = i,
    # dim*a + i where c = j, and the zero column nen*dim elsewhere
    voigt_i, voigt_j = VOIGT[dim]
    gather = np.full((len(voigt_i), nen * dim), nen * dim)
    for k, (i, j) in enumerate(zip(voigt_i, voigt_j)):
        gather[k, i::dim] = dim * np.arange(nen) + j
        gather[k, j::dim] = dim * np.arange(nen) + i
    ext = np.zeros((n_e, nen * dim + 1))
    ext[:, :-1] = grads.reshape(n_e, nen * dim)
    # one gather; np.take keeps b_u C-ordered, ext[:, gather] would not
    b_u = np.take(ext, gather, axis=1)

    b_beta = np.swapaxes(grads, 1, 2)

    quad = TRI_RULE if dim == 2 else TET_RULE
    wj = quad.weights[None, :] * detj[:, None]
    udofs = (dim * mesh.elements[:, :, None] + np.arange(dim)[None, None, :]).reshape(
        n_e, nen * dim
    )
    return ElementKernels(
        mesh=mesh,
        shape_qp=quad.points,
        b_u=b_u,
        b_beta=b_beta,
        wj=wj,
        measures=wj.sum(axis=1),
        udofs=udofs,
    )


@dataclass(frozen=True)
class DofMap:
    """The Dirichlet data of a load program, from one walk over its specs
    (``driver.build_dofmap``): the mask ``free`` of the displacement dofs,
    False on each constrained one, and the ``load`` vector g (the lifting
    per unit w), on each constrained dof the scale of the last spec that
    constrains it and 0 elsewhere.  Frozen: its tangent pattern is cached."""

    free: np.ndarray
    load: np.ndarray


def strain_voigt(kernels: ElementKernels, total_disp: np.ndarray) -> np.ndarray:
    """Per-element engineering-strain Voigt vectors for U + U_D."""
    elem_disp = total_disp[kernels.udofs]
    return np.einsum("evd,ed->ev", kernels.b_u, elem_disp)


def strain_spectrum(kernels: ElementKernels, total_disp: np.ndarray) -> StrainSpectrum:
    """Spectrum of the per-element strains of U + U_D (constant for P1)."""
    return StrainSpectrum(strain_voigt(kernels, total_disp).T)


def beta_at_qp(kernels: ElementKernels, a: np.ndarray) -> np.ndarray:
    """Damage values at the quadrature points, (n_e, nqp)."""
    return a[kernels.elements] @ kernels.shape_qp.T


def grad_sq(kernels: ElementKernels, a: np.ndarray) -> np.ndarray:
    """|grad beta|^2 per element (constant for P1), (n_e,)."""
    g = np.einsum("edi,ei->ed", kernels.b_beta, a[kernels.elements])
    return np.einsum("ed,ed->e", g, g)


def degradation_weights(kernels: ElementKernels, a: np.ndarray, p: MaterialParams):
    """Quadrature sum of w*j*R(beta) per element (weights the tensile part)."""
    return weights_from_beta(kernels, beta_at_qp(kernels, a), p)


def weights_from_beta(kernels: ElementKernels, beta: np.ndarray, p: MaterialParams):
    """``degradation_weights`` of the damage whose ``beta_at_qp`` is beta."""
    r_qp, _ = degradation(beta, p)
    return _quadrature_sums(kernels, r_qp)


def _quadrature_sums(kernels: ElementKernels, f_qp: np.ndarray) -> np.ndarray:
    """Quadrature sum of w*j*f per element of the (n_e, nqp) field f."""
    return np.einsum("eq,eq->e", kernels.wj, f_qp)


@dataclass(frozen=True)
class DamageFields:
    """The quadrature-point fields of a damage state a with anchor a_n,
    (n_e, nqp) each: ``beta`` and the raw ``gap`` a - a_n, both
    interpolated, and the degradation factor ``r`` = R(beta) with its
    derivative ``dr``.  A damage solve builds them once per iterate, for
    its merit, residual and tangent alike."""

    beta: np.ndarray
    gap: np.ndarray
    r: np.ndarray
    dr: np.ndarray

    def weights(self, kernels: ElementKernels) -> np.ndarray:
        """The state's ``degradation_weights``."""
        return _quadrature_sums(kernels, self.r)


def damage_fields(kernels: ElementKernels, a: np.ndarray, a_n: np.ndarray, p: MaterialParams) -> DamageFields:
    """The ``DamageFields`` of the damage a with anchor a_n."""
    beta = beta_at_qp(kernels, a)
    r, dr = degradation(beta, p)
    return DamageFields(beta=beta, gap=(a - a_n)[kernels.elements] @ kernels.shape_qp.T, r=r, dr=dr)


@dataclass(frozen=True)
class NodeGraph:
    """The CSC structure of the node adjacency (column j holds the nodes
    that share an element with j, j too, ascending) and ``pair`` (n_e, nen,
    nen), the CSC position of each element's node pair (row a, column b),
    all in the ``index_dtype`` of the entry count."""

    indptr: np.ndarray
    indices: np.ndarray
    pair: np.ndarray


@dataclass(frozen=True)
class SparsityPattern:
    """The band ``ordering`` that every matrix assembled on the pattern is
    stored under and factored with, and the ``slot`` of each element-matrix
    entry, in ``k_e.ravel()`` order: the stored entry it adds to, or one
    past the last for entries below the reordered diagonal or on dofs left
    out, which are dropped.  The slots have the ``index_dtype`` of the
    stored entries."""

    slot: np.ndarray
    ordering: BandOrdering

    @classmethod
    def build(cls, graph: NodeGraph, elements: np.ndarray, free: np.ndarray, candidates) -> "SparsityPattern":
        """Pattern of the elements' entries over the True entries of
        ``free`` (n_nodes, dim), numbered node by node, under
        ``BandOrdering.narrowest`` of its structure and of the node orders
        ``candidates`` expanded to free dofs alike.  The column of free dof
        (j, c) holds the free components of j's neighbours in ``graph``, in
        node order.  An element entry's CSC position is the column start,
        plus the offset of the row node's block in the column (from
        ``graph.pair``), plus the row component's rank among the node's free
        components.  It is computed one local row node at a time, so each
        temporary is a fixed multiple of the element count."""
        n_nodes, dim = free.shape
        width = free.sum(axis=1)  # free components per node
        first = np.cumsum(width) - width  # free index of each node's first one
        rank = np.cumsum(free, axis=1) - 1
        # each graph entry expands to the free components of its row node;
        # a node column's expanded rows are every free dof column's rows
        entry_width = width[graph.indices]
        expanded = np.zeros(entry_width.size + 1, dtype=np.int64)
        np.cumsum(entry_width, out=expanded[1:])
        col_start = expanded[graph.indptr[:-1]]
        col_len = expanded[graph.indptr[1:]] - col_start
        block = expanded[:-1] - np.repeat(col_start, np.diff(graph.indptr))
        rows = concat_ranges(first[graph.indices], first[graph.indices] + entry_width)

        col_node = np.repeat(np.arange(n_nodes), width)  # node of each free dof
        indptr = np.zeros(col_node.size + 1, dtype=np.int64)
        np.cumsum(col_len[col_node], out=indptr[1:])
        indptr, indices = _index_arrays(
            indptr, rows[concat_ranges(col_start[col_node], col_start[col_node] + col_len[col_node])]
        )
        del rows

        perms = [concat_ranges(first[order], first[order] + width[order]) for order in candidates]
        ordering = BandOrdering.narrowest(indptr, indices, perms)
        stored = ordering.stored_index(indptr, indices)  # its last entry, which -1 picks, drops

        n_e, nen = elements.shape
        dof_start = indptr[first[:, None] + rank]  # column start of free dof (node, c)
        slot = np.empty((n_e, nen, dim, nen, dim), dtype=stored.dtype)
        col_free = free[elements][:, None, :, :]
        elem_start = dof_start[elements]
        for a in range(nen):
            row = elements[:, a]
            base = block[graph.pair[:, a]][:, :, None] + elem_start  # (n_e, nen, dim)
            at = np.where(free[row][:, :, None, None] & col_free, rank[row][:, :, None, None] + base[:, None], -1)
            slot[:, a] = stored[at]
        return cls(slot=slot.reshape(-1), ordering=ordering)


def _index_arrays(indptr: np.ndarray, indices: np.ndarray):
    """The CSC index arrays in the ``index_dtype`` of their largest value."""
    dtype = index_dtype(max(indices.size, indptr.size - 1))
    return indptr.astype(dtype), indices.astype(dtype)


@dataclass(frozen=True)
class DamageBlocks:
    """State-independent parts of the damage system, per kernels."""

    pattern: SparsityPattern
    grad: np.ndarray  # (n_e, nen, nen): |e| B^T B, the gradient stiffness over 2 g
    mass: np.ndarray  # (nqp, nen*nen): N_q N_q^T, the P1 mass product per point


def node_graph(kernels: ElementKernels) -> NodeGraph:
    """The kernels' ``NodeGraph``, built on first use by one sort of the
    element node pairs, whose inverse is their CSC position."""
    if kernels.graph is None:
        elements, n = kernels.elements, kernels.mesh.n_nodes
        keys, pair = np.unique((elements[:, None, :] * n + elements[:, :, None]).ravel(), return_inverse=True)
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(keys // n, minlength=n), out=indptr[1:])
        indptr, indices = _index_arrays(indptr, keys % n)
        pair = pair.astype(indices.dtype).reshape(elements.shape + elements.shape[1:])
        kernels.graph = NodeGraph(indptr, indices, pair)
    return kernels.graph


def u_pattern(kernels: ElementKernels, dofmap: DofMap) -> SparsityPattern:
    """Displacement-tangent pattern over the free dofs of ``dofmap``, with
    the node-level ``pseudo_peripheral_rcm`` as its candidate ordering.

    Kept on the kernels for the last DofMap object asked for (a run, the
    audit and a path ensemble each use one); holding the DofMap keeps its
    identity from being reused by another.
    """
    if kernels.displacement is None or kernels.displacement[0] is not dofmap:
        graph = node_graph(kernels)
        candidate = pseudo_peripheral_rcm(graph.indptr, graph.indices)
        pattern = SparsityPattern.build(graph, kernels.elements, dofmap.free.reshape(-1, kernels.dim), [candidate])
        kernels.displacement = (dofmap, pattern)
    return kernels.displacement[1]


def damage_blocks(kernels: ElementKernels) -> DamageBlocks:
    """Damage pattern, one free dof per node and no candidate ordering, and
    the constant element blocks, built on first use."""
    if kernels.damage is None:
        bb = np.einsum("edi,edj->eij", kernels.b_beta, kernels.b_beta)
        n, n_nodes = kernels.shape_qp, kernels.mesh.n_nodes
        kernels.damage = DamageBlocks(
            pattern=SparsityPattern.build(node_graph(kernels), kernels.elements, np.ones((n_nodes, 1), bool), []),
            grad=kernels.measures[:, None, None] * bb,
            mass=(n[:, :, None] * n[:, None, :]).reshape(n.shape[0], -1),
        )
    return kernels.damage


def _element_blocks(edofs: np.ndarray) -> list:
    """Slices of consecutive elements of the element dofs ``edofs`` (n_e,
    width), each of about ``_BLOCK_BYTES`` of temporaries in an assembly of
    width x width element matrices, none of one element unless the mesh is:
    a one-row matrix product takes numpy's vector-matrix path and rounds
    otherwise than the rows of the whole mesh's product."""
    n_e, width = edofs.shape
    size = max(2, int(_BLOCK_BYTES // (8 * _ENTRY_DOUBLES * width**2)))
    stops = [*range(size, n_e - 1, size), n_e]
    return [slice(lo, hi) for lo, hi in zip([0, *stops], stops)]


def _assemble(pattern: SparsityPattern, edofs: np.ndarray, n: int, block):
    """The residual (n,) on ``edofs`` and the ``UpperMatrix`` on ``pattern``
    from ``block(e)``, the element vectors and matrices of each slice e of
    ``_element_blocks``: the matrices are added through the slots as they
    come, the vectors by one ``bincount``, both in element order, so any
    split into blocks gives the same sums, bit for bit."""
    n_stored = pattern.ordering.rows.size
    values = np.zeros(n_stored + 1)
    slot = pattern.slot.reshape(edofs.shape[0], -1)
    f_e = np.empty(edofs.shape)
    for e in _element_blocks(edofs):
        f_e[e], k_e = block(e)
        np.add.at(values, slot[e].ravel(), k_e.ravel())
        del k_e  # not held while the next block is formed
    r = np.bincount(edofs.ravel(), weights=f_e.ravel(), minlength=n)
    return r, UpperMatrix(values[:n_stored], pattern.ordering)


def _element_forces_u(spectrum: StrainSpectrum, rw, measures, b_u, p: MaterialParams):
    """Element forces B^T sigma of the elements whose strains have the
    spectrum ``spectrum``, sigma the split stress weighted by ``rw`` (tension)
    and ``measures`` (compression), and their ``principal_stresses``."""
    f = principal_stresses(spectrum.modes, p)
    sig_p, sig_m = sigma_split(spectrum, f, p)
    sig_eff = rw[:, None] * sig_p + measures[:, None] * sig_m
    return np.einsum("evd,ev->ed", b_u, sig_eff), f


def residual_and_tangent_u(
    spectrum: StrainSpectrum, rw, kernels: ElementKernels, p: MaterialParams, dofmap: DofMap
):
    """Displacement residual and consistent tangent over the free dofs (zero
    external load: Dirichlet-driven problems only), of the displacement
    U + U_D whose ``strain_spectrum`` is ``spectrum`` at the damage whose
    ``degradation_weights`` are ``rw``.

    Each element block forms its stresses, forces and matrices B^T C B (C the
    split tangent, weighted as the stress) from views of ``spectrum``'s rows.
    The tangent is an ``UpperMatrix``, SPD for damage below one and k > 0.
    """

    def block(e):
        s, b_u = spectrum.rows(e.start, e.stop), kernels.b_u[e]
        f_e, f = _element_forces_u(s, rw[e], kernels.measures[e], b_u, p)
        cp, cm = tangent_split(s, f, p)
        c_e = rw[e, None, None] * cp + kernels.measures[e, None, None] * cm
        return f_e, np.swapaxes(b_u, 1, 2) @ (c_e @ b_u)

    # the pattern is built on first use, before the assembly's temporaries
    pattern, n = u_pattern(kernels, dofmap), kernels.dim * kernels.mesh.n_nodes
    r, tangent = _assemble(pattern, kernels.udofs, n, block)
    return r[dofmap.free], tangent


def residual_and_tangent_beta(psi_p, a, fields: DamageFields, kernels: ElementKernels, p: MaterialParams):
    """Damage residual and tangent over all damage dofs (one per node) at the
    damage a, whose ``damage_fields`` are ``fields``, from the tensile
    energy density per element (constant at fixed displacement).

    The regularisation is ``MaterialParams``' law, c * beta^m +
    g * |grad beta|^2 with (c, m) = ``p.dissipation_law`` and
    g = ``p.grad_coeff``: its first and second derivatives
    m c beta^(m-1) and m (m-1) c, and the gradient stiffness times 2 g.
    The tangent is the tensile-energy/dissipation mass plus the gradient
    stiffness plus the active-set penalty mass (generalized derivative of the
    negative part); an ``UpperMatrix``.  The degradation's second derivative
    and m (m-1) c are constants, so at fixed ``psi_p`` the tangent depends on
    a only through the penalty set, the quadrature points where gap < 0;
    no code relies on this (``solver.newton_beta`` factors the tangent of
    every iteration that solves).
    """
    blk = damage_blocks(kernels)
    c, m = p.dissipation_law

    def block(e):
        wj, gap = kernels.wj[e], fields.gap[e]
        pen_qp = np.minimum(gap, 0.0) / p.eps_pen
        s_qp = fields.dr[e] * psi_p[e, None] + (m * c) * fields.beta[e] ** (m - 1) + pen_qp
        f_e = (wj * s_qp) @ kernels.shape_qp
        f_e += (2.0 * p.grad_coeff) * np.einsum("eij,ej->ei", blk.grad[e], a[kernels.elements[e]])
        coeff_qp = 2.0 * psi_p[e, None] + (gap < 0.0) / p.eps_pen + (m * (m - 1)) * c
        k_e = (wj * coeff_qp) @ blk.mass
        k_e += (2.0 * p.grad_coeff) * blk.grad[e].reshape(k_e.shape)
        return f_e, k_e

    return _assemble(blk.pattern, kernels.elements, kernels.mesh.n_nodes, block)


def reaction_force(spectrum: StrainSpectrum, rw, kernels: ElementKernels, p: MaterialParams, load) -> float:
    """The reaction, the force conjugate to the load parameter w: the
    unconstrained internal force r summed against the load vector g (the
    lifting per unit w), P = sum of g_i r_i over the dofs where g is not
    zero, in ascending order.  Since r is the gradient of the bulk energy
    in the total displacement, P is d erg/dw at fixed free displacement and
    damage.  The state is given as for ``residual_and_tangent_u``.  It is the
    one whole-mesh force pass: it runs once per solve, after the solve has
    dropped its last factor, so its temporaries never meet a band."""
    f_e, _ = _element_forces_u(spectrum, rw, kernels.measures, kernels.b_u, p)
    r = np.bincount(kernels.udofs.ravel(), weights=f_e.ravel(), minlength=kernels.dim * kernels.mesh.n_nodes)
    dofs = np.flatnonzero(load)
    return float(np.sum(r[dofs] * load[dofs]))
