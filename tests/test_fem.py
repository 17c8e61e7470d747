import math
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from conftest import (
    box_mesh,
    constrained_dofmap,
    damage_system,
    dense,
    displacement_system,
    internal_force,
    load_tracing,
    random_state,
    stored,
    with_dissipation,
)
from oracles import bulk_energy, elastic_tensor, element_dofs_pattern, element_measures, penalty_energy, strain_tensor_from_voigt
from pffrac.energetics import dis, grad_term
from pffrac.fem import (
    TET_RULE,
    TRI_RULE,
    beta_at_qp,
    build_kernels,
    damage_blocks,
    degradation_weights,
    reaction_force,
    strain_spectrum,
    strain_voigt,
    u_pattern,
)
from pffrac import fem, solver
from pffrac.driver import DirichletSpec, LoadProgram, build_dofmap
from pffrac.linsolve import BandOrdering, factor_solve
from pffrac.mesh import Mesh, MeshError, generate_grid
from pffrac.material import (
    VOIGT,
    MaterialParams,
    StrainSpectrum,
    degradation,
    principal_stresses,
    psi_split,
    sigma_split,
    tangent_split,
)
from pffrac.presets import load_preset


def dense_elastic_stiffness(mesh, kernels, p, factor=1.0):
    """Independent dense assembly of the isotropic elastic stiffness."""
    n = mesh.dim * mesh.n_nodes
    k = np.zeros((n, n))
    c = factor * elastic_tensor(mesh.dim, p)
    for e in range(mesh.n_elements):
        b = kernels.b_u[e]
        k_e = b.T @ c @ b * kernels.measures[e]
        dofs = kernels.udofs[e]
        for i, gi in enumerate(dofs):
            for j, gj in enumerate(dofs):
                k[gi, gj] += k_e[i, j]
    return k


def strided_kernels(mesh):
    """Reference ``build_kernels`` arrays: the inverse Jacobian's cofactors
    written out as products of edge components, the gradients formed one
    element node at a time, ``b_u`` written two strided slices per Voigt
    row."""
    dim, n_e = mesh.dim, mesh.n_elements
    nen = dim + 1
    x = mesh.nodes[mesh.elements]
    # component i of edge k, the Jacobian's entry (i, k)
    e = [[x[:, k + 1, i] - x[:, 0, i] for k in range(dim)] for i in range(dim)]
    if dim == 2:
        (a, b), (c, d) = e
        detj = a * d - b * c
        cof = [[d, -b], [-c, a]]
    else:
        # row k is c_(k+1) x c_(k+2), the edges taken cyclically
        cof = [
            [
                e[(i + 1) % 3][(k + 1) % 3] * e[(i + 2) % 3][(k + 2) % 3]
                - e[(i + 2) % 3][(k + 1) % 3] * e[(i + 1) % 3][(k + 2) % 3]
                for i in range(3)
            ]
            for k in range(3)
        ]
        detj = e[0][0] * cof[0][0] + e[1][0] * cof[0][1] + e[2][0] * cof[0][2]
    grads = np.zeros((n_e, nen, dim))
    for i in range(dim):
        for node in range(1, nen):
            grads[:, node, i] = cof[node - 1][i] / detj
        grads[:, 0, i] = -grads[:, 1, i]
        for node in range(2, nen):
            grads[:, 0, i] -= grads[:, node, i]
    quad = TRI_RULE if dim == 2 else TET_RULE
    wj = quad.weights[None, :] * detj[:, None]
    udofs = (dim * mesh.elements[:, :, None] + np.arange(dim)[None, None, :]).reshape(n_e, nen * dim)
    return {
        "shape_qp": quad.points,
        "b_u": strided_b_u(grads),
        "b_beta": np.swapaxes(grads, 1, 2),
        "wj": wj,
        "measures": wj.sum(axis=1),
        "udofs": udofs,
    }


def strided_b_u(grads):
    """Reference ``b_u`` of the (n_e, nen, dim) shape-function gradients,
    written two strided slices per Voigt row."""
    n_e, nen, dim = grads.shape
    voigt_i, voigt_j = VOIGT[dim]
    b_u = np.zeros((n_e, len(voigt_i), nen * dim))
    for k, (i, j) in enumerate(zip(voigt_i, voigt_j)):
        b_u[:, k, i::dim] = grads[:, :, j]
        b_u[:, k, j::dim] = grads[:, :, i]
    return b_u


def lapack_gradients(mesh):
    """(n_e, dim, nen) damage-gradient matrices from a batched LAPACK
    inverse of the Jacobians, and the Jacobians."""
    x = mesh.nodes[mesh.elements]
    jac = np.swapaxes(x[:, 1:] - x[:, :1], 1, 2)
    jinv = np.linalg.inv(jac)
    grads = np.concatenate([-jinv.sum(axis=1, keepdims=True), jinv], axis=1)
    return np.swapaxes(grads, 1, 2), jac


def stretched_simplices(rng, dim, n):
    """``n`` disjoint positively oriented simplices: the reference simplex
    sheared, stretched by up to 1e3 along its axes, rotated and moved."""
    rot, _ = np.linalg.qr(rng.standard_normal((n, dim, dim)))
    stretch = 10.0 ** rng.uniform(0.0, 3.0, (n, 1, dim))
    stretch[..., 0] = 1.0
    shear = np.eye(dim) + np.triu(rng.uniform(-1.0, 1.0, (n, dim, dim)), 1)
    amap = rot @ (shear * stretch)
    amap[np.linalg.det(amap) < 0.0, :, 0] *= -1.0
    corners = np.concatenate([np.zeros((1, dim)), np.eye(dim)])
    x = corners @ np.swapaxes(amap, 1, 2) + rng.uniform(-5.0, 5.0, (n, 1, dim))
    return Mesh(dim=dim, nodes=x.reshape(-1, dim), elements=np.arange(n * (dim + 1)).reshape(n, dim + 1))


class TestKernels:
    @pytest.mark.parametrize("name,scale", [("sent", 0.1), ("bend3d", 0.1)])
    def test_arrays_match_strided_reference(self, name, scale):
        # same bits and the same memory layout: einsum's summation order
        # follows the layout, so a b_u with other strides changes results
        mesh = load_preset(name, scale).mesh
        kern = build_kernels(mesh)
        for field, want in strided_kernels(mesh).items():
            got = getattr(kern, field)
            assert (got.dtype, got.shape, got.strides) == (want.dtype, want.shape, want.strides), field
            assert got.tobytes() == want.tobytes(), field
        assert kern.b_u.flags.c_contiguous

    def test_3d_arrays_match_np_cross_adjugate(self, rng):
        # the nine cofactors are np.cross's products, bit for bit, on a
        # random tetrahedral mesh: every node of the 5x5x5 grid but the
        # boundary's moved by up to 0.2 of a cell
        mesh = box_mesh([1.0, 1.0, 1.0], [5, 5, 5])
        inner = np.all((mesh.nodes > 0.0) & (mesh.nodes < 1.0), axis=1)
        mesh.nodes[inner] += rng.uniform(-0.04, 0.04, (np.count_nonzero(inner), 3))
        x = mesh.nodes[mesh.elements]
        edges = x[:, 1:] - x[:, :1]
        adj = np.cross(edges[:, [1, 2, 0]], edges[:, [2, 0, 1]])
        terms = edges[:, 0] * adj[:, 0]
        detj = terms[:, 0] + terms[:, 1] + terms[:, 2]
        grads = np.empty((mesh.n_elements, 4, 3))
        grads[:, 1:] = adj / detj[:, None, None]
        grads[:, 0] = -grads[:, 1] - grads[:, 2] - grads[:, 3]
        kern = build_kernels(mesh)
        assert np.array_equal(kern.b_beta, np.swapaxes(grads, 1, 2))
        assert np.array_equal(kern.b_u, strided_b_u(grads))
        assert np.array_equal(kern.wj, TET_RULE.weights[None, :] * detj[:, None])
        assert np.array_equal(kern.measures, kern.wj.sum(axis=1))

    @pytest.mark.parametrize("name,scale", [("sent", 0.1), ("sens", 0.05), ("lshape", 0.5), ("bend3d", 0.1)])
    def test_gradients_match_lapack_inverse_on_presets(self, name, scale):
        # the closed-form inverse against LAPACK's, within 1e-13 of each
        # element's largest gradient entry
        mesh = load_preset(name, scale).mesh
        want, _ = lapack_gradients(mesh)
        err = np.abs(build_kernels(mesh).b_beta - want).max(axis=(1, 2))
        assert (err <= 1e-13 * np.abs(want).max(axis=(1, 2))).all()

    @pytest.mark.parametrize("dim", [2, 3])
    def test_gradients_match_lapack_inverse_on_stretched_simplices(self, dim, rng):
        # both inverses lose digits with the Jacobian's condition number
        mesh = stretched_simplices(rng, dim, 500)
        want, jac = lapack_gradients(mesh)
        err = np.abs(build_kernels(mesh).b_beta - want).max(axis=(1, 2))
        cond = np.linalg.cond(jac)
        assert cond.max() > 100.0
        assert (err <= 8.0 * np.finfo(float).eps * cond * np.abs(want).max(axis=(1, 2))).all()

    def test_quadrature_weights_sum_to_reference_measure(self):
        assert TRI_RULE.weights.sum() == pytest.approx(0.5, rel=1e-15)
        assert TET_RULE.weights.sum() == pytest.approx(1.0 / 6.0, rel=1e-14)

    def test_partition_of_unity(self):
        for rule in (TRI_RULE, TET_RULE):
            assert np.allclose(rule.points.sum(axis=1), 1.0)

    def test_wj_sums_to_element_measure(self):
        mesh = box_mesh([2.0, 1.0], [3, 2])
        k = build_kernels(mesh)
        assert np.allclose(k.wj.sum(axis=1), element_measures(mesh))

    @pytest.mark.parametrize("dim", [2, 3])
    def test_inverted_or_flat_element_refused(self, dim):
        # the orientation is checked once, where the Jacobian is computed;
        # the error names the first bad element and its determinant
        mesh = box_mesh([1.0] * dim, [1] * dim)
        inverted = mesh.elements.copy()
        inverted[1, -2:] = inverted[1, -2:][::-1]
        with pytest.raises(MeshError, match="element 1 is inverted or flat: Jacobian determinant -"):
            build_kernels(Mesh(dim=dim, nodes=mesh.nodes, elements=inverted))
        flat = mesh.elements.copy()
        flat[0, -1] = flat[0, -2]  # two equal corners: zero measure
        with pytest.raises(MeshError, match="element 0 is inverted or flat: Jacobian determinant -?0.0$"):
            build_kernels(Mesh(dim=dim, nodes=mesh.nodes, elements=flat))

    def test_translation_invariance(self):
        mesh = box_mesh([1.0, 1.0], [1, 1])
        k0 = build_kernels(mesh)
        mesh.nodes = mesh.nodes + np.array([3.7, -1.2])
        k1 = build_kernels(mesh)
        assert np.array_equal(k0.b_u, k1.b_u)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_patch_constant_strain(self, rng, dim):
        # affine displacement u = M x reproduces sym(M) exactly
        mesh = box_mesh([1.0] * dim, [2] * dim)
        kern = build_kernels(mesh)
        m = 1e-3 * rng.normal(size=(dim, dim))
        disp = (mesh.nodes @ m.T).reshape(-1)
        eps = strain_tensor_from_voigt(strain_voigt(kern, disp), dim)
        expect = 0.5 * (m + m.T)
        assert np.abs(eps - expect).max() < 1e-15

    def test_rigid_translation_annihilated(self):
        mesh = box_mesh([1.0, 1.0], [2, 2])
        kern = build_kernels(mesh)
        disp = np.tile([0.3, -0.7], mesh.n_nodes)
        assert np.abs(strain_voigt(kern, disp)).max() < 1e-15


class TestResidualU:
    def test_zero_state(self, two_elem, sent_params):
        mesh, kern, dm = two_elem
        z = np.zeros(2 * mesh.n_nodes)
        r = displacement_system(z, z, np.ones(mesh.n_nodes) * 0.3, kern, sent_params, dm)[0]
        assert np.all(r == 0.0)

    def test_undamaged_compressive_is_linear(self, sent_params):
        # beta = 0 and compressive strains: residual equals the independently
        # assembled elastic stiffness times the displacement
        mesh = box_mesh([1.0, 1.0], [2, 2])
        kern = build_kernels(mesh)
        dm = constrained_dofmap(mesh)
        k_el = dense_elastic_stiffness(mesh, kern, sent_params)
        u_d = np.zeros(2 * mesh.n_nodes)
        u_d[1::2] = -1e-3 * mesh.nodes[:, 1]  # uniform compression
        u = np.zeros_like(u_d)
        a = np.zeros(mesh.n_nodes)
        r = displacement_system(u, u_d, a, kern, sent_params, dm)[0]
        assert np.allclose(r, k_el @ u_d, rtol=1e-12, atol=1e-12)

    def test_fd_gradient_of_erg(self, two_elem, sent_params, rng):
        mesh, kern, dm = two_elem
        for _ in range(5):
            u, a, _ = random_state(mesh, rng)
            u_d = 1e-4 * rng.normal(size=u.size)
            r = displacement_system(u, u_d, a, kern, sent_params, dm)[0]
            h = 1e-7
            fd = np.zeros_like(r)
            for i in range(u.size):
                up, um = u.copy(), u.copy()
                up[i] += h
                um[i] -= h
                fd[i] = (bulk_energy(up, u_d, a, kern, sent_params) - bulk_energy(um, u_d, a, kern, sent_params)) / (2 * h)
            assert np.abs(r - fd).max() <= 1e-6 * np.abs(r).max()


class TestResidualBeta:
    def test_stationary_zero(self, two_elem, sent_params):
        mesh, kern, _ = two_elem
        z = np.zeros(2 * mesh.n_nodes)
        a = np.zeros(mesh.n_nodes)
        r = damage_system(z, z, a, a, kern, sent_params)[0]
        assert np.all(r == 0.0)

    def test_uniform_state_scalar_defect(self, sent_params):
        # uniform strain and damage: total residual equals volume times the
        # pointwise stationarity defect
        mesh = box_mesh([1.0, 1.0], [1, 1])
        kern = build_kernels(mesh)
        u_d = np.zeros(2 * mesh.n_nodes)
        u_d[1::2] = 2e-3 * mesh.nodes[:, 1]
        beta = 0.17
        a = np.full(mesh.n_nodes, beta)
        r = damage_system(np.zeros_like(u_d), u_d, a, np.zeros(mesh.n_nodes), kern, sent_params)[0]
        [psi_p], _ = psi_split(StrainSpectrum(np.array([[0.0], [2e-3], [0.0]])), sent_params)
        defect = -2 * (1 - beta) * psi_p + sent_params.gc / sent_params.ell * beta
        assert r.sum() == pytest.approx(element_measures(mesh).sum() * defect, rel=1e-12)

    def test_penalty_active_exactly_where_negative(self, two_elem, sent_params, rng):
        mesh, kern, _ = two_elem
        u, a, a_n = random_state(mesh, rng)
        a = a_n - 0.1  # uniformly violating
        u_d = np.zeros_like(u)
        r_pen = damage_system(u, u_d, a, a_n, kern, sent_params)[0]
        p_free = type(sent_params)(
            lam=sent_params.lam, mu=sent_params.mu, gc=sent_params.gc,
            ell=sent_params.ell, k=sent_params.k, eps_pen=1e30,
        )
        r_nopen = damage_system(u, u_d, a, a_n, kern, p_free)[0]
        gap_qp = (a - a_n)[kern.elements] @ kern.shape_qp.T
        pen_e = np.einsum("eq,qi->ei", kern.wj * np.minimum(gap_qp, 0.0), kern.shape_qp)
        expect = np.zeros(mesh.n_nodes)
        np.add.at(expect, kern.elements.ravel(), pen_e.ravel())
        assert np.allclose(r_pen - r_nopen, expect / sent_params.eps_pen, rtol=1e-10, atol=1e-18)

    @pytest.mark.parametrize("dissipation", ["AT2", "AT1"])
    def test_fd_gradient_of_functional(self, two_elem, sent_params, rng, dissipation):
        mesh, kern, _ = two_elem
        p = with_dissipation(sent_params, dissipation)

        def func(u, u_d, a, a_n):
            return (
                bulk_energy(u, u_d, a, kern, p)
                + grad_term(a, kern, p)
                + dis(a, kern, p)
                - dis(a_n, kern, p)
                + penalty_energy(a, a_n, kern, p)
            )

        for _ in range(5):
            u, a, a_n = random_state(mesh, rng)
            u_d = np.zeros_like(u)
            gap_qp = (a - a_n)[kern.elements] @ kern.shape_qp.T
            if np.abs(gap_qp).min() <= 1e-6:  # keep away from the penalty kink
                a = a + 2e-6
            r = damage_system(u, u_d, a, a_n, kern, p)[0]
            h = 1e-7
            fd = np.zeros_like(r)
            for i in range(a.size):
                ap, am = a.copy(), a.copy()
                ap[i] += h
                am[i] -= h
                fd[i] = (func(u, u_d, ap, a_n) - func(u, u_d, am, a_n)) / (2 * h)
            assert np.abs(r - fd).max() <= 1e-6 * np.abs(r).max()


class TestTangents:
    def test_tangent_u_elastic_limit(self, sent_params):
        mesh = box_mesh([1.0, 1.0], [2, 2])
        kern = build_kernels(mesh)
        dm = constrained_dofmap(mesh)
        u_d = np.zeros(2 * mesh.n_nodes)
        u_d[1::2] = -1e-3 * mesh.nodes[:, 1]
        k = displacement_system(np.zeros_like(u_d), u_d, np.zeros(mesh.n_nodes), kern, sent_params, dm)[1]
        k_el = dense_elastic_stiffness(mesh, kern, sent_params)
        assert np.allclose(dense(k), k_el, rtol=1e-12)

    def test_tangent_u_fd(self, two_elem, sent_params, rng):
        mesh, kern, dm = two_elem
        u, a, _ = random_state(mesh, rng)
        u_d = np.zeros_like(u)
        k = dense(displacement_system(u, u_d, a, kern, sent_params, dm)[1])
        h = 1e-7
        fd = np.zeros_like(k)
        for i in range(u.size):
            up, um = u.copy(), u.copy()
            up[i] += h
            um[i] -= h
            fd[:, i] = (
                displacement_system(up, u_d, a, kern, sent_params, dm)[0]
                - displacement_system(um, u_d, a, kern, sent_params, dm)[0]
            ) / (2 * h)
        assert np.abs(k - fd).max() <= 1e-4 * np.abs(k).max()

    def test_tangent_u_spd_and_rigid_modes(self, sent_params):
        mesh = box_mesh([1.0, 1.0], [2, 2])
        kern = build_kernels(mesh)
        dm_free = constrained_dofmap(mesh)
        u, a = np.zeros(2 * mesh.n_nodes), np.full(mesh.n_nodes, 0.4)
        k = displacement_system(u, u, a, kern, sent_params, dm_free)[1]
        for c in range(2):
            v = np.zeros(2 * mesh.n_nodes)
            v[c::2] = 1.0
            assert np.abs(k @ v).max() < 1e-9  # translations before constraints
        bottom = mesh.node_sets["ymin"]
        dm = constrained_dofmap(mesh, [(bottom, 0), (bottom, 1)])
        k_c = displacement_system(u, u, a, kern, sent_params, dm)[1]
        spla.splu(sp.csc_matrix(dense(k_c)))  # factorization succeeds -> SPD at desk scale

    @pytest.mark.parametrize("dissipation", ["AT2", "AT1"])
    def test_tangent_beta_fd(self, two_elem, sent_params, rng, dissipation):
        mesh, kern, _ = two_elem
        p = with_dissipation(sent_params, dissipation)
        u, a, a_n = random_state(mesh, rng)
        u_d = np.zeros_like(u)
        gap_qp = (a - a_n)[kern.elements] @ kern.shape_qp.T
        if np.abs(gap_qp).min() <= 1e-6:
            a = a + 2e-6
        k = dense(damage_system(u, u_d, a, a_n, kern, p)[1])
        h = 1e-7
        fd = np.zeros_like(k)
        for i in range(a.size):
            ap, am = a.copy(), a.copy()
            ap[i] += h
            am[i] -= h
            fd[:, i] = (
                damage_system(u, u_d, ap, a_n, kern, p)[0] - damage_system(u, u_d, am, a_n, kern, p)[0]
            ) / (2 * h)
        assert np.abs(k - fd).max() <= 1e-4 * np.abs(k).max()

    def test_tangent_beta_all_penalty_active(self, two_elem, sent_params):
        mesh, kern, _ = two_elem
        z = np.zeros(2 * mesh.n_nodes)
        a_n = np.full(mesh.n_nodes, 0.5)
        a = np.full(mesh.n_nodes, 0.2)  # gap negative everywhere
        k_act = dense(damage_system(z, z, a, a_n, kern, sent_params)[1])
        k_off = dense(damage_system(z, z, a, a, kern, sent_params)[1])
        mass = np.einsum("eq,qi,qj->eij", kern.wj, kern.shape_qp, kern.shape_qp)
        m = np.zeros((mesh.n_nodes, mesh.n_nodes))
        for e in range(mesh.n_elements):
            for i, gi in enumerate(kern.elements[e]):
                for j, gj in enumerate(kern.elements[e]):
                    m[gi, gj] += mass[e, i, j]
        assert np.allclose(k_act - k_off, m / sent_params.eps_pen, rtol=1e-12)

    def test_pattern_assembly_matches_coo_reference(self, sent_params, rng):
        # cached-pattern assembly against COO->CSR built here, per DofMap:
        # the stored entries are the reference's upper entries
        mesh = box_mesh([1.0, 1.0], [3, 3])
        kern = build_kernels(mesh)
        p = sent_params
        u, a, a_n = random_state(mesh, rng)
        u_d = 1e-4 * rng.normal(size=u.size)

        spec = StrainSpectrum(strain_voigt(kern, u + u_d).T)
        cp, cm = tangent_split(spec, principal_stresses(spec.modes, p), p)
        rw = np.einsum("eq,eq->e", kern.wj, degradation(beta_at_qp(kern, a), p)[0])
        c_e = rw[:, None, None] * cp + kern.measures[:, None, None] * cm
        k_e = np.einsum("evi,evw,ewj->eij", kern.b_u, c_e, kern.b_u)
        rows = np.repeat(kern.udofs, 6, axis=1).ravel()
        cols = np.tile(kern.udofs, (1, 6)).ravel()
        full = sp.coo_matrix((k_e.ravel(), (rows, cols)), shape=(u.size, u.size)).tocsr()

        def check(dm):
            k = displacement_system(u, u_d, a, kern, p, dm)[1]
            ref = full[dm.free][:, dm.free].toarray()
            assert np.abs(dense(k) - ref).max() <= 1e-14 * np.abs(ref).max()
            return k

        bottom = mesh.node_sets["ymin"]
        dm_a = constrained_dofmap(mesh, [(bottom, 0), (bottom, 1)])
        dm_b = constrained_dofmap(mesh, [(bottom, 0), (bottom, 1)])
        dm_c = constrained_dofmap(mesh, [(bottom, 1)])
        k1, k2 = check(dm_a), check(dm_a)
        # reused across calls: both matrices are stored under the one cached
        # pattern's ordering
        pat = u_pattern(kern, dm_a)
        assert k1.ordering is pat.ordering and k2.ordering is pat.ordering
        # one kept pattern: an equal but distinct DofMap, and a different
        # one, each get a pattern of their own, which replaces the kept one
        check(dm_b)
        pat_b = u_pattern(kern, dm_b)
        assert pat_b is not pat and kern.displacement[0] is dm_b and kern.displacement[1] is pat_b
        check(dm_c)
        pat_c = u_pattern(kern, dm_c)
        assert pat_c.ordering.n == np.count_nonzero(dm_c.free) != pat.ordering.n
        assert kern.displacement[0] is dm_c and u_pattern(kern, dm_c) is pat_c
        assert u_pattern(kern, dm_a) is not pat and kern.displacement[0] is dm_a

        psi_p, _ = psi_split(spec, p)
        gap_qp = (a - a_n)[kern.elements] @ kern.shape_qp.T
        coeff = 2.0 * psi_p[:, None] + (gap_qp < 0.0) / p.eps_pen + p.gc / p.ell
        bb = np.einsum("edi,edj->eij", kern.b_beta, kern.b_beta)
        kb_e = np.einsum("eq,qi,qj->eij", kern.wj * coeff, kern.shape_qp, kern.shape_qp)
        kb_e += p.gc * p.ell * kern.measures[:, None, None] * bb
        rows = np.repeat(kern.elements, 3, axis=1).ravel()
        cols = np.tile(kern.elements, (1, 3)).ravel()
        ref_b = sp.coo_matrix((kb_e.ravel(), (rows, cols)), shape=(a.size, a.size)).toarray()
        kb1 = damage_system(u, u_d, a, a_n, kern, p)[1]
        kb2 = damage_system(u, u_d, a, a_n, kern, p)[1]
        assert np.abs(dense(kb1) - ref_b).max() <= 1e-14 * np.abs(ref_b).max()
        assert damage_blocks(kern) is kern.damage
        assert kb1.ordering is kb2.ordering is kern.damage.pattern.ordering


class TestDeterminismAndReaction:
    def test_bitwise_deterministic_assembly(self, two_elem, sent_params, rng):
        mesh, kern, dm = two_elem
        u, a, a_n = random_state(mesh, rng)
        u_d = 1e-4 * rng.normal(size=u.size)
        r1, k1 = displacement_system(u, u_d, a, kern, sent_params, dm)
        r2, k2 = displacement_system(u, u_d, a, kern, sent_params, dm)
        assert np.array_equal(r1, r2)
        assert np.array_equal(k1.values, k2.values)
        b1, kb1 = damage_system(u, u_d, a, a_n, kern, sent_params)
        b2, kb2 = damage_system(u, u_d, a, a_n, kern, sent_params)
        assert np.array_equal(b1, b2)
        assert np.array_equal(kb1.values, kb2.values)

    def test_reaction_zero_state(self, sent_params):
        mesh = box_mesh([1.0, 1.0], [2, 2])
        kern = build_kernels(mesh)
        spec = strain_spectrum(kern, np.zeros(2 * mesh.n_nodes))
        rw = degradation_weights(kern, np.zeros(mesh.n_nodes), sent_params)
        load = build_dofmap(mesh, LoadProgram(n_steps=1, dw=1e-4, bcs=(DirichletSpec("ymax", 1, 1.0),))).load
        reaction = reaction_force(spec, rw, kern, sent_params, load)
        assert reaction == 0.0 and not np.signbit(reaction)

    def test_reaction_unknown_tag(self):
        # the reaction's load vector comes from the program's specs, and a
        # spec naming a set the mesh lacks is an error
        mesh = box_mesh([1.0, 1.0], [1, 1])
        with pytest.raises(KeyError):
            build_dofmap(mesh, LoadProgram(n_steps=1, dw=1e-4, bcs=(DirichletSpec("nope", 1, 1.0),)))

    @pytest.mark.parametrize("dim", [2, 3])
    def test_reaction_is_conjugate_to_w(self, sent_params, rng, dim):
        # the reaction is d erg/dw at fixed free displacement and damage,
        # for loads at scales other than 1 on two components, one of them
        # partly overwritten by a later spec; central differences on a
        # damaged state whose split stays on one side of every kink
        mesh = box_mesh([1.0] * dim, [2] * dim)
        bcs = [DirichletSpec("xmin", 0, 0.0), DirichletSpec("ymin", 1, 0.0)]
        bcs += [DirichletSpec("xmax", 0, 1.5), DirichletSpec("ymax", 1, -0.7), DirichletSpec("ymax", 0, 0.4)]
        if dim == 3:
            bcs.append(DirichletSpec("zmin", 2, 0.0))
        prog = LoadProgram(n_steps=1, dw=1e-3, bcs=tuple(bcs))
        kern = build_kernels(mesh)
        dm = build_dofmap(mesh, prog)
        load, free = dm.load, dm.free
        u = np.zeros(load.size)
        u[free] = 2e-4 * rng.normal(size=np.count_nonzero(free))
        a = rng.uniform(0.1, 0.6, mesh.n_nodes)
        w, h = 1e-3, 1e-6

        def kink_sides(at):
            modes = strain_spectrum(kern, u + at * load).modes
            return np.sign(modes).tolist(), np.sign(modes.sum(axis=0)).tolist()

        assert kink_sides(w - h) == kink_sides(w + h)
        assert 0.0 not in np.ravel(kink_sides(w)[0])
        spec = strain_spectrum(kern, u + w * load)
        reaction = reaction_force(spec, degradation_weights(kern, a, sent_params), kern, sent_params, load)
        up = bulk_energy(u, (w + h) * load, a, kern, sent_params)
        fd = (up - bulk_energy(u, (w - h) * load, a, kern, sent_params)) / (2 * h)
        assert abs(reaction) > 1.0
        assert reaction == pytest.approx(fd, rel=1e-8)

    def test_equal_and_opposite_reactions(self, sent_params, rng):
        mesh = box_mesh([1.0, 1.0], [3, 3])
        kern = build_kernels(mesh)
        u = 1e-4 * rng.normal(size=2 * mesh.n_nodes)
        a = rng.uniform(0, 0.5, mesh.n_nodes)
        # full residual sums to zero elementwise for translations, so the
        # directional sums over complementary sets cancel up to interior
        # residual noise (zero here since u is arbitrary: use raw force sums)
        f = internal_force(u, np.zeros_like(u), a, kern, sent_params)
        total = f[1::2].sum()
        assert abs(total) <= 1e-8 * np.abs(f).max()


@pytest.fixture(scope="module")
def sent_tangent():
    """Kernels, dof map and displacement system of sent@0.1 at step 1."""
    setup = load_preset("sent", 0.1)
    kern = build_kernels(setup.mesh)
    dm = build_dofmap(setup.mesh, setup.program)
    u_d = setup.program.w(1) * dm.load
    z = np.zeros(u_d.size)
    r, k = displacement_system(z, u_d, np.zeros(setup.mesh.n_nodes), kern, setup.params, dm)
    return kern, dm, r, k


class TestBandOrdering:
    def test_sent_bandwidth(self, sent_tangent):
        kern, dm, _, k = sent_tangent
        o = u_pattern(kern, dm).ordering
        assert np.abs(o.rows - o.cols).max() == 471  # natural dof order
        assert o.bandwidth <= 32

    def test_factor_solve_bitwise_repeatable(self, sent_tangent):
        kern, dm, r, k = sent_tangent
        pat = u_pattern(kern, dm)
        x = factor_solve(k, -r)
        assert np.array_equal(x, factor_solve(k, -r))
        indptr, indices, _ = element_dofs_pattern(kern.udofs, dm.free)
        fresh = BandOrdering.from_structure(indptr, indices, pat.ordering.perm)
        assert np.array_equal(x, factor_solve(stored(dense(k), fresh), -r.copy()))
        assert np.linalg.norm(k @ x + r) <= 1e-10 * np.linalg.norm(r)

    def test_one_ordering_per_pattern(self, monkeypatch):
        # every Newton solve's matrix is stored under its pattern's
        # ordering, built once, also on damage tangents with pinned dofs
        # eliminated
        p = MaterialParams(
            lam=121153.8, mu=80769.2, gc=2.7, ell=0.0175, dissipation="AT1", kappa=1.0, eps_pen=1e-6
        )
        mesh = box_mesh([1.0, 1.0], [2, 2])
        ymin, ymax = mesh.node_sets["ymin"], mesh.node_sets["ymax"]
        dm = constrained_dofmap(mesh, [(ymin, 0), (ymin, 1), (ymax, 1)])
        kern = build_kernels(mesh)
        solves, eliminated = [], []
        real_solve, real_eliminate = solver.factor_solve, solver.eliminate

        def spy_solve(a, b):
            solves.append(a.ordering)
            return real_solve(a, b)

        def spy_eliminate(mat, pinned):
            eliminated.append(int(pinned.sum()))
            real_eliminate(mat, pinned)

        monkeypatch.setattr(solver, "factor_solve", spy_solve)
        monkeypatch.setattr(solver, "eliminate", spy_eliminate)
        # only the upper half is stretched: its damage reaches 1 while the
        # lower half stays below the AT1 threshold, pinned at 0
        u_d = np.zeros(2 * mesh.n_nodes)
        u_d[1::2] = 0.1 * np.maximum(mesh.nodes[:, 1] - 0.5, 0.0)
        z = np.zeros(mesh.n_nodes)
        cfg = solver.SolverConfig()
        stretch = strain_spectrum(kern, u_d)
        state = (stretch, *psi_split(stretch, p))
        rw = degradation_weights(kern, z, p)
        u = solver.newton_u(np.zeros_like(u_d), u_d, rw, kern, p, cfg, dm, state)[0]
        n_u = len(solves)
        a = solver.newton_beta(z, z, dis(z, kern, p), kern, p, cfg, *state[1:])[0]
        assert a.max() == 1.0 and a.min() == 0.0
        assert n_u >= 1 and len(solves) > n_u and any(eliminated)

        pat_u, pat_b = u_pattern(kern, dm), damage_blocks(kern).pattern
        for pat, calls in ((pat_u, solves[:n_u]), (pat_b, solves[n_u:])):
            assert all(ordering is pat.ordering for ordering in calls)
        again = strain_spectrum(kern, u + 1.1 * u_d)
        solver.newton_u(u, 1.1 * u_d, rw, kern, p, cfg, dm, (again, *psi_split(again, p)))
        assert u_pattern(kern, dm) is pat_u and solves[-1] is pat_u.ordering


PATTERN_PRESETS = [
    ("sent", 0.05), ("sent", 0.1), ("sens", 0.02), ("sens", 0.05),
    ("lshape", 0.15), ("lshape", 0.2), ("bend3d", 0.1), ("bend3d", 0.15),
]


@pytest.fixture(scope="module", params=PATTERN_PRESETS, ids=lambda c: f"{c[0]}@{c[1]}")
def preset_pattern(request):
    """Kernels, dof map and displacement pattern of a preset."""
    setup = load_preset(*request.param)
    kern = build_kernels(setup.mesh)
    dm = build_dofmap(setup.mesh, setup.program)
    return kern, dm, u_pattern(kern, dm)


def assert_oracle_pattern(pat, edofs, free):
    """The pattern's ordering is bitwise the one its own perm gives the
    structure sorted out of every element entry over the dofs ``free``,
    and each element entry's slot is the stored entry at its CSC position
    (one past the stored entries below the reordered diagonal or off the
    free dofs), in the index dtype of the stored entries."""
    indptr, indices, slot = element_dofs_pattern(edofs, free)
    want = BandOrdering.from_structure(indptr, indices, pat.ordering.perm)
    assert pat.ordering.n == np.count_nonzero(free) and pat.ordering.bandwidth == want.bandwidth
    for name in ("perm", "inv", "rows", "cols", "col_starts", "diagonal", "slot"):
        got, ref = getattr(pat.ordering, name), getattr(want, name)
        assert got.dtype == ref.dtype and np.array_equal(got, ref), name
    index = want.stored_index(indptr, indices)
    assert pat.slot.dtype == index.dtype and np.array_equal(pat.slot, index[slot])


def assert_oracle_patterns(kern, dm):
    """``assert_oracle_pattern`` on the displacement pattern of ``dm`` and
    on the damage pattern, one dof per node."""
    assert_oracle_pattern(u_pattern(kern, dm), kern.udofs, dm.free)
    n_nodes = kern.mesh.n_nodes
    assert_oracle_pattern(damage_blocks(kern).pattern, kern.elements, np.ones(n_nodes, dtype=bool))


class TestUPattern:
    def test_preset_matches_element_dof_oracle(self, preset_pattern):
        kern, dm, _ = preset_pattern
        assert_oracle_patterns(kern, dm)

    def test_random_partial_dofmaps(self, rng):
        # grids with cells cut away, components fixed at random, nodes with
        # every or no component fixed, no dof fixed, and one free dof
        for trial in range(12):
            dim = 2 + trial % 2
            axes = [np.cumsum(rng.uniform(0.1, 1.0, rng.integers(2, 6))) for _ in range(dim)]
            mid = np.array([0.5 * (a[0] + a[-1]) for a in axes])
            mesh = generate_grid(axes, keep=lambda c: (c - mid) @ rng.normal(size=dim) <= 0.3)
            kern = build_kernels(mesh)
            fixed = rng.random((mesh.n_nodes, dim)) < [0.0, 0.3, 0.7, 0.95][trial % 4]
            fixed[rng.random(mesh.n_nodes) < 0.2] = True
            if trial == 11:
                fixed[:] = True
            fixed[-1, 0] = False
            dm = constrained_dofmap(
                mesh, [(np.flatnonzero(fixed[:, c]), c) for c in range(dim)]
            )
            assert_oracle_patterns(kern, dm)

    def test_band_never_wider_than_scipy_rcm(self, preset_pattern):
        kern, dm, pat = preset_pattern
        indptr, indices, _ = element_dofs_pattern(kern.udofs, dm.free)
        scipy_rcm = BandOrdering.narrowest(indptr, indices, [])
        assert pat.ordering.bandwidth <= scipy_rcm.bandwidth
        if pat.ordering.bandwidth == scipy_rcm.bandwidth:  # a tie keeps scipy's
            assert np.array_equal(pat.ordering.perm, scipy_rcm.perm)
        # the damage pattern has no candidate: it takes scipy's
        n_nodes = kern.mesh.n_nodes
        indptr, indices, _ = element_dofs_pattern(kern.elements, np.ones(n_nodes, dtype=bool))
        assert np.array_equal(damage_blocks(kern).pattern.ordering.perm, BandOrdering.narrowest(indptr, indices, []).perm)

    def test_bend3d_band(self):
        setup = load_preset("bend3d", 0.2)
        kern = build_kernels(setup.mesh)
        pat = u_pattern(kern, build_dofmap(setup.mesh, setup.program))
        # scipy's dof-level RCM gives 557 here
        assert pat.ordering.bandwidth <= 380

    def test_build_peak_memory(self):
        # the element-entry-sized arrays of the build are the slot array it
        # returns; sorting all element entries peaks at about 8x that, and
        # building both candidate band orderings in full, with scipy's RCM
        # run on a symmetrised copy of the graph, at 3.2x; comparing the
        # bandwidths first and building one ordering stays at 2.9x; the one
        # builder on the node graph, which it builds first, peaks at 1.7x
        setup = load_preset("bend3d", 0.1)
        kern = build_kernels(setup.mesh)
        dm = build_dofmap(setup.mesh, setup.program)
        tracemalloc.start()
        try:
            pat = u_pattern(kern, dm)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the bound is stated in bytes of an intp slot array, whatever the
        # slot dtype
        assert peak <= 3 * 8 * pat.slot.size


@pytest.fixture(scope="module")
def bend3d_state():
    """Kernels, dof map, pattern and a step-1 state of bend3d@0.1 with
    damage, its spectrum's directions built."""
    setup = load_preset("bend3d", 0.1)
    kern = build_kernels(setup.mesh)
    dm = build_dofmap(setup.mesh, setup.program)
    rng = np.random.default_rng(7)
    u_d = setup.program.w(1) * dm.load
    spec = strain_spectrum(kern, 1e-3 * rng.normal(size=u_d.size) + u_d)
    spec.directions
    rw = degradation_weights(kern, rng.uniform(0.0, 0.9, setup.mesh.n_nodes), setup.params)
    return kern, dm, u_pattern(kern, dm), spec, rw, setup.params


def block_bytes(n, edofs):
    """A ``_BLOCK_BYTES`` whose blocks of ``edofs`` hold n elements."""
    return math.ceil(n * 8 * fem._ENTRY_DOUBLES * edofs.shape[1] ** 2)


class TestBlockAssembly:

    def test_blocks_match_one_block_bitwise(self, bend3d_state, monkeypatch):
        kern, dm, pat, spec, rw, p = bend3d_state
        n_e = kern.elements.shape[0]
        monkeypatch.setattr(fem, "_BLOCK_BYTES", block_bytes(n_e, kern.udofs))
        r1, k1 = fem.residual_and_tangent_u(spec, rw, kern, p, dm)
        # the whole-mesh element forces B^T sigma and matrices B^T (C B),
        # each summed by bincount, in element order
        f = principal_stresses(spec.modes, p)
        sig_p, sig_m = sigma_split(spec, f, p)
        f_e = np.einsum("evd,ev->ed", kern.b_u, rw[:, None] * sig_p + kern.measures[:, None] * sig_m)
        force = np.bincount(kern.udofs.ravel(), weights=f_e.ravel(), minlength=dm.free.size)
        assert r1.tobytes() == force[dm.free].tobytes()
        cp, cm = tangent_split(spec, f, p)
        c_e = rw[:, None, None] * cp + kern.measures[:, None, None] * cm
        k_e = np.swapaxes(kern.b_u, 1, 2) @ (c_e @ kern.b_u)
        data = np.bincount(pat.slot, weights=k_e.ravel(), minlength=pat.ordering.rows.size + 1)[:-1]
        assert np.array_equal(k1.values, data)
        for size in (1000, 7):
            assert n_e % size  # a last, shorter block
            monkeypatch.setattr(fem, "_BLOCK_BYTES", block_bytes(size, kern.udofs))
            r, k = fem.residual_and_tangent_u(spec, rw, kern, p, dm)
            assert np.array_equal(r, r1)
            assert np.array_equal(k.values, k1.values)
            assert k.ordering is pat.ordering

    def test_split_kernels_see_one_block(self, bend3d_state, monkeypatch):
        # the principal stresses, split stresses and split tangents are
        # formed block by block: no call sees the whole mesh's strains
        kern, dm, pat, spec, rw, p = bend3d_state
        monkeypatch.setattr(fem, "_BLOCK_BYTES", block_bytes(300, kern.udofs))
        seen = []

        def spy(name):
            real = getattr(fem, name)

            def call(x, *args):  # the principal strains (d, N) or a spectrum
                seen.append((name, x.shape[1] if isinstance(x, np.ndarray) else x.shape[0]))
                return real(x, *args)

            return call

        names = ("principal_stresses", "sigma_split", "tangent_split")
        for name in names:
            monkeypatch.setattr(fem, name, spy(name))
        fem.residual_and_tangent_u(spec, rw, kern, p, dm)
        blocks = fem._element_blocks(kern.udofs)
        assert len(blocks) > 10
        assert {name for name, _ in seen} == set(names)
        assert [n for name, n in seen if name == "tangent_split"] == [e.stop - e.start for e in blocks]
        assert max(n for _, n in seen) == max(e.stop - e.start for e in blocks)

    def test_peak_memory_is_one_block(self, bend3d_state, monkeypatch):
        # with small blocks, one call holds the stored values, the element
        # forces and one block's temporaries (about 1.0 MB here); holding a
        # block's element matrices through the next block adds about 0.1 MB,
        # and whole-mesh element matrices would peak at about 12x the values
        kern, dm, pat, spec, rw, p = bend3d_state
        monkeypatch.setattr(fem, "_BLOCK_BYTES", 2**18)
        tracemalloc.start()
        try:
            fem.residual_and_tangent_u(spec, rw, kern, p, dm)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * (pat.ordering.rows.size + kern.udofs.size) + 2**18 + 2**16

    def test_peak_memory_of_one_newton_system(self, bend3d_state, monkeypatch):
        # one tangent assembled and solved: the band and a few arrays of the
        # stored entries (the values, then the residual check's products);
        # no matrix on the full structure, and no second band
        kern, dm, pat, spec, rw, p = bend3d_state
        monkeypatch.setattr(fem, "_BLOCK_BYTES", 2**18)
        o = pat.ordering
        tracemalloc.start()
        try:
            r, k = fem.residual_and_tangent_u(spec, rw, kern, p, dm)
            factor_solve(k, -r)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        band = 8 * (o.bandwidth + 1) * o.n
        assert peak <= band + 4 * 8 * o.rows.size + 2**18


class TestDamageBlockAssembly:
    @pytest.fixture(scope="class")
    def damage_state(self, bend3d_state):
        """bend3d@0.1's kernels and parameters and a damage state with an
        anchor that it undercuts at some quadrature points."""
        kern, _, _, spec, _, p = bend3d_state
        rng = np.random.default_rng(11)
        a_n = rng.uniform(0.0, 0.5, kern.mesh.n_nodes)
        a = np.clip(a_n + rng.normal(0.0, 0.1, a_n.size), 0.0, 1.0)
        psi_p, _ = psi_split(spec, p)
        return kern, p, psi_p, a, fem.damage_fields(kern, a, a_n, p)

    @staticmethod
    def whole_mesh(kern, p, psi_p, a, fields):
        """The damage residual and stored tangent values from whole-mesh
        element vectors and matrices, each summed in element order."""
        blk = damage_blocks(kern)
        c, m = p.dissipation_law
        s_qp = fields.dr * psi_p[:, None] + (m * c) * fields.beta ** (m - 1) + np.minimum(fields.gap, 0.0) / p.eps_pen
        f_e = (kern.wj * s_qp) @ kern.shape_qp
        f_e += (2.0 * p.grad_coeff) * np.einsum("eij,ej->ei", blk.grad, a[kern.elements])
        coeff_qp = 2.0 * psi_p[:, None] + (fields.gap < 0.0) / p.eps_pen + (m * (m - 1)) * c
        k_e = (kern.wj * coeff_qp) @ blk.mass
        k_e += (2.0 * p.grad_coeff) * blk.grad.reshape(k_e.shape)
        slot, n = blk.pattern.slot, blk.pattern.ordering.rows.size
        r = np.bincount(kern.elements.ravel(), weights=f_e.ravel(), minlength=kern.mesh.n_nodes)
        return r, np.bincount(slot, weights=k_e.ravel(), minlength=n + 1)[:-1]

    def test_blocks_match_the_whole_mesh_bitwise(self, damage_state, monkeypatch):
        # one block, blocks with a shorter last one, and blocks whose last
        # one would hold a single element (it joins the one before: a
        # one-row product rounds otherwise) all give the whole-mesh sums
        kern, p, psi_p, a, fields = damage_state
        assert (fields.gap < 0.0).any()
        r0, k0 = self.whole_mesh(kern, p, psi_p, a, fields)
        n_e = kern.elements.shape[0]
        single = next(size for size in range(7, n_e) if n_e % size == 1)
        for size in (n_e, 1000, 7, single):
            monkeypatch.setattr(fem, "_BLOCK_BYTES", block_bytes(size, kern.elements))
            blocks = fem._element_blocks(kern.elements)
            assert blocks[0] == slice(0, size) and blocks[-1].stop == n_e
            assert all(e.stop - e.start > 1 for e in blocks)
            r, k = fem.residual_and_tangent_beta(psi_p, a, fields, kern, p)
            assert r.tobytes() == r0.tobytes()
            assert k.values.tobytes() == k0.tobytes()

    def test_peak_memory_is_one_block(self, damage_state, monkeypatch):
        # with small blocks, one call allocates the element vectors, the
        # stored values, the residual and one block's temporaries, not the
        # whole mesh's coefficients and element matrices
        kern, p, psi_p, a, fields = damage_state
        fem.residual_and_tangent_beta(psi_p, a, fields, kern, p)  # the pattern, built on first use
        monkeypatch.setattr(fem, "_BLOCK_BYTES", 2**16)
        tracemalloc.start()
        try:
            fem.residual_and_tangent_beta(psi_p, a, fields, kern, p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        stored = damage_blocks(kern).pattern.ordering.rows.size
        assert peak <= 8 * (kern.elements.size + 2 * stored + kern.mesh.n_nodes) + 2**16


@pytest.mark.parametrize("dim", [2, 3])
def test_spectrum_sizes_the_material_spans(rng, dim):
    # the benchmark's span tracer sizes each material.* span by the leading
    # dimension of the call's first argument: the strains of a state's
    # spectrum, or of one block of it
    tracing = load_tracing()
    mesh = box_mesh([1.0] * dim, [2] * dim)
    kern = build_kernels(mesh)
    spec = strain_spectrum(kern, 1e-3 * rng.normal(size=dim * mesh.n_nodes))
    assert tracing._rows((spec,)) == mesh.n_elements
    assert tracing._rows((spec.rows(3, 8),)) == 5
