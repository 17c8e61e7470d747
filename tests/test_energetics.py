import dataclasses

import numpy as np
import pytest

from conftest import box_mesh, random_state
from oracles import (
    damage_merit,
    evaluated_state,
    fresh_check,
    lower_bound,
    stored_energy,
    total_functional,
    upper_bound,
)
from pffrac import energetics
from pffrac.energetics import (
    check_two_sided,
    dis,
    erg,
    functional_from_psi,
    grad_term,
)
from pffrac.fem import build_kernels, damage_fields, degradation_weights, strain_spectrum
from pffrac.material import MaterialParams, StrainSpectrum, psi_split
from pffrac.mesh import Mesh


def dense_erg(u1, u2, a, mesh, kernels, p):
    """Per-element dense re-evaluation of the degraded bulk energy."""
    total = 0.0
    disp = (u1 + u2)[kernels.udofs]
    for e in range(mesh.n_elements):
        v = kernels.b_u[e] @ disp[e]
        [psi_p], [psi_m] = psi_split(StrainSpectrum(v[:, None]), p)
        for q in range(kernels.shape_qp.shape[0]):
            beta = kernels.shape_qp[q] @ a[kernels.elements[e]]
            r = (1 - beta) ** 2 + p.k
            total += kernels.wj[e, q] * (r * psi_p + psi_m)
    return total


@pytest.fixture
def patch(sent_params):
    mesh = box_mesh([1.0, 1.0], [2, 2])
    return mesh, build_kernels(mesh)


class TestErg:
    def test_zero(self, patch, sent_params):
        mesh, kern = patch
        z = np.zeros(2 * mesh.n_nodes)
        assert erg(z, z, degradation_weights(kern, np.zeros(mesh.n_nodes), sent_params), kern, sent_params) == 0.0

    def test_fully_damaged_tension_scales_with_k(self, patch, sent_params):
        mesh, kern = patch
        u_d = np.zeros(2 * mesh.n_nodes)
        u_d[1::2] = 1e-3 * mesh.nodes[:, 1]
        z = np.zeros_like(u_d)
        e1 = erg(z, u_d, degradation_weights(kern, np.ones(mesh.n_nodes), sent_params), kern, sent_params)
        e0 = erg(z, u_d, degradation_weights(kern, np.zeros(mesh.n_nodes), sent_params), kern, sent_params)
        # R(1) = k, R(0) = 1 + k, and the state is purely tensile
        assert e1 == pytest.approx(e0 * sent_params.k / (1 + sent_params.k), rel=1e-12)

    def test_dense_oracle(self, patch, sent_params, rng):
        mesh, kern = patch
        u, a, _ = random_state(mesh, rng)
        u2 = 1e-4 * rng.normal(size=u.size)
        got = erg(u, u2, degradation_weights(kern, a, sent_params), kern, sent_params)
        want = dense_erg(u, u2, a, mesh, kern, sent_params)
        assert got == pytest.approx(want, rel=1e-12)


class TestGradTerm:
    def test_uniform_zero(self, patch, sent_params):
        mesh, kern = patch
        assert grad_term(np.full(mesh.n_nodes, 0.8), kern, sent_params) == pytest.approx(0.0, abs=1e-18)

    def test_linear_field(self, patch, sent_params):
        mesh, kern = patch
        slope = 0.6
        a = slope * mesh.nodes[:, 0]
        expect = 0.5 * sent_params.gc * sent_params.ell * slope**2  # unit area
        assert grad_term(a, kern, sent_params) == pytest.approx(expect, rel=1e-12)

    def test_matrix_form_oracle(self, patch, sent_params, rng):
        mesh, kern = patch
        a = rng.uniform(0, 1, mesh.n_nodes)
        kmat = np.zeros((mesh.n_nodes, mesh.n_nodes))
        for e in range(mesh.n_elements):
            bb = kern.b_beta[e].T @ kern.b_beta[e] * kern.measures[e]
            for i, gi in enumerate(kern.elements[e]):
                for j, gj in enumerate(kern.elements[e]):
                    kmat[gi, gj] += bb[i, j]
        want = 0.5 * sent_params.gc * sent_params.ell * a @ kmat @ a
        assert grad_term(a, kern, sent_params) == pytest.approx(want, rel=1e-12)


class TestDissipation:
    def test_zero(self, patch, sent_params):
        mesh, kern = patch
        assert dis(np.zeros(mesh.n_nodes), kern, sent_params) == 0.0

    def test_uniform_unit_damage_value(self, patch, sent_params):
        mesh, kern = patch
        got = dis(np.ones(mesh.n_nodes), kern, sent_params)
        assert got == pytest.approx(2.7 / (2 * 0.0175), rel=1e-12)  # 77.142857...

    def test_at1_linear_form(self, patch):
        mesh, kern = patch
        p = MaterialParams(
            lam=1e3, mu=1e3, gc=0.5, ell=0.2, dissipation="AT1", kappa=0.3, eps_pen=1e-6
        )
        beta = 0.37
        got = dis(np.full(mesh.n_nodes, beta), kern, p)
        assert got == pytest.approx(p.kappa * p.gc * beta / p.ell, rel=1e-12)

    def test_increment(self, patch, sent_params, rng):
        mesh, kern = patch
        a_n = rng.uniform(0, 0.5, mesh.n_nodes)
        assert dis(a_n, kern, sent_params) - dis(a_n, kern, sent_params) == 0.0
        a = a_n + rng.uniform(0, 0.3, mesh.n_nodes)
        assert dis(a, kern, sent_params) - dis(a_n, kern, sent_params) >= 0.0
        full = dis(np.ones(mesh.n_nodes), kern, sent_params) - dis(np.zeros(mesh.n_nodes), kern, sent_params)
        assert full == pytest.approx(77.14285714285714, rel=1e-12)


class TestBounds:
    def lifting(self, mesh, w):
        u_d = np.zeros(2 * mesh.n_nodes)
        u_d[1::2] = w * mesh.nodes[:, 1]
        return u_d

    def test_vanish_on_frozen_load(self, patch, sent_params, rng):
        mesh, kern = patch
        u, a, _ = random_state(mesh, rng)
        u_d = self.lifting(mesh, 1e-3)
        assert upper_bound(u, u_d, u_d, a, kern, sent_params) == 0.0
        assert lower_bound(u, u_d, u_d, a, kern, sent_params) == 0.0

    def test_elastic_ramp_values(self, patch, sent_params):
        mesh, kern = patch
        a = np.zeros(mesh.n_nodes)
        u = np.zeros(2 * mesh.n_nodes)
        ud1, ud2 = self.lifting(mesh, 1e-3), self.lifting(mesh, 2e-3)
        ub = upper_bound(u, ud1, ud2, a, kern, sent_params)
        want = dense_erg(u, ud2, a, mesh, kern, sent_params) - dense_erg(u, ud1, a, mesh, kern, sent_params)
        assert ub == pytest.approx(want, rel=1e-12)
        assert ub > 0.0  # monotone tension ramp
        lb = lower_bound(u, ud1, ud2, a, kern, sent_params)
        assert lb <= ub

    def test_fully_damaged_lb_scales_with_k(self, patch, sent_params):
        mesh, kern = patch
        u = np.zeros(2 * mesh.n_nodes)
        ud1, ud2 = self.lifting(mesh, 1e-3), self.lifting(mesh, 2e-3)
        lb1 = lower_bound(u, ud1, ud2, np.ones(mesh.n_nodes), kern, sent_params)
        lb0 = lower_bound(u, ud1, ud2, np.zeros(mesh.n_nodes), kern, sent_params)
        assert abs(lb1) <= sent_params.k / (1 + sent_params.k) * abs(lb0) * (1 + 1e-10)


class TestCheckTwoSided:
    def test_frozen_load_pass_iff_delta_small(self, patch, sent_params, rng):
        mesh, kern = patch
        u, a, a_n = random_state(mesh, rng)
        u_d = np.zeros(2 * mesh.n_nodes)
        rep = fresh_check(u, u_d, a_n, u, u_d, a_n, kern, sent_params, 1e-5)
        assert rep.lb == 0.0 and rep.ub == 0.0
        assert rep.passed and abs(rep.delta) <= 1e-5

    def test_delta_above_ub_fails(self, patch, sent_params, rng):
        mesh, kern = patch
        u, a, a_n = random_state(mesh, rng)
        u_d = np.zeros(2 * mesh.n_nodes)
        # same lifting so both bounds vanish; growing damage makes delta > 0
        a_big = np.clip(a_n + 0.3, 0, 1)
        eta = 1e-9
        rep = fresh_check(u, u_d, a_n, u, u_d, a_big, kern, sent_params, eta)
        assert rep.delta > rep.ub + eta
        assert not rep.passed

    def test_invariant_of_report(self, patch, sent_params, rng):
        mesh, kern = patch
        u, a, a_n = random_state(mesh, rng)
        ud1 = np.zeros(2 * mesh.n_nodes)
        ud2 = ud1.copy()
        ud2[1::2] = 1e-3 * mesh.nodes[:, 1]
        eta = 1e-5
        rep = fresh_check(u, ud1, a_n, u, ud2, a, kern, sent_params, eta)
        assert rep.passed == (rep.lb - eta <= rep.delta <= rep.ub + eta)
        e_curr = stored_energy(u, ud1, a_n, kern, sent_params)
        assert rep.delta == pytest.approx(rep.e_next - e_curr + rep.d_inc, rel=1e-12)

    @pytest.mark.parametrize("divisions", [[12, 10], [4, 3, 3]], ids=["2d", "3d"])
    def test_element_order_invariant(self, sent_params, rng, divisions):
        # every energy of the check is a plain sum of nonnegative terms, so
        # the same mesh with its element rows permuted gives the same
        # verdicts, and every figure within 1e-12 relative (the sums move in
        # their last bits only)
        mesh = box_mesh([1.0] * len(divisions), divisions)
        shuffled = Mesh(mesh.dim, mesh.nodes, mesh.elements[rng.permutation(mesh.n_elements)], mesh.node_sets)
        u, a, a_n = random_state(mesh, rng)
        u_next = u + 1e-4 * rng.normal(size=u.size)
        ud_n = np.zeros_like(u)
        ud_next = ud_n.copy()
        ud_next[1 :: mesh.dim] = 1e-3 * mesh.nodes[:, 1]
        reports = [
            fresh_check(u, ud_n, a_n, u_next, ud_next, a, build_kernels(m), sent_params, 1e-5)
            for m in (mesh, shuffled)
        ]
        got, want = (dataclasses.asdict(r) for r in reports)
        for name in ("passed", "irreversibility_violation"):
            assert got.pop(name) is want.pop(name)
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_four_bulk_energies_per_check(self, patch, sent_params, rng, monkeypatch):
        # E, UB and LB share the bulk energies of the two states under the
        # two liftings: the two under their own liftings are the states',
        # the other two evaluated at the states' degradation weights (two
        # ergs); the gradient energies, dissipations and weights are the
        # states' too, and the report is bit for bit the one built from
        # stored_energy, upper_bound, lower_bound and dis
        mesh, kern = patch
        u_n, a_n, _ = random_state(mesh, rng)
        u_next, a_next, _ = random_state(mesh, rng)
        ud1 = np.zeros(2 * mesh.n_nodes)
        ud2 = ud1.copy()
        ud2[1::2] = 1e-3 * mesh.nodes[:, 1]
        curr = evaluated_state(u_n, ud1, a_n, kern, sent_params)
        nxt = evaluated_state(u_next, ud2, a_next, kern, sent_params)
        calls = []

        def spy(*args):
            calls.append(args)
            return erg(*args)

        def refuse(*args):
            raise AssertionError("a state's own term evaluated in the check")

        monkeypatch.setattr(energetics, "erg", spy)
        for name in ("dis", "grad_term", "degradation_weights"):
            if hasattr(energetics, name):
                monkeypatch.setattr(energetics, name, refuse)
        rep = check_two_sided(curr, nxt, kern, sent_params, 1e-5)
        # each state's displacement under the other's lifting, at its own weights
        want = [(curr.u, nxt.u_d, curr.rw), (nxt.u, curr.u_d, nxt.rw)]
        assert len(calls) == 2
        assert all(x is y for got, args in zip(calls, want) for x, y in zip(got[:3], args))
        monkeypatch.undo()
        e_next = stored_energy(u_next, ud2, a_next, kern, sent_params)
        e_curr = stored_energy(u_n, ud1, a_n, kern, sent_params)
        d_inc = dis(a_next, kern, sent_params) - dis(a_n, kern, sent_params)
        assert (rep.e_next, rep.d_inc) == (e_next, d_inc)
        assert rep.delta == e_next - e_curr + d_inc
        assert rep.ub == upper_bound(u_n, ud1, ud2, a_n, kern, sent_params)
        assert rep.lb == lower_bound(u_next, ud1, ud2, a_next, kern, sent_params)

    @pytest.mark.parametrize("shift", [0.0, -0.3], ids=["same_damage", "healed"])
    def test_irreversibility_flag(self, patch, sent_params, rng, shift):
        # set where the incremental dissipation is negative beyond
        # 1e-8*(1 + dis(a_n)): healed damage, never an unchanged one
        mesh, kern = patch
        u, _, a_n = random_state(mesh, rng)
        a_next = np.clip(a_n + shift, 0.0, 1.0)
        u_d = np.zeros(2 * mesh.n_nodes)
        rep = fresh_check(u, u_d, a_n, u, u_d, a_next, kern, sent_params, 1e-5)
        assert rep.irreversibility_violation == (shift < 0.0)
        assert rep.irreversibility_violation == (rep.d_inc < -1e-8 * (1.0 + dis(a_n, kern, sent_params)))


def test_penalty_energy_zero_iff_admissible(patch, sent_params, rng):
    # the damage merit's penalty term: no term at all where the damage has
    # not decreased (the merit does not see eps_pen), a positive one that
    # grows as eps_pen shrinks where it has
    mesh, kern = patch
    u, _, _ = random_state(mesh, rng)
    psi_p, psi_m = psi_split(strain_spectrum(kern, u), sent_params)
    stiff = dataclasses.replace(sent_params, eps_pen=0.1 * sent_params.eps_pen)

    def merit(a, p):
        return functional_from_psi(psi_p, psi_m, a, damage_fields(kern, a, a_n, p), dis(a_n, kern, p), kern, p)

    a_n = rng.uniform(0, 0.5, mesh.n_nodes)
    assert merit(a_n + 0.1, stiff) == merit(a_n + 0.1, sent_params)
    assert merit(a_n - 0.1, stiff) > merit(a_n - 0.1, sent_params)


def test_damage_merit_takes_anchor_dissipation(patch, sent_params, rng):
    # the anchor's dissipation passed in gives the same merit, bit for bit,
    # as the plainly summed functional with the incremental dissipation
    # evaluated on the call; it is the exactly summed functional up to
    # round-off
    mesh, kern = patch
    u, a, a_n = random_state(mesh, rng)
    psi_p, psi_m = psi_split(strain_spectrum(kern, u), sent_params)
    want = damage_merit(u, np.zeros_like(u), a, a_n, kern, sent_params)
    fields = damage_fields(kern, a, a_n, sent_params)
    got = functional_from_psi(psi_p, psi_m, a, fields, dis(a_n, kern, sent_params), kern, sent_params)
    assert got == want
    exact = total_functional(u, np.zeros_like(u), a, a_n, kern, sent_params)
    assert abs(got - exact) <= 1e-13 * abs(exact)
