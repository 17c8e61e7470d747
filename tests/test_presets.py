import numpy as np
import pytest

from oracles import element_measures
from pffrac.driver import build_dofmap
from pffrac.presets import load_preset


class TestParameterTables:
    def test_sent_constants(self):
        s = load_preset("sent", 0.1)
        p = s.params
        assert p.lam == pytest.approx(121153.8)
        assert p.mu == pytest.approx(80769.2)
        assert p.gc == 2.7
        assert p.ell == 0.0175
        assert p.k == 1e-4
        assert p.eps_pen == 1e-6
        assert s.solver.tol_u == 1e-5 and s.solver.tol_a == 1e-5
        assert s.backtrack.eta == 1e-5 and s.backtrack.k_back == 50
        assert s.solver.max_newton == 100 and s.solver.max_alt == 5000
        assert s.program.dw == 1e-4

    def test_sens_constants(self):
        s = load_preset("sens", 0.02)
        assert s.params.ell == 0.001
        assert s.params.eps_pen == 1e-5

    def test_lshape_conversion(self):
        s = load_preset("lshape", 0.15)
        e, nu = 25.85e3, 0.18
        assert s.params.lam == pytest.approx(e * nu / ((1 + nu) * (1 - 2 * nu)), rel=1e-12)
        assert s.params.mu == pytest.approx(e / (2 * (1 + nu)), rel=1e-12)
        assert s.params.gc == 0.095
        assert s.params.ell == 20.0
        assert s.params.eps_pen == 1e-4

    def test_bend3d_constants(self):
        s = load_preset("bend3d", 0.12)
        e, nu = 39.0e3, 0.15
        assert s.params.mu == pytest.approx(e / (2 * (1 + nu)), rel=1e-12)
        assert s.params.gc == 0.04
        assert s.params.ell == 15.0
        assert s.params.eps_pen == 1e-4

    def test_unknown_preset(self):
        with pytest.raises(ValueError, match="preset = 'nope' is unknown; choose from sent, sens, lshape, bend3d"):
            load_preset("nope", 0.1)
        with pytest.raises(ValueError, match=r"scale = 0.0 must be in \(0, 1\]"):
            load_preset("sent", 0.0)


class TestMeshRecipes:
    def test_sent_slit_duplicates_nodes(self):
        s = load_preset("sent", 0.1)
        mesh = s.mesh
        on_slit = np.flatnonzero(
            (np.abs(mesh.nodes[:, 1] - 0.5) < 1e-12) & (mesh.nodes[:, 0] < 0.5 - 1e-12)
        )
        xs = np.sort(mesh.nodes[on_slit, 0])
        # every slit abscissa appears twice (upper and lower crack face)
        assert on_slit.size % 2 == 0
        assert np.allclose(xs[0::2], xs[1::2])
        # the crack tip at (0.5, 0.5) is a single node
        tip = np.flatnonzero(
            (np.abs(mesh.nodes[:, 0] - 0.5) < 1e-12) & (np.abs(mesh.nodes[:, 1] - 0.5) < 1e-12)
        )
        assert tip.size == 1

    def test_no_element_spans_the_slit(self):
        mesh = load_preset("sent", 0.1).mesh
        on_slit = (np.abs(mesh.nodes[:, 1] - 0.5) < 1e-12) & (mesh.nodes[:, 0] < 0.5 - 1e-12)
        centroids = mesh.nodes[mesh.elements, 1].mean(axis=1)
        for e in range(mesh.n_elements):
            conn = mesh.elements[e]
            slit_nodes = conn[on_slit[conn]]
            for nid in slit_nodes:
                # elements above the line reference upper copies and vice
                # versa: reconstructing the side from the centroid must give
                # a consistent picture (copies are appended after originals)
                assert (centroids[e] > 0.5) == (nid >= mesh.n_nodes - on_slit.sum() // 2)

    def test_sent_band_resolution(self):
        scale = 0.25
        mesh = load_preset("sent", scale).mesh
        ys = np.unique(np.round(mesh.nodes[:, 1], 12))
        h_band = np.diff(ys)[np.argmin(np.abs(ys[:-1] - 0.5))]
        assert h_band == pytest.approx(min(0.005, 0.0175 / 2) / scale, rel=0.3)

    def test_sent_sets(self):
        mesh = load_preset("sent", 0.1).mesh
        for tag in ("top", "bottom", "left", "right", "pin"):
            assert tag in mesh.node_sets
        assert mesh.node_sets["pin"].size == 1
        assert np.allclose(mesh.nodes[mesh.node_sets["top"], 1], 1.0)

    def test_reaction_directions(self):
        # each preset loads one node set in one component at scale 1, so
        # the force conjugate to w is the reaction on that set and component
        for name, scale, tag, component in [
            ("sent", 0.1, "top", 1),
            ("sens", 0.02, "top", 0),
            ("lshape", 0.15, "load", 1),
            ("bend3d", 0.12, "load", 2),
        ]:
            setup = load_preset(name, scale)
            mesh = setup.mesh
            g = build_dofmap(mesh, setup.program).load
            assert np.array_equal(np.flatnonzero(g), mesh.dim * mesh.node_sets[tag] + component), name
            assert np.all(g[g != 0.0] == 1.0), name

    def test_dirichlet_specs_fit_the_mesh(self):
        # no config sets a Dirichlet spec, so the run takes each preset's
        # as given: every spec names a node set of its mesh and a component
        # below the dimension, and the load vector moves some dof
        for name, scale in [("sent", 0.02), ("sens", 0.02), ("lshape", 0.15), ("bend3d", 0.12)]:
            setup = load_preset(name, scale)
            mesh = setup.mesh
            for bc in setup.program.bcs:
                assert bc.node_set in mesh.node_sets and mesh.node_sets[bc.node_set].size > 0, (name, bc)
                assert 0 <= bc.component < mesh.dim, (name, bc)
            assert np.any(build_dofmap(mesh, setup.program).load), name

    def test_lshape_geometry(self):
        mesh = load_preset("lshape", 0.15).mesh
        assert mesh.dim == 3
        assert element_measures(mesh).sum() == pytest.approx(500 * 500 * 100 - 250 * 250 * 100, rel=1e-9)
        assert mesh.node_sets["load"].size > 0
        load_xy = mesh.nodes[mesh.node_sets["load"]][:, :2]
        assert np.allclose(load_xy, [470.0, 250.0])
        # no material in the cut quadrant
        assert not np.any((mesh.nodes[:, 0] > 250 + 1e-9) & (mesh.nodes[:, 1] < 250 - 1e-9))

    def test_bend3d_geometry(self):
        mesh = load_preset("bend3d", 0.12).mesh
        assert mesh.dim == 3
        full = 100.0 * 840.0 * 100.0
        notch = 100.0 * 10.0 * 50.0
        assert element_measures(mesh).sum() == pytest.approx(full - notch, rel=1e-9)
        for tag in ("load", "sup_a", "sup_b"):
            assert mesh.node_sets[tag].size > 0
        # notch opens on the tension face: no nodes inside the slot
        inside = (
            (np.abs(mesh.nodes[:, 1] - 420.0) < 5.0 - 1e-9)
            & (mesh.nodes[:, 2] > -50.0 + 1e-9)
        )
        assert not np.any(inside)

    @pytest.mark.parametrize("name,scale", [("sent", 0.1), ("sens", 0.02), ("lshape", 0.15), ("bend3d", 0.12)])
    def test_all_presets_validate(self, name, scale):
        s = load_preset(name, scale)
        s.mesh.validate()
        assert s.program.n_steps >= 1
        assert name == s.name
