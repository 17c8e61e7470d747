import os

# One BLAS thread, as in the benchmark's jobs: the band factorizations here
# are small, and a second OpenBLAS thread about doubles their time.  Set
# before numpy loads OpenBLAS; a value given in the environment is kept.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import dataclasses
import importlib.util
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import settings

import pffrac.driver as driver
from pffrac.fem import (
    DofMap,
    build_kernels,
    damage_fields,
    degradation_weights,
    residual_and_tangent_beta,
    residual_and_tangent_u,
    strain_spectrum,
)
from pffrac.linsolve import BandOrdering, UpperMatrix, factor_solve
from pffrac.material import MaterialParams, psi_split
from pffrac.mesh import generate_grid

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

# Property tests draw the same examples on every run, with no time limit.
settings.register_profile("pffrac", derandomize=True, deadline=None)
settings.load_profile("pffrac")


def load_tracing():
    """The benchmark's span tracer module, loaded from its file."""
    spec = importlib.util.spec_from_file_location("tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def box_mesh(extents, divisions):
    """Uniform grid mesh of the box [0, extents] with the given number of
    cells per axis, and the node sets "xmin", "xmax", "ymin", "ymax"
    ("zmin", "zmax") of its faces."""
    mesh = generate_grid([np.linspace(0.0, e, d + 1) for e, d in zip(extents, divisions)])
    for ax, name in enumerate("xyz"[: mesh.dim]):
        mesh.node_sets[f"{name}min"] = np.flatnonzero(mesh.nodes[:, ax] == 0.0)
        mesh.node_sets[f"{name}max"] = np.flatnonzero(mesh.nodes[:, ax] == extents[ax])
    return mesh


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def sent_params():
    """Material constants of the notched-tension benchmark (N/mm^2)."""
    return MaterialParams(lam=121153.8, mu=80769.2, gc=2.7, ell=0.0175, k=1e-4, eps_pen=1e-6)


def with_dissipation(p, dissipation):
    """``p`` under the ``dissipation`` law: AT2, or AT1 with the activation
    threshold kappa = 0.375."""
    return dataclasses.replace(p, dissipation=dissipation, kappa=0.375 if dissipation == "AT1" else None)


def constrained_dofmap(mesh, constraints=()):
    """The ``DofMap`` whose constrained dofs are the (node ids, component)
    pairs of ``constraints``, with a zero load vector."""
    free = np.ones(mesh.dim * mesh.n_nodes, dtype=bool)
    for nodes, component in constraints:
        free[mesh.dim * np.asarray(nodes) + component] = False
    return DofMap(free=free, load=np.zeros(free.size))


@pytest.fixture
def two_elem():
    """Unit square split into two triangles, with kernels and an
    unconstrained dof map (for gradient checks)."""
    mesh = box_mesh([1.0, 1.0], [1, 1])
    kernels = build_kernels(mesh)
    dofmap = constrained_dofmap(mesh)
    return mesh, kernels, dofmap


def random_state(mesh, rng, mag=1e-3):
    """Random nodal displacement and admissible damage pair."""
    n_u = mesh.dim * mesh.n_nodes
    u = mag * rng.normal(size=n_u)
    a_n = rng.uniform(0.0, 0.5, mesh.n_nodes)
    a = np.clip(a_n + rng.uniform(-0.2, 0.4, mesh.n_nodes), 0.0, 1.0)
    return u, a, a_n


def damage_system(u, u_d, a, a_n, kernels, p):
    """Damage residual and tangent at the displacement u + u_d."""
    psi_p, _ = psi_split(strain_spectrum(kernels, u + u_d), p)
    return residual_and_tangent_beta(psi_p, a, damage_fields(kernels, a, a_n, p), kernels, p)


def displacement_system(u, u_d, a, kernels, p, dofmap):
    """Displacement residual and tangent at the displacement u + u_d and the
    damage a."""
    spectrum = strain_spectrum(kernels, u + u_d)
    return residual_and_tangent_u(spectrum, degradation_weights(kernels, a, p), kernels, p, dofmap)


def internal_force(u, u_d, a, kernels, p):
    """Unconstrained internal force at the displacement u + u_d and the
    damage a: the displacement residual when no dof is constrained."""
    return displacement_system(u, u_d, a, kernels, p, constrained_dofmap(kernels.mesh))[0]


def scripted_checks(monkeypatch, fail) -> list:
    """Make ``driver.run`` see a failed energy check on the solves for which
    ``fail(step, nth)`` holds: ``step`` is the step the solve reached (its
    record's ``step``) and ``nth`` counts the solves of that step so far,
    this one included.  Returns the list of solved steps, in call order."""
    steps = []
    real = driver.check_two_sided

    def check(curr, nxt, *args):
        report = real(curr, nxt, *args)
        steps.append(nxt.step)
        if fail(nxt.step, steps.count(nxt.step)):
            report = dataclasses.replace(report, passed=False)
        return report

    monkeypatch.setattr(driver, "check_two_sided", check)
    return steps


def made_states(monkeypatch):
    """Keep the arrays of every record the driver makes, as it makes it: a
    record that later leaves the back-step window drops them.  Every logged
    record is the next state of the check that follows its solve, and the
    initial record the current state of the first, so a wrapper of
    ``driver.check_two_sided`` sees each one while it holds its arrays.
    Returns ``state``: ``state(rec)`` has rec's ``u``, ``u_d``, ``rw`` and
    ``a`` as attributes.  Install it after ``scripted_checks``."""
    kept = {}  # id -> (record, its arrays); the record is kept so its id stays its own
    real = driver.check_two_sided

    def check(curr, nxt, *args):
        for rec in (curr, nxt):
            if id(rec) not in kept:
                kept[id(rec)] = rec, SimpleNamespace(u=rec.u, u_d=rec.u_d, rw=rec.rw, a=rec.a)
        return real(curr, nxt, *args)

    monkeypatch.setattr(driver, "check_two_sided", check)
    return lambda rec: kept[id(rec)][1]


def stored(a, ordering=None) -> UpperMatrix:
    """The symmetric matrix a (dense or sparse) stored under ``ordering``,
    by default scipy's reverse Cuthill-McKee ordering of its CSC structure:
    its entries at the stored rows and columns."""
    a = sp.csc_matrix(a, copy=True)
    a.sum_duplicates()
    if ordering is None:
        ordering = BandOrdering.narrowest(a.indptr, a.indices, [])
    return UpperMatrix(np.asarray(a[ordering.rows, ordering.cols], dtype=np.float64).ravel(), ordering)


def dense(k: UpperMatrix) -> np.ndarray:
    """The full symmetric matrix of the stored entries, in original order."""
    o = k.ordering
    m = np.zeros((o.n, o.n))
    m[o.cols, o.rows] = k.values
    m[o.rows, o.cols] = k.values
    return m


def rcm_solve(a, b):
    """The solution of ``factor_solve`` with the matrix a under scipy's
    reverse Cuthill-McKee ordering of its CSC structure."""
    k = stored(a)
    return factor_solve(k, b)[0]
