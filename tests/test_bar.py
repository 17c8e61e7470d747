"""A bar in uniaxial strain, whose K = 0 and K = 50 load paths have
closed forms.

The bar is L = 1 by H = 0.05, 40 cells long and one cell high, with
lambda = 0 and mu = 0.5 (M = lambda + 2 mu = 1), Gc = 1, ell = 0.1 and
residual stiffness k = 1e-4.  Its left end is held, its right end pulled
to u_x = w, and u_y = 0 on every node, so the strain e = w is uniform and
tensile.  Under plain staggered stepping (K = 0) the bar stays homogeneous
and its reaction is the stress ((1 - beta)^2 + k) M e times H, with the
damage beta that minimises the local energy at e:

- AT2: beta = M e^2 / (M e^2 + Gc / ell);
- AT1 with kappa = 9/32 (1-D toughness Gc): beta = 0 up to the strain
  e_c = sqrt(c / M), c = kappa Gc / ell, so the bar is elastic below it.

With backtracking (K = 50) the AT1 bar breaks where a global minimiser
does: at the Griffith load, where its elastic energy 1/2 M e^2 L H reaches
the energy of its crack.  The crack forms at the loaded end, and its
energy is read from the run's last state.  The perfect bar localises only
through round-off: with 80 cells, or with dw = 0.04, K = 0 stays
homogeneous to w = 2, no check fails and K = 50 gives the same run, so
neither the cells nor dw are free to change here.
"""

import math

import numpy as np
import pytest

from pffrac.driver import BacktrackConfig, DirichletSpec, LoadProgram, run
from pffrac.material import MaterialParams
from pffrac.mesh import generate_grid, select_nodes
from pffrac.solver import SolverConfig

L, H = 1.0, 0.05
M, GC, ELL, K_RES = 1.0, 1.0, 0.1, 1e-4
KAPPA = 9.0 / 32.0


def bar_run(dissipation: str, kappa=None, k_back=0):
    """The bar's run with K = ``k_back``: dw = 0.02 over 100 steps,
    shipped solver defaults."""
    mesh = generate_grid([np.linspace(0.0, L, 41), np.linspace(0.0, H, 2)])
    mesh.node_sets["left"] = select_nodes(mesh, lambda x: x[:, 0])
    mesh.node_sets["right"] = select_nodes(mesh, lambda x: x[:, 0] - L)
    mesh.node_sets["all"] = np.arange(mesh.n_nodes)
    p = MaterialParams(
        lam=0.0, mu=0.5 * M, gc=GC, ell=ELL, k=K_RES, dissipation=dissipation, kappa=kappa, eps_pen=1e-6
    )
    bcs = (DirichletSpec("left", 0, 0.0), DirichletSpec("right", 0, 1.0), DirichletSpec("all", 1, 0.0))
    program = LoadProgram(n_steps=100, dw=0.02, bcs=bcs)
    history = run(program, BacktrackConfig(k_back=k_back), SolverConfig(), p, mesh)
    assert not history.aborted and history.n_accepted == 100
    return program, history


def rel_err(got: float, want: float) -> float:
    return abs(got - want) / abs(want)


def test_at2_reactions_match_the_homogeneous_closed_form():
    program, history = bar_run("AT2")
    for rec in history.steps[1:]:
        w = program.w(rec.step)
        beta = M * w * w / (M * w * w + GC / ELL)
        assert rel_err(rec.reaction, ((1.0 - beta) ** 2 + K_RES) * M * w * H) <= 1e-12, rec.step


def test_at1_is_elastic_below_the_critical_strain():
    program, history = bar_run("AT1", KAPPA)
    e_c = math.sqrt(KAPPA * GC / ELL / M)
    assert e_c == pytest.approx(1.677, abs=5e-4)
    elastic = [rec for rec in history.steps[1:] if program.w(rec.step) < e_c]
    assert [rec.step for rec in elastic] == list(range(1, 84))
    for rec in elastic:
        assert rec.dissipation == 0.0, rec.step
        assert rel_err(rec.reaction, (1.0 + K_RES) * M * program.w(rec.step) * H) <= 1e-12, rec.step
    assert history.steps[84].dissipation > 0.0  # the first damaged step, w = 1.68


def test_at1_with_backtracking_breaks_at_the_griffith_load():
    # K = 50 walks back from the snap of the homogeneous branch (w = 1.98)
    # to a crack at the Griffith load of that crack's energy, and every
    # walk-back ends at a passing check
    program, history = bar_run("AT1", KAPPA, k_back=50)
    assert history.k_exhausted_steps == []
    reactions = [rec.reaction for rec in history.steps]
    peak = int(np.argmax(reactions))
    broken = next(step for step in range(peak, len(reactions)) if reactions[step] < 0.5 * reactions[peak])
    last = history.steps[-1]
    w_g = L * math.sqrt(2.0 * (last.grad_energy + last.dissipation) / (M * L * H))
    assert w_g <= program.w(broken) <= w_g + program.dw
