"""Quasi-static load stepping with two-sided-energy backtracking.

Each increment is solved by alternating minimization started from the last
computed state.  When the accepted pair violates the two-sided energy
inequality, the driver walks back one step at a time, re-solving earlier
increments with the discarded future state as initial guess (both fields),
until the inequality is met or the back-step budget K is exhausted; forward
traversal then resumes through the revisited steps, replacing their stored
states.  K = 0 disables the mechanism entirely (plain staggered stepping).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .energetics import EnergyReport, check_two_sided, dis, erg_from_spectrum
from .fem import (
    DofMap,
    build_kernels,
    degradation_weights,
    reaction_force,
    strain_spectrum,
)
from .material import MaterialParams
from .mesh import Mesh
from .solver import SolverConfig, StepFailure, alternate_minimize

__all__ = [
    "DirichletSpec",
    "LoadProgram",
    "BacktrackConfig",
    "StepRecord",
    "BacktrackEvent",
    "IntermediateRecord",
    "RunHistory",
    "build_dofmap",
    "check_run_inputs",
    "lifting_for_step",
    "run",
]

# Reported D_inc below -1e-8*(1 + dis(A_n)) flags an irreversibility
# violation (penalty factor too large for the step).
_DISS_REL_TOL = 1e-8


@dataclass(frozen=True)
class DirichletSpec:
    """One constrained displacement component on a tagged node set.

    The prescribed value at step n is ``scale * w(n)``; homogeneous
    conditions use scale 0.
    """

    node_set: str
    component: int
    scale: float = 0.0


@dataclass(frozen=True)
class LoadProgram:
    """Monotone displacement-controlled schedule: w(n) = n * dw."""

    n_steps: int
    dw: float
    bcs: tuple

    def __post_init__(self):
        if self.n_steps < 1:
            raise ValueError("n_steps must be >= 1")

    def w(self, n: int) -> float:
        return n * self.dw


@dataclass(frozen=True)
class BacktrackConfig:
    """Back-step budget K (0 disables backtracking) and energy tolerance."""

    k_max: int = 50
    eta: float = 1e-5

    def __post_init__(self):
        if self.k_max < 0:
            raise ValueError("k_max must be >= 0")
        if self.eta <= 0.0:
            raise ValueError("eta must be > 0")


@dataclass
class StepRecord:
    """Accepted state of one load step.

    ``bulk_energy`` is erg(u, u_d, a) under this step's lifting, the
    current-state bulk energy of the next step's two-sided check.
    """

    step: int
    w: float
    u: np.ndarray
    a: np.ndarray
    report: EnergyReport | None
    bulk_energy: float
    reaction: float = 0.0
    alt_iters: int = 0
    newton_iters_u: int = 0
    newton_iters_beta: int = 0
    irreversibility_violation: bool = False


@dataclass
class BacktrackEvent:
    """One back step: the failing target and the step being re-solved."""

    failed_step: int
    resolved_step: int
    b: int


@dataclass
class IntermediateRecord:
    """A solve produced during backtracking (kept for the zigzag curves)."""

    target_step: int
    w: float
    b: int
    passed: bool
    delta: float
    lb: float
    ub: float
    reaction: float


@dataclass
class RunHistory:
    """Accepted states plus backtracking provenance."""

    steps: list = field(default_factory=list)
    backtracks: list = field(default_factory=list)
    intermediates: list = field(default_factory=list)
    aborted: bool = False
    abort_reason: str = ""

    @property
    def n_accepted(self) -> int:
        return len(self.steps) - 1  # steps[0] is the initial state

    @property
    def k_exhausted_steps(self) -> list:
        """Accepted steps whose two-sided inequality still fails (budget K
        exhausted, or K = 0); derived from the final records so replacements
        during backtracking cannot leave stale flags."""
        return [r.step for r in self.steps[1:] if r.report is not None and not r.report.passed]

    @property
    def irreversibility_steps(self) -> list:
        """Accepted steps whose incremental dissipation is negative beyond
        the reporting tolerance (penalty factor too large)."""
        return [r.step for r in self.steps[1:] if r.irreversibility_violation]


def check_run_inputs(mesh: Mesh, program: LoadProgram, reaction: tuple | None) -> None:
    """Raise KeyError for a Dirichlet spec or reaction set naming a node set
    the mesh lacks, and ValueError for a component or reaction direction that
    does not fit the mesh dimension."""
    for bc in program.bcs:
        if bc.node_set not in mesh.node_sets:
            raise KeyError(f"unknown node set {bc.node_set!r}")
        if not 0 <= bc.component < mesh.dim:
            raise ValueError(f"{bc}: a {mesh.dim}-D mesh has no component {bc.component}")
    if reaction is None:
        return
    set_tag, direction = reaction
    if set_tag not in mesh.node_sets:
        raise KeyError(f"unknown node set {set_tag!r}")
    if len(direction) != mesh.dim:
        raise ValueError(f"reaction direction {np.asarray(direction).tolist()} needs {mesh.dim} components")


def build_dofmap(mesh: Mesh, program: LoadProgram) -> DofMap:
    """Dof partition induced by the program's Dirichlet specs, which
    ``check_run_inputs`` has accepted."""
    return DofMap.from_constraints(mesh, [(mesh.node_sets[bc.node_set], bc.component) for bc in program.bcs])


def lifting_for_step(program: LoadProgram, n: int, mesh: Mesh) -> np.ndarray:
    """Dirichlet lifting vector at step n: prescribed values on constrained
    dofs, zero on free dofs, for a program ``check_run_inputs`` has accepted."""
    if not 0 <= n <= program.n_steps:
        raise ValueError(f"step {n} outside 0..{program.n_steps}")
    u_d = np.zeros(mesh.dim * mesh.n_nodes)
    w = program.w(n)
    for bc in program.bcs:
        dofs = mesh.dim * mesh.node_sets[bc.node_set] + bc.component
        u_d[dofs] = bc.scale * w
    return u_d


def run(
    program: LoadProgram,
    bt: BacktrackConfig,
    cfg: SolverConfig,
    p: MaterialParams,
    mesh: Mesh,
    reaction: tuple | None = None,
    on_accept=None,
) -> RunHistory:
    """Execute the load program with energy-bound backtracking.

    Parameters
    ----------
    reaction : (set_tag, direction) or None
        Work-conjugate reaction recorded per solve; ``direction`` has one
        component per mesh dimension.
    on_accept : callable, optional
        ``on_accept(history)`` invoked after every acceptance (incremental
        output writers).

    Every solve goes through the module-level ``alternate_minimize`` and
    starts from the running guess: the last solve's state, discarded or not.
    A solver failure ends the run with ``aborted`` set and the history so far.
    """
    check_run_inputs(mesh, program, reaction)
    kernels = build_kernels(mesh)
    dofmap = build_dofmap(mesh, program)
    history = RunHistory()

    def _reaction(spectrum, rw) -> float:
        if reaction is None:
            return 0.0
        return reaction_force(spectrum, rw, kernels, p, *reaction)

    u0 = np.zeros(dofmap.n_dofs)
    a0 = np.zeros(mesh.n_nodes)
    spectrum0 = strain_spectrum(kernels, u0 + lifting_for_step(program, 0, mesh))
    rw0 = degradation_weights(kernels, a0, p)
    bulk0 = erg_from_spectrum(spectrum0, rw0, kernels, p)
    history.steps.append(
        StepRecord(step=0, w=0.0, u=u0, a=a0, report=None, bulk_energy=bulk0, reaction=_reaction(spectrum0, rw0))
    )

    guess_u = u0
    guess_a = a0
    n = 0
    # Back-step budget consumed per failing target step.  The budget is
    # cumulative across failure rounds of the same target: a re-solved
    # earlier step can pass while the same forward step keeps failing with
    # an unchanged guess, and a per-round counter would cycle forever.
    consumed: dict = {}

    def _solve(step_n: int):
        """Solve increment [t_n, t_{n+1}] from the running guess, which then
        becomes the solution; returns it with its check and its reaction."""
        nonlocal guess_u, guess_a
        prev = history.steps[step_n]
        u_d_next = lifting_for_step(program, step_n + 1, mesh)
        res = alternate_minimize(guess_u, guess_a, prev.a, u_d_next, kernels, p, cfg, dofmap)
        guess_u, guess_a = res.u, res.a
        rw = degradation_weights(kernels, res.a, p)
        report = check_two_sided(
            step_n,
            prev.u,
            lifting_for_step(program, step_n, mesh),
            prev.a,
            res.u,
            u_d_next,
            res.a,
            kernels,
            p,
            bt.eta,
            erg_curr=prev.bulk_energy,
            erg_next=erg_from_spectrum(res.spectrum, rw, kernels, p),
        )
        return res, report, _reaction(res.spectrum, rw)

    try:
        while n < program.n_steps:
            res, report, force = _solve(n)
            failed_at = n + 1
            b = consumed.get(failed_at, 0)
            if not report.passed and b < bt.k_max:
                history.intermediates.append(_intermediate(report, program, b, force))
                while not report.passed and b < bt.k_max and n > 0:
                    n -= 1
                    b += 1
                    history.backtracks.append(
                        BacktrackEvent(failed_step=failed_at, resolved_step=n + 1, b=b)
                    )
                    res, report, force = _solve(n)
                    history.intermediates.append(_intermediate(report, program, b, force))
                consumed[failed_at] = b

            record = StepRecord(
                step=n + 1,
                w=program.w(n + 1),
                u=res.u.copy(),
                a=res.a.copy(),
                report=report,
                bulk_energy=report.erg_next,
                reaction=force,
                alt_iters=res.alt_iters,
                newton_iters_u=res.newton_iters_u,
                newton_iters_beta=res.newton_iters_beta,
                irreversibility_violation=bool(
                    report.d_inc < -_DISS_REL_TOL * (1.0 + dis(history.steps[n].a, kernels, p))
                ),
            )
            if n + 1 < len(history.steps):
                history.steps[n + 1] = record
                del history.steps[n + 2 :]  # later states now refer to a replaced chain
            else:
                history.steps.append(record)
            n += 1

            if on_accept is not None:
                on_accept(history)
    except StepFailure as exc:
        history.aborted = True
        history.abort_reason = str(exc)
    return history


def _intermediate(report: EnergyReport, program: LoadProgram, b: int, reaction: float) -> IntermediateRecord:
    return IntermediateRecord(
        target_step=report.step + 1,
        w=program.w(report.step + 1),
        b=b,
        passed=report.passed,
        delta=report.delta,
        lb=report.lb,
        ub=report.ub,
        reaction=reaction,
    )
