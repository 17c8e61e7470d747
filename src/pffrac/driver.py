"""Quasi-static load stepping with two-sided-energy backtracking.

Each increment is solved by alternating minimization started from the last
computed state.  When the accepted pair violates the two-sided energy
inequality, the driver walks back one step at a time, re-solving earlier
increments with the discarded future state as initial guess (both fields),
until the inequality is met, the back-step budget K is exhausted or the
walk-back stands K steps below the highest target of the run; forward
traversal then resumes through the revisited steps, replacing their stored
states.  K = 0 disables the mechanism entirely (plain staggered stepping).

Every solve leaves one ``SolveRecord`` in ``RunHistory.solves``, in call
order: the state it reached, evaluated once (lifting, degradation weights,
bulk and gradient energies, dissipation), which the two-sided checks and
the later solves read and do not evaluate again.  The accepted chain
``RunHistory.steps`` (the initial state, then one record per step) and
the back-step views ``intermediates`` and ``backtracks`` are taken from
that log; nothing else records a solve.  The history is the run's whole
state, and ``run``, which reads the program's Dirichlet data once
(``build_dofmap``), a loop over ``advance``.

Only a window of the states is held.  Since no walk-back goes below K
steps under the highest target (``BacktrackConfig``), after an
``advance`` the later solves can read only the accepted records from
``RunHistory.lowest_anchor`` up, the last of which is the running guess.
Every other record, an accepted step below the window or a discarded
solve, drops its arrays (``u``, ``u_d``, ``rw``, ``a``) in place and keeps
its scalars: the step, ``b``, ``round_of``, the report, the reaction, the
energies and the dissipation, and the counts.  So at most K + 1 states are
held, whatever the run's length; the outputs read only the scalars, and
each accepted state's snapshot is written as it is accepted.  Within the
window the history is still the run's whole state: a copy of it continues
the run bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .energetics import INITIAL_REPORT, EnergyReport, StateEnergy, check_two_sided, dis, erg_from_psi, grad_term
from .fem import DofMap, build_kernels, degradation_weights, reaction_force
from .linsolve import LinearSolveError
from .material import MaterialParams
from .mesh import Mesh
from .solver import SolverConfig, StepFailure, alternate_minimize

__all__ = [
    "DirichletSpec",
    "LoadProgram",
    "BacktrackConfig",
    "SolveRecord",
    "RunHistory",
    "advance",
    "build_dofmap",
    "run",
]


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
    """Monotone displacement-controlled schedule: w(n) = n * dw, w(0) = +0.
    A dw of 0 is refused: w would move no dof, and every step would record
    the reaction 0."""

    n_steps: int
    dw: float
    bcs: tuple

    def __post_init__(self):
        if self.n_steps < 1:
            raise ValueError(f"n_steps = {self.n_steps!r} must be >= 1")
        if self.dw == 0.0:
            raise ValueError(f"dw = {self.dw!r} must not be 0: the program loads nothing")

    def w(self, n: int) -> float:
        return n * self.dw if n else 0.0


@dataclass(frozen=True)
class BacktrackConfig:
    """Back-step budget K (0 disables backtracking) and energy tolerance.

    Each target step may spend K back steps over all its failure rounds, and
    no walk-back re-solves a step more than K below the highest target of
    the run, which bounds the states a run holds (see the module
    docstring)."""

    k_back: int = 50
    eta: float = 1e-5

    def __post_init__(self):
        if self.k_back < 0:
            raise ValueError(f"k_back = {self.k_back!r} must be >= 0")
        if self.eta <= 0.0:
            raise ValueError(f"eta = {self.eta!r} must be > 0")


@dataclass(eq=False)
class SolveRecord(StateEnergy):
    """One solve of the increment that ends at ``step``, the state it
    reached evaluated once, and the ``report`` of the step pair it ends;
    step 0's record is the initial state, whose report is
    ``INITIAL_REPORT``.

    As a ``StateEnergy`` the record is one side of two-sided checks: the
    next state of its own step pair's ``report`` and the current state of
    the next pair's.  ``u_d`` is the lifting of ``step``, ``rw`` also the
    weights of the next solve that starts from this one and
    ``dissipation`` the anchor dissipation of the solves anchored at this
    state.  The initial record, u = 0 and a = 0 at w(0) = +0, is unloaded:
    its lifting is zero and its bulk energy, gradient energy, dissipation
    and reaction are 0.0 (``dis`` of a = 0 is +0.0 under AT1 and AT2), its
    report is all zeros and passed, and only its degradation weights, the
    first guess's, are evaluated.
    ``round_of`` is the target step whose failed check opened the back-step
    round this solve belongs to (the opening solve and each walk-back
    re-solve; None outside a round), and ``b`` the back steps that target
    had consumed at this solve.  The counts are the solve's alternations,
    Newton iterations and line-search trial merits (``AltResult``).

    A record that leaves the back-step window (module docstring) drops its
    arrays, ``u``, ``u_d``, ``rw`` and ``a``: reading one then raises
    AttributeError.  Its other fields stay, and its repr and comparisons,
    which read no array (``StateEnergy``), still work.
    """

    step: int
    a: np.ndarray = field(repr=False)
    reaction: float
    report: EnergyReport | None = None  # set by the check, before the record is logged
    alt_iters: int = 0
    newton_iters_u: int = 0
    newton_iters_beta: int = 0
    trials_u: int = 0
    trials_beta: int = 0
    round_of: int | None = None
    b: int = 0

    def drop_arrays(self) -> None:
        """Drop the state's arrays in place, keeping the scalars."""
        for name in ("u", "u_d", "rw", "a"):
            vars(self).pop(name, None)


@dataclass
class RunHistory:
    """The log of every solve, in call order, and the accepted chain taken
    from it (``steps[0]`` is the initial state, which is no solve).  The
    running guess is the last logged solve, or the initial state before
    any.  Between two ``advance`` calls only the records in the back-step
    window, the chain from ``lowest_anchor`` up, hold their arrays; the
    others keep their scalars (``SolveRecord``)."""

    steps: list
    solves: list = field(default_factory=list)
    aborted: bool = False
    abort_reason: str = ""

    @property
    def n_accepted(self) -> int:
        return len(self.steps) - 1  # steps[0] is the initial state

    def lowest_anchor(self, k_back: int) -> int:
        """The lowest step whose record the next ``advance`` can read: K
        below the highest target so far, counting the next one
        (``n_accepted + 1``)."""
        top = max([self.n_accepted + 1] + [r.step for r in self.solves])
        return max(0, top - 1 - k_back)

    @property
    def intermediates(self) -> list:
        """The solves of back-step rounds: each round's failing opening
        solve, then its walk-back re-solves."""
        return [r for r in self.solves if r.round_of is not None]

    @property
    def backtracks(self) -> list:
        """The walk-back re-solves: one per back step."""
        return [r for r in self.intermediates if r.step < r.round_of]

    @property
    def k_exhausted_steps(self) -> list:
        """Accepted steps whose two-sided inequality still fails (budget K
        exhausted, the walk-back at ``lowest_anchor``, or K = 0); derived
        from the final records so replacements during backtracking cannot
        leave stale flags."""
        return [r.step for r in self.steps if not r.report.passed]

    @property
    def irreversibility_steps(self) -> list:
        """Accepted steps whose incremental dissipation is negative beyond
        the reporting tolerance (penalty factor too large)."""
        return [r.step for r in self.steps if r.report.irreversibility_violation]


def build_dofmap(mesh: Mesh, program: LoadProgram) -> DofMap:
    """The program's Dirichlet data in one walk over its specs: a spec's
    dofs are not free and take its scale as load, a later spec overwriting
    an earlier one's.  A spec naming a set the mesh lacks is a KeyError."""
    free = np.ones(mesh.dim * mesh.n_nodes, dtype=bool)
    load = np.zeros(free.size)
    for bc in program.bcs:
        dofs = mesh.dim * mesh.node_sets[bc.node_set] + bc.component
        free[dofs] = False
        load[dofs] = bc.scale
    return DofMap(free=free, load=load)


def _solve(history: RunHistory, n: int, program, bt, cfg, p, kernels, dofmap) -> SolveRecord:
    """Solve increment [t_n, t_{n+1}] from the running guess, the last
    logged solve (the initial state before any), check the step pair it
    ends, and log the solve, which becomes the running guess."""
    guess = (history.solves or history.steps)[-1]
    prev = history.steps[n]
    u_d_next = program.w(n + 1) * dofmap.load
    res = alternate_minimize(guess.u, guess.a, guess.rw, prev.a, prev.dissipation, u_d_next, kernels, p, cfg, dofmap)
    rec = SolveRecord(
        u=res.u,
        u_d=u_d_next,
        rw=res.rw,
        bulk_energy=erg_from_psi(res.psi_p, res.psi_m, res.rw, kernels),
        grad_energy=grad_term(res.a, kernels, p),
        dissipation=dis(res.a, kernels, p),
        step=n + 1,
        a=res.a,
        reaction=reaction_force(res.spectrum, res.rw, kernels, p, dofmap.load),
        alt_iters=res.alt_iters,
        newton_iters_u=res.newton_iters_u,
        newton_iters_beta=res.newton_iters_beta,
        trials_u=res.trials_u,
        trials_beta=res.trials_beta,
    )
    rec.report = check_two_sided(prev, rec, kernels, p, bt.eta)
    history.solves.append(rec)
    return rec


def advance(history: RunHistory, program, bt, cfg, p, kernels, dofmap) -> None:
    """Solve step ``history.n_accepted + 1`` and, if its check fails, its
    back-step round, which walks back no lower than ``lowest_anchor``;
    accept the last solve at its step, dropping the chain after it, which
    refers to a replaced state; then drop the arrays of every record outside
    the window that the next ``advance`` can read.  ``dofmap`` is the
    program's ``build_dofmap``: the lifting of step n is
    ``program.w(n) * dofmap.load``."""
    n = history.n_accepted
    target = n + 1
    lowest = history.lowest_anchor(bt.k_back)
    rec = _solve(history, n, program, bt, cfg, p, kernels, dofmap)
    # Back steps consumed by the target so far.  The budget is cumulative
    # across failure rounds of the same target: a re-solved earlier step can
    # pass while the same forward step keeps failing with an unchanged
    # guess, and a per-round counter would cycle forever.
    b = max((r.b for r in history.solves if r.round_of == target), default=0)
    if not rec.report.passed and b < bt.k_back:
        rec.round_of, rec.b = target, b
        while not rec.report.passed and b < bt.k_back and n > lowest:
            n -= 1
            b += 1
            rec = _solve(history, n, program, bt, cfg, p, kernels, dofmap)
            rec.round_of, rec.b = target, b
    history.steps[n + 1 :] = [rec]
    window = {id(r) for r in history.steps[history.lowest_anchor(bt.k_back) :]}
    for r in (history.steps[0], *history.solves):
        if id(r) not in window:
            r.drop_arrays()


def run(
    program: LoadProgram,
    bt: BacktrackConfig,
    cfg: SolverConfig,
    p: MaterialParams,
    mesh: Mesh,
    on_accept=None,
) -> RunHistory:
    """Execute the load program with energy-bound backtracking: the
    history, the run's whole state, starts at the initial record and is
    ``advance``d until the program ends.

    The program's dof map is built once (``build_dofmap``): each step's
    lifting is w times its load vector, and each record's ``reaction`` the
    force conjugate to w, ``reaction_force`` against it.  Nothing is
    decomposed before the first solve (see ``SolveRecord`` for the initial
    record).

    Parameters
    ----------
    on_accept : callable, optional
        ``on_accept(history)`` invoked first with the initial history, before
        the first solve, then after every acceptance (incremental output
        writers): every change to the accepted chain is followed by a call.

    Every solve goes through the module-level ``alternate_minimize`` and
    starts from the running guess: the last solve's state, discarded or not.
    A solver failure, or a linear system whose band exceeds
    ``linsolve.BAND_BYTES_BUDGET`` (refused while its ordering is built, in
    the first solve), ends the run with ``aborted`` set, the message as
    ``abort_reason`` and the history so far; the failing solve leaves no
    record.
    """
    kernels = build_kernels(mesh)
    dofmap = build_dofmap(mesh, program)
    a0 = np.zeros(mesh.n_nodes)
    initial = SolveRecord(
        u=np.zeros_like(dofmap.load),
        u_d=np.zeros_like(dofmap.load),
        rw=degradation_weights(kernels, a0, p),
        bulk_energy=0.0,
        grad_energy=0.0,
        dissipation=0.0,
        step=0,
        a=a0,
        reaction=0.0,
        report=INITIAL_REPORT,
    )
    history = RunHistory(steps=[initial])
    accepted = on_accept or (lambda history: None)
    accepted(history)
    try:
        while history.n_accepted < program.n_steps:
            advance(history, program, bt, cfg, p, kernels, dofmap)
            accepted(history)
    except (StepFailure, LinearSolveError) as exc:
        history.aborted = True
        history.abort_reason = str(exc)
    return history
