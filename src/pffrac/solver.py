"""Per-field Newton solves and the alternating-minimization loop.

Each load step alternates an equilibrium solve at fixed damage
(``newton_u``, unconstrained) with a semi-smooth Newton solve of the
penalized damage problem at fixed displacement (``newton_beta``, bounded to
[0, 1]), until both field increments stagnate in the max norm.  Each of the
two runs its own Newton loop; they share only the line search.  The damage
solve treats the negative-part penalty with an active-set generalized
derivative (1 where the irreversibility gap is negative, 0 elsewhere).

Both subproblems are convex but only piecewise smooth: the split energy has
gradient jumps where a principal strain changes sign, and uniaxial tension
states minimize exactly on such a kink.  Full Newton steps can therefore
cycle across the kink, so every update is safeguarded by an Armijo line
search on the subproblem energy (whose exact gradient the assembled
residual is, branch-wise): the step is the largest power of two, at most 1,
that passes the Armijo test.  An iterate where no step along the Newton
direction can decrease the energy is a numerical minimizer of the convex
subproblem and counts as converged.

Each state is evaluated once and handed on.  A displacement state is its
strain spectrum and its energy densities: the trial merit computes them,
the residual and tangent read the spectrum, and the damage solve and the
next displacement solve's start merit read the densities.  A damage
iterate's quadrature fields (``fem.damage_fields``) are built by its merit
and read by its residual and tangent; the solve's last iterate leaves only
its degradation weights, one value per element, for the next displacement
solve, so no whole-mesh damage field is held through a displacement solve.
The anchor's dissipation is the caller's, evaluated where the anchor
state is held (``driver.SolveRecord.dissipation``).

Each Newton iteration that solves factors its tangent once
(``linsolve.factor_solve``) and keeps no factor past its solve, so at most
one band is held.  A damage iteration assembles its tangent and eliminates
its pinned dofs in place before the factorization.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .energetics import erg_from_psi, functional_from_psi
from .fem import (
    DofMap,
    ElementKernels,
    damage_fields,
    residual_and_tangent_beta,
    residual_and_tangent_u,
    strain_spectrum,
)
from .linsolve import LinearSolveError, eliminate, factor_solve
from .material import MaterialParams, StrainSpectrum, psi_split

__all__ = ["SolverConfig", "AltResult", "StepFailure", "newton_u", "newton_beta", "alternate_minimize"]

_ARMIJO_C = 1e-4
_ARMIJO_MIN_STEP = 2.0**-30


@dataclass(frozen=True)
class SolverConfig:
    """Iteration control: the max-norm increment tolerances of the two
    Newton solves, the Newton iteration cap, and ``max_alt``, the budget of
    alternations one solve may spend before it fails (a budget, not a
    tolerance: a solve that converges stops long before it)."""

    tol_u: float = 1e-5
    tol_a: float = 1e-5
    max_newton: int = 100
    max_alt: int = 5000

    def __post_init__(self):
        for name in ("tol_u", "tol_a", "max_newton", "max_alt"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} = {getattr(self, name)!r} must be > 0")


class StepFailure(RuntimeError):
    """A Newton or alternation loop failed.  ``alternate_minimize`` sets
    ``u`` and ``a`` to the state at the start of the failing alternation."""

    u = a = None


@dataclass
class AltResult:
    """Converged state of one incremental solve, with iteration traces.

    ``spectrum`` is the ``strain_spectrum`` of u + u_d_next and ``psi_p``,
    ``psi_m`` its ``psi_split``, from the last displacement solve; ``rw`` is
    the ``degradation_weights`` of a, from the last damage solve.
    ``trials_u`` and ``trials_beta`` count the trial merits of the
    displacement and damage line searches.
    """

    u: np.ndarray
    a: np.ndarray
    alt_iters: int
    newton_iters_u: int
    newton_iters_beta: int
    trials_u: int
    trials_beta: int
    spectrum: StrainSpectrum
    psi_p: np.ndarray
    psi_m: np.ndarray
    rw: np.ndarray
    functional_trace: list = field(default_factory=list)


def _line_search(evaluate, project, x, dx, e0, slope, t):
    """The largest step 2^-j, 0 <= j <= 30, whose trial ``project(x + t*dx)``
    passes the Armijo test, searched from the start step ``t``: a start that
    passes is doubled while the next step passes too, one that fails is
    halved until a step passes.  Returns ((t, trial, energy, data) of that
    step, or None when no step passes, and the number of trials).

    Each step is evaluated once, and the search stops at the first change of
    verdict, so it finds the step that the scan down from 1 finds, and the
    same trial, whenever the passing steps form an interval [0, t*]: the
    case for an energy convex along the line (see ``newton_u``).
    """
    found, trials, grow = None, 0, None
    while _ARMIJO_MIN_STEP <= t <= 1.0:
        trial = project(x + t * dx)
        e_trial, d_trial = evaluate(trial)
        trials += 1
        passed = e_trial <= e0 + _ARMIJO_C * t * slope
        if grow is None:
            grow = passed
        if passed:
            found = (t, trial, e_trial, d_trial)
        if passed != grow:
            break
        t = 2.0 * t if grow else 0.5 * t
    return found, trials


def newton_u(
    u0: np.ndarray,
    u_d: np.ndarray,
    rw: np.ndarray,
    kernels: ElementKernels,
    p: MaterialParams,
    cfg: SolverConfig,
    dofmap: DofMap,
    state: tuple,
    step: float = 1.0,
):
    """Damped Newton on the displacement residual at the fixed damage whose
    ``degradation_weights`` are ``rw``, started from u0 with its
    constrained dofs set to zero; ``state`` is (spectrum, psi_p, psi_m) of
    that start plus u_d, its ``strain_spectrum`` and the ``psi_split`` of
    that, and ``step`` the start of the first line search.

    Returns (u, iterations, state, step, trials): the free vector keeps
    zeros on constrained dofs, ``state`` is that of the returned u + u_d,
    ``step`` the last accepted line-search step (the given one if none was)
    and ``trials`` the number of trial merits.  The merit is the degraded
    bulk energy (``erg_from_psi``); each displacement state is decomposed, and
    its energy densities computed, once, for its merit, residual and
    tangent alike, and the start's merit is taken from ``state``.  Each
    tangent's factor is dropped after its solve.  A failure raises a bare
    StepFailure.

    Each line search starts from the step the last one accepted.  Along a
    straight line x + t*dx a convex energy phi gives a convex
    phi(t) - phi(0) - c*t*slope, which is 0 at t = 0, so the steps that
    pass the Armijo test form an interval [0, t*] and ``_line_search``
    finds the same step from any start.  The displacement energy is convex
    along its lines: the split energies are convex spectral functions of
    the strain (sums and squares of the positive and negative parts of the
    principal strains), the strain is linear in the displacement, and the
    degradation weights and element measures are >= 0.
    """
    free = dofmap.free
    u = np.where(free, u0, 0.0)
    x = u[free]
    if x.size == 0:
        return u, 1, state, step, 0

    def evaluate(v):
        full = u.copy()
        full[free] = v
        spec = strain_spectrum(kernels, full + u_d)
        psi_p, psi_m = psi_split(spec, p)
        return erg_from_psi(psi_p, psi_m, rw, kernels), (spec, psi_p, psi_m)

    e0 = erg_from_psi(state[1], state[2], rw, kernels)
    trials = 0
    for k in range(1, cfg.max_newton + 1):
        r, tangent = residual_and_tangent_u(state[0], rw, kernels, p, dofmap)
        try:
            dx = factor_solve(tangent, -r)
        except LinearSolveError as exc:
            raise StepFailure(f"newton_u linear solve failed: {exc}") from exc
        slope = float(np.dot(r, dx))  # -r^T K^{-1} r <= 0 for an SPD tangent

        found, n = _line_search(evaluate, lambda v: v, x, dx, e0, slope, step)
        trials += n
        if found is None:
            break  # no descent along the Newton direction: kink minimizer reached
        step, trial, e0, state = found
        change = float(np.max(np.abs(trial - x)))
        x = trial
        if change <= cfg.tol_u:
            break
    else:
        raise StepFailure(f"newton_u: no convergence in {cfg.max_newton} iterations")
    u[free] = x
    return u, k, state, step, trials


def newton_beta(
    a0: np.ndarray,
    a_n: np.ndarray,
    dis_n: float,
    kernels: ElementKernels,
    p: MaterialParams,
    cfg: SolverConfig,
    psi_p: np.ndarray,
    psi_m: np.ndarray,
):
    """Semi-smooth Newton on the penalized damage residual at fixed
    displacement, bound-constrained to [0, 1].  ``psi_p`` and ``psi_m`` are
    the element energy densities of the displacement plus its lifting, and
    ``dis_n`` the anchor's dissipation ``dis(a_n)``.

    Returns (a, iterations, functional, rw, trials): ``functional`` is the
    penalized incremental functional (``functional_from_psi``) of the
    returned state with anchor a_n, ``rw`` its ``degradation_weights`` and
    ``trials`` the number of trial merits.  Each damage iterate's
    ``damage_fields`` are built once, by its merit, and serve its residual
    and tangent and, for the returned state, ``rw``.  A failure raises a
    bare StepFailure.

    The bounds are enforced inside the solve (projected active-set Newton),
    so the discrete overshoot of the unconstrained minimizer above 1 near a
    localized crack never enters the state: the start is clipped to [0, 1],
    dofs pinned at a bound with an outward-pushing gradient are eliminated
    from the Newton system (unit rows and columns, zero right-hand side),
    and trial states follow the projection arc.  A projection arc need not
    be convex in t, so every line search starts from the full step.  The
    solve stops when every dof is pinned.  Each iteration that solves
    assembles its tangent (``residual_and_tangent_beta``), eliminates its
    pinned dofs in place and factors it once; the factor is dropped after
    its solve.
    """

    def evaluate(v):
        fields = damage_fields(kernels, v, a_n, p)
        return functional_from_psi(psi_p, psi_m, v, fields, dis_n, kernels, p), fields

    def project(v):
        return np.clip(v, 0.0, 1.0)

    a = project(a0)
    e0, fields = evaluate(a)
    trials = 0
    for k in range(1, cfg.max_newton + 1):
        r, tangent = residual_and_tangent_beta(psi_p, a, fields, kernels, p)
        pinned = ((a <= 0.0) & (r > 0.0)) | ((a >= 1.0) & (r < 0.0))
        if pinned.all():
            break  # every dof pinned at a bound
        if pinned.any():
            r = np.where(pinned, 0.0, r)
            eliminate(tangent, pinned)
        try:
            dx = factor_solve(tangent, -r)
        except LinearSolveError as exc:
            raise StepFailure(f"newton_beta linear solve failed: {exc}") from exc
        slope = float(np.dot(r, dx))

        found, n = _line_search(evaluate, project, a, dx, e0, slope, 1.0)
        trials += n
        if found is None:
            break  # no descent along the Newton direction: kink minimizer reached
        _, trial, e0, fields = found
        change = float(np.max(np.abs(trial - a)))
        a = trial
        if change <= cfg.tol_a:
            break
    else:
        raise StepFailure(f"newton_beta: no convergence in {cfg.max_newton} iterations")
    return a, k, e0, fields.weights(kernels), trials


def alternate_minimize(
    u_start: np.ndarray,
    a_start: np.ndarray,
    rw_start: np.ndarray,
    a_n: np.ndarray,
    dis_n: float,
    u_d_next: np.ndarray,
    kernels: ElementKernels,
    p: MaterialParams,
    cfg: SolverConfig,
    dofmap: DofMap,
) -> AltResult:
    """Alternate the two Newton solves until both increments stagnate.

    ``(u_start, a_start)`` is the initial guess, which under backtracking
    differs from the admissible-set anchor ``a_n`` (the previous converged
    damage of the step being solved), ``rw_start`` the
    ``degradation_weights`` of a_start and ``dis_n`` the anchor's
    dissipation ``dis(a_n)``.  Each displacement line search starts from
    the step the last one of this call accepted, the first from 1.  Each
    state is evaluated once and handed on (see the module docstring).  A
    StepFailure leaving this call, of a Newton solve or of
    ``max_alt``, carries the state (u, a) at the start of the alternation
    that failed; a LinearSolveError from the band budget passes through.
    """
    u = np.where(dofmap.free, u_start, 0.0)
    a = np.array(a_start, dtype=np.float64, copy=True)
    rw = rw_start

    iters_u = iters_b = trials_u = trials_b = 0
    step = 1.0
    trace: list = []
    state = (strain_spectrum(kernels, u + u_d_next),)
    state += psi_split(state[0], p)

    try:
        for i in range(1, cfg.max_alt + 1):
            u_new, nu, state, step, tu = newton_u(u, u_d_next, rw, kernels, p, cfg, dofmap, state, step=step)
            a_new, nb, functional, rw, tb = newton_beta(a, a_n, dis_n, kernels, p, cfg, *state[1:])
            iters_u += nu
            iters_b += nb
            trials_u += tu
            trials_b += tb
            trace.append(functional)

            du = float(np.max(np.abs(u_new - u))) if u.size else 0.0
            da = float(np.max(np.abs(a_new - a))) if a.size else 0.0
            u, a = u_new, a_new
            if du <= cfg.tol_u and da <= cfg.tol_a:
                return AltResult(
                    u=u,
                    a=a,
                    alt_iters=i,
                    newton_iters_u=iters_u,
                    newton_iters_beta=iters_b,
                    trials_u=trials_u,
                    trials_beta=trials_b,
                    spectrum=state[0],
                    psi_p=state[1],
                    psi_m=state[2],
                    rw=rw,
                    functional_trace=trace,
                )
        raise StepFailure(f"alternate_minimize: no convergence in {cfg.max_alt} alternations")
    except StepFailure as exc:
        exc.u, exc.a = u, a
        raise
