"""Discrete energies, dissipation, and the two-sided energy inequality.

All quantities are quadrature sums over the mesh (N*mm), each one plain
numpy reduction (``ndarray.sum``, pairwise summation).  Every summand of
``erg_from_psi``, ``grad_term`` and ``dis`` is >= 0, so each sum is within
a small multiple of log2(n) unit roundoffs of the exact one, relatively
(Higham, *Accuracy and Stability of Numerical Algorithms*, 2002, section
4.2): below 1e-14 even for a million summands.  The check's differences of
energies move by that much of the energies, far below its tolerance eta.
``erg_from_psi`` is both a solve's recorded bulk energy and the
displacement merit, so the two are equal bit for bit.

The merits take what their caller has already evaluated of the state: the
element energy densities of the displacement (``psi_split``), the damage
quadrature fields (``fem.damage_fields``) and the anchor's dissipation.
The solver computes the first two once and hands them on to the residual,
the tangent and the next solve; the anchor's dissipation is read from the
anchor state's record.

The two-sided check reads two evaluated states (``StateEnergy``): a
state's lifting, degradation weights, bulk and gradient energies and
dissipation are computed once, where the state is held (the driver's solve
record, a snapshot that ``check-energy`` reads), and the check evaluates
only the bulk energy of each state under the other's lifting.

The stored energy of a state is ERG (degraded bulk energy of U1 + U2) plus
GRAD (the damage-gradient energy); DIS is the path-independent dissipation
state function whose difference gives the incremental dissipation.  The
upper/lower bounds are pure ERG differences (the gradient term cancels).
GRAD and DIS read the damage regularisation law of ``MaterialParams``
(``grad_coeff`` and ``dissipation_law``), as the damage merit does.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .fem import DamageFields, ElementKernels, beta_at_qp, grad_sq, strain_spectrum
from .material import MaterialParams, psi_split

__all__ = [
    "StateEnergy",
    "EnergyReport",
    "INITIAL_REPORT",
    "erg",
    "erg_from_psi",
    "grad_term",
    "dis",
    "dis_from_beta",
    "check_two_sided",
]


@dataclass(eq=False)
class StateEnergy:
    """An evaluated state of one step: the free displacement ``u``, its
    lifting ``u_d``, the ``degradation_weights`` ``rw`` of its damage a,
    and its terms of the two-sided check, each evaluated once by whoever
    holds the state: ``bulk_energy`` erg(u, u_d, rw), ``grad_energy``
    grad_term(a) and ``dissipation`` dis(a).  States compare by identity,
    and the repr gives the scalars alone, so neither reads an array."""

    u: np.ndarray = field(repr=False)
    u_d: np.ndarray = field(repr=False)
    rw: np.ndarray = field(repr=False)
    bulk_energy: float
    grad_energy: float
    dissipation: float


@dataclass(frozen=True)
class EnergyReport:
    """Per-step energy audit of the two-sided inequality.

    ``e_next`` is the stored energy of the next state.
    ``irreversibility_violation`` flags a ``d_inc`` below
    -1e-8*(1 + dis(a_n)): the penalty factor is too large for the step.
    """

    e_next: float
    d_inc: float
    delta: float
    lb: float
    ub: float
    passed: bool
    irreversibility_violation: bool


# The report of the initial state, which ends no step pair: the unloaded,
# undamaged state stores and dissipates nothing, and its bounds hold.
INITIAL_REPORT = EnergyReport(
    e_next=0.0, d_inc=0.0, delta=0.0, lb=0.0, ub=0.0, passed=True, irreversibility_violation=False
)


# Relative tolerance below which a negative incremental dissipation is
# reported as an irreversibility violation.
_DISS_REL_TOL = 1e-8


def erg_from_psi(psi_p, psi_m, rw, kernels: ElementKernels) -> float:
    """Degraded bulk energy of the displacement whose element energy
    densities (``psi_split``) are given, at the damage whose
    ``degradation_weights`` are ``rw``: tensile densities weighted by ``rw``,
    compressive ones by the measures.  The displacement merit."""
    return float((rw * psi_p + kernels.measures * psi_m).sum())


def erg(u1, u2, rw, kernels: ElementKernels, p: MaterialParams) -> float:
    """Degraded bulk energy of the displacement u1 + u2 at the damage whose
    ``degradation_weights`` are ``rw``."""
    psi_p, psi_m = psi_split(strain_spectrum(kernels, u1 + u2), p)
    return erg_from_psi(psi_p, psi_m, rw, kernels)


def grad_term(a, kernels: ElementKernels, p: MaterialParams) -> float:
    """Damage-gradient energy g * integral |grad beta|^2, g =
    ``p.grad_coeff``."""
    return p.grad_coeff * float((kernels.measures * grad_sq(kernels, a)).sum())


def dis(a, kernels: ElementKernels, p: MaterialParams) -> float:
    """Dissipation state function c * integral beta^m, (c, m) =
    ``p.dissipation_law`` (AT2 quadratic, AT1 linear in beta)."""
    return dis_from_beta(beta_at_qp(kernels, a), kernels, p)


def dis_from_beta(beta, kernels: ElementKernels, p: MaterialParams) -> float:
    """``dis`` of the damage whose ``beta_at_qp`` is beta."""
    c, m = p.dissipation_law
    return c * float((kernels.wj * beta**m).sum())


def functional_from_psi(
    psi_p, psi_m, a, fields: DamageFields, dis_n, kernels: ElementKernels, p: MaterialParams
) -> float:
    """Penalized incremental functional at fixed displacement: stored energy
    + incremental dissipation + irreversibility penalty (the quantity the
    alternating minimization descends on, and the damage merit).  Takes the
    element energy densities of the displacement and the anchor's
    dissipation ``dis_n = dis(a_n)``, both fixed during a damage solve, and
    the ``damage_fields`` of a with anchor a_n.

    The integrand of ``erg``, ``grad_term`` and ``dis`` (the regularisation
    law of ``p.dissipation_law`` and ``p.grad_coeff``) and the
    irreversibility penalty (1/(2 eps)) * integral [beta - beta_n]_-^2 (the
    potential whose gradient is the penalty residual term), summed plainly:
    the terms at the quadrature points (degraded tensile energy,
    dissipation, penalty) in one weighted sum, the element-constant ones
    (compressive energy, damage gradient) in another.
    """
    c, m = p.dissipation_law
    gap_qp = np.minimum(fields.gap, 0.0)
    per_qp = fields.r * psi_p[:, None] + c * fields.beta**m + (0.5 / p.eps_pen) * (gap_qp * gap_qp)
    per_e = psi_m + p.grad_coeff * grad_sq(kernels, a)
    return float((kernels.wj * per_qp).sum() + (kernels.measures * per_e).sum()) - dis_n


def check_two_sided(
    curr: StateEnergy, nxt: StateEnergy, kernels: ElementKernels, p: MaterialParams, eta: float
) -> EnergyReport:
    """Evaluate the two-sided inequality LB - eta <= dE + D <= UB + eta for
    the step pair of the evaluated states ``curr`` (step n) and ``nxt``
    (step n+1).  Only the two cross-lifting bulk energies are evaluated
    here; every other term is the states' own.  ``eta`` > 0 is
    ``BacktrackConfig.eta``, which checks it.
    """
    # the other two bulk energies: each state under the other lifting.  UB
    # is the lifting increment on the current state, LB the one on the next
    # state (the proved pairing), both at that state's damage
    erg_curr_lifted = erg(curr.u, nxt.u_d, curr.rw, kernels, p)
    erg_next_unlifted = erg(nxt.u, curr.u_d, nxt.rw, kernels, p)
    e_next = nxt.bulk_energy + nxt.grad_energy
    e_curr = curr.bulk_energy + curr.grad_energy
    d_inc = nxt.dissipation - curr.dissipation
    delta = e_next - e_curr + d_inc
    ub = erg_curr_lifted - curr.bulk_energy
    lb = nxt.bulk_energy - erg_next_unlifted
    passed = (lb - eta <= delta) and (delta <= ub + eta)
    return EnergyReport(
        e_next=e_next,
        d_inc=d_inc,
        delta=delta,
        lb=lb,
        ub=ub,
        passed=bool(passed),
        irreversibility_violation=bool(d_inc < -_DISS_REL_TOL * (1.0 + curr.dissipation)),
    )
