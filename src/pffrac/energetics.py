"""Discrete energies, dissipation, and the two-sided energy inequality.

All quantities are quadrature sums over the mesh (N*mm).  Two kinds of sum
are used:

- Compensated (``math.fsum``, exactly rounded) for the energies that are
  recorded and audited: ``erg``, ``erg_from_psi``, ``grad_term``,
  ``dis`` and so ``check_two_sided``.  The inequality compares small
  differences of large numbers against an absolute tolerance eta, and an
  exactly rounded sum does not depend on the element order.
- Plain numpy reductions for the Armijo merits of the two Newton solves,
  ``bulk_merit`` and ``functional_from_psi``.  A line search compares two
  evaluations of the same sum, whose round-off lies far below its
  sufficient-decrease margin, while ``math.fsum`` with its list conversion
  costs about 30 us per sum on 480 elements, against a few us for a plain
  sum, and a merit is evaluated for every line-search trial.

The merits take what their caller has already evaluated of the state: the
element energy densities of the displacement (``psi_split``), the damage
quadrature fields (``fem.damage_fields``) and the anchor's dissipation.
The solver computes each of these once and hands it on to the residual,
the tangent and the next solve.

The stored energy of a state is ERG (degraded bulk energy of U1 + U2) plus
GRAD (the damage-gradient energy); DIS is the path-independent dissipation
state function whose difference gives the incremental dissipation.  The
upper/lower bounds are pure ERG differences (the gradient term cancels).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fem import DamageFields, ElementKernels, beta_at_qp, strain_spectrum
from .material import AT2, MaterialParams, psi_split

__all__ = [
    "EnergyReport",
    "erg",
    "erg_from_psi",
    "bulk_merit",
    "grad_term",
    "dis",
    "check_two_sided",
]


@dataclass
class EnergyReport:
    """Per-step energy audit of the two-sided inequality.

    ``e_next`` is the stored energy of the next state and ``dis_next`` its
    dissipation ``dis(a_next)``, the ``dis_curr`` of the next step pair.
    ``irreversibility_violation`` flags a ``d_inc`` below
    -1e-8*(1 + dis(a_n)): the penalty factor is too large for the step.
    """

    e_next: float
    d_inc: float
    delta: float
    lb: float
    ub: float
    passed: bool
    dis_next: float
    irreversibility_violation: bool


# Relative tolerance below which a negative incremental dissipation is
# reported as an irreversibility violation.
_DISS_REL_TOL = 1e-8


def _fsum(values: np.ndarray) -> float:
    return math.fsum(values.tolist())


def erg_from_psi(psi_p, psi_m, rw, kernels: ElementKernels) -> float:
    """Degraded bulk energy of the displacement whose element energy
    densities (``psi_split``) are given, at the damage whose
    ``degradation_weights`` are ``rw``: tensile densities weighted by ``rw``,
    compressive ones by the measures."""
    return _fsum(rw * psi_p + kernels.measures * psi_m)


def bulk_merit(psi_p, psi_m, rw, kernels: ElementKernels) -> float:
    """The displacement merit: the degraded bulk energy of ``erg_from_psi``,
    summed plainly."""
    return float((rw * psi_p + kernels.measures * psi_m).sum())


def erg(u1, u2, rw, kernels: ElementKernels, p: MaterialParams) -> float:
    """Degraded bulk energy of the displacement u1 + u2 at the damage whose
    ``degradation_weights`` are ``rw``."""
    psi_p, psi_m = psi_split(strain_spectrum(kernels, u1 + u2), p)
    return erg_from_psi(psi_p, psi_m, rw, kernels)


def grad_term(a, kernels: ElementKernels, p: MaterialParams) -> float:
    """Damage-gradient energy (gc*ell/2) * integral |grad beta|^2."""
    g = np.einsum("edi,ei->ed", kernels.b_beta, a[kernels.elements])
    return 0.5 * p.gc * p.ell * _fsum(kernels.measures * np.einsum("ed,ed->e", g, g))


def dis(a, kernels: ElementKernels, p: MaterialParams) -> float:
    """Dissipation state function: quadratic (AT2) or linear (AT1) in beta."""
    beta_qp = beta_at_qp(kernels, a)
    if p.dissipation == AT2:
        per_e = np.einsum("eq,eq->e", kernels.wj, beta_qp * beta_qp)
        return 0.5 * p.gc / p.ell * _fsum(per_e)
    per_e = np.einsum("eq,eq->e", kernels.wj, beta_qp)
    return p.kappa * p.gc / p.ell * _fsum(per_e)


def functional_from_psi(
    psi_p, psi_m, a, fields: DamageFields, dis_n, kernels: ElementKernels, p: MaterialParams
) -> float:
    """Penalized incremental functional at fixed displacement: stored energy
    + incremental dissipation + irreversibility penalty (the quantity the
    alternating minimization descends on, and the damage merit).  Takes the
    element energy densities of the displacement and the anchor's
    dissipation ``dis_n = dis(a_n)``, both fixed during a damage solve, and
    the ``damage_fields`` of a with anchor a_n.

    The integrand of ``erg``, ``grad_term`` and ``dis`` and the
    irreversibility penalty (1/(2 eps)) * integral [beta - beta_n]_-^2 (the
    potential whose gradient is the penalty residual term), summed plainly:
    the terms at the quadrature points (degraded tensile energy,
    dissipation, penalty) in one weighted sum, the element-constant ones
    (compressive energy, damage gradient) in another.
    """
    beta_qp = fields.beta
    gap_qp = np.minimum(fields.gap, 0.0)
    if p.dissipation == AT2:
        dis_qp = (0.5 * p.gc / p.ell) * (beta_qp * beta_qp)
    else:
        dis_qp = (p.kappa * p.gc / p.ell) * beta_qp
    per_qp = fields.r * psi_p[:, None] + dis_qp + (0.5 / p.eps_pen) * (gap_qp * gap_qp)
    g = np.einsum("edi,ei->ed", kernels.b_beta, a[kernels.elements])
    per_e = psi_m + (0.5 * p.gc * p.ell) * np.einsum("ed,ed->e", g, g)
    return float((kernels.wj * per_qp).sum() + (kernels.measures * per_e).sum()) - dis_n


def check_two_sided(
    u_n,
    u_d_n,
    u_next,
    u_d_next,
    a_next,
    kernels: ElementKernels,
    p: MaterialParams,
    eta: float,
    *,
    erg_curr: float,
    erg_next: float,
    grad_curr: float,
    grad_next: float,
    dis_curr: float,
    rw_curr,
    rw_next,
) -> EnergyReport:
    """Evaluate the two-sided inequality LB - eta <= dE + D <= UB + eta for
    the step pair (n, n+1).

    Each state's terms are computed once, by the caller that holds the
    state, and passed in: ``erg_curr`` and ``erg_next`` are the bulk
    energies ``erg(u_n, u_d_n, rw_curr)`` and ``erg(u_next, u_d_next,
    rw_next)``, each under its own lifting, ``grad_curr`` and ``grad_next``
    the gradient energies ``grad_term`` of a_n and a_next, ``rw_curr`` and
    ``rw_next`` their ``degradation_weights`` and ``dis_curr`` the
    dissipation ``dis(a_n)``.  ``eta`` > 0 is ``BacktrackConfig.eta``, which
    checks it.
    """
    # the other two bulk energies: each state under the other lifting.  UB
    # is the lifting increment on the current state, LB the one on the next
    # state (the proved pairing), both at that state's damage
    erg_curr_lifted = erg(u_n, u_d_next, rw_curr, kernels, p)
    erg_next_unlifted = erg(u_next, u_d_n, rw_next, kernels, p)
    e_next = erg_next + grad_next
    e_curr = erg_curr + grad_curr
    dis_next = dis(a_next, kernels, p)
    d_inc = dis_next - dis_curr
    delta = e_next - e_curr + d_inc
    ub = erg_curr_lifted - erg_curr
    lb = erg_next - erg_next_unlifted
    passed = (lb - eta <= delta) and (delta <= ub + eta)
    return EnergyReport(
        e_next=e_next,
        d_inc=d_inc,
        delta=delta,
        lb=lb,
        ub=ub,
        passed=bool(passed),
        dis_next=dis_next,
        irreversibility_violation=bool(d_inc < -_DISS_REL_TOL * (1.0 + dis_curr)),
    )
