"""Pointwise constitutive kernels for the tension/compression-split damage model.

Strain and stress tensors are plain symmetric numpy arrays of shape
``(..., d, d)`` with ``d`` in {2, 3}; leading axes broadcast, so the same
functions serve single quadrature points and whole-mesh batches.  Plane
strain is handled by embedding 2x2 strains into 3x3 with an exactly zero
out-of-plane eigenvalue (eigenvector e_z), so the split formulas are
dimension-uniform.

Units: moduli in N/mm^2, ``gc`` in N/mm, lengths in mm (energies then come
out in N*mm).  Inputs given in kN/mm^2 are converted once, at construction,
via the ``from_*`` helpers.

Sign conventions at a zero eigenvalue: the positive part takes derivative 0
and the negative part derivative 1 (compression-side convention), so the
tangent at zero strain equals the full undegraded elasticity tensor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "VOIGT",
    "MaterialParams",
    "StrainSpectrum",
    "psi_split",
    "sigma_split",
    "degradation",
    "tangent_split",
    "strain_tensor_from_voigt",
    "stress_voigt_from_tensor",
]

AT2 = "AT2"
AT1 = "AT1"

# Relative eigenvalue-gap threshold below which the tangent switches to the
# repeated-eigenvalue limit formula.
_GAP_REL = 1e-9

# _jacobi drops off-diagonal entries up to the unit round-off of the power of
# two above their matrix's largest entry; its cyclic sweeps converge
# quadratically (1-5 sweeps in practice), so reaching _MAX_SWEEPS is an error.
_ROUNDOFF = 2.0**-53
_MAX_SWEEPS = 32

# The Voigt order, per dimension: the tensor indices (i_k, j_k) of each
# component k, (xx, yy, xy) in 2-D and (xx, yy, zz, yz, xz, xy) in 3-D.  A
# strain component off the diagonal is the engineering shear u_i,j + u_j,i.
VOIGT = {2: ((0, 1, 0), (0, 1, 1)), 3: ((0, 1, 2, 1, 0, 0), (0, 1, 2, 2, 2, 1))}
# Eigenvector pairs (a, b) with a shear term; the in-plane pair only in 2-D.
_PAIRS = {2: (np.array([0]), np.array([1])), 3: (np.array([0, 0, 1]), np.array([1, 2, 2]))}


@dataclass(frozen=True)
class MaterialParams:
    """Constitutive parameters.

    Attributes
    ----------
    lam, mu : float
        Lame constants (N/mm^2).
    gc : float
        Critical energy release rate (N/mm).
    ell : float
        Internal length controlling the damage band width (mm).
    k : float
        Residual stiffness of the fully broken phase (dimensionless).
    dissipation : str
        "AT2" (quadratic) or "AT1" (linear with activation threshold).
    kappa : float or None
        AT1 activation threshold (dimensionless); required iff AT1.
    eps_pen : float
        Irreversibility penalty factor (dimensionless).
    """

    lam: float
    mu: float
    gc: float
    ell: float
    k: float = 1e-4
    dissipation: str = AT2
    kappa: float | None = None
    eps_pen: float = 1e-6

    def __post_init__(self):
        if self.lam < 0.0:
            raise ValueError("lam must be >= 0")
        if self.mu <= 0.0 or self.gc <= 0.0 or self.ell <= 0.0:
            raise ValueError("mu, gc, ell must be > 0")
        if not 0.0 < self.k < 1.0:
            raise ValueError("k must be in (0, 1)")
        if self.eps_pen <= 0.0:
            raise ValueError("eps_pen must be > 0")
        if self.dissipation not in (AT2, AT1):
            raise ValueError(f"unknown dissipation variant {self.dissipation!r}")
        if self.dissipation == AT1 and (self.kappa is None or self.kappa <= 0.0):
            raise ValueError("AT1 requires kappa > 0")

    @classmethod
    def from_lame_kn(cls, lam_kn: float, mu_kn: float, **kw) -> "MaterialParams":
        """Build from Lame constants given in kN/mm^2."""
        return cls(lam=1e3 * lam_kn, mu=1e3 * mu_kn, **kw)

    @classmethod
    def from_young_poisson_kn(cls, e_kn: float, nu: float, **kw) -> "MaterialParams":
        """Build from Young's modulus (kN/mm^2) and Poisson ratio."""
        e = 1e3 * e_kn
        lam = e * nu / ((1.0 + nu) * (1.0 - 2.0 * nu))
        mu = e / (2.0 * (1.0 + nu))
        return cls(lam=lam, mu=mu, **kw)


def _check_sym(eps: np.ndarray) -> np.ndarray:
    eps = np.asarray(eps, dtype=np.float64)
    d = eps.shape[-1]
    if eps.ndim < 2 or eps.shape[-2] != d or d not in (2, 3):
        raise ValueError("strain must have shape (..., d, d) with d in {2, 3}")
    return eps


def _rotate(x: np.ndarray, y: np.ndarray, c, s) -> None:
    """(x, y) <- (c x - s y, s x + c y), in place."""
    sx = s * x
    x *= c
    x -= s * y
    y *= c
    y += sx


def _jacobi(eps: np.ndarray, vectors: bool):
    """Eigenvalues (..., 3) of a batch of symmetric 3x3 matrices, and with
    ``vectors`` also the eigenvectors (..., 3, 3) as columns, by cyclic Jacobi
    sweeps vectorised over the batch (Golub & Van Loan, Matrix Computations,
    sec. 8.5).

    Each matrix is first scaled by the power of two that brings its largest
    entry into [1/2, 1), which is exact and keeps every square below in
    range.  A rotation zeroes one off-diagonal entry with the smaller root
    t = sgn(theta) / (|theta| + sqrt(1 + theta^2)), theta = (a_qq - a_pp) /
    (2 a_pq), written as e / (d + sgn(d) sqrt(d^2 + e^2)) with d = a_qq - a_pp
    and e = 2 a_pq, so that a tiny pivot cannot overflow.  Entries within
    round-off of the scale are dropped instead of rotated: rotating one away
    would still shift the diagonal by round-off, enough to move an exactly
    zero principal strain to the tensile side of the split.  Sweeps stop once
    no entry is left.  Non-finite matrices give non-finite values.  The
    eigenvalues are unsorted, and the same with or without ``vectors``.
    """
    shape = eps.shape[:-2]
    m = eps.reshape(-1, 3, 3)
    comps = [m[:, 0, 0], m[:, 1, 1], m[:, 2, 2], m[:, 1, 2], m[:, 0, 2], m[:, 0, 1]]
    big = np.abs(comps[0])
    for x in comps[1:]:
        big = np.maximum(big, np.abs(x))
    exp = np.frexp(big)[1]
    comps = [np.ldexp(x, -exp) for x in comps]
    diag = comps[:3]
    off = comps[3:]  # off[r] couples the two indices other than r
    if vectors:
        v = [[np.full(m.shape[0], float(i == k)) for k in range(3)] for i in range(3)]
    for _ in range(_MAX_SWEEPS):
        if not any(np.any(np.abs(o) > _ROUNDOFF) for o in off):
            break
        for p, q, r in ((0, 1, 2), (0, 2, 1), (1, 2, 0)):
            apq = off[r]
            apq *= np.abs(apq) > _ROUNDOFF
            d = diag[q] - diag[p]
            e = 2.0 * apq
            den = d + np.copysign(np.sqrt(d * d + e * e), d)
            t = e / (den + (den == 0.0))  # 0 where d = e = 0
            c = 1.0 / np.sqrt(1.0 + t * t)
            s = t * c
            t *= apq
            diag[p] -= t
            diag[q] += t
            apq[:] = 0.0
            # the third index r couples to p through off[q], to q through off[p]
            _rotate(off[q], off[p], c, s)
            if vectors:
                for row in v:
                    _rotate(row[p], row[q], c, s)
    else:
        raise RuntimeError(f"Jacobi eigensolver: no convergence in {_MAX_SWEEPS} sweeps")
    w = np.stack([np.ldexp(x, exp) for x in diag], axis=-1).reshape(shape + (3,))
    if not vectors:
        return w
    return w, np.stack([np.stack(row, axis=-1) for row in v], axis=-2).reshape(shape + (3, 3))


class StrainSpectrum:
    """Principal strains of a batch of strains, in the 3x3 embedding.

    ``eps`` is the checked strain batch (..., d, d), ``eigvals`` (..., 3) its
    principal strains and ``eigvecs`` (..., 3, 3) the principal directions as
    columns.  In 3-D a vectorised Jacobi eigensolver gives the values; the
    vectors are built on first access, by a second pass that also applies
    its rotations to them, since energies need only the values.  In plane
    strain the in-plane pair has a closed form and the out-of-plane pair is
    exactly (0, e_z), kept last, so the zero eigenvalue never suffers
    eigensolver round-off.  The split functions take a spectrum, so a state
    evaluated for several quantities is decomposed once.
    """

    def __init__(self, eps: np.ndarray):
        eps = _check_sym(eps)
        self.eps = eps
        self._eigvecs = None
        if eps.shape[-1] == 3:
            self.eigvals = _jacobi(eps, vectors=False)
            return
        a = eps[..., 0, 0]
        b = eps[..., 1, 1]
        c = eps[..., 0, 1]
        m = 0.5 * (a + b)
        h = 0.5 * (a - b)
        r = np.hypot(h, c)
        w = np.zeros(eps.shape[:-2] + (3,))
        w[..., 0] = m - r
        w[..., 1] = m + r
        self.eigvals = w
        self._hcr = (h, c, r)

    @property
    def shape(self) -> tuple:
        """Shape of the strain batch."""
        return self.eps.shape

    def rows(self, lo: int, hi: int) -> "StrainSpectrum":
        """Spectrum of the strains [lo, hi) along the first axis: views of
        this spectrum's strains and eigenpairs (the vectors are built here
        first if they were not yet)."""
        view = object.__new__(StrainSpectrum)
        view.eps = self.eps[lo:hi]
        view.eigvals = self.eigvals[lo:hi]
        view._eigvecs = self.eigvecs[lo:hi]
        return view

    @property
    def eigvecs(self) -> np.ndarray:
        if self._eigvecs is None and self.eps.shape[-1] == 3:
            # the rotations never read the vectors, so this second pass
            # repeats the values pass bit for bit
            _, self._eigvecs = _jacobi(self.eps, vectors=True)
        elif self._eigvecs is None:
            h, c, r = self._hcr
            # eigenvector of w2; pick the better-conditioned analytic form
            use_h = h >= 0.0
            vx = np.where(use_h, r + h, c)
            vy = np.where(use_h, c, r - h)
            norm = np.hypot(vx, vy)
            deg = norm <= 0.0
            safe = np.where(deg, 1.0, norm)
            vx = np.where(deg, 1.0, vx / safe)
            vy = np.where(deg, 0.0, vy / safe)

            v = np.zeros(self.eps.shape[:-2] + (3, 3))
            v[..., 0, 0] = -vy
            v[..., 1, 0] = vx
            v[..., 0, 1] = vx
            v[..., 1, 1] = vy
            v[..., 2, 2] = 1.0
            self._eigvecs = v
        return self._eigvecs


def psi_split(s: StrainSpectrum, p: MaterialParams):
    """Tensile/compressive elastic energy densities of the strain batch whose
    spectrum is ``s``.

    psi0_pm = lam/2 (tr eps_pm)^2 + mu eps_pm : eps_pm, evaluated from the
    signed principal strains.  Both values are >= 0 (lam >= 0).
    """
    w = s.eigvals
    wp = np.maximum(w, 0.0)
    wm = np.minimum(w, 0.0)
    trp = wp.sum(axis=-1)
    trm = wm.sum(axis=-1)
    psi_p = 0.5 * p.lam * trp * trp + p.mu * (wp * wp).sum(axis=-1)
    psi_m = 0.5 * p.lam * trm * trm + p.mu * (wm * wm).sum(axis=-1)
    return psi_p, psi_m


def _split_stress_coeffs(w: np.ndarray, p: MaterialParams):
    """Principal stress coefficients of sigma0_pm (gradients of psi0_pm).

    f_a^+ = lam tr(eps_+) H(w_a > 0) + 2 mu <w_a>_+ and the mirrored minus
    part with H(w_a <= 0); H at zero follows the compression-side convention.
    """
    wp = np.maximum(w, 0.0)
    wm = np.minimum(w, 0.0)
    hp = (w > 0.0).astype(np.float64)
    hm = 1.0 - hp
    trp = wp.sum(axis=-1, keepdims=True)
    trm = wm.sum(axis=-1, keepdims=True)
    fp = p.lam * trp * hp + 2.0 * p.mu * wp
    fm = p.lam * trm * hm + 2.0 * p.mu * wm
    return fp, fm, hp, hm


def sigma_split(s: StrainSpectrum, p: MaterialParams):
    """Tensile/compressive stresses, the exact gradients of ``psi_split``, of
    the strain batch whose spectrum is ``s``.

    Returned in the input dimension (in-plane block for plane strain; the
    out-of-plane normal stress never enters 2-D assembly).
    """
    d = s.eps.shape[-1]
    w, v = s.eigvals, s.eigvecs
    fp, fm, _, _ = _split_stress_coeffs(w, p)
    vt = np.swapaxes(v, -1, -2)
    sig_p = (v * fp[..., None, :]) @ vt
    sig_m = (v * fm[..., None, :]) @ vt
    return sig_p[..., :d, :d], sig_m[..., :d, :d]


def degradation(beta, p: MaterialParams):
    """Degradation factor R = (1 - beta)^2 + k and its derivative."""
    beta = np.asarray(beta, dtype=np.float64)
    one_m = 1.0 - beta
    return one_m * one_m + p.k, -2.0 * one_m


def tangent_split(s: StrainSpectrum, p: MaterialParams):
    """Tangents of the split stresses: (d sigma0_+/d eps, d sigma0_-/d eps),
    of the strain batch whose spectrum is ``s``.

    Both in engineering-shear Voigt form (3x3 over (xx, yy, xy) in 2-D,
    6x6 over (xx, yy, zz, yz, xz, xy) in 3-D), built directly from the
    eigenpairs (Miehe, Welschinger & Hofacker 2010, IJNME 83:1273):

        C = M^T D M + sum_{a<b} 1/2 g_ab P_ab P_ab^T,

    with M_a[k] = n_a[i_k] n_a[j_k] the Voigt form of n_a (x) n_a,
    P_ab[k] = n_a[i_k] n_b[j_k] + n_b[i_k] n_a[j_k], the normal block
    D = lam h h^T + 2 mu diag(h) (h the branch indicator of each principal
    strain) and the shear coefficient g_ab = (f_a - f_b) / (w_a - w_b) of the
    principal stresses f.  In plane strain the out-of-plane direction e_z is
    exact and has no in-plane component, so only the in-plane modes and their
    one pair remain.  Near-repeated eigenvalues (gap below
    1e-9*(1+|eps|)) use the coalesced-pair limit g_ab = 2 mu h.
    """
    eps = s.eps
    d = eps.shape[-1]
    w, v = s.eigvals, s.eigvecs
    fp, fm, hp, hm = _split_stress_coeffs(w, p)

    vi_k, vj_k = VOIGT[d]
    vi = v[..., vi_k, :d]  # (..., nv, modes): n_a[i_k]
    vj = v[..., vj_k, :d]
    m = vi * vj
    a, b = _PAIRS[d]
    pab = vi[..., a] * vj[..., b] + vi[..., b] * vj[..., a]
    q = np.concatenate([m, pab], axis=-1)
    qt = np.swapaxes(q, -1, -2)

    dw = w[..., a] - w[..., b]
    gap_tol = _GAP_REL * (1.0 + np.linalg.norm(eps, axis=(-2, -1)))
    small = np.abs(dw) < gap_tol[..., None]
    safe = np.where(small, 1.0, dw)
    # coalesced limit: the lam coupling cancels, leaving 2 mu per branch
    hbp = (0.5 * (w[..., a] + w[..., b]) > 0.0).astype(np.float64)

    def branch(f, h, h_pair):
        g = np.where(small, 2.0 * p.mu * h_pair, (f[..., a] - f[..., b]) / safe)
        coef = np.concatenate([2.0 * p.mu * h[..., :d], 0.5 * g], axis=-1)
        mh = m @ h[..., :d, None]
        return (q * coef[..., None, :]) @ qt + p.lam * mh * np.swapaxes(mh, -1, -2)

    return branch(fp, hp, hbp), branch(fm, hm, 1.0 - hbp)


def strain_tensor_from_voigt(v: np.ndarray, dim: int) -> np.ndarray:
    """Engineering-strain Voigt vector(s) to symmetric tensor(s)."""
    v = np.asarray(v, dtype=np.float64)
    out = np.zeros(v.shape[:-1] + (dim, dim))
    for k, (i, j) in enumerate(zip(*VOIGT[dim])):
        if i == j:
            out[..., i, i] = v[..., k]
        else:
            out[..., i, j] = out[..., j, i] = 0.5 * v[..., k]
    return out


def stress_voigt_from_tensor(t: np.ndarray, dim: int) -> np.ndarray:
    """Symmetric stress tensor(s) to Voigt vector(s)."""
    t = np.asarray(t, dtype=np.float64)
    return np.stack([t[..., i, j] for i, j in zip(*VOIGT[dim])], axis=-1)
