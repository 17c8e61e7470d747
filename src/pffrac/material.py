"""Pointwise constitutive kernels for the tension/compression-split damage model.

Strains come in as engineering Voigt rows, component first: an (nv, N)
array over a batch of N strains, nv = 3 in 2-D (xx, yy, xy) and 6 in 3-D
(xx, yy, zz, yz, xz, xy), the shear rows holding u_i,j + u_j,i.  A
``StrainSpectrum`` decomposes them once, in that layout, and the split
kernels read its principal strains and directions.  Plane strain needs no
3x3 embedding: the out-of-plane principal strain is exactly zero and its
direction e_z has no in-plane component, so it adds nothing to any split
quantity and only the in-plane pair is kept.

Units: moduli in N/mm^2, ``gc`` in N/mm, lengths in mm (energies then come
out in N*mm).

Sign conventions at a zero eigenvalue: the positive part takes derivative 0
and the negative part derivative 1 (compression-side convention), so the
tangent at zero strain equals the full undegraded elasticity tensor.

Layout of the split kernels.  ``psi_split``, ``sigma_split`` and
``tangent_split`` work component-wise, as ``_jacobi`` does: the batch of N
strains is the last axis of every working array, and the small axes come
first, one row per eigen-mode (principal strains, principal stresses,
branch indicators: (d, N)), per mode and tensor index (principal
directions: (d, d, N)) or per term and Voigt component (the Voigt dyads of
the modes and of the eigenvector pairs: (J, nv, N)).  So every numpy call
runs over N (or a multiple of N) elements, instead of over a trailing axis
of length 3 per element, and the number of calls per evaluation does not
grow with the batch.  Sums over the modes are explicit, left to right
((w0 + w1) + w2), which is what a sum along a length-3 last axis computes,
so ``psi_split`` gives the same bits as the per-point form.  Energies are
returned per strain (N,), stresses as Voigt vectors (N, nv) and tangents
as Voigt matrices (N, nv, nv), the last two views of their component-first
arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "VOIGT",
    "MaterialParams",
    "StrainSpectrum",
    "psi_split",
    "principal_stresses",
    "sigma_split",
    "degradation",
    "tangent_split",
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
    """Constitutive parameters, and the damage regularisation they define.

    The regularisation is stated here and nowhere else: a damage field beta
    dissipates the integral of c * beta^m + g * |grad beta|^2, with
    (c, m) = ``dissipation_law`` (AT2: gc / (2 ell) * beta^2; AT1:
    kappa * gc / ell * beta) and g = ``grad_coeff`` = gc * ell / 2.  The
    energies, the damage merit and the damage residual and tangent read
    the law through these two properties and do not branch on it.

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
        AT1 activation threshold (dimensionless); required with AT1 and
        refused with AT2.
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
            raise ValueError(f"lam = {self.lam!r} must be >= 0")
        for name in ("mu", "gc", "ell", "eps_pen"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} = {getattr(self, name)!r} must be > 0")
        if not 0.0 < self.k < 1.0:
            raise ValueError(f"k = {self.k!r} must be in (0, 1)")
        if self.dissipation not in (AT2, AT1):
            raise ValueError(f"dissipation = {self.dissipation!r} must be {AT2} or {AT1}")
        if self.dissipation == AT1 and (self.kappa is None or self.kappa <= 0.0):
            raise ValueError(f"kappa = {self.kappa!r} must be > 0 under {AT1}")
        if self.dissipation != AT1 and self.kappa is not None:
            raise ValueError(f"kappa = {self.kappa!r} is read only by {AT1}, not by {self.dissipation}")

    @property
    def dissipation_law(self) -> tuple[float, int]:
        """(c, m) of the local dissipation density c * beta^m: AT2 is
        quadratic, AT1 linear with the activation threshold ``kappa``."""
        if self.dissipation == AT2:
            return 0.5 * self.gc / self.ell, 2
        return self.kappa * self.gc / self.ell, 1

    @property
    def grad_coeff(self) -> float:
        """g of the gradient density g * |grad beta|^2, under AT2 and AT1."""
        return 0.5 * self.gc * self.ell

    @classmethod
    def from_young_poisson(cls, e: float, nu: float, **kw) -> "MaterialParams":
        """Build from Young's modulus (N/mm^2) and Poisson ratio."""
        lam = e * nu / ((1.0 + nu) * (1.0 - 2.0 * nu))
        mu = e / (2.0 * (1.0 + nu))
        return cls(lam=lam, mu=mu, **kw)


def _rotate(x: np.ndarray, y: np.ndarray, c, s) -> None:
    """(x, y) <- (c x - s y, s x + c y), in place."""
    sx = s * x
    x *= c
    x -= s * y
    y *= c
    y += sx


def _jacobi(voigt: np.ndarray, vectors: bool):
    """Eigenvalues (3, N) of a batch of symmetric 3x3 matrices given as their
    engineering Voigt rows (6, N), and with ``vectors`` also the
    eigenvectors (3, 3, N), v[a, i] the component i of the vector of value
    a, by cyclic Jacobi sweeps vectorised over the batch (Golub & Van Loan,
    Matrix Computations, sec. 8.5).

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
    # row-major whatever the layout of ``voigt``, so that every row below
    # is contiguous
    comps = np.empty(voigt.shape)
    comps[:3] = voigt[:3]
    np.multiply(0.5, voigt[3:], out=comps[3:])
    exp = np.frexp(np.max(np.abs(comps), axis=0))[1]
    comps = np.ldexp(comps, -exp)
    diag = comps[:3]
    off = comps[3:]  # off[r] couples the two indices other than r
    if vectors:
        v = np.zeros((3, 3, comps.shape[1]))
        v[[0, 1, 2], [0, 1, 2]] = 1.0
    for _ in range(_MAX_SWEEPS):
        if not np.any(np.abs(off) > _ROUNDOFF):
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
                _rotate(v[p], v[q], c, s)
    else:
        raise RuntimeError(f"Jacobi eigensolver: no convergence in {_MAX_SWEEPS} sweeps")
    w = np.ldexp(diag, exp)
    return (w, v) if vectors else w


def _plane(voigt: np.ndarray):
    """Mean m, half-difference h, shear c and radius r of the Mohr circle of
    plane strains in Voigt rows (3, N): the principal strains are m -+ r."""
    a, b, c = voigt[0], voigt[1], 0.5 * voigt[2]
    m = 0.5 * (a + b)
    h = 0.5 * (a - b)
    return m, h, c, np.hypot(h, c)


class StrainSpectrum:
    """Principal strains and directions of a batch of strains.

    ``voigt`` holds the engineering Voigt strains component first, (nv, N)
    (see the module notes).  ``modes`` (d, N) holds the principal strains
    and ``directions`` (d, d, N) the principal directions,
    directions[a, i] = n_a[i].  In 3-D a vectorised Jacobi eigensolver gives
    the values; the directions are built on first access, by a second pass
    that also applies its rotations to them, since energies need only the
    values.  In plane strain the in-plane pair has a closed form; the
    out-of-plane pair, exactly (0, e_z), adds nothing to the split and is
    not held, so the zero out-of-plane principal strain never suffers
    eigensolver round-off.  The strains are released once the directions
    are built.  The split functions take a spectrum, so a state evaluated
    for several quantities is decomposed once.
    """

    def __init__(self, voigt: np.ndarray):
        voigt = np.asarray(voigt, dtype=np.float64)
        if voigt.ndim != 2 or len(voigt) not in (3, 6):
            raise ValueError("strain must be engineering Voigt rows (nv, N) with nv in {3, 6}")
        self._voigt = voigt
        self._vectors = None
        if len(voigt) == 6:
            self.modes = _jacobi(voigt, vectors=False)
            return
        m, _, _, r = _plane(voigt)
        self.modes = np.stack((m - r, m + r))

    @property
    def shape(self) -> tuple:
        """Shape of the strain batch, (N,)."""
        return self.modes.shape[1:]

    def rows(self, lo: int, hi: int) -> "StrainSpectrum":
        """Spectrum of the strains [lo, hi) of the batch: views of this
        spectrum's principal strains and directions (the directions are
        built here first if they were not yet)."""
        view = object.__new__(StrainSpectrum)
        view._vectors = self.directions[..., lo:hi]
        view.modes = self.modes[:, lo:hi]
        return view

    @property
    def directions(self) -> np.ndarray:
        if self._vectors is None and len(self._voigt) == 6:
            # the rotations never read the vectors, so this second pass
            # repeats the values pass bit for bit
            _, self._vectors = _jacobi(self._voigt, vectors=True)
        elif self._vectors is None:
            _, h, c, r = _plane(self._voigt)
            # direction of the larger mode; pick the better-conditioned
            # analytic form
            use_h = h >= 0.0
            vx = np.where(use_h, r + h, c)
            vy = np.where(use_h, c, r - h)
            norm = np.hypot(vx, vy)
            deg = norm <= 0.0
            safe = np.where(deg, 1.0, norm)
            vx = np.where(deg, 1.0, vx / safe)
            vy = np.where(deg, 0.0, vy / safe)
            self._vectors = np.stack((np.stack((-vy, vx)), np.stack((vx, vy))))
        self._voigt = None  # read only to build the directions
        return self._vectors


def _add(terms) -> np.ndarray:
    """Sum of a sequence of arrays, left to right: (t0 + t1) + t2 ..."""
    total = terms[0]
    for t in terms[1:]:
        total = total + t
    return total


def _dyads(v: np.ndarray) -> np.ndarray:
    """Voigt forms of the principal directions ``v`` (d, d, N), one
    row per term and Voigt component: (J, nv, N).  The first d terms are
    the modes, M_a[k] = n_a[i_k] n_a[j_k], the Voigt form of n_a (x) n_a;
    the others are the pairs (a, b) of ``_PAIRS``,
    P_ab[k] = n_a[i_k] n_b[j_k] + n_b[i_k] n_a[j_k].  Filled in place, so
    no temporary is larger than one pair's rows."""
    d = v.shape[0]
    vi, vj = (v[:, k] for k in VOIGT[d])
    q = np.empty((d + len(_PAIRS[d][0]),) + vi.shape[1:])
    np.multiply(vi, vj, out=q[:d])
    for j, (a, b) in enumerate(zip(*_PAIRS[d]), start=d):
        np.multiply(vi[a], vj[b], out=q[j])
        q[j] += vi[b] * vj[a]
    return q


def psi_split(s: StrainSpectrum, p: MaterialParams):
    """Tensile/compressive elastic energy densities of the strain batch whose
    spectrum is ``s``.

    psi0_pm = lam/2 (tr eps_pm)^2 + mu eps_pm : eps_pm, evaluated from the
    signed principal strains.  Both values are >= 0 (lam >= 0).
    """
    w = s.modes

    def branch(x):  # x = <w>_pm, squared in place once its trace is taken
        tr = _add(x)
        x *= x
        return 0.5 * p.lam * tr * tr + p.mu * _add(x)

    return branch(np.maximum(w, 0.0)), branch(np.minimum(w, 0.0))


def principal_stresses(w: np.ndarray, p: MaterialParams):
    """Principal stresses of sigma0_pm (gradients of psi0_pm) and the branch
    indicators, (fp, fm, hp, hm), mode axis first like ``w``, the principal
    strains (d, N).  ``sigma_split`` and ``tangent_split`` take them, so a
    state whose stress and tangent are both evaluated computes them once;
    a block of the batch takes ``x[:, lo:hi]`` of each, as
    ``StrainSpectrum.rows`` slices the spectrum.

    f_a^+ = lam tr(eps_+) H(w_a > 0) + 2 mu <w_a>_+ and the mirrored minus
    part with H(w_a <= 0); H at zero follows the compression-side
    convention.  The indicators are boolean.
    """
    wp = np.maximum(w, 0.0)
    wm = np.minimum(w, 0.0)
    hp = w > 0.0
    hm = ~hp
    fp = p.lam * _add(wp) * hp + 2.0 * p.mu * wp
    fm = p.lam * _add(wm) * hm + 2.0 * p.mu * wm
    return fp, fm, hp, hm


def sigma_split(s: StrainSpectrum, f, p: MaterialParams):
    """Tensile/compressive stresses, the exact gradients of ``psi_split``, of
    the strain batch whose spectrum is ``s`` and whose
    ``principal_stresses`` are ``f``, as Voigt vectors (N, nv):
    sigma0_pm = sum_a f_a^pm n_a (x) n_a, formed as d x d tensors with the
    batch axis last and read out in Voigt order.

    In the input dimension (the in-plane components for plane strain; the
    out-of-plane normal stress never enters 2-D assembly).
    """
    fp, fm, _, _ = f
    v = s.directions

    def branch(f):
        return np.einsum("ain,ajn->ijn", f[:, None] * v, v)[VOIGT[len(v)]].T

    return branch(fp), branch(fm)


def degradation(beta, p: MaterialParams):
    """Degradation factor R = (1 - beta)^2 + k and its derivative."""
    beta = np.asarray(beta, dtype=np.float64)
    one_m = 1.0 - beta
    return one_m * one_m + p.k, -2.0 * one_m


def tangent_split(s: StrainSpectrum, f, p: MaterialParams):
    """Tangents of the split stresses: (d sigma0_+/d eps, d sigma0_-/d eps),
    of the strain batch whose spectrum is ``s`` and whose
    ``principal_stresses`` are ``f``.

    Both in engineering-shear Voigt form (3x3 over (xx, yy, xy) in 2-D,
    6x6 over (xx, yy, zz, yz, xz, xy) in 3-D), built directly from the
    eigenpairs (Miehe, Welschinger & Hofacker 2010, IJNME 83:1273):

        C = M^T D M + sum_{a<b} 1/2 g_ab P_ab P_ab^T,

    with M_a[k] = n_a[i_k] n_a[j_k] the Voigt form of n_a (x) n_a,
    P_ab[k] = n_a[i_k] n_b[j_k] + n_b[i_k] n_a[j_k], the normal block
    D = lam h h^T + 2 mu diag(h) (h the branch indicator of each principal
    strain) and the shear coefficient g_ab = (f_a - f_b) / (w_a - w_b) of the
    principal stresses f.  That is
    C = lam (M h)(M h)^T + sum_j c_j Q_j Q_j^T over the modes (Q_j = M_a,
    c_j = 2 mu h_a) and the pairs (Q_j = P_ab, c_j = g_ab / 2), the sum over
    j taken by one einsum with the batch axis innermost.  In plane strain
    the out-of-plane direction e_z is exact and has no in-plane component,
    so only the in-plane modes and their one pair remain.  Near-repeated
    eigenvalues (gap below 1e-9*(1+|eps|)) use the coalesced-pair limit
    g_ab = 2 mu h.
    """
    w = s.modes
    fp, fm, hp, hm = f
    q = _dyads(s.directions)
    m = q[: len(w)]
    a, b = _PAIRS[len(w)]

    # |eps| from the principal strains, which the modes hold in full
    gap_tol = _GAP_REL * (1.0 + np.sqrt(_add(w * w)))
    wa, wb = w[a], w[b]
    dw = wa - wb
    small = np.abs(dw) < gap_tol
    safe = np.where(small, 1.0, dw)
    # coalesced limit: the lam coupling cancels, leaving 2 mu per branch
    hbp = 0.5 * (wa + wb) > 0.0

    def branch(f, h, h_pair):
        g = np.where(small, 2.0 * p.mu * h_pair, (f[a] - f[b]) / safe)
        coef = np.concatenate([2.0 * p.mu * h, 0.5 * g])
        mh = np.einsum("an,akn->kn", h, m)
        c = np.einsum("jkn,jln->kln", coef[:, None] * q, q)
        c += (p.lam * mh)[:, None] * mh
        return c.transpose(2, 0, 1)

    return branch(fp, hp, hbp), branch(fm, hm, ~hbp)

