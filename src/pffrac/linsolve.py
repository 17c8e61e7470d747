"""Sparse symmetric positive-definite solves for the Newton tangents.

Each tangent is factored by LAPACK banded Cholesky (``dpbtrf``/``dpbtrs``
through ``scipy.linalg.cholesky_banded``) after a reverse Cuthill-McKee
reordering, which keeps the band of the P1 finite-element graphs narrow.
The ordering depends only on the sparsity structure, so a ``BandOrdering``
is built once per structure: it holds the permutation and the band-storage
slot of every stored upper-triangle entry, and each factorization is then a
zeroed band array, one scatter of the matrix data and one LAPACK call.
Problems above a size threshold fall back to conjugate gradients with a
Jacobi preconditioner.  Solutions are residual-checked, and a tangent that
is not positive definite is reported instead of silently returning garbage.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse.csgraph import reverse_cuthill_mckee

__all__ = ["LinearSolveError", "BandOrdering", "factor_solve", "CG_DOF_THRESHOLD"]

# Above this dof count the direct factorization is replaced by CG.
CG_DOF_THRESHOLD = 200_000

_DIRECT_RTOL = 1e-10
_CG_RTOL = 1e-8


class LinearSolveError(RuntimeError):
    """Factorization breakdown or unacceptable solve residual."""


@dataclass(frozen=True)
class BandOrdering:
    """Reverse Cuthill-McKee ordering of a square CSC structure, with the
    upper-band storage of the reordered matrix.

    ``perm[i]`` is the original index of reordered row i and ``inv`` its
    inverse.  ``upper`` lists the data positions of the stored entries that
    fall on or above the reordered diagonal, and ``slot`` their flat index
    into the column-major ``(bandwidth + 1, n)`` array that
    ``cholesky_banded`` reads (``ab[bandwidth + i - j, j] = a[i, j]``).
    """

    indptr: np.ndarray
    indices: np.ndarray
    perm: np.ndarray
    inv: np.ndarray
    bandwidth: int
    upper: np.ndarray
    slot: np.ndarray

    @property
    def n(self) -> int:
        return self.perm.size

    @classmethod
    def from_structure(cls, indptr: np.ndarray, indices: np.ndarray) -> "BandOrdering":
        """Order the CSC structure (indptr, indices) by the graph of its
        symmetric part."""
        n = indptr.size - 1
        graph = sp.csc_matrix((np.ones(indices.size), indices, indptr), shape=(n, n))
        perm = reverse_cuthill_mckee(graph, symmetric_mode=False).astype(np.intp)
        inv = np.empty(n, dtype=np.intp)
        inv[perm] = np.arange(n)
        rows = inv[indices]
        cols = inv[np.repeat(np.arange(n), np.diff(indptr))]
        upper = np.flatnonzero(rows <= cols)
        offset = cols[upper] - rows[upper]
        bandwidth = int(offset.max()) if offset.size else 0
        slot = (bandwidth - offset) + cols[upper] * (bandwidth + 1)
        return cls(indptr, indices, perm, inv, bandwidth, upper, slot)

    def matches(self, a: sp.csc_matrix) -> bool:
        """Whether ``a`` has the structure this ordering was built from."""
        return np.array_equal(a.indptr, self.indptr) and np.array_equal(a.indices, self.indices)


def _banded_solve(a: sp.csc_matrix, b: np.ndarray, o: BandOrdering) -> np.ndarray:
    """Factor ``a`` (CSC on the structure of ``o``) and solve a x = b."""
    n, bw = o.n, o.bandwidth
    flat = np.zeros((bw + 1) * n)
    flat[o.slot] = a.data[o.upper]
    ab = flat.reshape((bw + 1, n), order="F")
    try:
        c = sla.cholesky_banded(ab, overwrite_ab=True, lower=False, check_finite=False)
    except np.linalg.LinAlgError as exc:
        raise LinearSolveError(f"indefinite/singular tangent: {exc}") from exc
    y = sla.cho_solve_banded((c, False), b[o.perm], overwrite_b=True, check_finite=False)
    return y[o.inv]


def factor_solve(a: sp.spmatrix, b: np.ndarray, ordering: BandOrdering | None = None) -> np.ndarray:
    """Solve the SPD system a x = b.

    ``ordering`` is the band ordering of ``a``'s CSC structure (as kept by
    an assembly pattern); without one it is computed for this call.
    Relative residual is bounded by 1e-10 (direct) or 1e-8 (CG fallback);
    violations raise LinearSolveError ("indefinite/singular").
    """
    b = np.asarray(b, dtype=np.float64)
    n = b.shape[0]
    if a.shape != (n, n):
        raise LinearSolveError(f"matrix shape {a.shape} incompatible with rhs {n}")
    if not np.all(np.isfinite(b)):
        raise LinearSolveError("non-finite right-hand side")

    b_norm = float(np.linalg.norm(b))
    if b_norm == 0.0:
        return np.zeros(n)

    if n <= CG_DOF_THRESHOLD:
        if ordering is None:
            a = sp.csc_matrix(a, copy=True)
            a.sum_duplicates()
            ordering = BandOrdering.from_structure(a.indptr, a.indices)
        elif not (sp.issparse(a) and a.format == "csc" and ordering.matches(a)):
            raise LinearSolveError("matrix structure differs from its band ordering")
        x = _banded_solve(a, b, ordering)
        rtol = _DIRECT_RTOL
    else:
        diag = a.diagonal()
        if np.any(diag <= 0.0):
            raise LinearSolveError("indefinite/singular tangent: non-positive diagonal")
        m = sp.diags(1.0 / diag)
        x, info = spla.cg(a, b, rtol=_CG_RTOL, atol=0.0, M=m)
        if info != 0:
            raise LinearSolveError(f"CG did not converge (info={info})")
        rtol = _CG_RTOL

    res = float(np.linalg.norm(a @ x - b)) / b_norm
    if not np.isfinite(res) or res > rtol:
        raise LinearSolveError(
            f"indefinite/singular tangent: solve residual {res:.3e} > {rtol:.1e}"
        )
    return x
