"""Sparse direct solves (SuperLU) and the stopping norm.

Matrices are scipy CSR; linearized systems at desk scale (<= ~300k DOFs)
factor comfortably with a sparse LU.  The matrices goalfem factors have
node-symmetric sparsity: two DOFs couple both ways when they share a
cell, and condensation C^T A C + diag keeps that; only one-way
component couplings (those of the slit system) are missing from A, so
A^T + A has few more entries (12% on an enriched slit Jacobian).
SuperLU therefore orders the columns by minimum degree on the pattern
of A^T + A (``MMD_AT_PLUS_A``), which fills far less than the default
COLAMD here.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import SingularMatrix

PIVOT_RTOL = 1e-14


class LuFactorization:
    """A reusable LU factorization with transposed solves.

    A solve whose result is not finite raises ``SingularMatrix``: a
    numerically singular pivot then cannot pass unnoticed, also with the
    pivot check disabled (``pivot_rtol=0``).
    """

    def __init__(self, A, pivot_rtol=PIVOT_RTOL):
        A = sp.csc_matrix(A)
        if A.shape[0] != A.shape[1]:
            raise ValueError("matrix must be square")
        try:
            self._lu = spla.splu(A, permc_spec="MMD_AT_PLUS_A")
        except RuntimeError as exc:
            raise SingularMatrix(str(exc)) from exc
        if pivot_rtol > 0:
            scale = abs(A).max() if A.nnz else 0.0
            pivots = np.abs(self._lu.U.diagonal())
            if scale == 0.0 or pivots.min() < pivot_rtol * scale:
                raise SingularMatrix(
                    f"tiny pivot {pivots.min():.3e} (|A|_max = {scale:.3e})")

    def solve(self, b, transposed=False):
        x = self._lu.solve(np.asarray(b, dtype=float),
                           trans="T" if transposed else "N")
        if not np.all(np.isfinite(x)):
            raise SingularMatrix("non-finite solution of the factored system")
        return x


def factorize(A, pivot_rtol=PIVOT_RTOL):
    return LuFactorization(A, pivot_rtol=pivot_rtol)


def max_norm(v):
    """l-infinity norm, 0 for an empty vector."""
    v = np.asarray(v)
    if v.size == 0:
        return 0.0
    return float(np.max(np.abs(v)))
