"""Sparse direct solves (SuperLU) and the stopping norm.

Matrices are scipy CSR; linearized systems at desk scale (<= ~300k DOFs)
factor comfortably with a sparse LU.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import SingularMatrix

PIVOT_RTOL = 1e-14


class LuFactorization:
    """A reusable LU factorization with transposed solves."""

    def __init__(self, A, pivot_rtol=PIVOT_RTOL):
        A = sp.csc_matrix(A)
        if A.shape[0] != A.shape[1]:
            raise ValueError("matrix must be square")
        try:
            self._lu = spla.splu(A)
        except RuntimeError as exc:
            raise SingularMatrix(str(exc)) from exc
        if pivot_rtol > 0:
            scale = abs(A).max() if A.nnz else 0.0
            pivots = np.abs(self._lu.U.diagonal())
            if scale == 0.0 or pivots.min() < pivot_rtol * scale:
                raise SingularMatrix(
                    f"tiny pivot {pivots.min():.3e} (|A|_max = {scale:.3e})")

    def solve(self, b, transposed=False):
        return self._lu.solve(np.asarray(b, dtype=float),
                              trans="T" if transposed else "N")


def factorize(A, pivot_rtol=PIVOT_RTOL):
    return LuFactorization(A, pivot_rtol=pivot_rtol)


def max_norm(v, constrained=None):
    """l-infinity norm over unconstrained entries.

    ``constrained`` is an optional boolean mask of entries to ignore
    (condensed residuals are zero there anyway).
    """
    v = np.asarray(v)
    if constrained is not None:
        v = v[~np.asarray(constrained)]
    if v.size == 0:
        return 0.0
    return float(np.max(np.abs(v)))
