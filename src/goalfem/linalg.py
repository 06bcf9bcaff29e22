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

A factorization outlives the step it was made for, and is reused
transposed: the balanced Newton solves each sweep's coarse adjoint with
its current (possibly stale) LU, and the enriched Newton's last LU,
whatever its age, preconditions the matrix-free GMRES of the enriched
adjoint.  Only that adjoint's exact path, taken when GMRES falls
short, factors a matrix for one transposed solve.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import SingularMatrix


class LuFactorization:
    """A reusable LU factorization with transposed solves.

    Tiny pivots pass; an exactly singular matrix, or a solve whose
    result is not finite, raises ``SingularMatrix``.
    """

    def __init__(self, A):
        A = sp.csc_matrix(A)
        if A.shape[0] != A.shape[1]:
            raise ValueError("matrix must be square")
        try:
            self._lu = spla.splu(A, permc_spec="MMD_AT_PLUS_A")
        except RuntimeError as exc:
            raise SingularMatrix(str(exc)) from exc

    def solve(self, b, transposed=False):
        x = self._lu.solve(np.asarray(b, dtype=float),
                           trans="T" if transposed else "N")
        if not np.all(np.isfinite(x)):
            raise SingularMatrix("non-finite solution of the factored system")
        return x


def factorize(A):
    return LuFactorization(A)


def max_norm(v):
    """l-infinity norm, 0 for an empty vector."""
    v = np.asarray(v)
    if v.size == 0:
        return 0.0
    return float(np.max(np.abs(v)))
