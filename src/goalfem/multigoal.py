"""Combining N goal functionals into one adjoint problem.

The error-weighting function is the weighted relative sum
E(x, m) = sum_i omega_i x_i / |m_i|, giving the combined error
J_E(u_h) = sum_i omega_i |J_i(u_h2) - J_i(u_h)| / |J_i(u_h)| and the
equivalent linear-combination functional J_c = sum_i w_i J_i with
w_i = omega_i sign(J_i(u_h2) - J_i(u_h)) / |J_i(u_h)|.  The adjoint is
solved in the J_c orientation (J_E' = -J_c'); the estimator is reported
in absolute value, so the orientation only fixes signs reproducibly.

J_c is the multitarget functional of Hartmann (SISC 2008) written as a
goals expression, sum_i Scale(w_i, J_i): its value, directional
derivative, assembled gradient and PU-nodal form are those of any goal
tree, so one adjoint solve serves all N goals.
"""

from __future__ import annotations

import numpy as np

from . import goals
from .errors import ZeroReferenceFunctional


def member_values(functionals, u):
    return np.array([J.value(u) for J in functionals], dtype=float)


def combined_error(values_ref, values_at, omegas=None):
    """J_E = sum_i omega_i |J_i(ref) - J_i(at)| / |J_i(at)|."""
    ref, at = np.asarray(values_ref, float), np.asarray(values_at, float)
    om = 1.0 if omegas is None else np.asarray(omegas, float)
    return float(np.sum(om * np.abs(ref - at) / np.abs(at)))


def combination_weights(values_ref, values_at, omegas=None):
    """w_i = omega_i sign(J_i(ref) - J_i(at)) / |J_i(at)|, sign(0) = 0."""
    values_ref = np.asarray(values_ref, dtype=float)
    values_at = np.asarray(values_at, dtype=float)
    omegas = np.ones_like(values_at) if omegas is None else np.asarray(omegas)
    mags = np.abs(values_at)
    if np.min(mags) == 0.0:
        raise ZeroReferenceFunctional(int(np.argmin(mags)))
    return omegas * np.sign(values_ref - values_at) / mags


class CombinedFunctional(goals.Sum):
    """J_c = sum_i w_i J_i, a ``goals.Sum`` of ``Scale(w_i, J_i)`` with the
    weights frozen at one (u_h, u_h2) pair of a level.  Its gradient at
    u_h is the coarse adjoint right-hand side, at u_h2 the enriched one;
    a zero weight contributes an exact zero."""

    def __init__(self, functionals, values_h, values_h2, omegas=None):
        self.functionals = list(functionals)
        self.values_h = np.asarray(values_h, dtype=float)
        self.values_h2 = np.asarray(values_h2, dtype=float)
        self.omegas = (np.ones(len(functionals)) if omegas is None
                       else np.asarray(omegas, dtype=float))
        self.weights = combination_weights(self.values_h2, self.values_h,
                                           self.omegas)
        super().__init__(goals.Scale(w, J)
                         for w, J in zip(self.weights, self.functionals))
