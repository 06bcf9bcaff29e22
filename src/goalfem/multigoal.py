"""Combining N goal functionals into one adjoint problem.

The error-weighting function is the weighted relative sum
E(x, m) = sum_i omega_i x_i / |m_i|, giving the combined error
J_E(u_h) = sum_i omega_i |J_i(u_h2) - J_i(u_h)| / |J_i(u_h)| and the
equivalent linear-combination functional J_c = sum_i w_i J_i with
w_i = omega_i sign(J_i(u_h2) - J_i(u_h)) / |J_i(u_h)|.  The adjoint is
solved in the J_c orientation (J_E' = -J_c'); the estimator is reported
in absolute value, so the orientation only fixes signs reproducibly.
"""

from __future__ import annotations

import numpy as np

from .errors import ZeroReferenceFunctional


def member_values(functionals, u):
    return np.array([J.value(u) for J in functionals], dtype=float)


def combination_weights(values_ref, values_at, omegas=None):
    """w_i = omega_i sign(J_i(ref) - J_i(at)) / |J_i(at)|, sign(0) = 0."""
    values_ref = np.asarray(values_ref, dtype=float)
    values_at = np.asarray(values_at, dtype=float)
    omegas = np.ones_like(values_at) if omegas is None else np.asarray(omegas)
    mags = np.abs(values_at)
    if np.min(mags) == 0.0:
        raise ZeroReferenceFunctional(int(np.argmin(mags)))
    return omegas * np.sign(values_ref - values_at) / mags


class CombinedFunctional:
    """J_c with weights frozen at one (u_h, u_h2) pair of a level."""

    def __init__(self, functionals, values_h, values_h2, omegas=None):
        self.functionals = list(functionals)
        self.values_h = np.asarray(values_h, dtype=float)
        self.values_h2 = np.asarray(values_h2, dtype=float)
        self.omegas = (np.ones(len(functionals)) if omegas is None
                       else np.asarray(omegas, dtype=float))
        self.weights = combination_weights(self.values_h2, self.values_h,
                                           self.omegas)

    def combined_error_value(self):
        """J_E(u_h): sum of omega-weighted relative member errors."""
        return float(np.sum(self.omegas
                            * np.abs(self.values_h2 - self.values_h)
                            / np.abs(self.values_h)))

    def value(self, u):
        """J_c(u) = sum w_i J_i(u)."""
        return float(sum(w * J.value(u)
                         for w, J in zip(self.weights, self.functionals)))

    def directional(self, u, v, quad=None):
        return float(sum(w * J.directional(u, v, quad=quad)
                         for w, J in zip(self.weights, self.functionals)))

    def gradient(self, space, constraints, u_eval, quad):
        """Assembled J_c'(u_eval); ``u_eval`` is u_h for the coarse adjoint
        and u_h2 for the enriched one (weights stay frozen)."""
        out = np.zeros(space.n_dofs)
        for w, J in zip(self.weights, self.functionals):
            if w != 0.0:
                out += w * J.gradient(space, constraints, u_eval, quad)
        return out

    def nodal_directional(self, u, v, quad):
        out = np.zeros(u.space.mesh.n_points)
        for w, J in zip(self.weights, self.functionals):
            if w != 0.0:
                out += w * J.nodal_directional(u, v, quad)
        return out
