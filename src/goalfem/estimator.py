"""Dual-weighted-residual estimation with partition-of-unity localization.

The practical estimator halves the primal and adjoint weighted
residuals,

    eta = 1/2 rho(u_h)(z2 - i_h z2) + 1/2 rho*(u_h, z_h)(u2 - u_h),

with the enriched adjoint interpolated back for the primal weight.  Both
weighted forms run through one localization routine: the primal form
weights the residual flux, the adjoint form the "transposed flux" of
the Jacobian blocks contracted once with z_h.  The densities, multiplied
by the Q1 vertex hats, give nodal values eta_i summing exactly to the
global number; hanging vertices fold their share onto the face
endpoints so the hats still partition unity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import assembly
from .errors import ZeroTrueError
from .fespace import build_constraints, interpolate_between, tensor_basis
from .linalg import factorize


@dataclass
class EstimatorBreakdown:
    eta_signed: float
    eta_primal_signed: float
    eta_adjoint_signed: float
    nodal: np.ndarray          # per mesh vertex, hanging entries folded away
    cellwise: np.ndarray       # per active cell, nonnegative

    @property
    def eta_h(self):
        return abs(self.eta_signed)

    @property
    def pu_sum(self):
        return float(np.sum(self.nodal))


def make_initial_guess(space, constraints):
    """All-ones nodal vector with the boundary data imposed."""
    return space.function(constraints.apply(np.ones(space.n_dofs)))


def solve_enriched_adjoint(problem, functional, space2, constraints2, u_h2,
                           quad=None):
    """One transposed linear solve at the enriched primal state."""
    rule = quad or assembly.default_rule(space2)
    A = assembly.assemble_jacobian(problem, space2, constraints2, u_h2, rule)
    rhs = functional.gradient(space2, constraints2, u_h2, rule)
    lu = factorize(A, pivot_rtol=0.0)
    return space2.function(constraints2.distribute(lu.solve(rhs, transposed=True)))


def _pu_hats(mesh, rule, sl):
    """Q1 hat values and physical gradients on a cell chunk."""
    N1, dN1 = tensor_basis(1, rule.points)
    _, invJT, _ = assembly.cell_geometry(mesh, rule)
    gpsi = np.einsum("cqij,aqj->caqi", invJT[sl], dN1, optimize=True)
    return N1, gpsi


def _localize(u, weight, rule, flux):
    """PU localization of a weighted flux against the Q1 vertex hats.

    ``flux(x, u_vals, u_grads, sl)`` gives (F_v, F_g) on the cell chunk
    ``sl``.  Returns the per-vertex values of
    int F_v.(w psi_a) + F_g:grad(w psi_a) and the global
    int F_v.w + F_g:grad w, the latter accumulated from the un-localized
    density rather than summed from the vertices.
    """
    mesh = u.space.mesh
    det, _, xq = assembly.cell_geometry(mesh, rule)
    combo = assembly._as_combo(weight)
    out = np.zeros(mesh.n_points)
    total = 0.0
    active = mesh.active_cells
    for sl in assembly._chunks(len(active)):
        uv, ug = assembly.eval_chunk(u, rule, sl)
        fv, fg = flux(xq[sl], uv, ug, sl)
        wv, wg = assembly.eval_combo(combo, rule, sl)
        wdet = rule.weights[None, :] * det[sl]
        t1 = np.einsum("ekq,ekq->eq", fv, wv, optimize=True)
        t1 += np.einsum("ekqi,ekqi->eq", fg, wg, optimize=True)
        t2 = np.einsum("ekqi,ekq->eqi", fg, wv, optimize=True)
        N1, gpsi = _pu_hats(mesh, rule, sl)
        contrib = np.einsum("eq,eq,aq->ea", wdet, t1, N1, optimize=True)
        contrib += np.einsum("eq,eqi,eaqi->ea", wdet, t2, gpsi, optimize=True)
        np.add.at(out, mesh.cell_verts[active[sl]], contrib)
        total += float(np.einsum("eq,eq->", wdet, t1, optimize=True))
    return out, total


def _transposed_flux(blocks, zv, zg):
    """Jacobian blocks contracted with the adjoint: (T_v, T_g) such that
    A'(u)(w, z) = int T_v.w + T_g:grad w for every w."""
    tv = np.zeros(zv.shape)
    tg = np.zeros(zg.shape)
    z = (zv[..., None], zg)          # adjoint on the test side, (e, k, q, i)
    out = (tv[..., None], tg)        # views, indexed by the trial side
    for test_grad, trial_grad, k, m, c in assembly.coefficient_pairs(blocks):
        out[trial_grad][:, m] += np.einsum("eqi,eqij->eqj",
                                           z[test_grad][:, k], c)
    return tv, tg


def primal_weighted_form(problem, u, weight, quad):
    """rho(u)(w psi_a) per vertex and the global rho(u)(w) = -A(u)(w);
    the weight ``w`` may live in an enriched space or be a combination
    [(coef, function), ...]."""
    def flux(x, uv, ug, sl):
        return problem.residual(x, uv, ug)

    nodal, total = _localize(u, weight, quad, flux)
    return -nodal, -total


def adjoint_weighted_form(problem, functional, u, z, weight, quad):
    """rho*(u, z)(w psi_a) per vertex and the global
    rho*(u, z)(w) = J'(u)(w) - A'(u)(w, z)."""
    def flux(x, uv, ug, sl):
        zv, zg = assembly.eval_chunk(z, quad, sl)
        return _transposed_flux(problem.jacobian(x, uv, ug), zv, zg)

    nodal, total = _localize(u, weight, quad, flux)
    return (functional.nodal_directional(u, weight, quad) - nodal,
            functional.directional(u, weight, quad=quad) - total)


def fold_hanging(mesh, nodal):
    """Move hanging-vertex shares onto the face endpoints (weights 1/2)."""
    out = nodal.copy()
    for _, (a, b), m in mesh.hanging_interfaces():
        out[a] += 0.5 * out[m]
        out[b] += 0.5 * out[m]
        out[m] = 0.0
    return out


def distribute_to_cells(nodal, mesh):
    """Split each |eta_i| equally among the active cells at vertex i."""
    active = mesh.active_cells
    corners = mesh.cell_verts[active]
    counts = np.zeros(mesh.n_points)
    np.add.at(counts, corners, 1.0)
    share = np.abs(nodal) / np.maximum(counts, 1.0)
    return share[corners].sum(axis=1)


def estimate(problem, functional, u_h, z_h, u_h2, z_h2, quad=None):
    """Estimator breakdown from the four solutions of one level.

    ``functional`` must expose ``directional`` and ``nodal_directional``
    evaluated at the coarse state (single goals and frozen combinations
    both do).
    """
    space = u_h.space
    mesh = space.mesh
    rule = quad or assembly.default_rule(z_h2.space)

    hanging_only = build_constraints(space)
    ihz2 = interpolate_between(z_h2, space, constraints=hanging_only)
    primal_weight = [(1.0, z_h2), (-1.0, ihz2)]
    adjoint_weight = [(1.0, u_h2), (-1.0, u_h)]

    pn, pg = primal_weighted_form(problem, u_h, primal_weight, rule)
    an, ag = adjoint_weighted_form(problem, functional, u_h, z_h,
                                   adjoint_weight, rule)

    nodal = fold_hanging(mesh, 0.5 * (pn + an))
    primal_signed = 0.5 * pg
    adjoint_signed = 0.5 * ag
    cellwise = distribute_to_cells(nodal, mesh)
    return EstimatorBreakdown(primal_signed + adjoint_signed,
                              primal_signed, adjoint_signed, nodal, cellwise)


def effectivity(true_error, breakdown):
    """(I_eff, I_effp, I_effa); the part indices drop the 1/2 factors."""
    err = abs(float(true_error))
    if err == 0.0:
        raise ZeroTrueError("effectivity undefined for zero true error")
    return (breakdown.eta_h / err,
            abs(2.0 * breakdown.eta_primal_signed) / err,
            abs(2.0 * breakdown.eta_adjoint_signed) / err)
