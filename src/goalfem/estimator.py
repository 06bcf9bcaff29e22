"""Dual-weighted-residual estimation with partition-of-unity localization.

The practical estimator halves the primal and adjoint weighted
residuals,

    eta = 1/2 rho(u_h)(z2 - i_h z2) + 1/2 rho*(u_h, z_h)(u2 - u_h),

with the enriched adjoint interpolated back for the primal weight.
Each weight is built once as a single function of the enriched space:
Q^r is contained in Q^r2 on one mesh, so ``fespace.interpolate_between``
(the warm starts' nodal interpolation) carries u_h and i_h z2 into it
exactly.  i_h z2 is the coarse interpolant of z2 passed through the
level's coarse constraint set, ``constraints.distribute``, which also
zeroes the Dirichlet rows; this equals the hanging-only projection
because z2 is extended by the enriched constraints and so vanishes on
the Dirichlet boundary, where the data of the adjoint are homogeneous.

Both weighted forms run through one localization routine: the primal
form weights the residual densities (``assembly.residual_densities``,
the kernel's flux with the mesh's cached load subtracted), the adjoint
form the "transposed flux" of the Jacobian kernel's terms at u_h
contracted once with z_h.  The densities, integrated against the Q1
vertex hats of ``assembly.cell_basis``, give nodal values eta_i summing
exactly to the global number; hanging vertices fold their share onto
the face endpoints so the hats still partition unity.

The transposed flux is the estimator's one action of J(u)^T: integrated
against the test basis instead of the hats, it applies the transposed
condensed Jacobian without a matrix (``transposed_jacobian``).  The
enriched adjoint z_h2 solves with that operator by GMRES, preconditioned
by the transposed solves of the enriched Newton's last factorization,
whatever its age.  Only when GMRES does not reach the residual the
direct solve would is J(u_h2) assembled and factored.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse.linalg as spla

from . import assembly
from .errors import MeshMismatch, ZeroTrueError
from .fespace import interpolate_between
from .linalg import factorize


@dataclass
class EstimatorBreakdown:
    eta_primal_signed: float
    eta_adjoint_signed: float
    nodal: np.ndarray          # per mesh vertex, hanging entries folded away
    cellwise: np.ndarray       # per active cell, nonnegative

    @property
    def eta_signed(self):
        return self.eta_primal_signed + self.eta_adjoint_signed

    @property
    def eta_h(self):
        return abs(self.eta_signed)

    @property
    def pu_sum(self):
        return float(np.sum(self.nodal))


def _localize(weight, fv, fg):
    """PU localization of a weighted flux against the Q1 vertex hats.

    ``fv`` (e, k, q) and ``fg`` (e, k, q, 2) are the flux densities at
    the points of the weight space's rule on every active cell.
    Returns the per-vertex values of int F_v.(w psi_a) + F_g:grad(w psi_a)
    and the global int F_v.w + F_g:grad w, the latter summed from the
    un-localized density rather than from the vertices.
    """
    mesh, rule = weight.space.mesh, weight.space.rule
    wdet, _, _ = assembly.cell_geometry(mesh, rule)
    wv, wg = assembly.quadrature_values(weight)
    # F.(w psi) + F_g:grad(w psi) = psi (F.w + F_g:grad w)
    #                               + grad psi . (F_g^T w)
    t1 = (fv * wv).sum(axis=1) + (fg * wg).sum(axis=(1, 3))
    t2 = (fg * wv[..., None]).sum(axis=1)
    contrib = assembly.basis_integrals(t1[:, None], t2[:, None], wdet,
                                       assembly.cell_basis(mesh, 1, rule))
    out = np.zeros(mesh.n_points)
    np.add.at(out, mesh.cell_verts[mesh.active_cells], contrib[:, 0])
    return out, float(np.sum(wdet * t1))


def _transposed_flux(terms, zv, zg):
    """Jacobian terms contracted with the adjoint: (T_v, T_g) such that
    A'(u)(w, z) = int T_v.w + T_g:grad w for every w."""
    tv = np.zeros(zv.shape)
    tg = np.zeros(zg.shape)
    z = (zv[..., None], zg)          # adjoint on the test side, (e, k, q, i)
    out = (tv[..., None], tg)        # views, indexed by the trial side
    for test_grad, trial_grad, k, m, c in terms:
        zk = z[test_grad][:, k]
        if test_grad and trial_grad:
            # 2x2 coefficients: einsum beats a batched 1x2 by 2x2 matmul
            out[1][:, m] += np.einsum("eqi,eqij->eqj", zk, c)
        else:
            # a length-1 side: the sum over i written out is fastest
            t = zk[..., 0, None] * c[..., 0, :]
            if test_grad:
                t += zk[..., 1, None] * c[..., 1, :]
            out[trial_grad][:, m] += t
    return tv, tg


def primal_weighted_form(problem, u, weight):
    """rho(u)(w psi_a) per vertex and the global rho(u)(w) = -A(u)(w);
    the weight ``w`` may live in an enriched space on u's mesh with the
    same rule."""
    nodal, total = _localize(weight,
                             *assembly.residual_densities(problem, u))
    return -nodal, -total


def adjoint_weighted_form(problem, functional, u, z, weight):
    """rho*(u, z)(w psi_a) per vertex and the global
    rho*(u, z)(w) = J'(u)(w) - A'(u)(w, z)."""
    nodal, total = _localize(weight, *_transposed_flux(
        problem.jacobian(*assembly.quadrature_values(u)),
        *assembly.quadrature_values(z)))
    return (functional.nodal_directional(u, weight) - nodal,
            functional.directional(u, weight) - total)


ADJOINT_RTOL = 1e-12    # GMRES target, relative to |J'(u_h2)|
ADJOINT_ACCEPT = 1e-10  # true relative residual the Krylov result must meet
ADJOINT_CAP = 20        # GMRES iterations; cheese's stale LUs take up to 13


@dataclass
class AdjointStats:
    """What one enriched adjoint solve did: its applications of
    ``transposed_jacobian`` (those spent before a fallback included) and
    whether it assembled and factored J(u_h2)."""

    applications: int = 0
    factorized: bool = False


def transposed_jacobian(problem, constraints, u):
    """y -> A^T y for the condensed Jacobian A = C^T J(u) C + D that
    ``assembly.assemble_jacobian`` returns, D being the unit diagonal of
    the constrained rows; no matrix is formed.

    The kernel's terms at u are formed once.  An application takes the
    quadrature values of C y, contracts them with the terms
    (``_transposed_flux``), integrates against the test basis, scatters,
    condenses with C^T and adds y on the constrained rows.
    """
    space = u.space
    rule = space.rule
    wdet, _, _ = assembly.cell_geometry(space.mesh, rule)
    basis = assembly.cell_basis(space.mesh, space.degree, rule)
    terms = problem.jacobian(*assembly.quadrature_values(u))
    mask = constraints.constrained

    def apply(y):
        w = space.function(constraints.distribute(y))
        local = assembly.basis_integrals(
            *_transposed_flux(terms, *assembly.quadrature_values(w)),
            wdet, basis)
        out = constraints.condense_rhs(space.scatter(local))
        out[mask] = y[mask]
        return out

    return apply


def _krylov_adjoint(apply, rhs, lu, stats):
    """GMRES for A^T y = rhs preconditioned by ``lu``'s transposed
    solves; y, or None when its true residual misses ADJOINT_ACCEPT."""
    def counted(y):
        stats.applications += 1
        return apply(y)

    # a LinearOperator given no dtype applies itself once to find one
    shape = (len(rhs), len(rhs))
    y, _ = spla.gmres(
        spla.LinearOperator(shape, matvec=counted, dtype=float), rhs,
        rtol=ADJOINT_RTOL, restart=ADJOINT_CAP, maxiter=1,
        M=spla.LinearOperator(
            shape, matvec=lambda r: lu.solve(r, transposed=True),
            dtype=float))
    # GMRES stops on the preconditioned residual; judge the true one.
    # Near roundoff it may stall just above ADJOINT_RTOL: that passes.
    residual = np.linalg.norm(rhs - counted(y))
    return y if residual <= ADJOINT_ACCEPT * np.linalg.norm(rhs) else None


def solve_enriched_adjoint(problem, functional, constraints2, u_h2, lu=None):
    """The adjoint z_h2 of A'(u_h2)(w, z) = J'(u_h2)(w) on u_h2's
    enriched space: one transposed linear solve at that state.

    ``lu``, a factorization of the condensed Jacobian near u_h2, turns
    the solve matrix-free (see the module docstring); without it, or
    when GMRES falls short, J(u_h2) is assembled and factored.  A zero
    right-hand side gives z_h2 = 0 at once.  Returns (z_h2, AdjointStats).
    """
    rhs = functional.gradient(constraints2, u_h2)
    stats = AdjointStats()
    if not rhs.any():
        return u_h2.space.function(), stats
    y = None
    if lu is not None:
        y = _krylov_adjoint(transposed_jacobian(problem, constraints2, u_h2),
                            rhs, lu, stats)
    if y is None:
        A = assembly.assemble_jacobian(problem, constraints2, u_h2)
        y = factorize(A).solve(rhs, transposed=True)
        stats.factorized = True
    return u_h2.space.function(constraints2.distribute(y)), stats


def fold_hanging(mesh, nodal):
    """Move hanging-vertex shares onto the face endpoints (weights 1/2).

    Each endpoint receives its shares in face order; no hanging vertex
    is an endpoint of another hanging face, so one pass folds them all.
    """
    t = mesh.edges()
    out = nodal.copy()
    np.add.at(out, t.verts[t.hanging_face], 0.5 * nodal[t.hanging_mid, None])
    out[t.hanging_mid] = 0.0
    return out


def distribute_to_cells(nodal, mesh):
    """Split each |eta_i| equally among the active cells at vertex i."""
    corners = mesh.cell_verts[mesh.active_cells]
    counts = mesh.cached("vertex_cells", lambda: np.bincount(
        corners.ravel(), minlength=mesh.n_points))
    share = np.abs(nodal) / np.maximum(counts, 1.0)
    return share[corners].sum(axis=1)


def estimate(problem, functional, constraints, u_h, z_h, u_h2, z_h2):
    """Estimator breakdown from the four solutions of one level.

    ``constraints`` is the coarse space's constraint set, which forms
    i_h z_h2 (see the module docstring).  ``functional`` must expose
    ``directional`` and ``nodal_directional`` evaluated at the coarse
    state (single goals and frozen combinations both do).  Coarse and
    enriched functions meet under one integral here, so their spaces
    must share a rule.
    """
    space, space2 = u_h.space, z_h2.space
    if space.rule.n != space2.rule.n:
        raise MeshMismatch(f"coarse rule of order {space.rule.n}, "
                           f"enriched of order {space2.rule.n}")
    mesh = space.mesh

    ihz2 = space.function(constraints.distribute(
        interpolate_between(z_h2, space).coeffs))
    primal_weight, adjoint_weight = (
        space2.function(f2.coeffs - interpolate_between(f, space2).coeffs)
        for f2, f in ((z_h2, ihz2), (u_h2, u_h)))

    pn, pg = primal_weighted_form(problem, u_h, primal_weight)
    an, ag = adjoint_weighted_form(problem, functional, u_h, z_h,
                                   adjoint_weight)

    nodal = fold_hanging(mesh, 0.5 * (pn + an))
    return EstimatorBreakdown(0.5 * pg, 0.5 * ag, nodal,
                              distribute_to_cells(nodal, mesh))


def effectivity(true_error, breakdown):
    """(I_eff, I_effp, I_effa); the part indices drop the 1/2 factors."""
    err = abs(float(true_error))
    if err == 0.0:
        raise ZeroTrueError("effectivity undefined for zero true error")
    return (breakdown.eta_h / err,
            abs(2.0 * breakdown.eta_primal_signed) / err,
            abs(2.0 * breakdown.eta_adjoint_signed) / err)
