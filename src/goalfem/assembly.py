"""Quadrature, pointwise evaluation, and the constrained global assembly
of the residual vector and the Jacobian matrix.

Every cell operator runs once over all active cells, as straight-line
array code.  The mesh owns three tabulations (``Mesh.cached``): the
bilinear cell geometry per rule, which holds the measure ``wdet`` (the
weights times det J) that every integral reads, the cell basis per
(degree, rule), ``B[e, d, q, b]``, holding the value (d = 0) and the
two physical gradient components (d = 1, 2) of each local basis
function b at each quadrature point q of every active cell e, and a
problem's load f(x, y) at the rule's points per (rule, load).  The
load is keyed by the callable, so the problems of one run that share a
load (the p-continuation steps of a cold start) evaluate it once per
mesh; ``residual_densities`` subtracts it from the kernel's value
density, the one place a load enters an integral.
Evaluating a function, integrating densities against the test
functions and forming local Jacobians are then batched matmuls against
B: the basis / pointwise kernel split of cell-based operator
evaluation.  B and every function's quadrature values are cached for
the whole mesh, the kernel densities are no larger than those values,
and the Jacobian's COO triplets are built at full size for the sparse
matrix in any case, so splitting the cells into chunks would bound no
memory that is not already allocated in full.  Every integral uses the
rule of its function's space (``FeSpace.rule``); a run builds both its
spaces with one rule, so coarse and enriched pairings commit the same
quadrature crime and J(u) = J'(u)(u) for a linear goal J.

A function's values at its rule's points are computed once and kept on
it (``quadrature_values``).  A point u + alpha delta of a Newton line
search (``on_ray``) takes its values as the same axpy of the values of
u and delta, so a trial residual costs the kernel, the contraction and
the scatter only.  The residual's cell vectors are
scattered onto the DOFs with one bincount, which adds in the order
``np.add.at`` did, and then condensed with the transposed constraint
matrix cached on the ``ConstraintSet``.  The two steps are kept apart on
purpose: one fused sparse product C^T S changes the order of the sums,
and the p = 4 cheese workload turns such last-bit changes into
different Newton counts and meshes.

Local Jacobians form each term the kernel lists (see ``problems``) with
one batched matmul over the quadrature points and the trial index.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .errors import QuadratureFailure
from .fespace import tensor_basis


# ----------------------------------------------------------------------
# cached tabulations
# ----------------------------------------------------------------------
def cell_geometry(mesh, rule):
    """The measure wdet (the weights times det J), inv(J)^T and the
    physical coordinates at the rule's points.

    Arrays are indexed by active-cell row; cached per (mesh, rule order).
    """
    return mesh.cached(("geom", rule.n),
                       lambda: _geometry(mesh.corners(), rule))


def _geometry(corners, rule):
    G, dG = tensor_basis(1, rule.points)
    jac = np.einsum("ckd,kqj->cqdj", corners, dG)
    det = jac[..., 0, 0] * jac[..., 1, 1] - jac[..., 0, 1] * jac[..., 1, 0]
    if np.any(det <= 0):
        raise QuadratureFailure("non-positive cell Jacobian")
    invJT = np.empty_like(jac)
    invJT[..., 0, 0] = jac[..., 1, 1]
    invJT[..., 0, 1] = -jac[..., 1, 0]
    invJT[..., 1, 0] = -jac[..., 0, 1]
    invJT[..., 1, 1] = jac[..., 0, 0]
    invJT /= det[..., None, None]
    xq = np.einsum("ckd,kq->cqd", corners, G)
    return rule.weights * det, invJT, xq


def cell_basis(mesh, degree, rule):
    """The Q^degree cell basis at the rule's points, ``B[e, d, q, b]``.

    Local basis function b of active-cell row e at point q: its value
    (d = 0) and its physical x and y derivatives (d = 1, 2).  Cached per
    (mesh, degree, rule order), so spaces of any component count on one
    mesh share it.
    """
    def build():
        _, invJT, _ = cell_geometry(mesh, rule)
        N, dN = tensor_basis(degree, rule.points)
        B = np.empty((len(invJT), 3) + N.T.shape)
        B[:, 0] = N.T
        # (e, q, i, j) @ (q, j, b) -> (e, q, i, b)
        B[:, 1:] = (invJT @ dN.transpose(1, 2, 0)).transpose(0, 2, 1, 3)
        return B

    return mesh.cached(("basis", degree, rule.n), build)


def load_values(mesh, rule, load):
    """The load f(x, y) at the rule's points of every active cell,
    (e, q); cached per (mesh, rule order, load callable)."""
    def build():
        _, _, xq = cell_geometry(mesh, rule)
        return load(xq[..., 0], xq[..., 1])

    return mesh.cached(("load", rule.n, load), build)


def quadrature_values(f):
    """Values (e, k, q) and gradients (e, k, q, 2) of a discrete function
    at its space's rule points on every active cell.

    One gather of the cell coefficients and one batched matmul against
    the cell basis, computed once per function and kept in
    ``f.quad_values``.
    """
    if f.quad_values is not None:
        return f.quad_values
    space = f.space
    basis = cell_basis(space.mesh, space.degree, space.rule)
    ne, _, nq, nb = basis.shape
    out = space.local_coeffs(f.coeffs) \
        @ basis.reshape(ne, 3 * nq, nb).transpose(0, 2, 1)
    out = out.reshape(ne, space.n_components, 3, nq)
    # C-ordered copies: reductions over several axes of these values (and
    # of densities that inherit their layout) then add in one fixed order
    f.quad_values = (
        np.ascontiguousarray(out[:, :, 0]),
        np.ascontiguousarray(out[:, :, 1:].transpose(0, 1, 3, 2)))
    return f.quad_values


def on_ray(u, delta, alpha):
    """The function u + alpha delta, its quadrature values formed from
    those of u and delta (one space): no gather, no basis matmul.

    The result keeps no reference to u or delta, so the iterates of a
    Newton loop do not chain up in memory.
    """
    uv, ug = quadrature_values(u)
    dv, dg = quadrature_values(delta)
    out = u.space.function(u.coeffs + alpha * delta.coeffs)
    out.quad_values = (uv + alpha * dv, ug + alpha * dg)
    return out


def residual_densities(problem, u):
    """The residual densities (val (e, k, q), grd (e, k, q, 2)) at u's
    quadrature points: the kernel's, with the problem's load subtracted
    from the value density of component 0."""
    val, grd = problem.residual(*quadrature_values(u))
    if problem.load is not None:
        val[:, 0] -= load_values(u.space.mesh, u.space.rule, problem.load)
    return val, grd


def basis_integrals(val, grd, wdet, B):
    """int val_k phi_b + grd_k . grad phi_b over each cell, shaped
    (e, k, b).

    ``val`` (e, k, q) and ``grd`` (e, k, q, 2) are densities at the
    quadrature points, ``wdet`` (e, q) the weights times det J and ``B``
    the cell basis; one batched matmul over (d, q).
    """
    ne, _, nq, nb = B.shape
    F = np.empty(val.shape[:2] + (3, nq))
    F[:, :, 0] = val
    F[:, :, 1:] = grd.transpose(0, 1, 3, 2)
    F *= wdet[:, None, None, :]
    return F.reshape(ne, -1, 3 * nq) @ B.reshape(ne, 3 * nq, nb)


# ----------------------------------------------------------------------
# global assembly
# ----------------------------------------------------------------------
def assemble_residual(problem, constraints, u):
    """Galerkin residual vector A(u)(phi_i) on u's space, condensed.

    The cell integrals are scattered onto the DOFs in one bincount;
    constrained test entries are then distributed to their masters and
    zeroed (transposed constraint application).
    """
    space, rule = u.space, u.space.rule
    wdet, _, _ = cell_geometry(space.mesh, rule)
    val, grd = residual_densities(problem, u)
    if not (np.all(np.isfinite(val)) and np.all(np.isfinite(grd))):
        raise QuadratureFailure("non-finite residual integrand")
    local = basis_integrals(val, grd, wdet,
                            cell_basis(space.mesh, space.degree, rule))
    return constraints.condense_rhs(space.scatter(local))


def local_matrices(terms, wdet, B, ncomp):
    """Local Jacobians A[e, k, b, m, d] = A'(u)(phi_d e_m, phi_b e_k).

    ``terms`` is a Jacobian kernel's term list, ``B`` the cell basis
    (e, 3, q, b) and ``wdet`` (e, q).  Per term, the weighted
    coefficients are contracted with the test basis over the test side's
    vector index, then one batched matmul over (trial index, quadrature
    point) pairs the result with the trial basis.
    """
    ne, _, nq, nb = B.shape
    # the rows of a value side and of a gradient side, (e, i, q, b)
    sides = (B[:, :1], B[:, 1:])
    A = np.zeros((ne, ncomp, nb, ncomp, nb))
    for test_grad, trial_grad, k, m, c in terms:
        # (e, q, b, i) @ (e, q, i, j) -> (e, q, b, j) -> (e, b, (j, q))
        left = sides[test_grad].transpose(0, 2, 3, 1) \
            @ (wdet[:, :, None, None] * c)
        left = left.transpose(0, 2, 3, 1).reshape(ne, nb, -1)
        A[:, k, :, m, :] += left @ sides[trial_grad].reshape(ne, -1, nb)
    return A


def assemble_jacobian(problem, constraints, u):
    """Condensed matrix of A'(u)(phi_j, phi_i) on u's space (rows = test)."""
    space, rule = u.space, u.space.rule
    wdet, _, _ = cell_geometry(space.mesh, rule)
    A = local_matrices(problem.jacobian(*quadrature_values(u)), wdet,
                       cell_basis(space.mesh, space.degree, rule),
                       space.n_components)
    if not np.all(np.isfinite(A)):
        raise QuadratureFailure("non-finite jacobian integrand")
    ne = len(A)
    nloc = space.n_components * space.n_local
    gdof = space.cell_dofs.reshape(ne, nloc)
    shape = (ne, nloc, nloc)
    raw = sp.coo_matrix(
        (A.ravel(), (np.broadcast_to(gdof[:, :, None], shape).ravel(),
                     np.broadcast_to(gdof[:, None, :], shape).ravel())),
        shape=(space.n_dofs, space.n_dofs)).tocsr()
    return constraints.condense_matrix(raw)
