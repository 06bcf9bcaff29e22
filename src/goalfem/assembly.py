"""Quadrature, pointwise evaluation, and the constrained global assembly
of the residual vector and the Jacobian matrix.

Everything is vectorized over cells in fixed-size chunks; the bilinear
cell geometry (straight-sided quads) is tabulated once per (mesh, rule)
and cached on the mesh.  One Gauss rule is shared by every assembly of a
run so that coarse and enriched pairings commit the same quadrature
crime.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import QuadratureFailure
from .fespace import tensor_basis

CHUNK = 4096


@dataclass(frozen=True)
class QuadratureRule:
    """Tensor Gauss rule on the unit square, exact to degree 2n-1."""

    n: int
    points: np.ndarray
    weights: np.ndarray


def gauss(n):
    t, w = np.polynomial.legendre.leggauss(n)
    t = 0.5 * (t + 1.0)
    w = 0.5 * w
    X, Y = np.meshgrid(t, t)
    WX, WY = np.meshgrid(w, w)
    return QuadratureRule(n, np.column_stack([X.ravel(), Y.ravel()]),
                          (WX * WY).ravel())


def default_rule(space):
    return gauss(space.degree + 2)


# ----------------------------------------------------------------------
# cached tabulations
# ----------------------------------------------------------------------
def cell_geometry(mesh, rule):
    """detJ, inv(J)^T and physical coordinates at the rule's points.

    Arrays are indexed by active-cell row; cached per (mesh, rule order).
    """
    key = ("geom", rule.n)
    hit = mesh._caches.get(key)
    if hit is not None:
        return hit
    corners = mesh.corners()
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
    hit = (det, invJT, xq)
    mesh._caches[key] = hit
    return hit


def space_tab(space, rule):
    key = ("tab", rule.n)
    hit = space._basis_cache.get(key)
    if hit is None:
        hit = space.basis_at(rule.points)
        space._basis_cache[key] = hit
    return hit


def _chunks(n):
    for start in range(0, n, CHUNK):
        yield slice(start, min(start + CHUNK, n))


def phys_gradients(space, rule, sl):
    """Physical basis gradients for one chunk, (nc, nb, nq, 2)."""
    _, invJT, _ = cell_geometry(space.mesh, rule)
    _, dN = space_tab(space, rule)
    return np.einsum("cqij,bqj->cbqi", invJT[sl], dN, optimize=True)


def eval_chunk(f, rule, sl):
    """Values and gradients of a discrete function on one cell chunk."""
    space = f.space
    N, _ = space_tab(space, rule)
    uloc = space.local_coeffs(f.coeffs)[sl]
    gphi = phys_gradients(space, rule, sl)
    vals = np.einsum("ecb,bq->ecq", uloc, N, optimize=True)
    grads = np.einsum("ecb,ebqi->ecqi", uloc, gphi, optimize=True)
    return vals, grads


def eval_combo(combo, rule, sl):
    """Pointwise values/gradients of a weighted sum of discrete functions."""
    vals = grads = None
    for coef, f in combo:
        v, g = eval_chunk(f, rule, sl)
        if vals is None:
            vals, grads = coef * v, coef * g
        else:
            vals += coef * v
            grads += coef * g
    return vals, grads


def _as_combo(w):
    if isinstance(w, (list, tuple)):
        return list(w)
    return [(1.0, w)]


# ----------------------------------------------------------------------
# global assembly
# ----------------------------------------------------------------------
def assemble_residual(problem, space, constraints, u, quad=None):
    """Galerkin residual vector A(u)(phi_i), condensed.

    Constrained test entries are distributed to their masters and then
    zeroed (transposed constraint application).
    """
    rule = quad or default_rule(space)
    det, _, xq = cell_geometry(space.mesh, rule)
    N, _ = space_tab(space, rule)
    raw = np.zeros(space.n_dofs)
    nactive = len(space.active)
    for sl in _chunks(nactive):
        uv, ug = eval_chunk(u, rule, sl)
        val, grd = problem.residual(xq[sl], uv, ug)
        if not (np.all(np.isfinite(val)) and np.all(np.isfinite(grd))):
            raise QuadratureFailure("non-finite residual integrand")
        wdet = rule.weights[None, :] * det[sl]
        gphi = phys_gradients(space, rule, sl)
        rloc = np.einsum("eq,ekq,bq->ekb", wdet, val, N, optimize=True)
        rloc += np.einsum("eq,ekqi,ebqi->ekb", wdet, grd, gphi, optimize=True)
        nodes = space.cell_nodes[sl]
        for comp in range(space.n_components):
            np.add.at(raw, space.dof(comp, nodes), rloc[:, comp, :])
    return constraints.condense_rhs(raw)


def assemble_jacobian(problem, space, constraints, u, quad=None):
    """Matrix of A'(u)(phi_j, phi_i) (rows = test), condensed."""
    rule = quad or default_rule(space)
    det, _, xq = cell_geometry(space.mesh, rule)
    N, _ = space_tab(space, rule)
    nb = space.n_local
    ncomp = space.n_components
    nloc = ncomp * nb
    rows, cols, vals = [], [], []
    for sl in _chunks(len(space.active)):
        uv, ug = eval_chunk(u, rule, sl)
        blocks = problem.jacobian(xq[sl], uv, ug)
        wdet = rule.weights[None, :] * det[sl]
        gphi = phys_gradients(space, rule, sl)
        ne = uv.shape[0]
        A = np.zeros((ne, ncomp, nb, ncomp, nb))
        if "gg" in blocks:
            A += np.einsum("eq,eqkmij,ebqi,edqj->ekbmd", wdet, blocks["gg"],
                           gphi, gphi, optimize=True)
        if "vv" in blocks:
            A += np.einsum("eq,eqkm,bq,dq->ekbmd", wdet, blocks["vv"],
                           N, N, optimize=True)
        if "gv" in blocks:
            A += np.einsum("eq,eqkmi,ebqi,dq->ekbmd", wdet, blocks["gv"],
                           gphi, N, optimize=True)
        if "vg" in blocks:
            A += np.einsum("eq,eqkmi,bq,edqi->ekbmd", wdet, blocks["vg"],
                           N, gphi, optimize=True)
        if not np.all(np.isfinite(A)):
            raise QuadratureFailure("non-finite jacobian integrand")
        gdof = np.empty((ne, ncomp, nb), dtype=np.int64)
        nodes = space.cell_nodes[sl]
        for comp in range(ncomp):
            gdof[:, comp, :] = space.dof(comp, nodes)
        gdof = gdof.reshape(ne, nloc)
        rows.append(np.broadcast_to(gdof[:, :, None], (ne, nloc, nloc)).ravel())
        cols.append(np.broadcast_to(gdof[:, None, :], (ne, nloc, nloc)).ravel())
        vals.append(A.reshape(ne, nloc, nloc).ravel())
    raw = sp.coo_matrix((np.concatenate(vals),
                         (np.concatenate(rows), np.concatenate(cols))),
                        shape=(space.n_dofs, space.n_dofs)).tocsr()
    return constraints.condense_matrix(raw)
