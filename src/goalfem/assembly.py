"""Quadrature, pointwise evaluation, and the constrained global assembly
of the residual vector and the Jacobian matrix.

Everything is vectorized over cells in fixed-size chunks; the bilinear
cell geometry (straight-sided quads) is tabulated once per (mesh, rule)
and cached on the mesh.  One Gauss rule is shared by every assembly of a
run so that coarse and enriched pairings commit the same quadrature
crime.

Local Jacobians skip the (test, trial) component pairs whose coefficient
block is zero on the whole chunk (most of them: the kernels' blocks are
dense arrays over all pairs) and form each remaining pair with one
batched matmul over the quadrature points and the trial index.
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


# block kind -> (test side, trial side) of A'(u)(phi_j, phi_i); False
# pairs the coefficient with basis values, True with basis gradients
_KINDS = {"vv": (False, False), "vg": (False, True),
          "gv": (True, False), "gg": (True, True)}


def coefficient_pairs(blocks):
    """The (k, m) component pairs of the Jacobian blocks that carry a
    nonzero entry.

    Yields ``(test_grad, trial_grad, k, m, c)`` with ``c[e, q, i, j]`` the
    pair's coefficients; ``i`` runs over the test side and ``j`` over the
    trial side, each of length 2 on a gradient side and 1 on a value
    side.  Pairs that are zero throughout the chunk contribute nothing
    and are skipped (non-finite entries are nonzero and kept).
    """
    for kind, block in blocks.items():
        test_grad, trial_grad = _KINDS[kind]
        ne, nq, ncomp = block.shape[:3]
        block = block.reshape(ne, nq, ncomp, ncomp,
                              2 if test_grad else 1, 2 if trial_grad else 1)
        nonzero = np.any(block != 0, axis=(0, 1, 4, 5))
        for k, m in zip(*np.nonzero(nonzero)):
            yield test_grad, trial_grad, k, m, block[:, :, k, m]


def local_matrices(blocks, wdet, N, gphi, ncomp):
    """Local Jacobians A[e, k, b, m, d] = A'(u)(phi_d e_m, phi_b e_k).

    Per nonzero component pair, the weighted coefficients are contracted
    with the test basis over the 2-vector index, then one batched matmul
    over (quadrature point, trial index) pairs the result with the trial
    basis.  ``N`` is (nb, nq), ``gphi`` (ne, nb, nq, 2), ``wdet`` (ne, nq).
    """
    ne, nb, nq, _ = gphi.shape
    # test basis as (e, q, b, i); trial basis as ((q, j), d)
    test = (N.T[None, :, :, None], gphi.transpose(0, 2, 1, 3))
    trial = (N.T, gphi.transpose(0, 2, 3, 1).reshape(ne, 2 * nq, nb))
    A = np.zeros((ne, ncomp, nb, ncomp, nb))
    for test_grad, trial_grad, k, m, c in coefficient_pairs(blocks):
        left = test[test_grad] @ (wdet[:, :, None, None] * c)
        left = left.transpose(0, 2, 1, 3).reshape(ne, nb, -1)
        A[:, k, :, m, :] += left @ trial[trial_grad]
    return A


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
        A = local_matrices(blocks, wdet, N, phys_gradients(space, rule, sl),
                           ncomp)
        if not np.all(np.isfinite(A)):
            raise QuadratureFailure("non-finite jacobian integrand")
        ne = uv.shape[0]
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
