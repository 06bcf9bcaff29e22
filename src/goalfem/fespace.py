"""Continuous tensor-product Lagrange spaces Q^r on quad meshes.

Scalar support points are equispaced tensor nodes per cell, unified
across cells through topological keys: a vertex node is keyed by its
vertex id (``FeSpace.vertex_node``), the r - 1 nodes inside a face by
the face's id in ``Mesh.edges()`` (``FeSpace.edge_nodes``), and cell
interior nodes belong to their cell alone.  DOF numbering is
deterministic: cells are scanned by ascending id, local nodes in tensor
order (x fastest).  Vector spaces use a block layout,
``dof = component * n_nodes + node``, tabulated once as
``FeSpace.cell_dofs[cell_row, component, local]``; every cell gather
(``local_coeffs``) and scatter (``scatter``) goes through that table.
The scatter is one ``np.bincount``, which adds in the order of the
table exactly as ``np.add.at`` would.

A space carries the Gauss rule of every integral over its functions
(``FeSpace.rule``).  A ``DiscreteFunction`` caches its values at that
rule's points, filled by ``assembly.quadrature_values``; its
coefficients are read-only, so those values cannot go stale.

Hanging-node and Dirichlet constraints are one affine map u = C u + b
(``ConstraintSet``): the sparse matrix C, closed so that no master is
itself constrained, the mask of constrained DOFs and the vector b.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.sparse as sp

from .errors import ConflictingConstraints, MeshMismatch, PointOutsideDomain
from .mesh import EDGE_CORNERS

# local corner index of each cell corner in the (r+1)^2 tensor grid
_CORNER_GRID = {0: (0, 0), 1: (1, 0), 2: (0, 1), 3: (1, 1)}


# ----------------------------------------------------------------------
# 1D / tensor Lagrange bases on equispaced nodes
# ----------------------------------------------------------------------
def lagrange_1d(r, t):
    """Values of the r+1 equispaced Lagrange polynomials at ``t``.

    Returns shape (r+1, len(t)).
    """
    t = np.atleast_1d(np.asarray(t, dtype=float))
    nodes = np.arange(r + 1) / max(r, 1)
    vals = np.ones((r + 1, t.size))
    for j in range(r + 1):
        for k in range(r + 1):
            if k != j:
                vals[j] *= (t - nodes[k]) / (nodes[j] - nodes[k])
    return vals


def lagrange_1d_deriv(r, t):
    """First derivatives of the equispaced Lagrange basis at ``t``."""
    t = np.atleast_1d(np.asarray(t, dtype=float))
    nodes = np.arange(r + 1) / max(r, 1)
    out = np.zeros((r + 1, t.size))
    for j in range(r + 1):
        for m in range(r + 1):
            if m == j:
                continue
            term = np.full(t.size, 1.0 / (nodes[j] - nodes[m]))
            for k in range(r + 1):
                if k != j and k != m:
                    term *= (t - nodes[k]) / (nodes[j] - nodes[k])
            out[j] += term
    return out


def tensor_basis(r, pts):
    """Tensor-product basis values and gradients at reference points.

    ``pts`` has shape (m, 2); returns ``N`` of shape (nb, m) and ``dN``
    of shape (nb, m, 2) with nb = (r+1)^2, local index iy*(r+1)+ix.
    """
    pts = np.asarray(pts, dtype=float)
    lx, ly = lagrange_1d(r, pts[:, 0]), lagrange_1d(r, pts[:, 1])
    dlx, dly = lagrange_1d_deriv(r, pts[:, 0]), lagrange_1d_deriv(r, pts[:, 1])
    nb = (r + 1) ** 2
    N = np.empty((nb, pts.shape[0]))
    dN = np.empty((nb, pts.shape[0], 2))
    for iy in range(r + 1):
        for ix in range(r + 1):
            n = iy * (r + 1) + ix
            N[n] = lx[ix] * ly[iy]
            dN[n, :, 0] = dlx[ix] * ly[iy]
            dN[n, :, 1] = lx[ix] * dly[iy]
    return N, dN


@dataclass(frozen=True)
class QuadratureRule:
    """Tensor Gauss rule on the unit square, exact to degree 2n-1."""

    n: int
    points: np.ndarray
    weights: np.ndarray


@lru_cache(maxsize=None)
def gauss(n):
    """The rule of order n, built once and shared (callers never modify
    it)."""
    t, w = np.polynomial.legendre.leggauss(n)
    t = 0.5 * (t + 1.0)
    w = 0.5 * w
    X, Y = np.meshgrid(t, t)
    WX, WY = np.meshgrid(w, w)
    return QuadratureRule(n, np.column_stack([X.ravel(), Y.ravel()]),
                          (WX * WY).ravel())


def bilinear_map(corners, ref):
    """Map reference points (m, 2) through cells' corners (..., 4, 2)."""
    xi, eta = ref[..., 0], ref[..., 1]
    g = np.stack([(1 - xi) * (1 - eta), xi * (1 - eta),
                  (1 - xi) * eta, xi * eta], axis=-1)
    return np.einsum("...k,...kd->...d", g, corners)


# ----------------------------------------------------------------------
# the space
# ----------------------------------------------------------------------
class FeSpace:
    """Q^r space (scalar or vector) on the active cells of a mesh; its
    ``rule`` is gauss(degree + 2) unless given.

    ``vertex_node`` (n_points,) is the scalar node of each mesh vertex
    and ``edge_nodes`` (n_edges, r - 1) the nodes inside each face of
    ``mesh.edges()``, ordered from the face's smaller vertex id.
    """

    def __init__(self, mesh, degree, n_components=1, rule=None):
        if degree < 1:
            raise ValueError("degree must be >= 1")
        self.mesh = mesh
        self.degree = int(degree)
        self.n_components = int(n_components)
        self.rule = rule or gauss(self.degree + 2)
        self._build()
        self._basis_cache = {}

    def _build(self):
        r = self.degree
        mesh = self.mesh
        active = mesh.active_cells
        nb = (r + 1) ** 2
        cell_nodes = np.empty((len(active), nb), dtype=np.int64)
        edges = mesh.edges()

        # Python lists while numbering: the loop looks up one node at a
        # time, and indexing numpy arrays by scalars is slow
        vertex_node = [-1] * mesh.n_points
        edge_nodes = [[-1] * (r - 1) for _ in range(len(edges.verts))]
        coords = []

        def new_node(xy):
            coords.append(xy)
            return len(coords) - 1

        corner_local = {(gx * r, gy * r): ci
                        for ci, (gx, gy) in _CORNER_GRID.items()}

        for row, (verts, eids) in enumerate(zip(
                mesh.cell_verts[active].tolist(), edges.of_cell.tolist())):
            cc = mesh.points[verts]
            for iy in range(r + 1):
                for ix in range(r + 1):
                    loc = iy * (r + 1) + ix
                    corner = corner_local.get((ix, iy))
                    if corner is not None:
                        v = verts[corner]
                        nid = vertex_node[v]
                        if nid < 0:
                            nid = new_node(mesh.points[v].copy())
                            vertex_node[v] = nid
                        cell_nodes[row, loc] = nid
                        continue
                    # local edge in EDGE_CORNERS order, position k on it
                    on_edge = None
                    if iy == 0:
                        on_edge, k = 0, ix
                    elif ix == r:
                        on_edge, k = 1, iy
                    elif iy == r:
                        on_edge, k = 2, ix
                    elif ix == 0:
                        on_edge, k = 3, iy
                    if on_edge is not None:
                        ca, cb = EDGE_CORNERS[on_edge]
                        # a face's nodes run from its smaller vertex id
                        pos = k if verts[ca] < verts[cb] else r - k
                        run = edge_nodes[eids[on_edge]]
                        nid = run[pos - 1]
                        if nid < 0:
                            ref = np.array([(ix / r, iy / r)])
                            nid = new_node(bilinear_map(cc, ref)[0])
                            run[pos - 1] = nid
                        cell_nodes[row, loc] = nid
                    else:
                        ref = np.array([(ix / r, iy / r)])
                        cell_nodes[row, loc] = new_node(bilinear_map(cc, ref)[0])

        self.cell_nodes = cell_nodes
        self.n_nodes = len(coords)
        self.cell_dofs = self.dof(np.arange(self.n_components)[:, None],
                                  cell_nodes[:, None, :])
        self.node_coords = np.asarray(coords)
        self.vertex_node = np.array(vertex_node, dtype=np.int64)
        self.edge_nodes = np.array(edge_nodes, dtype=np.int64).reshape(
            len(edge_nodes), r - 1)

    @property
    def n_dofs(self):
        return self.n_nodes * self.n_components

    @property
    def n_local(self):
        return (self.degree + 1) ** 2

    def local_ref_nodes(self):
        r = self.degree
        g = np.arange(r + 1) / r
        xx, yy = np.meshgrid(g, g)
        return np.column_stack([xx.ravel(), yy.ravel()])

    def basis_at(self, pts):
        """Reference basis values/gradients at points, with caching."""
        key = np.asarray(pts).tobytes()
        hit = self._basis_cache.get(key)
        if hit is None:
            hit = tensor_basis(self.degree, pts)
            self._basis_cache[key] = hit
        return hit

    def dof(self, component, nodes):
        return np.asarray(nodes) + component * self.n_nodes

    def local_coeffs(self, coeffs, rows=slice(None)):
        """Coefficient blocks of the active-cell ``rows``, shape
        (..., n_comp, nb)."""
        return np.asarray(coeffs)[self.cell_dofs[rows]]

    def scatter(self, local, rows=slice(None)):
        """Sum cell blocks ``local`` (..., n_comp, nb) of the active-cell
        ``rows`` into a DOF vector, in table order."""
        return np.bincount(self.cell_dofs[rows].ravel(), np.ravel(local),
                           minlength=self.n_dofs)

    def function(self, coeffs=None):
        if coeffs is None:
            coeffs = np.zeros(self.n_dofs)
        return DiscreteFunction(self, coeffs)


class DiscreteFunction:
    """FE coefficient vector bound to its space.

    The coefficients are a read-only copy.  ``quad_values`` holds the
    function's values and gradients at the points of its space's rule
    on every active cell, or None until ``assembly.quadrature_values``
    fills it.
    """

    def __init__(self, space, coeffs):
        if len(coeffs) != space.n_dofs:
            raise ValueError("coefficient length does not match space")
        self.space = space
        self.coeffs = np.array(coeffs, dtype=float)
        self.coeffs.flags.writeable = False
        self.quad_values = None


def build_space(mesh, degree, n_components=1, rule=None):
    return FeSpace(mesh, degree, n_components, rule)


# ----------------------------------------------------------------------
# constraints
# ----------------------------------------------------------------------
class ConstraintSet:
    """Closed affine constraints u = C u + b.

    ``matrix`` C carries the master weights on each constrained row and
    a unit diagonal on every free row, ``constrained`` marks the
    constrained rows and ``inhomogeneity`` b is zero off them.  After
    closure no master is itself constrained (C has no entry in a
    constrained column), which makes constraint application a
    projection.
    """

    def __init__(self, n_dofs, hanging=((), (), ()), fixed=None):
        """``hanging`` holds the triplets (dofs, masters, weights) of the
        rows dof = sum(weight * master); ``fixed`` maps a DOF to its
        value, which overrides a hanging row of the same DOF."""
        fixed = fixed or {}
        dofs, masters = (np.asarray(a, dtype=np.int64) for a in hanging[:2])
        weights = np.asarray(hanging[2], dtype=float)
        fixed_dofs = np.array(list(fixed), dtype=np.int64)
        b = np.zeros(n_dofs)
        b[fixed_dofs] = list(fixed.values())
        mask = np.zeros(n_dofs, dtype=bool)
        mask[dofs] = True
        mask[fixed_dofs] = True
        keep = ~np.isin(dofs, fixed_dofs)
        free = np.flatnonzero(~mask)
        C = sp.csr_matrix(
            (np.concatenate([weights[keep], np.ones(free.size)]),
             (np.concatenate([dofs[keep], free]),
              np.concatenate([masters[keep], free]))),
            shape=(n_dofs, n_dofs))
        # substitute constrained masters: u = C (C u + b) + b.  A chain
        # through d constrained DOFs closes after ceil(log2 d) squarings,
        # so a system still open after more than that has a cycle
        n_constrained = int(mask.sum())
        squarings = 0
        while np.any(mask[C.indices] & np.repeat(mask, np.diff(C.indptr))):
            if 2 ** squarings >= n_constrained:
                raise AssertionError("constraint chains did not close")
            b = C @ b + b
            C = C @ C
            squarings += 1
        C.sum_duplicates()
        self.matrix = C
        self._transposed = C.T.tocsr()
        self.constrained = mask
        self.inhomogeneity = b
        # condensed goal gradients keyed by (leaf, space), filled by
        # LinearLeaf.leaf_gradient
        self.gradient_cache = {}

    def apply(self, u):
        """C u + b: constrained entries from their masters and b; a free
        row of C is its unit diagonal and b is zero there, so free
        entries keep their value."""
        return self.matrix @ u + self.inhomogeneity

    def distribute(self, x):
        """Homogeneous constrained extension C x of master values."""
        return self.matrix @ x

    def condense_matrix(self, A):
        # constrained columns of C vanish, so C^T A C already has zero
        # rows/columns there; only the unit diagonal must be added
        C = self.matrix
        out = (C.T @ (A @ C)) + sp.diags(self.constrained.astype(float))
        return out.tocsr()

    def condense_rhs(self, r):
        out = self._transposed @ r
        out[self.constrained] = 0.0
        return out


def build_constraints(space, dirichlet=()):
    """Hanging-node + Dirichlet constraints for a space.

    ``dirichlet`` is a list of (boundary_tag, component, g) with
    ``g(x, y, side)``.  On every face whose tag the list names, ``side``
    is the sign of the owning cell's centroid y minus the node's y, and 0
    where the two are level.  So it is nonzero at the nodes of vertical
    faces too: the slit mouth (-1, 0) and its copy lie on vertical outer
    faces only, and take the traces of their own sides through it.  A
    DOF that two faces give different values raises
    ``ConflictingConstraints``.
    """
    r = space.degree
    mesh = space.mesh
    t = mesh.edges()
    verts, owners = t.verts.tolist(), t.owners.tolist()
    vertex_node = space.vertex_node.tolist()
    edge_nodes = space.edge_nodes.tolist()
    dofs, masters, weights = [], [], []
    fixed = {}

    def face_nodes(e):
        """Nodes of face e from its smaller vertex to its larger."""
        a, b = verts[e]
        return [vertex_node[a], *edge_nodes[e], vertex_node[b]]

    # hanging faces: fine-side nodes interpolate the coarse edge trace
    for face, m, halves in zip(t.hanging_face.tolist(), t.hanging_mid.tolist(),
                               t.hanging_halves.tolist()):
        coarse_nodes = np.asarray(face_nodes(face))
        a, b = verts[face]
        fine = [(vertex_node[m], 0.5)]
        t_of = {a: 0.0, b: 1.0, m: 0.5}
        for half in halves:
            lo, hi = verts[half]
            for k, nid in enumerate(edge_nodes[half], start=1):
                fine.append((nid, t_of[lo] + (k / r) * (t_of[hi] - t_of[lo])))

        for nid, pos in fine:
            w = lagrange_1d(r, np.array([pos]))[:, 0]
            keep = np.abs(w) > 1e-14
            for comp in range(space.n_components):
                dofs.extend([space.dof(comp, nid)] * int(keep.sum()))
                masters.extend(space.dof(comp, coarse_nodes[keep]))
                weights.extend(w[keep])

    # Dirichlet values by nodal interpolation of the data
    for e, tag in enumerate(t.tag.tolist()):
        if tag is None:
            continue
        nodes = face_nodes(e)
        centroid = mesh.points[mesh.cell_verts[owners[e][0]]].mean(axis=0)
        for btag, comp, g in dirichlet:
            if btag != tag:
                continue
            for nid in nodes:
                x, y = space.node_coords[nid]
                side = float(np.sign(centroid[1] - y)) if centroid[1] != y else 0.0
                val = float(g(x, y, side))
                dof = int(space.dof(comp, nid))
                prev = fixed.get(dof)
                if prev is not None:
                    if abs(prev - val) > 1e-12 * (1.0 + abs(prev)):
                        raise ConflictingConstraints(
                            f"dof {dof} at ({x}, {y}): {prev} vs {val}")
                    continue
                fixed[dof] = val

    return ConstraintSet(space.n_dofs, (dofs, masters, weights), fixed)


# ----------------------------------------------------------------------
# interpolation and evaluation
# ----------------------------------------------------------------------
def interpolate_between(source, target_space):
    """Nodal interpolation onto another space on the same mesh."""
    if source.space.mesh is not target_space.mesh:
        raise MeshMismatch("source and target live on different meshes")
    if source.space.n_components != target_space.n_components:
        raise MeshMismatch("component counts differ")
    B, _ = source.space.basis_at(target_space.local_ref_nodes())
    uloc = source.space.local_coeffs(source.coeffs)
    vals = np.einsum("ecb,bt->ect", uloc, B)
    out = np.zeros(target_space.n_dofs)
    out[target_space.cell_dofs] = vals
    return target_space.function(out)


_CHILD_OFFSET = np.array([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0)])


def transfer_to_refined(source, target_space, constraints=None):
    """Inject a function into a space on a refinement of its mesh.

    Exact for nested Q^r: children evaluate the parent polynomial at
    their own support points.  Target cells are grouped by the chain of
    child slots leading up to their source-active ancestor; each group
    is one batched product with that chain's basis table.
    """
    src_mesh = source.space.mesh
    tgt_mesh = target_space.mesh
    n_src = src_mesh.n_cells
    if tgt_mesh.n_cells < n_src or not np.array_equal(
            tgt_mesh.cell_verts[:n_src], src_mesh.cell_verts):
        raise MeshMismatch("target mesh is not a refinement of the source mesh")
    if source.space.n_components != target_space.n_components:
        raise MeshMismatch("component counts differ")

    src_active = src_mesh.active_cells
    src_row = np.full(tgt_mesh.n_cells, -1)
    src_row[src_active] = np.arange(len(src_active))
    # climb every target cell to its source-active ancestor; row r of
    # ``chains`` lists the child slots climbed from target row r, padded
    # with -1 once the ancestor is reached
    cells = tgt_mesh.active_cells.copy()
    chains = []
    while np.any(pending := src_row[cells] < 0):
        up = cells[pending]
        parent = tgt_mesh.cell_parent[up]
        slot = np.full(len(cells), -1)
        slot[pending] = np.argmax(
            tgt_mesh.cell_children[parent] == up[:, None], axis=1)
        chains.append(slot)
        cells[pending] = parent
    chains = np.array(chains, dtype=np.int64).reshape(-1, len(cells)).T

    ref_nodes = target_space.local_ref_nodes()
    src_loc = source.space.local_coeffs(source.coeffs)
    vals = np.empty(target_space.cell_dofs.shape)
    keys, group = np.unique(chains, axis=0, return_inverse=True)
    for g, key in enumerate(keys):
        pts = ref_nodes
        for slot in key[key >= 0]:
            pts = 0.5 * (pts + _CHILD_OFFSET[slot])
        rows = np.flatnonzero(group.ravel() == g)
        vals[rows] = src_loc[src_row[cells[rows]]] \
            @ source.space.basis_at(pts)[0]
    # shared DOFs keep the value of their last cell, as a cell loop would
    out = np.zeros(target_space.n_dofs)
    out[target_space.cell_dofs] = vals
    if constraints is not None:
        out = constraints.apply(out)
    return target_space.function(out)


def _invert_bilinear(corners, p):
    """Reference coordinates of physical point ``p`` in one cell, or None."""
    ref = np.array([0.5, 0.5])
    scale = max(np.ptp(corners[:, 0]), np.ptp(corners[:, 1]), 1e-30)
    for _ in range(50):
        xi, eta = ref
        g = np.array([(1 - xi) * (1 - eta), xi * (1 - eta), (1 - xi) * eta, xi * eta])
        x = g @ corners
        res = x - p
        if np.max(np.abs(res)) < 1e-13 * scale:
            break
        dxi = np.array([-(1 - eta), (1 - eta), -eta, eta]) @ corners
        deta = np.array([-(1 - xi), -xi, (1 - xi), xi]) @ corners
        J = np.column_stack([dxi, deta])
        det = J[0, 0] * J[1, 1] - J[0, 1] * J[1, 0]
        if det == 0:
            return None
        step = np.array([J[1, 1] * res[0] - J[0, 1] * res[1],
                         -J[1, 0] * res[0] + J[0, 0] * res[1]]) / det
        ref = ref - step
        if np.max(np.abs(ref)) > 10.0:
            return None
    else:
        return None
    if -1e-10 <= ref[0] <= 1 + 1e-10 and -1e-10 <= ref[1] <= 1 + 1e-10:
        return np.clip(ref, 0.0, 1.0)
    return None


def locate_point(mesh, point, side=0):
    """Active-cell row owning a point, plus its reference coordinates.

    The owner is the containing active cell with the smallest id;
    ``side`` (+-1) restricts candidates to cells above/below the point,
    which disambiguates the two slit lips.
    """
    p = np.asarray(point, dtype=float)
    corners = mesh.corners()
    lo = corners.min(axis=1) - 1e-12
    hi = corners.max(axis=1) + 1e-12
    cand = np.flatnonzero(np.all((p >= lo) & (p <= hi), axis=1))
    if side:
        cy = corners[:, :, 1].mean(axis=1)
        cand = cand[np.sign(cy[cand] - p[1]) == np.sign(side)]
    for row in cand:
        ref = _invert_bilinear(corners[row], p)
        if ref is not None:
            return int(row), ref
    raise PointOutsideDomain(f"point {tuple(p)} not found in any active cell")

