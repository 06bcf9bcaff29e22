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
(``FeSpace.rule``).  Spaces, functions and constraint sets are
immutable (a function's coefficients are read-only), so, like the mesh,
each keeps what is derived from it through ``cached``, and nothing
kept can go stale.  One nodal
interpolation, ``transfer_to_refined``, moves a function into a space
of any degree on the same mesh or on a refinement of it.

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
from .mesh import DIRICHLET, EDGE_CORNERS, NEUMANN, Cached, require_int

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


def tensor_values(r, pts):
    """Tensor-product basis values at reference points ``pts`` (m, 2),
    shape (nb, m) with nb = (r+1)^2, local index iy*(r+1)+ix."""
    pts = np.asarray(pts, dtype=float)
    lx, ly = lagrange_1d(r, pts[:, 0]), lagrange_1d(r, pts[:, 1])
    return (ly[:, None] * lx).reshape(-1, len(pts))


def tensor_basis(r, pts):
    """Tensor-product basis values ``tensor_values(r, pts)`` and their
    gradients ``dN`` of shape (nb, m, 2)."""
    pts = np.asarray(pts, dtype=float)
    lx, ly = lagrange_1d(r, pts[:, 0]), lagrange_1d(r, pts[:, 1])
    dlx, dly = lagrange_1d_deriv(r, pts[:, 0]), lagrange_1d_deriv(r, pts[:, 1])
    dN = np.stack([ly[:, None] * dlx, dly[:, None] * lx], axis=-1)
    return tensor_values(r, pts), dN.reshape(-1, len(pts), 2)


@dataclass(frozen=True)
class QuadratureRule:
    """Tensor Gauss rule on the unit square, exact to degree 2n-1."""

    n: int
    points: np.ndarray
    weights: np.ndarray


def gauss(n):
    """The rule of order n (an integer >= 1), built once and shared
    (callers never modify it)."""
    return _gauss(require_int("n", n))


@lru_cache(maxsize=None)
def _gauss(n):
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
class FeSpace(Cached):
    """Q^r space (scalar or vector) on the active cells of a mesh; its
    ``rule`` is gauss(degree + 2) unless given.

    ``vertex_node`` (n_points,) is the scalar node of each mesh vertex
    and ``edge_nodes`` (n_edges, r - 1) the nodes inside each face of
    ``mesh.edges()``, ordered from the face's smaller vertex id.
    """

    def __init__(self, mesh, degree, n_components=1, rule=None):
        self.mesh = mesh
        self.degree = require_int("degree", degree)
        self.n_components = require_int("n_components", n_components)
        self.rule = rule or gauss(self.degree + 2)
        self._build()

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
        """Reference basis values (nb, m) at points (m, 2), cached."""
        return self.cached(("basis", np.asarray(pts).tobytes()),
                           lambda: tensor_values(self.degree, pts))

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


class DiscreteFunction(Cached):
    """FE coefficient vector bound to its space; the coefficients are a
    read-only copy."""

    def __init__(self, space, coeffs):
        if len(coeffs) != space.n_dofs:
            raise ValueError("coefficient length does not match space")
        self.space = space
        self.coeffs = np.array(coeffs, dtype=float)
        self.coeffs.flags.writeable = False


def build_space(mesh, degree, n_components=1, rule=None):
    return FeSpace(mesh, degree, n_components, rule)


# ----------------------------------------------------------------------
# constraints
# ----------------------------------------------------------------------
class ConstraintSet(Cached):
    """Closed affine constraints u = C u + b.

    ``matrix`` C carries the master weights on each constrained row and
    a unit diagonal on every free row, ``constrained`` marks the
    constrained rows and ``inhomogeneity`` b is zero off them.  After
    closure no master is itself constrained (C has no entry in a
    constrained column), which makes constraint application a
    projection.
    """

    def __init__(self, n_dofs, hanging=((), (), ()), fixed=((), ())):
        """``hanging`` holds the triplets (dofs, masters, weights) of the
        rows dof = sum(weight * master); ``fixed`` holds the pair (dofs,
        values) of the fixed DOFs, each listed once, whose value
        overrides a hanging row of the same DOF."""
        dofs, masters = (np.asarray(a, dtype=np.int64) for a in hanging[:2])
        weights = np.asarray(hanging[2], dtype=float)
        fixed_dofs = np.asarray(fixed[0], dtype=np.int64)
        b = np.zeros(n_dofs)
        b[fixed_dofs] = fixed[1]
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
        # rows/columns there; only the unit diagonal must be added.  The
        # cached CSR transpose spares the conversion of the CSC view C.T
        out = self._transposed @ (A @ self.matrix) \
            + sp.diags(self.constrained.astype(float))
        return out.tocsr()

    def condense_rhs(self, r):
        out = self._transposed @ r
        out[self.constrained] = 0.0
        return out


def build_constraints(space, dirichlet=()):
    """Hanging-node + Dirichlet constraints for a space.

    ``dirichlet`` is a list of (boundary_tag, component, g) with
    ``g(x, y, side)``, called once per entry on the arrays of all nodes
    of the faces whose tag it names; it may return a scalar for constant
    data.  The tag must be ``DIRICHLET``, ``NEUMANN`` or carried by a
    face of the mesh, and the component an integer in [0, n_components);
    anything else raises ValueError.  ``side`` is the sign of the owning
    cell's centroid y minus the node's y, and 0 where the two are level.
    So it is nonzero at the nodes of vertical faces too: the slit mouth
    (-1, 0) and its copy lie on vertical outer faces only, and take the
    traces of their own sides through it.  A DOF keeps the value it gets
    first, in face order, then entry order, then along the face; a DOF
    that two faces give different values raises
    ``ConflictingConstraints``.  The hanging rows are formed once on the
    scalar nodes and laid out per component by one ``FeSpace.dof``
    broadcast.
    """
    r = space.degree
    mesh = space.mesh
    t = mesh.edges()
    verts = t.verts.tolist()
    vertex_node = space.vertex_node.tolist()
    edge_nodes = space.edge_nodes.tolist()
    nodes, masters, weights = [], [], []

    # hanging faces: fine-side nodes interpolate the coarse edge trace,
    # whose nodes run from the face's smaller vertex to its larger
    for face, m, halves in zip(t.hanging_face.tolist(), t.hanging_mid.tolist(),
                               t.hanging_halves.tolist()):
        a, b = verts[face]
        coarse_nodes = np.array([vertex_node[a], *edge_nodes[face],
                                 vertex_node[b]])
        fine = [(vertex_node[m], 0.5)]
        t_of = {a: 0.0, b: 1.0, m: 0.5}
        for half in halves:
            lo, hi = verts[half]
            for k, nid in enumerate(edge_nodes[half], start=1):
                fine.append((nid, t_of[lo] + (k / r) * (t_of[hi] - t_of[lo])))

        for nid, pos in fine:
            w = lagrange_1d(r, np.array([pos]))[:, 0]
            keep = np.abs(w) > 1e-14
            nodes.extend([nid] * int(keep.sum()))
            masters.extend(coarse_nodes[keep])
            weights.extend(w[keep])

    comp = np.arange(space.n_components)[:, None]
    dofs = space.dof(comp, np.array([nodes, masters], dtype=np.int64)[:, None])
    return ConstraintSet(space.n_dofs, (*dofs.reshape(2, -1),
                                        np.tile(weights, len(comp))),
                         _dirichlet_values(space, t, dirichlet))


def _dirichlet_values(space, t, dirichlet):
    """(dofs, values) of the nodal interpolation of the Dirichlet data on
    the faces of edge table ``t``, each DOF once, in the first-come
    order ``build_constraints`` states."""
    mesh = space.mesh
    tagged = np.flatnonzero(np.not_equal(t.tag, None))
    pos = np.arange(space.degree + 1)
    key, dof, val, node = [], [], [], []
    for j, (btag, comp, g) in enumerate(dirichlet):
        comp = require_int("dirichlet component", comp, least=0,
                           below=space.n_components)
        faces = tagged[t.tag[tagged] == btag]
        if not faces.size and btag not in (DIRICHLET, NEUMANN):
            raise ValueError(f"dirichlet tag {btag!r} is neither "
                             f"{DIRICHLET!r}, {NEUMANN!r} nor a face tag "
                             f"of the mesh")
        nodes = np.column_stack([space.vertex_node[t.verts[faces, 0]],
                                 space.edge_nodes[faces],
                                 space.vertex_node[t.verts[faces, 1]]])
        cy = mesh.points[mesh.cell_verts[t.owners[faces, 0]]].mean(axis=1)
        x, y = space.node_coords[nodes].transpose(2, 0, 1)
        side = np.sign(cy[:, None, 1] - y)
        val.append(np.broadcast_to(np.asarray(g(x, y, side), dtype=float),
                                   x.shape).ravel())
        key.append(((faces[:, None] * len(dirichlet) + j) * len(pos)
                    + pos).ravel())
        dof.append(space.dof(comp, nodes).ravel())
        node.append(nodes.ravel())
    if not key:
        return np.zeros(0, dtype=np.int64), np.zeros(0)
    order = np.argsort(np.concatenate(key), kind="stable")
    dof, val, node = (np.concatenate(a)[order] for a in (dof, val, node))
    _, first, inverse = np.unique(dof, return_index=True, return_inverse=True)
    prev = val[first][inverse]
    clash = np.flatnonzero(np.abs(prev - val) > 1e-12 * (1.0 + np.abs(prev)))
    if clash.size:
        i = clash[0]
        x, y = space.node_coords[node[i]]
        raise ConflictingConstraints(f"dof {dof[i]} at ({x}, {y}): "
                                     f"{float(prev[i])} vs {float(val[i])}")
    first.sort()
    return dof[first], val[first]


# ----------------------------------------------------------------------
# interpolation and evaluation
# ----------------------------------------------------------------------
def interpolate_between(source, target_space):
    """``transfer_to_refined`` onto another space on the same mesh."""
    if source.space.mesh is not target_space.mesh:
        raise MeshMismatch("source and target live on different meshes")
    return transfer_to_refined(source, target_space)


_CHILD_OFFSET = np.array([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0)])


def transfer_to_refined(source, target_space):
    """Nodal interpolation into a space of any degree on the source's
    mesh or a refinement of it, exact for Q^r data in Q^s with s >= r.

    Each target cell evaluates its source-active ancestor's polynomial
    (its own, on one mesh) at its support points; cells are grouped by
    the chain of child slots up to that ancestor, one product per chain.
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
            @ source.space.basis_at(pts)
    # shared DOFs keep the value of their last cell, as a cell loop would
    out = np.zeros(target_space.n_dofs)
    out[target_space.cell_dofs] = vals
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

