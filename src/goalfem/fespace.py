"""Continuous tensor-product Lagrange spaces Q^r on quad meshes.

Scalar support points are equispaced tensor nodes per cell, unified
across cells through topological keys (vertex / edge-position / cell
interior), so DOF numbering is deterministic: cells are scanned by
ascending id, local nodes in tensor order (x fastest).  Vector spaces
use a block layout, ``dof = component * n_nodes + node``.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .errors import ConflictingConstraints, MeshMismatch, PointOutsideDomain
from .mesh import _ekey

# local corner index of each cell corner in the (r+1)^2 tensor grid
_CORNER_GRID = {0: (0, 0), 1: (1, 0), 2: (0, 1), 3: (1, 1)}
# edges as (corner_from, corner_to, axis): bottom, top, left, right
_EDGE_RUNS = ((0, 1), (2, 3), (0, 2), (1, 3))


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
    """Q^r space (scalar or vector) on the active cells of a mesh."""

    def __init__(self, mesh, degree, n_components=1):
        if degree < 1:
            raise ValueError("degree must be >= 1")
        self.mesh = mesh
        self.degree = int(degree)
        self.n_components = int(n_components)
        self._build()
        self._basis_cache = {}

    def _build(self):
        r = self.degree
        mesh = self.mesh
        active = mesh.active_cells
        self.active = active
        nb = (r + 1) ** 2
        cell_nodes = np.empty((len(active), nb), dtype=np.int64)

        vertex_node = {}
        edge_nodes = {}
        coords = []

        def new_node(xy):
            coords.append(xy)
            return len(coords) - 1

        corner_local = {(gx * r, gy * r): ci
                        for ci, (gx, gy) in _CORNER_GRID.items()}

        for row, c in enumerate(active):
            verts = mesh.cell_verts[c]
            cc = mesh.points[verts]
            for iy in range(r + 1):
                for ix in range(r + 1):
                    loc = iy * (r + 1) + ix
                    corner = corner_local.get((ix, iy))
                    if corner is not None:
                        v = verts[corner]
                        nid = vertex_node.get(v)
                        if nid is None:
                            nid = new_node(mesh.points[v].copy())
                            vertex_node[v] = nid
                        cell_nodes[row, loc] = nid
                        continue
                    on_edge = None
                    if iy == 0:
                        on_edge, k = 0, ix
                    elif iy == r:
                        on_edge, k = 1, ix
                    elif ix == 0:
                        on_edge, k = 2, iy
                    elif ix == r:
                        on_edge, k = 3, iy
                    if on_edge is not None:
                        ca, cb = _EDGE_RUNS[on_edge]
                        va, vb = verts[ca], verts[cb]
                        key = _ekey(va, vb)
                        pos = k if va < vb else r - k
                        run = edge_nodes.get(key)
                        if run is None:
                            run = np.full(r - 1, -1, dtype=np.int64)
                            edge_nodes[key] = run
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
        self.node_coords = np.asarray(coords)
        self.vertex_node = vertex_node
        self.edge_nodes = edge_nodes
        self.active_row = {int(c): i for i, c in enumerate(active)}

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

    def edge_node_run(self, a, b):
        """Scalar nodes interior to edge (a, b), ordered from min(a, b)."""
        return self.edge_nodes.get(_ekey(a, b))

    def local_coeffs(self, coeffs):
        """Per-cell coefficient blocks, shape (n_active, n_comp, nb)."""
        per_comp = np.asarray(coeffs).reshape(self.n_components, self.n_nodes)
        return np.transpose(per_comp[:, self.cell_nodes], (1, 0, 2))

    def function(self, coeffs=None):
        if coeffs is None:
            coeffs = np.zeros(self.n_dofs)
        return DiscreteFunction(self, np.asarray(coeffs, dtype=float))


class DiscreteFunction:
    """FE coefficient vector bound to its space."""

    def __init__(self, space, coeffs):
        if len(coeffs) != space.n_dofs:
            raise ValueError("coefficient length does not match space")
        self.space = space
        self.coeffs = coeffs

    def copy(self):
        return DiscreteFunction(self.space, self.coeffs.copy())


def build_space(mesh, degree, n_components=1):
    return FeSpace(mesh, degree, n_components)


# ----------------------------------------------------------------------
# constraints
# ----------------------------------------------------------------------
class ConstraintSet:
    """Resolved affine constraints: dof = sum(w * master) + inhomogeneity.

    After closure no master is itself constrained, which makes constraint
    application a projection.
    """

    def __init__(self, n_dofs, rows):
        self.n_dofs = n_dofs
        self.rows = rows
        # condensed goal gradients, filled by Functional.leaf_gradient
        self.gradient_cache = {}
        self._close()
        self._assemble_matrix()

    def _close(self):
        for dof in list(self.rows):
            masters, weights, inhom = self.rows[dof]
            guard = 0
            while any(m in self.rows for m in masters):
                nm, nw = [], []
                for m, w in zip(masters, weights):
                    sub = self.rows.get(m)
                    if sub is None:
                        nm.append(m)
                        nw.append(w)
                    else:
                        sm, sw, si = sub
                        nm.extend(sm)
                        nw.extend(w * np.asarray(sw))
                        inhom += w * si
                masters, weights = nm, nw
                guard += 1
                if guard > 100:
                    raise AssertionError("constraint chains did not close")
            merged = {}
            for m, w in zip(masters, weights):
                merged[m] = merged.get(m, 0.0) + w
            self.rows[dof] = (list(merged), list(merged.values()), inhom)

    def _assemble_matrix(self):
        n = self.n_dofs
        mask = np.zeros(n, dtype=bool)
        inhom = np.zeros(n)
        ii, jj, vv = [], [], []
        for dof, (masters, weights, b) in self.rows.items():
            mask[dof] = True
            inhom[dof] = b
            ii.extend([dof] * len(masters))
            jj.extend(masters)
            vv.extend(weights)
        free = np.flatnonzero(~mask)
        ii.extend(free)
        jj.extend(free)
        vv.extend(np.ones(free.size))
        self.matrix = sp.csr_matrix((vv, (ii, jj)), shape=(n, n))
        self.constrained = mask
        self.inhomogeneity = inhom

    @property
    def n_constrained(self):
        return int(self.constrained.sum())

    def apply(self, u):
        """Overwrite constrained entries from masters + inhomogeneity."""
        out = np.asarray(u, dtype=float).copy()
        out[self.constrained] = (self.matrix @ u)[self.constrained] \
            + self.inhomogeneity[self.constrained]
        return out

    def distribute(self, x, with_inhomogeneity=False):
        out = self.matrix @ x
        if with_inhomogeneity:
            out = out + self.inhomogeneity
        return out

    def condense_matrix(self, A):
        # constrained columns of C vanish, so C^T A C already has zero
        # rows/columns there; only the unit diagonal must be added
        C = self.matrix
        out = (C.T @ (A @ C)) + sp.diags(self.constrained.astype(float))
        return out.tocsr()

    def condense_rhs(self, r):
        out = self.matrix.T @ r
        out[self.constrained] = 0.0
        return out


def build_constraints(space, dirichlet=()):
    """Hanging-node + Dirichlet constraints for a space.

    ``dirichlet`` is a list of (boundary_tag, component, g) with
    ``g(x, y, side)``; ``side`` is +-1 on horizontal slit lips (sign of
    the owning cell's offset) and 0 elsewhere.
    """
    r = space.degree
    mesh = space.mesh
    rows = {}

    # hanging faces: fine-side nodes interpolate the coarse edge trace
    ts = np.arange(1, r) / r if r > 1 else np.empty(0)
    for _, (a, b), m in mesh.hanging_interfaces():
        coarse_nodes = [space.vertex_node[a]]
        run = space.edge_node_run(a, b)
        if run is not None:
            coarse_nodes.extend(run.tolist())
        coarse_nodes.append(space.vertex_node[b])

        fine = [(space.vertex_node[m], 0.5)]
        t_of = {a: 0.0, b: 1.0, m: 0.5}
        for p, q in ((a, m), (m, b)):
            sub = space.edge_node_run(p, q)
            if sub is None:
                continue
            lo, hi = (p, q) if p < q else (q, p)
            for k, nid in enumerate(sub, start=1):
                fine.append((nid, t_of[lo] + (k / r) * (t_of[hi] - t_of[lo])))

        for nid, t in fine:
            w = lagrange_1d(r, np.array([t]))[:, 0]
            keep = np.abs(w) > 1e-14
            for comp in range(space.n_components):
                rows[int(space.dof(comp, nid))] = (
                    list(space.dof(comp, np.asarray(coarse_nodes)[keep])),
                    list(w[keep]), 0.0)

    # Dirichlet values by nodal interpolation of the data
    emap = mesh.active_edge_map()
    for e, owners in emap.items():
        tag = mesh.boundary_tags.get(e)
        if tag is None or len(owners) != 1:
            continue
        a, b = e
        nodes = [space.vertex_node[a]]
        run = space.edge_node_run(a, b)
        if run is not None:
            nodes.extend(run.tolist())
        nodes.append(space.vertex_node[b])
        centroid = mesh.points[mesh.cell_verts[owners[0]]].mean(axis=0)
        for btag, comp, g in dirichlet:
            if btag != tag:
                continue
            for nid in nodes:
                x, y = space.node_coords[nid]
                side = float(np.sign(centroid[1] - y)) if centroid[1] != y else 0.0
                val = float(g(x, y, side))
                dof = int(space.dof(comp, nid))
                prev = rows.get(dof)
                if prev is not None and not prev[0]:
                    if abs(prev[2] - val) > 1e-12 * (1.0 + abs(prev[2])):
                        raise ConflictingConstraints(
                            f"dof {dof} at ({x}, {y}): {prev[2]} vs {val}")
                    continue
                rows[dof] = ([], [], val)

    return ConstraintSet(space.n_dofs, rows)


# ----------------------------------------------------------------------
# interpolation and evaluation
# ----------------------------------------------------------------------
def interpolate_between(source, target_space, constraints=None):
    """Nodal interpolation onto another space on the same mesh."""
    if source.space.mesh is not target_space.mesh:
        raise MeshMismatch("source and target live on different meshes")
    if source.space.n_components != target_space.n_components:
        raise MeshMismatch("component counts differ")
    B, _ = source.space.basis_at(target_space.local_ref_nodes())
    uloc = source.space.local_coeffs(source.coeffs)
    vals = np.einsum("ecb,bt->ect", uloc, B)
    out = np.zeros(target_space.n_dofs)
    for comp in range(target_space.n_components):
        out[target_space.dof(comp, target_space.cell_nodes)] = vals[:, comp, :]
    f = target_space.function(out)
    if constraints is not None:
        f = target_space.function(constraints.apply(out))
    return f


_CHILD_OFFSET = np.array([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0)])


def transfer_to_refined(source, target_space, constraints=None):
    """Inject a function into a space on a refinement of its mesh.

    Exact for nested Q^r: children evaluate the parent polynomial at
    their own support points.
    """
    src_mesh = source.space.mesh
    tgt_mesh = target_space.mesh
    if tgt_mesh.n_cells < src_mesh.n_cells or not np.array_equal(
            tgt_mesh.cell_verts[:src_mesh.n_cells], src_mesh.cell_verts):
        raise MeshMismatch("target mesh is not a refinement of the source mesh")
    if source.space.n_components != target_space.n_components:
        raise MeshMismatch("component counts differ")

    ref_nodes = target_space.local_ref_nodes()
    src_loc = source.space.local_coeffs(source.coeffs)
    out = np.zeros(target_space.n_dofs)
    basis_cache = {}

    for row, c in enumerate(target_space.active):
        chain = []
        cc = int(c)
        while not (cc < src_mesh.n_cells and src_mesh.is_active(cc)):
            parent = int(tgt_mesh.cell_parent[cc])
            slot = int(np.flatnonzero(tgt_mesh.cell_children[parent] == cc)[0])
            chain.append(slot)
            cc = parent
        key = tuple(chain)
        B = basis_cache.get(key)
        if B is None:
            pts = ref_nodes
            for slot in chain:
                pts = 0.5 * (pts + _CHILD_OFFSET[slot])
            B, _ = source.space.basis_at(pts)
            basis_cache[key] = B
        src_row = source.space.active_row[cc]
        vals = src_loc[src_row] @ B  # (ncomp, nb_t)
        for comp in range(target_space.n_components):
            out[target_space.dof(comp, target_space.cell_nodes[row])] = vals[comp]

    f = target_space.function(out)
    if constraints is not None:
        f = target_space.function(constraints.apply(out))
    return f


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


def evaluate_at_point(f, point, component=0, side=0):
    """Value of a discrete function at a physical point.

    Points on cell interfaces are evaluated on the active cell with the
    smallest id; ``side`` (+-1) disambiguates the two slit lips by the
    vertical position of the owning cell.
    """
    space = f.space
    row, ref = locate_point(space.mesh, point, side)
    N, _ = tensor_basis(space.degree, ref[None, :])
    uloc = space.local_coeffs(f.coeffs)
    return float(uloc[row, component] @ N[:, 0])
