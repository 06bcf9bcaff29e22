"""Hierarchical 2D quadrilateral meshes with 1-irregular hanging nodes.

Cells are bilinear images of the unit square with corner order
(bottom-left, bottom-right, top-left, top-right), i.e. tensor order:
child/ref coordinates run x fastest.  Refinement splits a cell into four
children through the straight-edge midpoints, so hanging vertices always
sit at the geometric midpoint of the coarse face.  Meshes are immutable:
``refine`` and ``distort`` return new objects.

The faces of the active cells are one array table, ``Mesh.edges()``
(an ``EdgeTable``), cached per mesh: every consumer indexes it by edge
id.  Sorted vertex pairs key only the refinement history
(``edge_midpoint``, ``boundary_tags``) and stay inside this module.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DistortionInvertsCell

# local corner pairs of the four cell edges: bottom, right, top, left
EDGE_CORNERS = ((0, 1), (1, 3), (2, 3), (0, 2))

DIRICHLET = "dirichlet"
NEUMANN = "neumann"


def _ekey(a, b):
    return (a, b) if a < b else (b, a)


@dataclass(frozen=True)
class EdgeTable:
    """The faces of a mesh's active cells, one row per edge id.

    Rows are in first-appearance order: active cells ascending, then
    their local edges in ``EDGE_CORNERS`` order.

    verts : (n, 2) sorted vertex ids.
    owners : (n, 2) active cell ids, ascending; -1 in the second column
        of a face with one owner (a boundary or a hanging face).
    of_cell : (n_active, 4) edge id of each local edge, rows in
        ``active_cells`` order.
    tag : (n,) object array, the boundary tag of a boundary face, else
        None.
    hanging_face, hanging_mid : (k,) edge id of each hanging face, in
        row order, and the vertex that hangs at its midpoint.
    hanging_halves : (k, 2) edge ids of the face's two active halves,
        the one at ``verts[face, 0]`` first.  No hanging midpoint is an
        endpoint of another hanging face (1-irregularity).
    """

    verts: np.ndarray
    owners: np.ndarray
    of_cell: np.ndarray
    tag: np.ndarray
    hanging_face: np.ndarray
    hanging_mid: np.ndarray
    hanging_halves: np.ndarray


class Mesh:
    """Quad mesh with refinement history.

    Attributes
    ----------
    points : (n_points, 2) float array of vertex coordinates.
    cell_verts : (n_cells, 4) int array, corner ids in tensor order.
    cell_level, cell_parent : per-cell refinement metadata.
    cell_children : (n_cells, 4) int array, -1 rows for leaf cells.
    boundary_tags : dict mapping sorted vertex pairs of boundary faces to
        a tag string (``dirichlet``/``neumann``); children faces inherit.
    edge_midpoint : sorted pair -> midpoint vertex id, for every edge that
        has ever been split.
    slit_pairs : list of (upper, lower) duplicated vertex ids along an
        interior slit; coordinates coincide, topology does not.
    """

    def __init__(self, points, cell_verts, cell_level, cell_parent,
                 cell_children, boundary_tags, edge_midpoint,
                 slit_pairs=None):
        self.points = points
        self.cell_verts = cell_verts
        self.cell_level = cell_level
        self.cell_parent = cell_parent
        self.cell_children = cell_children
        self.boundary_tags = boundary_tags
        self.edge_midpoint = edge_midpoint
        self.slit_pairs = list(slit_pairs or [])
        self._caches = {}

    # ------------------------------------------------------------------
    # basic queries
    # ------------------------------------------------------------------
    @property
    def n_points(self):
        return self.points.shape[0]

    @property
    def n_cells(self):
        return self.cell_verts.shape[0]

    @property
    def active_cells(self):
        """Ids of leaf cells, ascending."""
        if "active" not in self._caches:
            self._caches["active"] = np.flatnonzero(self.cell_children[:, 0] < 0)
        return self._caches["active"]

    def corners(self, cells=None):
        """Corner coordinates, shape (n, 4, 2)."""
        if cells is None:
            cells = self.active_cells
        return self.points[self.cell_verts[cells]]

    def edges(self):
        """The ``EdgeTable`` of the active cells, built once per mesh."""
        if "edges" not in self._caches:
            self._caches["edges"] = self._edge_table()
        return self._caches["edges"]

    def _edge_table(self):
        n = self.n_points
        active = self.active_cells
        ends = np.sort(self.cell_verts[active][:, EDGE_CORNERS], axis=2)
        code = (ends[..., 0] * n + ends[..., 1]).ravel()
        keys, first, inverse = np.unique(code, return_index=True,
                                         return_inverse=True)
        last = code.size - 1 - np.unique(code[::-1], return_index=True)[1]
        # np.unique sorts by key; rows go in first-appearance order
        order = np.argsort(first)
        row = np.empty_like(order)
        row[order] = np.arange(order.size)
        first, last = first[order], last[order]
        cell = np.repeat(active, 4)
        verts = ends.reshape(-1, 2)[first]
        owners = np.stack([cell[first], np.where(last > first, cell[last], -1)],
                          axis=1)

        def find(a, b):
            """Row of each sorted pair (a, b), -1 where it is no face."""
            c = a * n + b
            i = np.minimum(np.searchsorted(keys, c), keys.size - 1)
            return np.where(keys[i] == c, row[i], -1)

        single = np.flatnonzero(owners[:, 1] < 0)
        pairs = [tuple(p) for p in verts[single].tolist()]
        tag = np.full(len(verts), None, dtype=object)
        tag[single] = [self.boundary_tags.get(p) for p in pairs]
        mid = np.array([self.edge_midpoint.get(p, -1) for p in pairs],
                       dtype=np.int64)
        split = mid >= 0
        face, mid = single[split], mid[split]
        a, b = verts[face].T
        halves = np.stack([find(np.minimum(a, mid), np.maximum(a, mid)),
                           find(np.minimum(mid, b), np.maximum(mid, b))],
                          axis=1)
        hanging = np.all(halves >= 0, axis=1)
        return EdgeTable(verts, owners, row[inverse].reshape(-1, 4), tag,
                         face[hanging], mid[hanging], halves[hanging])

    def boundary_vertices(self):
        """Vertex ids lying on tagged boundary faces of active cells,
        ascending."""
        t = self.edges()
        return np.unique(t.verts[np.not_equal(t.tag, None)])

    def corner_jacobian_dets(self, cells=None):
        """Bilinear-map Jacobian determinant at the 4 corners, (n, 4).

        The determinant is bilinear in the reference coordinates, so
        positivity at the corners is equivalent to positivity everywhere.
        """
        x = self.corners(cells)
        v0, v1, v2, v3 = x[:, 0], x[:, 1], x[:, 2], x[:, 3]

        def cross(p, q):
            return p[:, 0] * q[:, 1] - p[:, 1] * q[:, 0]

        return np.stack([
            cross(v1 - v0, v2 - v0),
            cross(v1 - v0, v3 - v1),
            cross(v3 - v2, v2 - v0),
            cross(v3 - v2, v3 - v1),
        ], axis=1)

    # ------------------------------------------------------------------
    # refinement
    # ------------------------------------------------------------------
    def refine(self, marks):
        """Split the marked active cells (plus 1-irregularity closure).

        Every mark must be the id of an active cell (ValueError)."""
        marks = np.asarray(marks, dtype=np.int64).ravel()
        stray = marks[~np.isin(marks, self.active_cells)]
        if stray.size:
            raise ValueError(f"cells {stray.tolist()} are not active")

        points = [p for p in self.points]
        cell_verts = [tuple(v) for v in self.cell_verts]
        cell_level = list(self.cell_level)
        cell_parent = list(self.cell_parent)
        cell_children = [tuple(ch) for ch in self.cell_children]
        boundary_tags = dict(self.boundary_tags)
        edge_midpoint = dict(self.edge_midpoint)

        # closure: a cell may only be split if no neighbor across any of its
        # edges is coarser, so splitting the owner of a hanging face's half
        # pulls in the face's coarse owner, recursively
        t = self.edges()
        coarser = {}
        coarse = t.owners[t.hanging_face, 0].tolist()
        for halves in t.hanging_halves.T:
            for fine, c in zip(t.owners[halves, 0].tolist(), coarse):
                coarser.setdefault(fine, []).append(c)
        to_split = set()
        stack = marks.tolist()
        while stack:
            c = stack.pop()
            if c not in to_split:
                to_split.add(c)
                stack.extend(coarser.get(c, ()))

        def midpoint(a, b):
            key = _ekey(a, b)
            m = edge_midpoint.get(key)
            if m is None:
                m = len(points)
                points.append(0.5 * (points[a] + points[b]))
                edge_midpoint[key] = m
                tag = boundary_tags.get(key)
                if tag is not None:
                    boundary_tags[_ekey(a, m)] = tag
                    boundary_tags[_ekey(m, b)] = tag
            return m

        for c in sorted(to_split):
            v0, v1, v2, v3 = cell_verts[c]
            mb = midpoint(v0, v1)
            mr = midpoint(v1, v3)
            mt = midpoint(v2, v3)
            ml = midpoint(v0, v2)
            mc = len(points)
            points.append(0.25 * (points[v0] + points[v1] + points[v2] + points[v3]))
            kids = []
            lvl = cell_level[c] + 1
            for verts in ((v0, mb, ml, mc), (mb, v1, mc, mr),
                          (ml, mc, v2, mt), (mc, mr, mt, v3)):
                kids.append(len(cell_verts))
                cell_verts.append(verts)
                cell_level.append(lvl)
                cell_parent.append(c)
                cell_children.append((-1, -1, -1, -1))
            cell_children[c] = tuple(kids)

        new = Mesh(np.asarray(points), np.asarray(cell_verts, dtype=np.int64),
                   np.asarray(cell_level, dtype=np.int32),
                   np.asarray(cell_parent, dtype=np.int64),
                   np.asarray(cell_children, dtype=np.int64),
                   boundary_tags, edge_midpoint, self.slit_pairs)
        if self.slit_pairs:
            new.slit_pairs = new._recover_slit_pairs()
        return new

    def refine_uniform(self, times=1):
        m = self
        for _ in range(times):
            m = m.refine(m.active_cells)
        return m

    def _recover_slit_pairs(self):
        """Duplicated-vertex pairs, matched by exact coordinates."""
        groups = {}
        for vid in range(self.n_points):
            groups.setdefault(self.points[vid].tobytes(), []).append(vid)
        pairs = []
        for ids in groups.values():
            if len(ids) == 2:
                pairs.append((ids[0], ids[1]))
            elif len(ids) > 2:
                raise AssertionError("more than two coincident vertices")
        return pairs

    # ------------------------------------------------------------------
    # distortion
    # ------------------------------------------------------------------
    def distort(self, factor, seed):
        """Randomly displace interior vertices by up to ``factor`` of the
        shortest incident edge per coordinate (PCG64 stream from ``seed``).

        A hanging vertex is not free: it follows its face and stays at
        the midpoint of the face's displaced endpoints."""
        if not 0.0 <= factor < 0.5:
            raise ValueError("factor must lie in [0, 0.5)")
        t = self.edges()
        a, b = t.verts.T
        h = np.linalg.norm(self.points[a] - self.points[b], axis=1)
        h_min = np.full(self.n_points, np.inf)
        np.minimum.at(h_min, a, h)
        np.minimum.at(h_min, b, h)

        rng = np.random.default_rng(seed)
        shift = rng.uniform(-1.0, 1.0, size=(self.n_points, 2))
        movable = np.zeros(self.n_points, dtype=bool)
        movable[t.verts] = True
        movable[self.boundary_vertices()] = False
        movable[np.ravel(self.slit_pairs).astype(np.int64)] = False

        points = self.points.copy()
        points[movable] += factor * h_min[movable, None] * shift[movable]
        points[t.hanging_mid] = points[t.verts[t.hanging_face]].mean(axis=1)

        new = Mesh(points, self.cell_verts.copy(), self.cell_level.copy(),
                   self.cell_parent.copy(), self.cell_children.copy(),
                   dict(self.boundary_tags), dict(self.edge_midpoint),
                   self.slit_pairs)
        if factor > 0 and np.any(new.corner_jacobian_dets() <= 0):
            raise DistortionInvertsCell(
                f"distort(factor={factor}, seed={seed}) inverted a cell")
        return new


# ----------------------------------------------------------------------
# constructors
# ----------------------------------------------------------------------
def _tagged(points, cell_verts, tag_of, slit_pairs=None):
    """Unrefined mesh whose one-owner faces carry the tag
    ``tag_of(pa, pb)`` of their end coordinates."""
    n = len(cell_verts)
    fields = (points, cell_verts, np.zeros(n, dtype=np.int32),
              -np.ones(n, dtype=np.int64), -np.ones((n, 4), dtype=np.int64))
    t = Mesh(*fields, {}, {}).edges()
    tags = {(a, b): tag_of(points[a], points[b])
            for a, b in t.verts[t.owners[:, 1] < 0].tolist()}
    return Mesh(*fields, tags, {}, slit_pairs)


def _grid(x0, y0, nx, ny, h, hole=None):
    """Uniform grid mesh; cells whose center falls in ``hole`` are skipped.
    Every boundary face is Dirichlet."""
    xs = x0 + h * np.arange(nx + 1)
    ys = y0 + h * np.arange(ny + 1)
    vid = -np.ones((ny + 1, nx + 1), dtype=np.int64)
    points = []
    cells = []
    for j in range(ny):
        for i in range(nx):
            cx, cy = xs[i] + 0.5 * h, ys[j] + 0.5 * h
            if hole is not None:
                hx0, hx1, hy0, hy1 = hole
                if hx0 < cx < hx1 and hy0 < cy < hy1:
                    continue
            quad = []
            for dj, di in ((0, 0), (0, 1), (1, 0), (1, 1)):
                if vid[j + dj, i + di] < 0:
                    vid[j + dj, i + di] = len(points)
                    points.append((xs[i + di], ys[j + dj]))
                quad.append(vid[j + dj, i + di])
            cells.append(tuple(quad))

    return _tagged(np.asarray(points, dtype=float),
                   np.asarray(cells, dtype=np.int64),
                   lambda pa, pb: DIRICHLET)


def build_unit_square(n_cells_per_side):
    """Uniform n x n mesh of (0,1)^2, all boundary faces Dirichlet."""
    if n_cells_per_side < 1:
        raise ValueError("need at least one cell per side")
    n = int(n_cells_per_side)
    return _grid(0.0, 0.0, n, n, 1.0 / n)


def build_cheese():
    """Unit-cell mesh of [0,3]^2 minus the open square (1,2)^2."""
    return _grid(0.0, 0.0, 3, 3, 1.0, hole=(1.0, 2.0, 1.0, 2.0))


def build_slit():
    """Unit-cell mesh of (-1,1)^2 with the slit (-1,0) x {0}.

    Vertices on the closed slit segment except the tip (0,0) are
    duplicated; cells below the slit use the duplicates.  The outer
    boundary is Dirichlet, both slit lips are Neumann.
    """
    mesh = _grid(-1.0, -1.0, 2, 2, 1.0)
    points = [p for p in mesh.points]
    cell_verts = [list(v) for v in mesh.cell_verts]

    on_slit = [v for v in range(len(points))
               if points[v][1] == 0.0 and -1.0 <= points[v][0] < 0.0]
    pairs = []
    for v in sorted(on_slit):
        dup = len(points)
        points.append(points[v].copy())
        pairs.append((v, dup))
        for c, verts in enumerate(cell_verts):
            cy = np.mean([points[q][1] for q in mesh.cell_verts[c]])
            if cy < 0.0:
                for k in range(4):
                    if verts[k] == v:
                        verts[k] = dup

    def lip_or_outer(pa, pb):
        on_slit = pa[1] == 0.0 and pb[1] == 0.0 and max(pa[0], pb[0]) <= 0.0
        return NEUMANN if on_slit else DIRICHLET

    return _tagged(np.asarray(points), np.asarray(cell_verts, dtype=np.int64),
                   lip_or_outer, pairs)


# ----------------------------------------------------------------------
# legacy ASCII VTK export
# ----------------------------------------------------------------------
def write_vtk(path, mesh, point_data=None, cell_data=None):
    """Dump the active cells as a legacy ASCII VTK unstructured grid.

    ``point_data`` maps names to per-vertex arrays, ``cell_data`` to
    per-active-cell arrays.
    """
    active = mesh.active_cells
    quads = mesh.cell_verts[active]
    lines = ["# vtk DataFile Version 3.0", "goalfem mesh", "ASCII",
             "DATASET UNSTRUCTURED_GRID",
             f"POINTS {mesh.n_points} double"]
    for p in mesh.points:
        lines.append(f"{p[0]:.16g} {p[1]:.16g} 0")
    lines.append(f"CELLS {len(quads)} {5 * len(quads)}")
    for q in quads:
        # VTK_QUAD wants a counter-clockwise loop
        lines.append(f"4 {q[0]} {q[1]} {q[3]} {q[2]}")
    lines.append(f"CELL_TYPES {len(quads)}")
    lines.extend(["9"] * len(quads))
    if point_data:
        lines.append(f"POINT_DATA {mesh.n_points}")
        for name, values in point_data.items():
            lines.append(f"SCALARS {name} double 1")
            lines.append("LOOKUP_TABLE default")
            lines.extend(f"{v:.16g}" for v in np.asarray(values))
    if cell_data:
        lines.append(f"CELL_DATA {len(quads)}")
        for name, values in cell_data.items():
            lines.append(f"SCALARS {name} double 1")
            lines.append("LOOKUP_TABLE default")
            lines.extend(f"{v:.16g}" for v in np.asarray(values))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
