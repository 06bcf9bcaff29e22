"""Hierarchical 2D quadrilateral meshes with 1-irregular hanging nodes.

Cells are bilinear images of the unit square with corner order
(bottom-left, bottom-right, top-left, top-right), i.e. tensor order:
child/ref coordinates run x fastest.  Refinement splits a cell into four
children through the straight-edge midpoints, so hanging vertices always
sit at the geometric midpoint of the coarse face.  Meshes are immutable:
``refine`` and ``distort`` return new objects.
"""

from __future__ import annotations

import numpy as np

from .errors import DistortionInvertsCell

# local corner pairs of the four cell edges: bottom, right, top, left
_EDGE_CORNERS = ((0, 1), (1, 3), (2, 3), (0, 2))

DIRICHLET = "dirichlet"
NEUMANN = "neumann"


def _ekey(a, b):
    return (a, b) if a < b else (b, a)


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
                 sub_edge_parent, slit_pairs=None):
        self.points = points
        self.cell_verts = cell_verts
        self.cell_level = cell_level
        self.cell_parent = cell_parent
        self.cell_children = cell_children
        self.boundary_tags = boundary_tags
        self.edge_midpoint = edge_midpoint
        self.sub_edge_parent = sub_edge_parent
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

    def is_active(self, c):
        return self.cell_children[c, 0] < 0

    def corners(self, cells=None):
        """Corner coordinates, shape (n, 4, 2)."""
        if cells is None:
            cells = self.active_cells
        return self.points[self.cell_verts[cells]]

    def cell_edges(self, c):
        """The four sorted vertex pairs bounding cell ``c``."""
        v = self.cell_verts[c]
        return [_ekey(v[a], v[b]) for a, b in _EDGE_CORNERS]

    def active_edge_map(self):
        """Sorted vertex pair -> list of active cells sharing that edge."""
        if "edge_map" not in self._caches:
            emap = {}
            for c in self.active_cells:
                for e in self.cell_edges(c):
                    emap.setdefault(e, []).append(c)
            self._caches["edge_map"] = emap
        return self._caches["edge_map"]

    def hanging_interfaces(self):
        """(coarse cell, edge, midpoint) triples with a finer active neighbor.

        The edge belongs to the returned (coarse) active cell; the vertex
        in the middle hangs from the finer side.
        """
        emap = self.active_edge_map()
        out = []
        for e, cells in emap.items():
            if len(cells) != 1:
                continue
            m = self.edge_midpoint.get(e)
            if m is None:
                continue
            a, b = e
            if _ekey(a, m) in emap or _ekey(m, b) in emap:
                out.append((cells[0], e, m))
        return out

    def max_hanging_per_face(self):
        """Largest number of hanging vertices on any active face."""

        emap = self.active_edge_map()

        def interior_count(e):
            m = self.edge_midpoint.get(e)
            if m is None:
                return 0
            a, b = e
            s1, s2 = _ekey(a, m), _ekey(m, b)
            if s1 not in emap and s2 not in emap:
                return 0
            return 1 + interior_count(s1) + interior_count(s2)

        worst = 0
        for e, cells in emap.items():
            if len(cells) == 1:
                worst = max(worst, interior_count(e))
        return worst

    def boundary_vertices(self):
        """Vertex ids lying on tagged boundary faces of active cells."""
        emap = self.active_edge_map()
        verts = set()
        for e in emap:
            if e in self.boundary_tags:
                verts.update(e)
        return verts

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
        """Split the marked active cells (plus 1-irregularity closure)."""
        marks = set(int(c) for c in marks)
        for c in marks:
            if not self.is_active(c):
                raise ValueError(f"cell {c} is not active")

        points = [p for p in self.points]
        cell_verts = [tuple(v) for v in self.cell_verts]
        cell_level = list(self.cell_level)
        cell_parent = list(self.cell_parent)
        cell_children = [tuple(ch) for ch in self.cell_children]
        boundary_tags = dict(self.boundary_tags)
        edge_midpoint = dict(self.edge_midpoint)
        sub_edge_parent = dict(self.sub_edge_parent)

        emap = self.active_edge_map()

        # closure: a cell may only be split if no neighbor across any of its
        # edges is coarser, so coarser edge owners are pulled in recursively
        to_split = set()
        stack = list(marks)
        while stack:
            c = stack.pop()
            if c in to_split:
                continue
            to_split.add(c)
            for e in self.cell_edges(c):
                parent_edge = sub_edge_parent.get(e)
                if parent_edge is None:
                    continue
                owners = emap.get(parent_edge)
                if owners:
                    for o in owners:
                        if o not in to_split:
                            stack.append(o)

        def midpoint(a, b):
            key = _ekey(a, b)
            m = edge_midpoint.get(key)
            if m is None:
                m = len(points)
                points.append(0.5 * (points[a] + points[b]))
                edge_midpoint[key] = m
                sub_edge_parent[_ekey(a, m)] = key
                sub_edge_parent[_ekey(m, b)] = key
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
                   boundary_tags, edge_midpoint, sub_edge_parent,
                   self.slit_pairs)
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
        shortest incident edge per coordinate (PCG64 stream from ``seed``)."""
        if not 0.0 <= factor < 0.5:
            raise ValueError("factor must lie in [0, 0.5)")
        h_min = np.full(self.n_points, np.inf)
        used = np.zeros(self.n_points, dtype=bool)
        for e in self.active_edge_map():
            a, b = e
            h = float(np.linalg.norm(self.points[a] - self.points[b]))
            h_min[a] = min(h_min[a], h)
            h_min[b] = min(h_min[b], h)
            used[a] = used[b] = True

        rng = np.random.default_rng(seed)
        shift = rng.uniform(-1.0, 1.0, size=(self.n_points, 2))
        movable = used.copy()
        for v in self.boundary_vertices():
            movable[v] = False
        for a, b in self.slit_pairs:
            movable[a] = movable[b] = False

        points = self.points.copy()
        points[movable] += factor * h_min[movable, None] * shift[movable]

        new = Mesh(points, self.cell_verts.copy(), self.cell_level.copy(),
                   self.cell_parent.copy(), self.cell_children.copy(),
                   dict(self.boundary_tags), dict(self.edge_midpoint),
                   dict(self.sub_edge_parent), self.slit_pairs)
        if factor > 0 and np.any(new.corner_jacobian_dets() <= 0):
            raise DistortionInvertsCell(
                f"distort(factor={factor}, seed={seed}) inverted a cell")
        return new


# ----------------------------------------------------------------------
# constructors
# ----------------------------------------------------------------------
def _grid(x0, y0, nx, ny, h, hole=None):
    """Uniform grid mesh; cells whose center falls in ``hole`` are skipped."""
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

    points = np.asarray(points, dtype=float)
    cell_verts = np.asarray(cells, dtype=np.int64)
    n = len(cells)
    mesh = Mesh(points, cell_verts,
                np.zeros(n, dtype=np.int32), -np.ones(n, dtype=np.int64),
                -np.ones((n, 4), dtype=np.int64), {}, {}, {})
    for e, owners in mesh.active_edge_map().items():
        if len(owners) == 1:
            mesh.boundary_tags[e] = DIRICHLET
    return mesh


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

    n = len(cell_verts)
    out = Mesh(np.asarray(points), np.asarray(cell_verts, dtype=np.int64),
               np.zeros(n, dtype=np.int32), -np.ones(n, dtype=np.int64),
               -np.ones((n, 4), dtype=np.int64), {}, {}, {}, pairs)
    for e, owners in out.active_edge_map().items():
        if len(owners) != 1:
            continue
        (a, b) = e
        pa, pb = out.points[a], out.points[b]
        if pa[1] == 0.0 and pb[1] == 0.0 and max(pa[0], pb[0]) <= 0.0:
            out.boundary_tags[e] = NEUMANN
        else:
            out.boundary_tags[e] = DIRICHLET
    return out


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
