"""Hierarchical 2D quadrilateral meshes with 1-irregular hanging nodes.

Cells are bilinear images of the unit square with corner order
(bottom-left, bottom-right, top-left, top-right), i.e. tensor order:
child/ref coordinates run x fastest.  Refinement splits a cell into four
children through the straight-edge midpoints, so hanging vertices always
sit at the geometric midpoint of the coarse face.  Meshes are immutable:
``refine`` and ``distort`` return new objects.

A mesh is five arrays: the vertex coordinates and, per cell, its
corners, parent, children and boundary tags.  The refinement history is
those cell arrays: a split edge's midpoint is a corner of the split
cell's children, and a child inherits its parent's tags on the edges
they share.  The faces of the active cells are one array table,
``Mesh.edges()`` (an ``EdgeTable``), cached per mesh: every consumer
indexes it by edge id.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DistortionInvertsCell

# local corner pairs of the four cell edges: bottom, right, top, left.
# Child j of a split cell sits at its parent's corner j, and the child's
# corner k lies halfway to the parent's corner k: the midpoint of edge
# (a, b) is corner b of child a, and child j lies on the edges that
# contain j.
EDGE_CORNERS = ((0, 1), (1, 3), (2, 3), (0, 2))
_ON_PARENT_EDGE = np.array([[j in ab for ab in EDGE_CORNERS]
                            for j in range(4)])
# corners of the four children, as indices into (v0, v1, v2, v3,
# bottom, right, top and left midpoints, centre)
_CHILD_CORNERS = np.array([[0, 4, 7, 8], [4, 1, 8, 5],
                           [7, 8, 2, 6], [8, 5, 6, 3]])

DIRICHLET = "dirichlet"
NEUMANN = "neumann"


def _lookup(keys, values, query):
    """``values`` at the position of each query in the sorted unique
    ``keys``, -1 where the query is absent."""
    i = np.searchsorted(keys, query)
    found = np.append(keys, -1)[i] == query
    return np.where(found, np.append(values, -1)[i], -1)


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
    cell_parent : (n_cells,) int array, -1 for base cells.
    cell_children : (n_cells, 4) int array, -1 rows for leaf cells.
    edge_tag : (n_cells, 4) object array, the boundary tag
        (``dirichlet``/``neumann``) of each local edge in ``EDGE_CORNERS``
        order, None on interior edges.

    Refinement only appends: a split cell keeps its row and gains four
    children, so these arrays are the whole refinement history.
    """

    def __init__(self, points, cell_verts, cell_parent, cell_children,
                 edge_tag):
        self.points = points
        self.cell_verts = cell_verts
        self.cell_parent = cell_parent
        self.cell_children = cell_children
        self.edge_tag = edge_tag
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

    def cached(self, key, build):
        """The table stored under ``key``, made by ``build()`` on the
        first request only: the one cache of every table derived from
        this (immutable) mesh, ``assembly``'s and ``goals``' included."""
        if key not in self._caches:
            self._caches[key] = build()
        return self._caches[key]

    @property
    def active_cells(self):
        """Ids of leaf cells, ascending."""
        return self.cached(
            "active", lambda: np.flatnonzero(self.cell_children[:, 0] < 0))

    def corners(self, cells=None):
        """Corner coordinates, shape (n, 4, 2)."""
        if cells is None:
            cells = self.active_cells
        return self.points[self.cell_verts[cells]]

    def edges(self):
        """The ``EdgeTable`` of the active cells, built once per mesh."""
        return self.cached("edges", self._edge_table)

    def _edge_table(self):
        n = self.n_points

        def edge_codes(cells):
            """Sorted end pairs (len(cells), 4, 2) of the cells' local
            edges, and their codes lo * n + hi, flattened."""
            ends = np.sort(self.cell_verts[cells][:, EDGE_CORNERS], axis=2)
            return ends, (ends[..., 0] * n + ends[..., 1]).ravel()

        active = self.active_cells
        ends, code = edge_codes(active)
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

        single = np.flatnonzero(owners[:, 1] < 0)
        tag = np.full(len(verts), None, dtype=object)
        tag[single] = self.edge_tag[active].ravel()[first[single]]
        # a one-owner face was split iff it is an edge of a split cell;
        # the midpoint of edge (a, b) is corner b of child a
        split = np.flatnonzero(self.cell_children[:, 0] >= 0)
        split_code, at = np.unique(edge_codes(split)[1], return_index=True)
        child, corner = np.array(EDGE_CORNERS).T
        split_mid = self.cell_verts[self.cell_children[split][:, child],
                                    corner].ravel()
        mid = _lookup(split_code, split_mid[at], code[first[single]])
        face, mid = single[mid >= 0], mid[mid >= 0]
        a, b = verts[face].T
        halves = np.stack(
            [_lookup(keys, row, np.minimum(a, mid) * n + np.maximum(a, mid)),
             _lookup(keys, row, np.minimum(mid, b) * n + np.maximum(mid, b))],
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

        ``marks`` are cell ids: an array or list of integers, each the
        id of an active cell.  A bool mask or float ids raise ValueError,
        as does an id that is not active; an empty list splits nothing.
        """
        marks = np.asarray(marks).ravel()
        if marks.size and not np.issubdtype(marks.dtype, np.integer):
            raise ValueError(f"marks must be integer cell ids, not "
                             f"{marks.dtype} values")
        marks = marks.astype(np.int64)
        stray = marks[~np.isin(marks, self.active_cells)]
        if stray.size:
            raise ValueError(f"cells {stray.tolist()} are not active")

        # closure: a cell may only be split if no neighbor across any of its
        # edges is coarser, so splitting the owner of a hanging face's half
        # pulls in the face's coarse owner, up to a fixed point
        t = self.edges()
        coarse = t.owners[t.hanging_face, 0]
        fine = t.owners[t.hanging_halves, 0]
        split = np.unique(marks)
        while True:
            grown = np.union1d(split, coarse[np.isin(fine, split).any(axis=1)])
            if grown.size == split.size:
                break
            split = grown

        # new vertices, numbered cell by cell in ascending order: the
        # cell's bottom, right, top and left midpoints that do not exist
        # yet, then its centre.  A hanging face keeps its midpoint, and
        # an edge of two split cells gets its vertex from the first.
        s = split.size
        edge = t.of_cell[np.searchsorted(self.active_cells, split)]
        mid = np.full(len(t.verts), -1)
        mid[t.hanging_face] = t.hanging_mid
        first = np.zeros(edge.size, dtype=bool)
        first[np.unique(edge, return_index=True)[1]] = True
        fresh = np.ones((s, 5), dtype=bool)
        fresh[:, :4] = first.reshape(s, 4) & (mid[edge] < 0)
        ids = self.n_points - 1 + np.cumsum(fresh).reshape(s, 5)
        mid[edge[fresh[:, :4]]] = ids[:, :4][fresh[:, :4]]

        ends = self.points[t.verts[edge]]
        corner = self.points[self.cell_verts[split]]
        centre = 0.25 * (corner[:, 0] + corner[:, 1] + corner[:, 2]
                         + corner[:, 3])
        new_points = np.concatenate([0.5 * (ends[:, :, 0] + ends[:, :, 1]),
                                     centre[:, None]], axis=1)[fresh]
        nine = np.concatenate([self.cell_verts[split], mid[edge], ids[:, 4:]],
                              axis=1)
        kids = self.n_cells + np.arange(4 * s).reshape(s, 4)
        cell_children = np.concatenate([self.cell_children,
                                        np.full((4 * s, 4), -1)])
        cell_children[split] = kids
        kid_tag = np.where(_ON_PARENT_EDGE, self.edge_tag[split][:, None, :],
                           None)
        return Mesh(
            np.concatenate([self.points, new_points]),
            np.concatenate([self.cell_verts,
                            nine[:, _CHILD_CORNERS].reshape(-1, 4)]),
            np.concatenate([self.cell_parent, np.repeat(split, 4)]),
            cell_children,
            np.concatenate([self.edge_tag, kid_tag.reshape(-1, 4)]))

    def refine_uniform(self, times=1):
        """Split every active cell ``times`` (>= 0) times."""
        m = self
        for _ in range(require_int("times", times, least=0)):
            m = m.refine(m.active_cells)
        return m

    # ------------------------------------------------------------------
    # distortion
    # ------------------------------------------------------------------
    def distort(self, factor, seed):
        """Randomly displace interior vertices by up to ``factor`` of the
        shortest incident edge per coordinate (PCG64 stream from ``seed``).

        Vertices on tagged faces stay, the slit's lips included.  A
        hanging vertex is not free: it follows its face and stays at the
        midpoint of the face's displaced endpoints."""
        if not 0.0 <= factor < 0.5:
            raise ValueError("factor must lie in [0, 0.5)")
        t = self.edges()
        a, b = t.verts.T
        h = np.linalg.norm(self.points[a] - self.points[b], axis=1)
        h_min = np.full(self.n_points, np.inf)
        np.minimum.at(h_min, a, h)
        np.minimum.at(h_min, b, h)

        rng = np.random.default_rng(require_int("seed", seed, least=0))
        shift = rng.uniform(-1.0, 1.0, size=(self.n_points, 2))
        movable = np.zeros(self.n_points, dtype=bool)
        movable[t.verts] = True
        movable[self.boundary_vertices()] = False

        points = self.points.copy()
        points[movable] += factor * h_min[movable, None] * shift[movable]
        points[t.hanging_mid] = points[t.verts[t.hanging_face]].mean(axis=1)

        new = Mesh(points, self.cell_verts, self.cell_parent,
                   self.cell_children, self.edge_tag)
        if factor > 0 and np.any(new.corner_jacobian_dets() <= 0):
            raise DistortionInvertsCell(
                f"distort(factor={factor}, seed={seed}) inverted a cell")
        return new


# ----------------------------------------------------------------------
# constructors
# ----------------------------------------------------------------------
def _tagged(points, cell_verts, tag_of):
    """Unrefined mesh whose one-owner faces carry the tag
    ``tag_of(pa, pb)`` of their end coordinates."""
    n = len(cell_verts)
    fields = (points, cell_verts, -np.ones(n, dtype=np.int64),
              -np.ones((n, 4), dtype=np.int64))
    t = Mesh(*fields, np.full((n, 4), None, dtype=object)).edges()
    single = np.flatnonzero(t.owners[:, 1] < 0)
    tag = np.full(len(t.verts), None, dtype=object)
    tag[single] = [tag_of(points[a], points[b])
                   for a, b in t.verts[single].tolist()]
    return Mesh(*fields, tag[t.of_cell])


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


def require_int(name, value, least=1, below=None):
    """``value`` as an int: the one integer rule of every public entry
    that takes a size, a component or an exponent (``Mesh.refine``
    checks the dtype of its cell-id array instead).

    A Python or NumPy integer in ``[least, below)`` (no upper bound when
    ``below`` is None) passes; a bool, a float (2.0 too) or a value out
    of range raises a ValueError naming ``name``.  Nothing is truncated.
    """
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, not {value!r}")
    if value < least or below is not None and value >= below:
        upper = "" if below is None else f" and below {below}"
        raise ValueError(f"{name} must be at least {least}{upper}, "
                         f"not {value!r}")
    return int(value)


def build_unit_square(n_cells_per_side):
    """Uniform n x n mesh of (0,1)^2, all boundary faces Dirichlet."""
    n = require_int("n_cells_per_side", n_cells_per_side)
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
    for v in sorted(on_slit):
        dup = len(points)
        points.append(points[v].copy())
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
                   lip_or_outer)


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
