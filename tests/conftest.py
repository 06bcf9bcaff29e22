import numpy as np
import pytest
from hypothesis import strategies as st

from goalfem import goals
from goalfem.adaptivity import build_geometry, build_problem
from goalfem.assembly import assemble_jacobian, assemble_residual
from goalfem.fespace import build_constraints, build_space, \
    transfer_to_refined
from goalfem.linalg import factorize
from goalfem.mesh import build_cheese, build_slit, build_unit_square
from goalfem.multigoal import member_values
from goalfem.problems import PLaplaceParams, build_plaplace
from goalfem.solver import nested_tolerance, newton_solve


def poisson_problem(f=None):
    """p = 2 with unit right-hand side unless overridden."""
    rhs = f or (lambda x, y: np.ones(np.shape(x)))
    return build_plaplace(PLaplaceParams(2.0, 1.0, rhs=rhs))


def linear_solve(problem, space, constraints):
    """One exact Newton step from the constrained zero state."""
    u = space.function(constraints.apply(np.zeros(space.n_dofs)))
    A = assemble_jacobian(problem, constraints, u)
    r = assemble_residual(problem, constraints, u)
    lu = factorize(A)
    u = space.function(u.coeffs + constraints.distribute(lu.solve(-r)))
    return u, lu


def poisson_setup(n=4, degree=1, rule=None):
    problem = poisson_problem()
    mesh = build_unit_square(n)
    space = build_space(mesh, degree, rule=rule)
    cons = build_constraints(space, problem.dirichlet)
    u, lu = linear_solve(problem, space, cons)
    return problem, mesh, space, cons, u, lu


def uniform_reference(config, n_refines):
    """Goal values of plain nested Newton solves, with no estimator, on
    ``n_refines`` uniform refinements of the run's geometry; the first
    solve starts from all ones, each later one from the solution before,
    transferred."""
    problem = build_problem(config)
    mesh = build_geometry(config)
    u = None
    for level in range(1, n_refines + 2):
        if level > 1:
            mesh = mesh.refine_uniform()
        space = build_space(mesh, config.degree, problem.n_components)
        cons = build_constraints(space, problem.dirichlet)
        u0 = (space.function(np.ones(space.n_dofs)) if u is None
              else transfer_to_refined(u, space))
        u, _, _ = newton_solve(problem, cons, u0,
                               nested_tolerance(level))
    return member_values(goals.catalog(config.experiment), u)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


MESHES = {"square": lambda: build_unit_square(3).distort(0.2, seed=7),
          "cheese": build_cheese, "slit": build_slit}

# a base mesh and rounds of marks; each mark is a fraction of the way
# through the round's active cells
mesh_marks = st.tuples(
    st.sampled_from(sorted(MESHES)),
    st.lists(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=6),
             min_size=1, max_size=3))


def marked_cells(mesh, fractions):
    """Active cell ids picked by the fractions of one round."""
    active = mesh.active_cells
    rows = {min(int(t * len(active)), len(active) - 1) for t in fractions}
    return active[sorted(rows)]


def refined_mesh(kind, marks):
    """The base mesh ``kind`` refined by every round of ``marks``."""
    mesh = MESHES[kind]()
    for fractions in marks:
        mesh = mesh.refine(marked_cells(mesh, fractions))
    return mesh


# corner pairs of a cell's local edges: bottom, right, top, left
_EDGE_CORNERS = ((0, 1), (1, 3), (2, 3), (0, 2))


def reference_edge_map(mesh):
    """Sorted vertex pair -> active cells sharing that face, in
    first-appearance order: the dict loop that ``Mesh.edges()``
    replaced, kept as its reference."""
    emap = {}
    for c in mesh.active_cells.tolist():
        v = mesh.cell_verts[c].tolist()
        for a, b in _EDGE_CORNERS:
            emap.setdefault(tuple(sorted((v[a], v[b]))), []).append(c)
    return emap


def reference_midpoints(mesh):
    """Sorted vertex pair -> midpoint vertex of every edge of a split
    cell.  The children at the edge's two ends share the midpoint and
    the parent's centre, and all four children share the centre."""
    out = {}
    for c in np.flatnonzero(mesh.cell_children[:, 0] >= 0).tolist():
        v = mesh.cell_verts[c].tolist()
        kids = [set(mesh.cell_verts[k].tolist())
                for k in mesh.cell_children[c].tolist()]
        centre = set.intersection(*kids)
        for a, b in _EDGE_CORNERS:
            [m] = (kids[a] & kids[b]) - centre
            out[tuple(sorted((v[a], v[b])))] = m
    return out


def reference_hanging(mesh, midpoint=None):
    """(coarse cell, face, midpoint) of every face with a finer active
    neighbor, in ``reference_edge_map`` order; ``midpoint`` maps sorted
    pairs to midpoints (``reference_midpoints`` unless given)."""
    emap = reference_edge_map(mesh)
    if midpoint is None:
        midpoint = reference_midpoints(mesh)
    out = []
    for (a, b), cells in emap.items():
        m = midpoint.get((a, b))
        if len(cells) == 1 and m is not None and (
                tuple(sorted((a, m))) in emap or tuple(sorted((m, b))) in emap):
            out.append((cells[0], (a, b), m))
    return out


def max_hanging_per_face(mesh):
    """Largest number of hanging vertices on any active face: the
    midpoints of the face's split history."""
    midpoint = reference_midpoints(mesh)

    def interior(a, b):
        m = midpoint.get((a, b))
        if m is None:
            return 0
        return 1 + interior(*sorted((a, m))) + interior(*sorted((m, b)))

    t = mesh.edges()
    return max((interior(a, b)
                for a, b in t.verts[t.owners[:, 1] < 0].tolist()), default=0)


class ReferenceMesh:
    """The refinement history as sorted-vertex-pair dicts, refined one
    cell at a time in Python: the loop that ``Mesh.refine`` replaced,
    kept as its bitwise reference.

    ``boundary_tags`` maps every boundary face ever made to its tag and
    ``edge_midpoint`` every split edge to its midpoint vertex.
    """

    def __init__(self, points, cell_verts, cell_parent, cell_children,
                 boundary_tags, edge_midpoint):
        self.points = points
        self.cell_verts = cell_verts
        self.cell_parent = cell_parent
        self.cell_children = cell_children
        self.boundary_tags = boundary_tags
        self.edge_midpoint = edge_midpoint

    @classmethod
    def of(cls, base):
        """The unrefined ``Mesh`` ``base``, its edge tags as a dict."""
        tags = {}
        for v, cell_tags in zip(base.cell_verts.tolist(),
                                base.edge_tag.tolist()):
            for (a, b), tag in zip(_EDGE_CORNERS, cell_tags):
                if tag is not None:
                    tags[tuple(sorted((v[a], v[b])))] = tag
        return cls(base.points, base.cell_verts, base.cell_parent,
                   base.cell_children, tags, {})

    @property
    def active_cells(self):
        return np.flatnonzero(self.cell_children[:, 0] < 0)

    def refine(self, marks):
        points = [p for p in self.points]
        cell_verts = [tuple(v) for v in self.cell_verts]
        cell_parent = list(self.cell_parent)
        cell_children = [tuple(ch) for ch in self.cell_children]
        boundary_tags = dict(self.boundary_tags)
        edge_midpoint = dict(self.edge_midpoint)

        # closure: splitting the owner of a hanging face's half pulls in
        # the face's coarse owner, recursively
        emap = reference_edge_map(self)
        coarser = {}
        for c, (a, b), m in reference_hanging(self, self.edge_midpoint):
            for half in (sorted((a, m)), sorted((m, b))):
                for fine in emap[tuple(half)]:
                    coarser.setdefault(fine, []).append(c)
        to_split = set()
        stack = np.asarray(marks, dtype=np.int64).tolist()
        while stack:
            c = stack.pop()
            if c not in to_split:
                to_split.add(c)
                stack.extend(coarser.get(c, ()))

        def midpoint(a, b):
            key = tuple(sorted((a, b)))
            m = edge_midpoint.get(key)
            if m is None:
                m = len(points)
                points.append(0.5 * (points[a] + points[b]))
                edge_midpoint[key] = m
                tag = boundary_tags.get(key)
                if tag is not None:
                    boundary_tags[tuple(sorted((a, m)))] = tag
                    boundary_tags[tuple(sorted((m, b)))] = tag
            return m

        for c in sorted(to_split):
            v0, v1, v2, v3 = cell_verts[c]
            mb = midpoint(v0, v1)
            mr = midpoint(v1, v3)
            mt = midpoint(v2, v3)
            ml = midpoint(v0, v2)
            mc = len(points)
            points.append(0.25 * (points[v0] + points[v1] + points[v2]
                                  + points[v3]))
            kids = []
            for verts in ((v0, mb, ml, mc), (mb, v1, mc, mr),
                          (ml, mc, v2, mt), (mc, mr, mt, v3)):
                kids.append(len(cell_verts))
                cell_verts.append(verts)
                cell_parent.append(c)
                cell_children.append((-1, -1, -1, -1))
            cell_children[c] = tuple(kids)

        return ReferenceMesh(np.asarray(points),
                             np.asarray(cell_verts, dtype=np.int64),
                             np.asarray(cell_parent, dtype=np.int64),
                             np.asarray(cell_children, dtype=np.int64),
                             boundary_tags, edge_midpoint)


def refined_reference(kind, marks):
    """``refined_mesh(kind, marks)`` as a ``ReferenceMesh``."""
    mesh = ReferenceMesh.of(MESHES[kind]())
    for fractions in marks:
        mesh = mesh.refine(marked_cells(mesh, fractions))
    return mesh
