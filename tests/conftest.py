import numpy as np
import pytest
from hypothesis import strategies as st

from goalfem.assembly import assemble_jacobian, assemble_residual
from goalfem.fespace import build_constraints, build_space
from goalfem.linalg import factorize
from goalfem.mesh import build_cheese, build_slit, build_unit_square
from goalfem.problems import PLaplaceParams, build_plaplace


def poisson_problem(f=None):
    """p = 2 with unit right-hand side unless overridden."""
    rhs = f or (lambda x, y: np.ones(np.shape(x)))
    return build_plaplace(PLaplaceParams(2.0, 1.0, rhs=rhs))


def linear_solve(problem, space, constraints):
    """One exact Newton step from the constrained zero state."""
    u = space.function(constraints.apply(np.zeros(space.n_dofs)))
    A = assemble_jacobian(problem, space, constraints, u)
    r = assemble_residual(problem, space, constraints, u)
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


def reference_hanging(mesh):
    """(coarse cell, face, midpoint) of every face with a finer active
    neighbor, in ``reference_edge_map`` order."""
    emap = reference_edge_map(mesh)
    out = []
    for (a, b), cells in emap.items():
        m = mesh.edge_midpoint.get((a, b))
        if len(cells) == 1 and m is not None and (
                tuple(sorted((a, m))) in emap or tuple(sorted((m, b))) in emap):
            out.append((cells[0], (a, b), m))
    return out


def max_hanging_per_face(mesh):
    """Largest number of hanging vertices on any active face: the
    midpoints of the face's split history."""

    def interior(a, b):
        m = mesh.edge_midpoint.get((a, b))
        if m is None:
            return 0
        return 1 + interior(*sorted((a, m))) + interior(*sorted((m, b)))

    t = mesh.edges()
    return max((interior(a, b)
                for a, b in t.verts[t.owners[:, 1] < 0].tolist()), default=0)
