import hashlib
import math

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from goalfem import fespace
from goalfem.errors import (ConflictingConstraints, MeshMismatch,
                            PointOutsideDomain)
from goalfem.fespace import (ConstraintSet, build_constraints, build_space,
                             interpolate_between, transfer_to_refined)
from goalfem.goals import PointValue
from goalfem.mesh import build_slit, build_unit_square
from goalfem.problems import build_quasilinear

from conftest import marked_cells, mesh_marks, reference_hanging, refined_mesh


def zero(x, y, side):
    return 0.0


def cell_loop_transfer(source, target_space):
    """Reference: the per-cell transfer loop, climbing each target cell
    to its source-active ancestor one parent at a time."""
    src_mesh, tgt_mesh = source.space.mesh, target_space.mesh
    src_loc = source.space.local_coeffs(source.coeffs)
    src_row = {int(c): i for i, c in enumerate(source.space.mesh.active_cells)}
    out = np.zeros(target_space.n_dofs)
    for row, c in enumerate(target_space.mesh.active_cells):
        chain, cc = [], int(c)
        while cc not in src_row:
            parent = int(tgt_mesh.cell_parent[cc])
            chain.append(int(np.flatnonzero(
                tgt_mesh.cell_children[parent] == cc)[0]))
            cc = parent
        pts = target_space.local_ref_nodes()
        for slot in chain:
            pts = 0.5 * (pts + fespace._CHILD_OFFSET[slot])
        B, _ = source.space.basis_at(pts)
        out[target_space.cell_dofs[row]] = src_loc[src_row[cc]] @ B
    return out


# a source mesh from mesh_marks, then up to two more rounds of marks
# giving the refinement the transfer targets (none: the source mesh
# itself), and a source degree with a target degree equal to it,
# doubled, or halved where that leaves at least 1
transfer_case = st.tuples(
    mesh_marks,
    st.lists(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=6),
             min_size=0, max_size=2),
    st.integers(1, 4).flatmap(lambda r: st.tuples(
        st.just(r), st.sampled_from([r, 2 * r, max(r // 2, 1)]))),
    st.sampled_from([1, 3]), st.integers(0, 2 ** 16))


def transfer_meshes(case, more):
    mesh = refined_mesh(*case)
    target = mesh
    for fractions in more:
        target = target.refine(marked_cells(target, fractions))
    return mesh, target


def point_value(f, point, component=0, side=0):
    return PointValue(point, component, side).value(f)


def hanging_rows(cons):
    """(masters, weights, inhomogeneity) of every constrained row of C
    that has masters."""
    C = cons.matrix
    for dof in np.flatnonzero(cons.constrained):
        lo, hi = C.indptr[dof], C.indptr[dof + 1]
        if hi > lo:
            yield C.indices[lo:hi], C.data[lo:hi], cons.inhomogeneity[dof]


class TestDofCounts:
    @pytest.mark.parametrize("degree,expected", [(1, 9), (2, 25), (3, 49)])
    def test_two_by_two(self, degree, expected):
        assert build_space(build_unit_square(2), degree).n_dofs == expected

    def test_level_one_cubic(self):
        assert build_space(build_unit_square(4), 3).n_dofs == 169

    def test_components_multiply(self):
        s = build_space(build_unit_square(2), 1, n_components=3)
        assert s.n_dofs == 27

    @pytest.mark.parametrize("name, degree, n_components", [
        ("degree", 1.5, 1), ("degree", 2.0, 1), ("degree", True, 1),
        ("n_components", 1, 1.7), ("n_components", 1, 0),
        ("n_components", 1, -1), ("n_components", 1, True)])
    def test_sizes_are_positive_integers(self, name, degree, n_components):
        with pytest.raises(ValueError, match=name):
            build_space(build_unit_square(2), degree, n_components)

    @pytest.mark.parametrize("n", [True, 2.0, 0])
    def test_rule_order_is_a_positive_integer(self, n):
        # True would build a one-point rule apart from gauss(1)
        with pytest.raises(ValueError, match="n must"):
            fespace.gauss(n)

    def test_rule_built_once(self):
        assert fespace.gauss(np.int64(3)) is fespace.gauss(3)

    def test_numpy_integer_sizes(self):
        s = build_space(build_unit_square(2), np.int64(2), np.int64(3))
        assert (s.degree, s.n_components, s.n_dofs) == (2, 3, 75)

    def test_cell_dofs_block_layout(self):
        s = build_space(build_unit_square(2).refine([1]), 2, n_components=3)
        assert s.cell_dofs.shape == (len(s.mesh.active_cells), 3, 9)
        for comp in range(3):
            assert np.array_equal(s.cell_dofs[:, comp, :],
                                  s.dof(comp, s.cell_nodes))

    def test_numbering_deterministic(self):
        a = build_space(build_unit_square(3), 2)
        b = build_space(build_unit_square(3), 2)
        assert np.array_equal(a.cell_nodes, b.cell_nodes)
        assert np.array_equal(a.node_coords, b.node_coords)


class TestConstraints:
    def test_zero_dirichlet_uniform(self):
        s = build_space(build_unit_square(3), 2)
        cons = build_constraints(s, [("dirichlet", 0, zero)])
        boundary = sum(1 for i in range(s.n_nodes)
                       if 0.0 in s.node_coords[i] or 1.0 in s.node_coords[i])
        assert cons.constrained.sum() == boundary
        assert np.all(cons.inhomogeneity == 0.0)

    def test_hanging_q1_weights(self):
        mesh = build_unit_square(2).refine([0])
        s = build_space(mesh, 1)
        cons = build_constraints(s)
        halves = list(hanging_rows(cons))
        assert len(halves) == 2
        for masters, weights, inhom in halves:
            assert sorted(weights) == [0.5, 0.5] and inhom == 0.0

    def test_hanging_weights_sum_to_one(self):
        mesh = build_unit_square(2).refine([0, 3])
        for degree in (1, 2, 3):
            s = build_space(mesh, degree)
            cons = build_constraints(s)
            for masters, weights, _ in hanging_rows(cons):
                assert sum(weights) == pytest.approx(1.0, abs=1e-12)

    def test_slit_lip_values(self):
        # imposing the exact trace on the lips: the two DOF copies at
        # (-0.5, 0+/-) receive sqrt(sqrt(0.25) + 0.5) = +-1 exactly
        # (direct formula evaluation)
        from goalfem.problems import slit_exact

        mesh = build_slit().refine_uniform(1)
        s = build_space(mesh, 1)
        g = lambda x, y, side: slit_exact(x, y, side)
        cons = build_constraints(s, [("dirichlet", 0, g), ("neumann", 0, g)])
        got = set()
        for v in range(mesh.n_points):
            if tuple(mesh.points[v]) == (-0.5, 0.0):
                got.add(round(cons.inhomogeneity[s.vertex_node[v]], 12))
        assert got == {1.0, -1.0}

    def test_slit_mouth_values_from_outer_boundary(self):
        # the duplicated vertex at (-1, 0) lies on the Dirichlet boundary;
        # each copy takes the one-sided trace +-sqrt(2)
        prob = build_quasilinear()
        mesh = build_slit().refine_uniform(1)
        s = build_space(mesh, 1, 3)
        cons = build_constraints(s, prob.dirichlet)
        got = set()
        for v in range(mesh.n_points):
            if tuple(mesh.points[v]) == (-1.0, 0.0):
                got.add(round(cons.inhomogeneity[int(s.dof(0, s.vertex_node[v]))], 12))
        assert got == {round(math.sqrt(2.0), 12), round(-math.sqrt(2.0), 12)}

    def test_projection_idempotent(self, rng):
        mesh = build_unit_square(3).refine([0, 4])
        s = build_space(mesh, 2)
        cons = build_constraints(s, [("dirichlet", 0, lambda x, y, s_: x + y)])
        u = rng.normal(size=s.n_dofs)
        once = cons.apply(u)
        assert np.allclose(cons.apply(once), once, atol=1e-14)

    def test_continuity_across_hanging_faces(self, rng):
        # evaluate exactly on the face from the coarse owner cell and the
        # fine neighbors; constrained coefficients must agree to 1e-12
        from goalfem.fespace import _invert_bilinear, tensor_basis

        def eval_in_cell(f, cell, p):
            row = int(np.searchsorted(f.space.mesh.active_cells, cell))
            ref = _invert_bilinear(f.space.mesh.corners()[row], p)
            assert ref is not None
            N, _ = tensor_basis(f.space.degree, ref[None, :])
            return float(f.coeffs[f.space.cell_nodes[row]] @ N[:, 0])

        mesh = build_unit_square(2).refine([1])
        edges = mesh.edges()
        for degree in (1, 2, 3):
            s = build_space(mesh, degree)
            cons = build_constraints(s)
            f = s.function(cons.apply(rng.normal(size=s.n_dofs)))
            for face, halves in zip(edges.hanging_face, edges.hanging_halves):
                coarse = edges.owners[face, 0]
                pa, pb = mesh.points[edges.verts[face]]
                for t in rng.uniform(0.05, 0.95, size=5):
                    p = pa + t * (pb - pa)
                    fine = edges.owners[halves[0] if t < 0.5 else halves[1], 0]
                    assert abs(eval_in_cell(f, coarse, p)
                               - eval_in_cell(f, fine, p)) <= 1e-12


# digests of (cell_dofs, node_coords, C with its mask and b) from the
# numbering and constraint loops keyed by sorted vertex pairs, as they
# were before the mesh's edge table replaced those keys
PIN_MARKS = [[0.0, 0.5], [0.2, 0.7, 0.95]]
PINS = {
    ("cheese", 1): ("56f27d9140212eb4", "adc880a95bfbfa23", "b704ef0a17becf0e"),
    ("cheese", 2): ("2b207612d63b43de", "22ab53ce10ea6edf", "77bf121326b3ff3e"),
    ("cheese", 3): ("3ad261494da628ba", "c61e6774da76c4ad", "1f5f8582889a083c"),
    ("slit", 1): ("6e1f237266e9ef7f", "6d1f52306578ea4b", "caa6690d867e80c4"),
    ("slit", 2): ("621f576f3fe7e460", "62f9df2d55ef46e9", "e85098734b9ff789"),
    ("slit", 3): ("e78858c2c89a8410", "30df61b45dd8a7de", "6c7288fb08da6a4e"),
    ("square", 1): ("fdb8e49615a14442", "f20ab230e7afde68", "36e350a1c219ac74"),
    ("square", 2): ("9fcd4ad21ac485e8", "cbc495d38b9f3e66", "8db5a00e43a07bb8"),
    ("square", 3): ("5b84bec6a93a6c96", "254f48d44254c4eb", "e3bf7da6690a5b11"),
}


def digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()[:16]


def pin_data(x, y, side):
    # the side term lives on the slit line only, so the two lips differ
    return 1.0 + x - 0.5 * y + np.where(
        y == 0.0, 0.25 * side * np.minimum(x, 0.0), 0.0)


def pinned_digests(space, dirichlet):
    cons = build_constraints(space, dirichlet)
    C = cons.matrix
    return (digest(space.cell_dofs.astype(np.int64)),
            digest(space.node_coords),
            digest(C.indptr.astype(np.int64), C.indices.astype(np.int64),
                   C.data, cons.constrained, cons.inhomogeneity))


@pytest.mark.parametrize("kind, degree", sorted(PINS))
def test_numbering_and_constraints_pinned(kind, degree):
    mesh = refined_mesh(kind, PIN_MARKS)
    assert reference_hanging(mesh)
    s = build_space(mesh, degree)
    assert pinned_digests(s, [("dirichlet", 0, pin_data),
                              ("neumann", 0, pin_data)]) == PINS[kind, degree]


# the same digests for three components, each with Dirichlet data of its
# own, from the constraint build that laid out the hanging rows one
# component at a time
VECTOR_PINS = {
    ("cheese", 1): ("deeed7f8cff335a6", "adc880a95bfbfa23", "740f1855281cfc50"),
    ("cheese", 2): ("e87805d8e45ef5f9", "22ab53ce10ea6edf", "fd85ae45f978a8c2"),
    ("slit", 1): ("98b09005cb2ba5d8", "6d1f52306578ea4b", "b1206993914e1065"),
    ("slit", 2): ("611c340fabe32dc6", "62f9df2d55ef46e9", "6f98a2d4d912235c"),
    ("square", 1): ("d28f16e66b9d9e4f", "f20ab230e7afde68", "c1b21e51950d1ac3"),
    ("square", 2): ("7d6f1b9d5710a823", "cbc495d38b9f3e66", "ae04e30d50c48082"),
}


def component_pin_data(k):
    return lambda x, y, side: pin_data(x, y, side) + k * (x - y) ** 2


@pytest.mark.parametrize("kind, degree", sorted(VECTOR_PINS))
def test_vector_constraints_pinned(kind, degree):
    mesh = refined_mesh(kind, PIN_MARKS)
    assert reference_hanging(mesh)
    s = build_space(mesh, degree, 3)
    dirichlet = [("dirichlet", k, component_pin_data(k)) for k in range(3)]
    dirichlet.append(("neumann", 1, component_pin_data(1)))
    assert pinned_digests(s, dirichlet) == VECTOR_PINS[kind, degree]


def reference_closure(n_dofs, hanging, fixed):
    """The dict-of-rows closure the CSR closure replaced, kept as the
    reference: each row (masters, weights, inhomogeneity) substitutes
    its constrained masters until none is left, then merges repeated
    masters.  Returns (matrix, constrained, inhomogeneity)."""
    rows = {}
    for dof, master, weight in zip(*hanging):
        masters, weights, _ = rows.setdefault(int(dof), ([], [], 0.0))
        masters.append(int(master))
        weights.append(weight)
    for dof, val in zip(*fixed):
        rows[int(dof)] = ([], [], val)

    for dof in list(rows):
        masters, weights, inhom = rows[dof]
        guard = 0
        while any(m in rows for m in masters):
            nm, nw = [], []
            for m, w in zip(masters, weights):
                sub = rows.get(m)
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
        rows[dof] = (list(merged), list(merged.values()), inhom)

    mask = np.zeros(n_dofs, dtype=bool)
    inhom = np.zeros(n_dofs)
    ii, jj, vv = [], [], []
    for dof, (masters, weights, b) in rows.items():
        mask[dof] = True
        inhom[dof] = b
        ii.extend([dof] * len(masters))
        jj.extend(masters)
        vv.extend(weights)
    free = np.flatnonzero(~mask)
    ii.extend(free)
    jj.extend(free)
    vv.extend(np.ones(free.size))
    return sp.csr_matrix((vv, (ii, jj)), shape=(n_dofs, n_dofs)), mask, inhom


def build_recorded(space, dirichlet):
    """build_constraints plus the arguments it passed to ConstraintSet."""
    seen = []

    class Recording(ConstraintSet):
        def __init__(self, *args):
            seen.append(args)
            super().__init__(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fespace, "ConstraintSet", Recording)
        cons = build_constraints(space, dirichlet)
    return cons, seen[0]


class TestClosure:
    @given(case=mesh_marks, degree=st.integers(1, 4),
           n_comp=st.sampled_from([1, 3]), u_seed=st.integers(0, 2 ** 16))
    @settings(max_examples=40, deadline=None)
    def test_matches_reference_closure(self, case, degree, n_comp, u_seed):
        mesh = refined_mesh(*case)
        space = build_space(mesh, degree, n_comp)
        # the two slit lips (y = 0, x < 0) take different values
        dirichlet = [("dirichlet", k, lambda x, y, side, k=k:
                      1.0 + k + x - 2.0 * y + side * np.minimum(x, 0.0)
                      * (y == 0))
                     for k in range(n_comp)]
        cons, args = build_recorded(space, dirichlet)
        C_ref, mask_ref, b_ref = reference_closure(*args)

        assert np.array_equal(cons.constrained, mask_ref)
        C = cons.matrix
        assert C.has_canonical_format
        assert abs(C - C_ref).max() <= 1e-15 * abs(C_ref).max()
        assert np.max(np.abs(cons.inhomogeneity - b_ref)) \
            <= 1e-15 * max(1.0, np.max(np.abs(b_ref)))
        # closed: no constrained row references a constrained column
        mask = cons.constrained
        assert C[mask][:, mask].nnz == 0
        u = np.random.default_rng(u_seed).normal(size=space.n_dofs)
        once = cons.apply(u)
        assert np.array_equal(cons.apply(once), once)
        # C u + b equals overwriting only the constrained entries
        masked = u.copy()
        masked[mask] = (C @ u)[mask] + cons.inhomogeneity[mask]
        assert np.array_equal(once, masked)

    def test_chain_closes(self):
        # 0 -> {1, 3}, 1 -> {2, 4}, 2 fixed; 5 -> 6 -> 7 -> 8 -> 9 -> 3
        cons = ConstraintSet(
            10, ([0, 0, 1, 1, 5, 6, 7, 8, 9], [1, 3, 2, 4, 6, 7, 8, 9, 3],
                 [0.5, 0.5, 0.25, 0.75, 1.0, 1.0, 1.0, 1.0, 1.0]),
            ([2], [4.0]))
        assert np.flatnonzero(cons.constrained).tolist() == [0, 1, 2, 5, 6,
                                                             7, 8, 9]
        dense = cons.matrix.toarray()
        assert dense[0].tolist() == [0, 0, 0, 0.5, 0.375, 0, 0, 0, 0, 0]
        assert dense[1].tolist() == [0, 0, 0, 0, 0.75, 0, 0, 0, 0, 0]
        assert not dense[2].any()
        for dof in (5, 6, 7, 8, 9):
            assert np.flatnonzero(dense[dof]).tolist() == [3]
        assert cons.inhomogeneity.tolist() == [0.5, 1.0, 4.0] + [0.0] * 7

    @pytest.mark.parametrize("hanging", [
        ([0, 1], [1, 0], [1.0, 1.0]),
        ([0, 0, 1, 1], [1, 2, 0, 2], [0.5, 0.5, 0.5, 0.5]),
        ([0, 1, 2], [1, 2, 0], [1.0, 1.0, 1.0]),
    ])
    def test_cycle_raises(self, hanging):
        with pytest.raises(AssertionError):
            ConstraintSet(4, hanging)

    def test_no_constraints(self):
        cons = ConstraintSet(3)
        assert not cons.constrained.any()
        assert (cons.matrix != sp.identity(3)).nnz == 0


class TestDirichletData:
    def test_each_datum_called_once_on_arrays(self):
        # one call per (tag, component, g) over all nodes of its faces;
        # a scalar result stands for constant data
        from goalfem.problems import slit_exact

        mesh = build_slit().refine_uniform(1)
        space = build_space(mesh, 2, 2)
        calls = []

        def traced(g):
            def data(x, y, side):
                calls.append(np.shape(x))
                return g(x, y, side)
            return data

        cons = build_constraints(space, [
            ("dirichlet", 0, traced(slit_exact)),
            ("dirichlet", 1, traced(lambda x, y, side: 2.5))])
        assert len(calls) == 2 and calls[0] == calls[1]
        assert len(calls[0]) == 2 and calls[0][1] == 3
        dofs = np.flatnonzero(cons.constrained)
        second = dofs[dofs >= space.n_nodes]
        assert np.all(cons.inhomogeneity[second] == 2.5)
        first = dofs[dofs < space.n_nodes]
        x, y = space.node_coords[first].T
        on_lip = y == 0.0
        assert np.array_equal(cons.inhomogeneity[first][~on_lip],
                              slit_exact(x, y)[~on_lip])


class TestDirichletEntries:
    @pytest.mark.parametrize("tag, component, match", [
        ("dirichlet", -1, "component"), ("dirichlet", 3, "component"),
        ("dirichlet", 1.0, "component"), ("dirichlet", True, "component"),
        ("dirichlett", 0, "tag")])
    def test_bad_entry_rejected(self, tag, component, match):
        # a negative component would constrain the last field, and a
        # misspelled tag would constrain nothing
        space = build_space(build_unit_square(2), 1, 3)
        with pytest.raises(ValueError, match=match):
            build_constraints(space, [(tag, component, zero)])


class TestConflictingDirichlet:
    def data(self, delta):
        mesh = build_unit_square(2)
        space = build_space(mesh, 1)
        return space, [("dirichlet", 0, lambda x, y, side: 1.0),
                       ("dirichlet", 0, lambda x, y, side: 1.0 + delta)]

    def test_values_apart_raise(self):
        space, dirichlet = self.data(1e-9)
        with pytest.raises(ConflictingConstraints):
            build_constraints(space, dirichlet)

    def test_roundoff_apart_accepted(self):
        space, dirichlet = self.data(1e-14)
        cons = build_constraints(space, dirichlet)
        assert np.all(cons.inhomogeneity[cons.constrained] == 1.0)


class TestInterpolation:
    def test_constant_preserved(self):
        m = build_unit_square(2)
        src = build_space(m, 2).function(np.full(25, 3.25))
        out = interpolate_between(src, build_space(m, 1))
        assert np.allclose(out.coeffs, 3.25)

    def test_bubble_vanishes_on_vertices(self):
        m = build_unit_square(1)
        q2 = build_space(m, 2)
        coeffs = np.zeros(q2.n_dofs)
        center = int(np.argmin(np.abs(q2.node_coords - 0.5).sum(axis=1)))
        coeffs[center] = 1.0
        bub = q2.function(coeffs)
        down = interpolate_between(bub, build_space(m, 1))
        assert np.all(down.coeffs == 0.0)

    def test_upward_roundtrip_identity(self, rng):
        m = build_unit_square(3)
        q1, q2 = build_space(m, 1), build_space(m, 2)
        f = q1.function(rng.normal(size=q1.n_dofs))
        back = interpolate_between(interpolate_between(f, q2), q1)
        assert np.allclose(back.coeffs, f.coeffs, atol=1e-13)

    @pytest.mark.parametrize("rs,rt", [(1, 2), (2, 1), (2, 3), (3, 2)])
    def test_monomial_reproduction(self, rs, rt):
        m = build_unit_square(2)
        ss, st = build_space(m, rs), build_space(m, rt)
        d = min(rs, rt)
        for px in range(d + 1):
            for py in range(d + 1 - px):
                vals = ss.node_coords[:, 0] ** px * ss.node_coords[:, 1] ** py
                out = interpolate_between(ss.function(vals), st)
                exact = st.node_coords[:, 0] ** px * st.node_coords[:, 1] ** py
                assert np.allclose(out.coeffs, exact, atol=1e-12)

    def test_mesh_mismatch(self):
        f = build_space(build_unit_square(2), 1).function(np.zeros(9))
        with pytest.raises(MeshMismatch):
            interpolate_between(f, build_space(build_unit_square(3), 1))

    def test_refined_target_rejected(self):
        # transfer_to_refined takes a refinement; interpolate_between
        # keeps to the source's own mesh
        m = build_unit_square(2)
        f = build_space(m, 1).function(np.zeros(9))
        target = build_space(m.refine([0]), 1)
        with pytest.raises(MeshMismatch):
            interpolate_between(f, target)
        assert transfer_to_refined(f, target).space is target

    def test_transfer_to_refined_exact(self, rng):
        m = build_unit_square(2)
        s = build_space(m, 2)
        f = s.function(rng.normal(size=s.n_dofs))
        m2 = m.refine([0, 2])
        s2 = build_space(m2, 2)
        g = transfer_to_refined(f, s2)
        for p in rng.uniform(0.01, 0.99, size=(10, 2)):
            assert point_value(g, p) == pytest.approx(
                point_value(f, p), abs=1e-12)


class TestTransferProperties:
    @given(case=transfer_case)
    @settings(max_examples=30, deadline=None)
    def test_transfer_matches_cell_loop(self, case):
        base, more, (degree, target_degree), n_comp, seed = case
        mesh, target = transfer_meshes(base, more)
        space = build_space(mesh, degree, n_comp)
        f = space.function(
            np.random.default_rng(seed).normal(size=space.n_dofs))
        tspace = build_space(target, target_degree, n_comp)
        assert np.array_equal(transfer_to_refined(f, tspace).coeffs,
                              cell_loop_transfer(f, tspace))

    @given(case=transfer_case)
    @settings(max_examples=20, deadline=None)
    def test_transfer_exact_for_qr_data(self, case):
        """Any conforming Q^r function of the source space, the two slit
        lips carrying independent values, is reproduced on the target
        cells: at an interior point of each, the transferred function
        equals the source function evaluated in the source cell that
        contains the point.  Checked on the cells nearest the line
        y = 0 (the slit) and on random others."""
        base, more, (degree, _), n_comp, seed = case
        mesh, target = transfer_meshes(base, more)
        rng = np.random.default_rng(seed)
        space = build_space(mesh, degree, n_comp)
        f = space.function(build_constraints(space).apply(
            rng.normal(size=space.n_dofs)))
        g = transfer_to_refined(f, build_space(target, degree, n_comp))
        ref = rng.uniform(0.1, 0.9, size=(1, 2))
        N, _ = fespace.tensor_basis(degree, ref)
        corners = target.corners()
        pts = fespace.bilinear_map(corners, ref)
        got = g.space.local_coeffs(g.coeffs) @ N[:, 0]
        near_slit = np.argsort(np.abs(corners[:, :, 1].mean(axis=1)))[:20]
        rows = np.union1d(near_slit, rng.choice(len(pts), min(20, len(pts)),
                                                replace=False))
        for row in rows:
            p = pts[row]
            src_row, src_ref = fespace.locate_point(mesh, p)
            Ns, _ = fespace.tensor_basis(degree, src_ref[None, :])
            want = space.local_coeffs(f.coeffs, src_row) @ Ns[:, 0]
            assert np.allclose(got[row], want, rtol=0.0,
                               atol=1e-12 * np.max(np.abs(f.coeffs)))


class TestPointEvaluation:
    def test_constant(self):
        s = build_space(build_unit_square(3), 1)
        f = s.function(np.full(s.n_dofs, 7.5))
        assert point_value(f, (0.37, 0.91)) == pytest.approx(7.5)

    def test_bilinear_average(self):
        # corner values 0,1,1,2 at (0,0),(1,0),(0,1),(1,1) average to 1
        s = build_space(build_unit_square(1), 1)
        coeffs = np.zeros(4)
        for i in range(4):
            x, y = s.node_coords[i]
            coeffs[i] = {(0, 0): 0, (1, 0): 1, (0, 1): 1, (1, 1): 2}[(x, y)]
        f = s.function(coeffs)
        assert point_value(f, (0.5, 0.5)) == pytest.approx(1.0)

    def test_outside_domain(self):
        s = build_space(build_unit_square(2), 1)
        with pytest.raises(PointOutsideDomain):
            point_value(s.function(np.zeros(9)), (1.5, 0.5))

    def test_slit_side_hint(self):
        # distinct coefficients on the two lip copies are recovered by
        # picking the owning cell above/below the slit
        mesh = build_slit().refine_uniform(1)
        s = build_space(mesh, 1)
        coeffs = np.zeros(s.n_dofs)
        centroids = mesh.corners().mean(axis=1)
        for row, c in enumerate(mesh.active_cells):
            for v in mesh.cell_verts[c]:
                if tuple(mesh.points[v]) == (-0.5, 0.0):
                    coeffs[s.vertex_node[v]] = np.sign(centroids[row][1])
        f = s.function(coeffs)
        up = point_value(f, (-0.5, 0.0), side=+1)
        down = point_value(f, (-0.5, 0.0), side=-1)
        assert up == pytest.approx(1.0, abs=1e-14)
        assert down == pytest.approx(-1.0, abs=1e-14)

    def test_exact_slit_value_near_lip(self):
        # closed form at (-0.5, 0.01): sqrt(sqrt(0.2501) + 0.5); a fine
        # interpolant of the exact solution reproduces it
        from goalfem.problems import slit_exact

        expected = math.sqrt(math.sqrt(0.2501) + 0.5)
        assert expected == pytest.approx(1.000049993751312, abs=1e-14)
        mesh = build_slit().refine_uniform(5)
        s = build_space(mesh, 1)
        vals = slit_exact(s.node_coords[:, 0], s.node_coords[:, 1], 1.0)
        f = s.function(vals)
        assert point_value(f, (-0.5, 0.01)) == pytest.approx(
            expected, abs=1e-3)
