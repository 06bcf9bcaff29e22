import hashlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings

from goalfem import mesh as mesh_module
from goalfem.errors import DistortionInvertsCell
from goalfem.fespace import build_constraints, build_space
from goalfem.mesh import (DIRICHLET, EDGE_CORNERS, NEUMANN, build_cheese,
                          build_slit, build_unit_square, require_int,
                          write_vtk)
from goalfem.problems import slit_exact

from conftest import (MESHES, ReferenceMesh, marked_cells,
                      max_hanging_per_face, mesh_marks, reference_edge_map,
                      reference_hanging, refined_mesh, refined_reference)


class TestBuilders:
    def test_single_cell(self):
        m = build_unit_square(1)
        assert m.n_cells == 1 and m.n_points == 4

    def test_two_by_two(self):
        m = build_unit_square(2)
        assert m.n_cells == 4 and m.n_points == 9

    @pytest.mark.parametrize("n", [2.7, 3.0, True])
    def test_cells_per_side_is_an_integer(self, n):
        with pytest.raises(ValueError, match="n_cells_per_side"):
            build_unit_square(n)

    def test_numpy_integer_cells_per_side(self):
        assert build_unit_square(np.int64(2)).n_cells == 4


class TestRequireInt:
    @pytest.mark.parametrize("value, least, below", [
        (True, 0, None), (False, 0, None), (2.0, 1, None),
        (np.float64(1.0), 0, None), ("3", 0, None), (None, 0, None),
        (0, 1, None), (-1, 0, None), (3, 0, 3), (np.int64(5), 0, 4)])
    def test_rejects_by_name(self, value, least, below):
        with pytest.raises(ValueError, match="the_size"):
            require_int("the_size", value, least, below)

    @pytest.mark.parametrize("value, least, below", [
        (0, 0, None), (1, 1, None), (2, 0, 3), (np.int64(7), 1, None),
        (np.uint8(2), 0, 3), (10 ** 30, 1, None)])
    def test_accepts_an_int_in_range(self, value, least, below):
        out = require_int("the_size", value, least, below)
        assert type(out) is int and out == value

    def test_all_dirichlet(self):
        m = build_unit_square(3)
        tags = m.edge_tag[np.not_equal(m.edge_tag, None)]
        assert set(tags) == {DIRICHLET}
        assert len(tags) == 12

    def test_cheese_cell_count(self):
        # oracle: enumerate the unit cells of [0,3]^2 whose center is
        # outside the open hole (1,2)^2
        keep = [(i, j) for i in range(3) for j in range(3)
                if not (1 < i + 0.5 < 2 and 1 < j + 0.5 < 2)]
        assert build_cheese().n_cells == len(keep) == 8

    def test_cheese_contains_evaluation_points(self):
        m = build_cheese()
        corners = m.corners()
        for p in ((2.9, 2.1), (2.1, 2.9), (2.5, 2.5), (0.6, 0.6)):
            inside = np.any((corners[:, :, 0].min(1) <= p[0])
                            & (corners[:, :, 0].max(1) >= p[0])
                            & (corners[:, :, 1].min(1) <= p[1])
                            & (corners[:, :, 1].max(1) >= p[1]))
            assert inside

    def test_cheese_hole_center_outside(self):
        m = build_cheese()
        centers = m.corners().mean(axis=1)
        assert not np.any(np.all(np.isclose(centers, (1.5, 1.5)), axis=1))


class TestSlit:
    def test_duplicated_vertices(self):
        m = build_slit().refine_uniform(2)
        # every vertex strictly inside the slit appears twice, the tip once
        xs = {}
        for v in range(m.n_points):
            x, y = m.points[v]
            if y == 0.0 and -1.0 < x < 0.0:
                xs[x] = xs.get(x, 0) + 1
        assert xs and all(c == 2 for c in xs.values())
        tip = [v for v in range(m.n_points)
               if tuple(m.points[v]) == (0.0, 0.0)]
        assert len(tip) == 1

    def test_copy_count_invariant(self):
        m = build_slit().refine_uniform(3)
        interior = sum(1 for v in range(m.n_points)
                       if m.points[v][1] == 0.0 and -1.0 < m.points[v][0] < 0.0)
        tip = 1
        # pairs counted once each; the slit mouth (-1, 0) is duplicated too
        mouth = sum(1 for v in range(m.n_points)
                    if tuple(m.points[v]) == (-1.0, 0.0))
        assert interior + tip == 2 * (interior // 2) + 1
        assert mouth == 2

    def test_trace_jump_and_tip_value(self):
        # sign(y) sqrt(sqrt(x^2+y^2) - x) at (-0.5, +-0) is +-1 exactly,
        # single-valued 0 at the tip
        assert slit_exact(-0.5, 0.0, +1.0) == pytest.approx(1.0, abs=1e-15)
        assert slit_exact(-0.5, 0.0, -1.0) == pytest.approx(-1.0, abs=1e-15)
        assert slit_exact(0.0, 0.0, +1.0) == 0.0 == slit_exact(0.0, 0.0, -1.0)

    def test_boundary_tag_partition(self):
        # every one-owner face is tagged, with its owner's entry, and no
        # face of two owners is
        m = build_slit()
        t = m.edges()
        single = t.owners[:, 1] < 0
        assert np.array_equal(np.not_equal(t.tag, None), single)
        assert np.array_equal(np.not_equal(m.edge_tag, None), single[t.of_cell])
        assert t.tag[t.of_cell].tolist() == m.edge_tag.tolist()
        assert set(t.tag[single]) == {DIRICHLET, NEUMANN}

    def test_neumann_only_on_lips(self):
        m = build_slit().refine_uniform(1)
        tagged = 0
        for v, tags in zip(m.cell_verts.tolist(), m.edge_tag.tolist()):
            for (a, b), tag in zip(EDGE_CORNERS, tags):
                if tag is None:
                    continue
                tagged += 1
                pa, pb = m.points[v[a]], m.points[v[b]]
                on_slit = (pa[1] == 0.0 and pb[1] == 0.0
                           and max(pa[0], pb[0]) <= 0.0)
                assert (tag == NEUMANN) == on_slit
        # the base cells' 10 faces and their children's 20 halves
        assert tagged == 30


class TestRefine:
    def test_empty_marks(self):
        m = build_unit_square(2)
        assert len(m.refine([]).active_cells) == 4

    def test_single_cell_split(self):
        m = build_unit_square(1).refine([0])
        assert len(m.active_cells) == 4

    def test_one_of_four(self):
        m = build_unit_square(2).refine([0])
        assert len(m.active_cells) == 7
        # oracle: the split cell shares two faces with unrefined peers,
        # each carrying exactly one hanging midpoint
        assert len(m.edges().hanging_face) == 2
        assert max_hanging_per_face(m) == 1

    @given(case=mesh_marks)
    @settings(max_examples=40, deadline=None)
    def test_closure_keeps_one_irregularity(self, case):
        kind, marks = case
        m = MESHES[kind]()
        for fractions in marks:
            cells = marked_cells(m, fractions)
            m2 = m.refine(cells)
            assert max_hanging_per_face(m2) <= 1
            assert not np.isin(cells, m2.active_cells).any()
            assert len(m2.active_cells) > len(m.active_cells)
            m = m2

    def test_closure_cascades(self):
        # after [0] and then its child 7, cell 7's top-right child sits
        # next to children of cells 1 and 2, and those next to cell 3:
        # the closure takes two rounds to reach it
        m = build_unit_square(2).refine([0]).refine([7])
        m2 = m.refine([m.cell_children[7, 3]])
        assert 3 not in m2.active_cells
        assert max_hanging_per_face(m2) <= 1

    def test_marks_must_be_active(self):
        m = build_unit_square(2).refine([0])
        with pytest.raises(ValueError):
            m.refine([0])

    @pytest.mark.parametrize("mark", [-1, 99])
    def test_marks_must_be_cell_ids(self, mark):
        # a negative id would index from the end of the cell arrays
        with pytest.raises(ValueError):
            build_unit_square(2).refine([mark])

    @pytest.mark.parametrize("marks", [
        np.array([False, False, True, False]), [0.5], [1.9], [2.0]],
        ids=["bool_mask", "half", "one_point_nine", "two_point_zero"])
    def test_marks_must_be_integer_ids(self, marks):
        # a bool mask read as ids would split cells 0 and 1, and
        # truncated floats would split the cells below them
        with pytest.raises(ValueError, match="marks"):
            build_unit_square(2).refine(marks)

    @pytest.mark.parametrize("times", [-1, 1.0, True])
    def test_uniform_times_is_a_count(self, times):
        with pytest.raises(ValueError, match="times"):
            build_unit_square(2).refine_uniform(times)

    def test_levels_and_parents(self):
        # the children are one level down: their parent is a base cell
        m = build_unit_square(1).refine([0])
        kids = m.cell_children[0]
        assert np.array_equal(kids, [1, 2, 3, 4])
        assert np.all(m.cell_parent[kids] == 0)
        assert m.cell_parent[0] == -1
        assert np.all(m.cell_children[kids] == -1)

    @given(case=mesh_marks)
    @settings(max_examples=40, deadline=None)
    def test_matches_dict_reference(self, case):
        # the cell arrays of every round equal the dict loop's bitwise,
        # and each local edge carries the tag of its vertex pair
        kind, marks = case
        mesh = MESHES[kind]()
        ref = ReferenceMesh.of(mesh)
        for fractions in marks:
            cells = marked_cells(mesh, fractions)
            mesh, ref = mesh.refine(cells), ref.refine(cells)
            for name in ("points", "cell_verts", "cell_parent",
                         "cell_children"):
                a, b = getattr(mesh, name), getattr(ref, name)
                assert a.dtype == b.dtype and np.array_equal(a, b), name
            ends = np.sort(mesh.cell_verts[:, EDGE_CORNERS], axis=2)
            assert mesh.edge_tag.tolist() == [
                [ref.boundary_tags.get(tuple(e)) for e in cell]
                for cell in ends.tolist()]


class TestDistort:
    def test_zero_factor_identity(self):
        m = build_unit_square(4)
        m2 = m.distort(0.0, seed=3)
        assert np.array_equal(m.points, m2.points)

    def test_seed_determinism(self):
        m = build_unit_square(8)
        a = m.distort(0.2, seed=7)
        b = m.distort(0.2, seed=7)
        assert np.array_equal(a.points, b.points)
        c = m.distort(0.2, seed=8)
        assert not np.array_equal(a.points, c.points)

    def test_boundary_fixed(self):
        m = build_unit_square(6)
        d = m.distort(0.3, seed=1)
        for v in m.boundary_vertices():
            assert np.array_equal(m.points[v], d.points[v])

    def test_slit_lips_stay(self):
        # the lips are tagged faces, so their vertices, copies, mouth and
        # tip included, are boundary vertices
        m = build_slit().refine_uniform(1)
        m = m.refine(m.active_cells[np.any(m.edge_tag[m.active_cells]
                                           == NEUMANN, axis=1)])
        d = m.distort(0.3, seed=1)
        x, y = m.points.T
        lips = (y == 0.0) & (x <= 0.0)
        # four points on each lip and the tip
        assert np.count_nonzero(lips) == 9
        assert np.array_equal(d.points[lips], m.points[lips])
        assert not np.array_equal(d.points, m.points)

    def test_hanging_vertices_stay_on_their_faces(self):
        m = build_unit_square(4).refine([5])
        d = m.distort(0.3, seed=1)
        hanging = reference_hanging(d)
        assert len(hanging) == 4
        assert not np.array_equal(d.points, m.points)
        for _, (a, b), v in hanging:
            assert np.array_equal(d.points[v], 0.5 * (d.points[a] + d.points[b]))

    def test_sixteen_by_sixteen_stays_valid(self):
        d = build_unit_square(16).distort(0.2, seed=42)
        assert np.all(d.corner_jacobian_dets() > 0)

    def test_factor_range(self):
        with pytest.raises(ValueError):
            build_unit_square(2).distort(0.5, seed=0)

    @pytest.mark.parametrize("seed", [True, 1.0, -1])
    def test_seed_is_a_nonnegative_integer(self, seed):
        with pytest.raises(ValueError, match="seed"):
            build_unit_square(2).distort(0.2, seed=seed)

    def test_inverted_cell_detected(self):
        with pytest.raises(DistortionInvertsCell):
            # brute-force a seed that folds a cell at an extreme factor
            m = build_unit_square(4)
            for seed in range(500):
                m.distort(0.4999, seed=seed)
            pytest.skip("no inverting seed found")


class TestEdgeTable:
    @given(case=mesh_marks)
    @settings(max_examples=40, deadline=None)
    def test_matches_dict_loop(self, case):
        mesh = refined_mesh(*case)
        ref = refined_reference(*case)
        t = mesh.edges()
        emap = reference_edge_map(mesh)
        assert list(map(tuple, t.verts.tolist())) == list(emap)
        assert [[c for c in row if c >= 0] for row in t.owners.tolist()] \
            == list(emap.values())
        ends = np.sort(mesh.cell_verts[mesh.active_cells][:, EDGE_CORNERS],
                       axis=2)
        assert np.array_equal(t.verts[t.of_cell], ends)
        assert [ref.boundary_tags.get(e) if len(cells) == 1 else None
                for e, cells in emap.items()] == t.tag.tolist()
        hanging = reference_hanging(mesh, ref.edge_midpoint)
        assert [(int(t.owners[f, 0]), tuple(t.verts[f].tolist()), int(m))
                for f, m in zip(t.hanging_face, t.hanging_mid)] == hanging
        for (_, (a, b), m), halves in zip(hanging, t.hanging_halves):
            assert t.verts[halves].tolist() == [sorted((a, m)), sorted((m, b))]

    @given(case=mesh_marks)
    @settings(max_examples=40, deadline=None)
    def test_hanging_midpoints_are_not_face_endpoints(self, case):
        # fold_hanging folds every face in one pass because of this
        t = refined_mesh(*case).edges()
        assert not np.isin(t.hanging_mid, t.verts[t.hanging_face]).any()

    def test_cached_per_mesh(self):
        m = build_unit_square(2).refine([0])
        assert m.edges() is m.edges()


# a fresh object of each kind that keeps what is derived from it
CACHE_OWNERS = {
    "mesh": lambda: build_unit_square(2),
    "space": lambda: build_space(build_unit_square(2), 1),
    "function": lambda: build_space(build_unit_square(2), 1).function(),
    "constraints": lambda: build_constraints(
        build_space(build_unit_square(2), 1)),
}


owners = pytest.mark.parametrize("make", CACHE_OWNERS.values(),
                                 ids=CACHE_OWNERS)


class TestCached:
    @owners
    def test_builds_once_per_key(self, make):
        m = make()
        calls = []

        def build(tag):
            calls.append(tag)
            return np.arange(3)

        a = m.cached(("t", 1), lambda: build(1))
        assert m.cached(("t", 1), lambda: build(2)) is a
        assert m.cached(("t", 2), lambda: build(3)) is not a
        assert calls == [1, 3]
        # a new object has values of its own
        assert make().cached(("t", 1), lambda: 7) == 7

    @owners
    @pytest.mark.parametrize("falsy", [0, np.zeros(0)])
    def test_a_stored_falsy_table_is_not_rebuilt(self, make, falsy):
        m = make()
        assert m.cached("f", lambda: falsy) is falsy
        assert m.cached("f", lambda: pytest.fail("rebuilt")) is falsy

    def test_only_the_mesh_touches_its_caches(self):
        # every other module reads and stores its tables through
        # Mesh.cached
        src = Path(mesh_module.__file__).parent
        readers = sorted(path.name for path in src.glob("*.py")
                         if "_caches" in path.read_text())
        assert readers == ["mesh.py"]

    def test_no_cache_of_its_own(self):
        # spaces, functions and constraint sets keep what is derived
        # from them through the one ``cached``, not through attributes
        # of their own
        texts = [path.read_text() for path in
                 Path(mesh_module.__file__).parent.glob("*.py")]
        for name in ("quad_values", "leaf_values", "gradient_cache",
                     "_basis_cache"):
            assert not any(name in text for text in texts), name
        assert sum(text.count("def cached") for text in texts) == 1


def test_vtk_dump(tmp_path):
    m = build_unit_square(2).refine([0])
    path = tmp_path / "mesh.vtk"
    write_vtk(path, m, point_data={"f": np.arange(m.n_points)},
              cell_data={"g": np.arange(len(m.active_cells))})
    text = path.read_text()
    assert "UNSTRUCTURED_GRID" in text
    assert text.count("\n4 ") == len(m.active_cells)


def mesh_digest(m):
    """Digest of the five mesh arrays: their dtypes, shapes and values,
    the tags by name."""
    h = hashlib.sha256()
    for a in (m.points, m.cell_verts, m.cell_parent, m.cell_children):
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(np.ascontiguousarray(a).tobytes())
    h.update(f"{m.edge_tag.dtype.str}{m.edge_tag.shape}".encode())
    h.update(repr(m.edge_tag.tolist()).encode())
    return h.hexdigest()[:16]


# the constructors' arrays, bitwise: numbering, dtypes and tags
CONSTRUCTOR_PINS = {
    "square1": (build_unit_square, (1,), "0438f57e8d041fd5"),
    "square4": (build_unit_square, (4,), "e4534056b05c3eb1"),
    "square16": (build_unit_square, (16,), "79c00f4da5e72984"),
    "cheese": (build_cheese, (), "feb6fe5818a73227"),
    "slit": (build_slit, (), "6517338b74b67ee4"),
}


@pytest.mark.parametrize("name", sorted(CONSTRUCTOR_PINS))
def test_constructors_pinned(name):
    build, args, pin = CONSTRUCTOR_PINS[name]
    m = build(*args)
    # the tags are the module's two constants themselves
    assert all(tag is None or tag is DIRICHLET or tag is NEUMANN
               for tag in m.edge_tag.ravel())
    assert mesh_digest(m) == pin
