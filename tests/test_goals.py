import dataclasses
import math
from collections import Counter

import numpy as np
import pytest

from goalfem import goals
from goalfem.adaptivity import run_adaptive
from goalfem.errors import FunctionalSingular, UnknownExperiment
from goalfem.fespace import (ConstraintSet, build_constraints, build_space,
                             gauss)
from goalfem.goals import (PointValue, Power, Product, RegionIntegral, Scale,
                           Shift, Sum, _phi_d, catalog, example2_base)
from goalfem.mesh import build_cheese, build_slit, build_unit_square
from goalfem.presets import get_preset
from goalfem.problems import build_quasilinear

from conftest import poisson_problem, poisson_setup


def constant_fn(space, value):
    return space.function(np.full(space.n_dofs, float(value)))


class TestEval:
    def test_domain_integral_of_constant(self):
        s = build_space(build_unit_square(3), 1)
        assert RegionIntegral().value(constant_fn(s, 2.0)) == pytest.approx(2.0)

    def test_cheese_j1_at_zero(self):
        s = build_space(build_cheese(), 1)
        j1 = catalog("example1c")[0]
        assert j1.value(constant_fn(s, 0.0)) == pytest.approx(1.0)

    def test_cheese_j2_constant_cancels(self):
        s = build_space(build_cheese(), 1)
        j2 = catalog("example1c")[1]
        assert j2.value(constant_fn(s, 3.7)) == pytest.approx(0.0, abs=1e-22)

    def test_box_integral_restricted(self):
        s = build_space(build_cheese(), 1)
        j3 = catalog("example1c")[2]
        # constant over the unit box (2,3)x(2,3)
        assert j3.value(constant_fn(s, 5.0)) == pytest.approx(5.0)

    def test_box_partial_overlap_exact(self):
        # box cutting cells in half: integral of x over (0.25, 0.75)^2
        s = build_space(build_unit_square(2), 1)
        f = s.function(s.node_coords[:, 0].copy())
        J = RegionIntegral(box=(0.25, 0.75, 0.25, 0.75))
        assert J.value(f) == pytest.approx(0.5 * 0.5 * 0.5, rel=1e-13)

    def test_box_additive_under_refinement(self):
        # refining without changing the polynomial leaves box values alone
        J = RegionIntegral(box=(2.0, 3.0, 2.0, 3.0))
        vals = []
        mesh = build_cheese()
        for _ in range(3):
            s = build_space(mesh, 2)
            f = s.function(s.node_coords[:, 0] * s.node_coords[:, 1])
            vals.append(J.value(f))
            mesh = mesh.refine(mesh.active_cells[:4])
        assert np.ptp(vals) <= 1e-12 * (1 + abs(vals[0]))


class TestDerivatives:
    def test_linear_functional_state_independent(self, rng):
        _, _, space, cons, u, _ = poisson_setup(n=3, degree=1)
        J = RegionIntegral()
        v = space.function(rng.normal(size=space.n_dofs))
        a = J.directional(u, v)
        b = J.directional(space.function(rng.normal(size=space.n_dofs)), v)
        assert a == pytest.approx(b, rel=1e-14)

    def test_square_chain_rule(self, rng):
        _, _, space, cons, u, _ = poisson_setup(n=3, degree=1)
        base = RegionIntegral()
        J = Power(base, 2)
        v = space.function(rng.normal(size=space.n_dofs))
        assert J.directional(u, v) == pytest.approx(
            2.0 * base.value(u) * base.directional(u, v), rel=1e-13)

    def test_product_rule_structure(self, rng):
        _, _, space, cons, u, _ = poisson_setup(n=3, degree=1)
        a, b = RegionIntegral(), PointValue((0.25, 0.75))
        J = Product([a, b])
        v = space.function(rng.normal(size=space.n_dofs))
        expected = (b.value(u) * a.directional(u, v)
                    + a.value(u) * b.directional(u, v))
        assert J.directional(u, v) == pytest.approx(expected, rel=1e-13)

    def test_example2_fd_all_functionals(self, rng):
        prob = build_quasilinear()
        mesh = build_slit().refine_uniform(2)
        space = build_space(mesh, 1, 3)
        cons = build_constraints(space, prob.dirichlet)
        u = space.function(cons.apply(0.5 + 0.2 * rng.normal(size=space.n_dofs)))
        h = 1e-6
        for J in catalog("example2"):
            v = cons.distribute(rng.normal(size=space.n_dofs))
            fd = (J.value(space.function(u.coeffs + h * v))
                  - J.value(space.function(u.coeffs - h * v))) / (2 * h)
            an = J.directional(u, space.function(v))
            assert abs(an - fd) <= 1e-6 * (1 + abs(J.value(u)))

    def test_example1c_fd_all_functionals(self, rng):
        from goalfem.problems import PLaplaceParams, build_plaplace

        prob = build_plaplace(PLaplaceParams(
            4.0, 1.0, rhs=lambda x, y: np.ones(np.shape(x))))
        mesh = build_cheese().refine_uniform(1)
        space = build_space(mesh, 1)
        cons = build_constraints(space, prob.dirichlet)
        u = space.function(cons.apply(rng.normal(size=space.n_dofs)))
        h = 1e-6
        for J in catalog("example1c"):
            v = cons.distribute(rng.normal(size=space.n_dofs))
            fd = (J.value(space.function(u.coeffs + h * v))
                  - J.value(space.function(u.coeffs - h * v))) / (2 * h)
            an = J.directional(u, space.function(v))
            assert abs(an - fd) <= 1e-6 * (1 + abs(J.value(u)))

    def test_nodal_directional_sums_to_directional(self, rng):
        # the unconstrained gradient against v and the PU-nodal sum both
        # reproduce the directional derivative
        square = build_space(build_unit_square(2), 1)
        slit = build_space(build_slit().refine_uniform(1), 1, 3)
        base = example2_base()
        cases = [(square, J) for J in (
            RegionIntegral(), PointValue((0.3, 0.3)),
            Product([RegionIntegral(), PointValue((0.7, 0.2))]),
            # the box cuts cells: partially covered cells are sampled too
            RegionIntegral(lambda x, y: 1.0 + x * y,
                           box=(0.2, 0.7, 0.1, 0.6)))]
        cases += [(slit, J) for J in (
            base["J_C"], base["J_D"],
            # the two lips of the slit carry different values
            PointValue((-0.5, 0.0), component=1, side=1),
            PointValue((-0.5, 0.0), component=1, side=-1))]
        for space, J in cases:
            u = space.function(0.5 + 0.2 * rng.normal(size=space.n_dofs))
            v = space.function(rng.normal(size=space.n_dofs))
            total = J.directional(u, v)
            grad = J.gradient(ConstraintSet(space.n_dofs), u)
            nodal = J.nodal_directional(u, v)
            assert grad @ v.coeffs == pytest.approx(total, rel=1e-13)
            assert np.sum(nodal) == pytest.approx(total, rel=1e-13)


# the four experiments on their geometries, with a Q1 space as a run
# builds it (the rule of the Q2 enriched space), refined twice
_RUN_SPACES = {
    "example1a": lambda: (build_unit_square(4).distort(0.2, seed=1), 1,
                          poisson_problem()),
    "example1b": lambda: (build_unit_square(4), 1, poisson_problem()),
    "example1c": lambda: (build_cheese(), 1, poisson_problem()),
    "example2": lambda: (build_slit(), 3, build_quasilinear()),
}


@pytest.mark.parametrize("experiment", sorted(_RUN_SPACES))
def test_leaf_value_is_its_derivative_at_itself(experiment):
    """J(u) = J'(u)(u) for every linear leaf of the catalog: the value
    and the derivatives sample with one rule, the space's.  On the slit's
    initial guess a value integrated with gauss(3) instead misses J_C's
    derivative sum by 3.2e-4 relative."""
    mesh, n_comp, problem = _RUN_SPACES[experiment]()
    space = build_space(mesh.refine_uniform(2), 1, n_comp, rule=gauss(4))
    cons = build_constraints(space, problem.dirichlet)
    u = space.function(cons.apply(np.ones(space.n_dofs)))
    leaves = {leaf for J in catalog(experiment)
              for _, leaf in J.linearize(u)[1]}
    for leaf in leaves:
        assert leaf.value(u) == pytest.approx(leaf.directional(u, u),
                                              rel=1e-13, abs=0.0)


def test_each_leaf_value_once_per_function(monkeypatch):
    """A slit run evaluates each leaf at each function it meets at most
    once, although six goals share its six leaves and every composite
    goal's value and derivatives at a state read the leaf values
    there."""
    seen = Counter()
    original = goals.LinearLeaf._directional

    def counted(self, u, v):
        if v is u:
            seen[self, u] += 1
        return original(self, u, v)

    monkeypatch.setattr(goals.LinearLeaf, "_directional", counted)
    run_adaptive(dataclasses.replace(get_preset("example2"), max_levels=3))
    assert seen and max(seen.values()) == 1


def test_raw_goal_values_only_at_the_two_solutions(monkeypatch):
    """A raw-mode run forms its leaf's value at each level's u2 and u_h
    only: the coarse Newton's adjoint right-hand sides, the enriched
    adjoint's and the estimate read the leaf pairs, which need none."""
    formed, solutions = [], []
    original = goals.LinearLeaf._directional

    def counted(self, u, v):
        if v is u:
            formed.append(u)
        return original(self, u, v)

    monkeypatch.setattr(goals.LinearLeaf, "_directional", counted)
    records = run_adaptive(
        dataclasses.replace(get_preset("example1a_case1"), max_levels=2),
        on_level=lambda level, mesh, u, b: solutions.append(u))
    assert len(records) == 2 and len(formed) == 4
    assert all(a is b for a, b in zip(formed[1::2], solutions))


class TestPointSearch:
    """The owning cell of a goal point is searched once per mesh."""

    def test_one_search_per_mesh_and_point(self, rng, monkeypatch):
        searched = []
        real = goals.locate_point

        def counting(mesh, point, side=0):
            searched.append(tuple(point))
            return real(mesh, point, side)

        monkeypatch.setattr(goals, "locate_point", counting)
        p = PointValue((0.3, 0.6))
        J = Product([p, PointValue((0.7, 0.2)), RegionIntegral()])
        mesh = build_unit_square(3)
        for _ in range(2):
            searched.clear()
            # spaces on one mesh share samples, whatever their rule
            for degree in (1, 2):
                for rule in (gauss(3), gauss(5)):
                    space = build_space(mesh, degree, rule=rule)
                    cons = build_constraints(space)
                    u = space.function(rng.normal(size=space.n_dofs))
                    v = space.function(rng.normal(size=space.n_dofs))
                    for G in (p, J) * 3:
                        G.value(u)
                        G.gradient(cons, u)
                        G.directional(u, v)
                        G.nodal_directional(u, v)
            assert sorted(searched) == [(0.3, 0.6), (0.7, 0.2)]
            mesh = mesh.refine(mesh.active_cells[:3])


class TestGradientCache:
    """Condensed leaf gradients are cached per constraint set."""

    @staticmethod
    def unit_square_q1():
        space = build_space(build_unit_square(4), 1)
        return space, space.function(np.zeros(space.n_dofs))

    def test_each_constraint_set_gets_its_own_gradient(self):
        space, u = self.unit_square_q1()
        free = build_constraints(space)
        clamped = build_constraints(space, poisson_problem().dirichlet)
        for J in (RegionIntegral(), PointValue((0.1, 0.1))):
            g_free = J.gradient(free, u)
            g_clamped = J.gradient(clamped, u)
            assert np.all(g_clamped[clamped.constrained] == 0.0)
            assert np.any(g_free[clamped.constrained] != 0.0)
            # repeated calls hit each set's own cache
            assert np.array_equal(J.gradient(free, u), g_free)
            assert np.array_equal(J.gradient(clamped, u),
                                  g_clamped)

    def test_recycled_constraint_set_gets_fresh_gradient(self):
        # a constraint set built after another was collected may reuse
        # its id; the hats of Q1 sum to one, so the unconstrained
        # gradient of the domain integral sums to the area
        space, u = self.unit_square_q1()
        J = RegionIntegral()
        for _ in range(10):
            clamped = build_constraints(space, poisson_problem().dirichlet)
            assert J.gradient(clamped, u).sum() < 0.9
            del clamped
            free = build_constraints(space)
            assert J.gradient(free, u).sum() == \
                pytest.approx(1.0, rel=1e-13)


class TestCatalog:
    def test_example1a(self):
        fns = catalog("example1a")
        assert len(fns) == 1 and isinstance(fns[0], RegionIntegral)

    def test_example1b(self):
        fns = catalog("example1b")
        assert len(fns) == 1
        assert tuple(fns[0].point) == (0.6, 0.6)

    def test_example1c(self):
        fns = catalog("example1c")
        assert len(fns) == 4
        assert fns[2].box == (2.0, 3.0, 2.0, 3.0)

    def test_example2_six(self):
        assert len(catalog("example2")) == 6

    def test_unknown(self):
        with pytest.raises(UnknownExperiment):
            catalog("example99")


class TestPhiD:
    def test_outside_region_zero(self):
        w = _phi_d(np.array([-0.5, 0.5]), np.array([0.5, -0.2]))
        assert np.all(w == 0.0)

    def test_inside_region_components(self):
        w = _phi_d(np.array([0.5]), np.array([0.5]))
        s = np.sqrt(np.sqrt(0.5) - 0.5)
        assert w[0, 0] == pytest.approx(-4.0)
        assert w[0, 1] == pytest.approx(2.0 / (1.0 - s))
        assert w[0, 2] == pytest.approx(4.0)

    def test_denominator_guard(self):
        # approaching (0, 1) the trace expression tends to 1
        with pytest.raises(FunctionalSingular):
            _phi_d(np.array([1e-18]), np.array([1.0]))

    def test_example2_base_values_at_exact(self):
        # J_D telescopes to 2 chi_D at the exact solution (weight check)
        base = example2_base()
        assert set(base) == {"J_A", "J_B", "J_C", "J_D", "J_E", "J_F"}


class TestComposites:
    def test_sum_scale_shift(self):
        s = build_space(build_unit_square(2), 1)
        f = constant_fn(s, 2.0)
        J = Sum([Scale(3.0, RegionIntegral()), Shift(RegionIntegral(), 1.0)])
        assert J.value(f) == pytest.approx(3.0 * 2.0 + 2.0 + 1.0)

    def test_power_validation(self):
        with pytest.raises(ValueError):
            Power(RegionIntegral(), 0)
        with pytest.raises(ValueError):
            Power(RegionIntegral(), 1.5)

    @pytest.mark.parametrize("exponent", [2.0, True, np.float64(3.0)])
    def test_exponent_is_an_integer(self, exponent):
        with pytest.raises(ValueError, match="exponent"):
            Power(RegionIntegral(), exponent)


class TestLeafArguments:
    @pytest.mark.parametrize("component", [-1, 1.0, True])
    def test_point_component_is_an_index(self, component):
        # -1 would read the last field
        with pytest.raises(ValueError, match="component"):
            PointValue((0.5, 0.5), component=component)

    def test_point_component_below_the_space_components(self):
        s = build_space(build_unit_square(2), 1)
        with pytest.raises(ValueError, match="component"):
            PointValue((0.5, 0.5), component=1).value(constant_fn(s, 1.0))

    @pytest.mark.parametrize("box", [
        (0.8, 0.2, 0.0, 1.0), (0.0, 1.0, 0.6, 0.6), (0.0, 1.0, 0.0),
        (0.0, float("nan"), 0.0, 1.0), (0.0, 1.0, -math.inf, 1.0),
        ("0", "1", "0", "1")])
    def test_malformed_box_rejected(self, box):
        # a reversed box would integrate to 0.0
        with pytest.raises(ValueError, match="box"):
            RegionIntegral(box=box)

    def test_box_of_integers_accepted(self):
        s = build_space(build_unit_square(2), 1)
        J = RegionIntegral(box=(0, 1, 0, 1))
        assert J.value(constant_fn(s, 2.0)) == pytest.approx(2.0)
