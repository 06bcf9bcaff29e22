import numpy as np
import pytest

from goalfem.assembly import gauss
from goalfem.errors import FunctionalSingular, UnknownExperiment
from goalfem.fespace import build_constraints, build_space
from goalfem.goals import (PointValue, Power, Product, RegionIntegral, Scale,
                           Shift, Sum, _phi_d, catalog, example2_base)
from goalfem.mesh import build_cheese, build_slit, build_unit_square
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
        _, _, space, cons, u, _ = poisson_setup(n=2, degree=1)
        quad = gauss(3)
        for J in (RegionIntegral(), PointValue((0.3, 0.3)),
                  Product([RegionIntegral(), PointValue((0.7, 0.2))])):
            v = space.function(rng.normal(size=space.n_dofs))
            nodal = J.nodal_directional(u, [(1.0, v)], quad)
            total = J.directional(u, v, quad=quad)
            assert np.sum(nodal) == pytest.approx(total, rel=1e-12, abs=1e-14)


class TestGradientCache:
    """Condensed leaf gradients are cached per constraint set."""

    @staticmethod
    def unit_square_q1():
        space = build_space(build_unit_square(4), 1)
        return space, space.function(np.zeros(space.n_dofs)), gauss(3)

    def test_each_constraint_set_gets_its_own_gradient(self):
        space, u, quad = self.unit_square_q1()
        free = build_constraints(space)
        clamped = build_constraints(space, poisson_problem().dirichlet)
        for J in (RegionIntegral(), PointValue((0.1, 0.1))):
            g_free = J.gradient(space, free, u, quad)
            g_clamped = J.gradient(space, clamped, u, quad)
            assert np.all(g_clamped[clamped.constrained] == 0.0)
            assert np.any(g_free[clamped.constrained] != 0.0)
            # repeated calls hit each set's own cache
            assert np.array_equal(J.gradient(space, free, u, quad), g_free)
            assert np.array_equal(J.gradient(space, clamped, u, quad),
                                  g_clamped)

    def test_recycled_constraint_set_gets_fresh_gradient(self):
        # a constraint set built after another was collected may reuse
        # its id; the hats of Q1 sum to one, so the unconstrained
        # gradient of the domain integral sums to the area
        space, u, quad = self.unit_square_q1()
        J = RegionIntegral()
        for _ in range(10):
            clamped = build_constraints(space, poisson_problem().dirichlet)
            assert J.gradient(space, clamped, u, quad).sum() < 0.9
            del clamped
            free = build_constraints(space)
            assert J.gradient(space, free, u, quad).sum() == \
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
