import numpy as np
import pytest

from goalfem.assembly import gauss
from goalfem.errors import ZeroReferenceFunctional
from goalfem.fespace import build_constraints, build_space
from goalfem.goals import PointValue, RegionIntegral, catalog
from goalfem.mesh import build_cheese, build_slit, build_unit_square
from goalfem.multigoal import (CombinedFunctional, combination_weights,
                               member_values)
from goalfem.problems import build_quasilinear

from conftest import poisson_setup


def frozen(functionals, u_h, u_h2, omegas=None):
    """J_c with weights frozen at (u_h, u_h2), as the adaptive loop builds it."""
    return CombinedFunctional(functionals, member_values(functionals, u_h),
                              member_values(functionals, u_h2), omegas)


class TestWeights:
    def test_single_functional(self):
        w = combination_weights([2.0], [0.5])
        assert w[0] == pytest.approx(1.0 / 0.5)
        w = combination_weights([0.1], [0.5])
        assert w[0] == pytest.approx(-1.0 / 0.5)

    def test_sign_zero_gives_zero_weight(self):
        w = combination_weights([1.0, 2.0], [1.0, 1.0])
        assert w[0] == 0.0 and w[1] == pytest.approx(1.0)

    def test_omegas_default_one(self):
        a = combination_weights([2.0, 3.0], [1.0, 1.0])
        b = combination_weights([2.0, 3.0], [1.0, 1.0], omegas=[1.0, 1.0])
        assert np.array_equal(a, b)

    def test_zero_reference_raises(self):
        with pytest.raises(ZeroReferenceFunctional) as err:
            combination_weights([1.0, 1.0], [1.0, 0.0])
        assert err.value.index == 1


class TestCombinedValue:
    def test_all_members_exact(self):
        c = CombinedFunctional([None, None], [1.5, -2.0], [1.5, -2.0])
        assert c.combined_error_value() == 0.0

    def test_arithmetic_example(self):
        c = CombinedFunctional([None, None], [1.0, 2.0], [1.1, 2.0])
        assert c.combined_error_value() == pytest.approx(0.1)

    def test_combined_error_equals_weighted_gap_example1c(self, rng):
        # J_c(u_h2) - J_c(u_h) equals the combined error value exactly
        fns = catalog("example1c")
        space = build_space(build_cheese().refine_uniform(1), 1)
        for _ in range(5):
            u_h = space.function(0.5 + 0.2 * rng.normal(size=space.n_dofs))
            u_h2 = space.function(u_h.coeffs + 0.01 * rng.normal(size=space.n_dofs))
            c = frozen(fns, u_h, u_h2)
            lhs = c.value(u_h2) - c.value(u_h)
            rhs = c.combined_error_value()
            assert lhs == pytest.approx(rhs, rel=1e-14)

    def test_combined_error_equals_weighted_gap_example2(self, rng):
        fns = catalog("example2")
        space = build_space(build_slit().refine_uniform(2), 1, 3)
        for _ in range(5):
            u_h = space.function(0.5 + 0.2 * rng.normal(size=space.n_dofs))
            u_h2 = space.function(u_h.coeffs + 0.01 * rng.normal(size=space.n_dofs))
            c = frozen(fns, u_h, u_h2)
            lhs = c.value(u_h2) - c.value(u_h)
            assert lhs == pytest.approx(c.combined_error_value(), rel=1e-14)

    def test_dominates_each_member(self, rng):
        fns = catalog("example1c")
        space = build_space(build_cheese().refine_uniform(1), 1)
        u_h = space.function(0.5 + 0.2 * rng.normal(size=space.n_dofs))
        u_h2 = space.function(u_h.coeffs + 0.01 * rng.normal(size=space.n_dofs))
        c = frozen(fns, u_h, u_h2)
        total = c.combined_error_value()
        for i in range(len(fns)):
            member = abs(c.values_h2[i] - c.values_h[i]) / abs(c.values_h[i])
            assert total >= member - 1e-15


class TestDerivativeRhs:
    def test_single_linear_scaled_gradient(self):
        problem, _, space, cons, u, _ = poisson_setup(n=2, degree=1)
        J = RegionIntegral()
        quad = gauss(3)
        u2 = space.function(u.coeffs * 1.1)
        c = frozen([J], u, u2)
        rhs = c.gradient(space, cons, u, quad)
        base = J.gradient(space, cons, u, quad)
        assert np.allclose(rhs, c.weights[0] * base, atol=1e-15)

    def test_zero_weights_zero_vector(self):
        problem, _, space, cons, u, _ = poisson_setup(n=2, degree=1)
        J = RegionIntegral()
        c = frozen([J], u, u)   # identical values -> sign 0
        rhs = c.gradient(space, cons, u, gauss(3))
        assert np.all(rhs == 0.0)

    def test_fd_of_weighted_sum(self, rng):
        problem, _, space, cons, u, _ = poisson_setup(n=3, degree=1)
        fns = [RegionIntegral(), PointValue((0.4, 0.4))]
        u2 = space.function(u.coeffs + 0.05 * rng.normal(size=space.n_dofs))
        c = frozen(fns, u, u2)
        quad = gauss(3)
        rhs = c.gradient(space, cons, u, quad)
        d = cons.distribute(rng.normal(size=space.n_dofs))
        h = 1e-6
        fd = (c.value(space.function(u.coeffs + h * d))
              - c.value(space.function(u.coeffs - h * d))) / (2 * h)
        assert rhs @ d == pytest.approx(fd, abs=1e-7 * (1 + abs(fd)))


class TestOmegaScaling:
    def test_common_factor_scales_everything(self, rng):
        fns = catalog("example1c")
        space = build_space(build_cheese().refine_uniform(1), 1)
        cons = build_constraints(space)
        u_h = space.function(0.5 + 0.2 * rng.normal(size=space.n_dofs))
        u_h2 = space.function(u_h.coeffs + 0.01 * rng.normal(size=space.n_dofs))
        quad = gauss(3)
        c1 = frozen(fns, u_h, u_h2)
        c3 = frozen(fns, u_h, u_h2, omegas=[3.0] * 4)
        assert c3.combined_error_value() == pytest.approx(
            3.0 * c1.combined_error_value(), rel=1e-14)
        r1 = c1.gradient(space, cons, u_h, quad)
        r3 = c3.gradient(space, cons, u_h, quad)
        assert np.allclose(r3, 3.0 * r1, rtol=1e-13, atol=1e-16)

    def test_marking_invariant_under_scaling(self):
        from goalfem.adaptivity import mark_average

        eta = np.array([0.5, 1.0, 0.1, 3.0, 0.2])
        assert np.array_equal(mark_average(eta), mark_average(7.0 * eta))


def test_member_values_matches_individual():
    space = build_space(build_unit_square(2), 1)
    u = space.function(np.linspace(0, 1, space.n_dofs))
    fns = [RegionIntegral(), PointValue((0.5, 0.5))]
    vals = member_values(fns, u)
    assert vals[0] == pytest.approx(fns[0].value(u))
    assert vals[1] == pytest.approx(fns[1].value(u))
