import numpy as np
import pytest

from goalfem.errors import ZeroReferenceFunctional
from goalfem.fespace import build_constraints, build_space
from goalfem.goals import PointValue, RegionIntegral, catalog
from goalfem.mesh import build_cheese, build_slit, build_unit_square
from goalfem.multigoal import (CombinedFunctional, combination_weights,
                               combined_error, member_values)
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


def surrogate(c):
    """J_E at the frozen state of combination ``c``, J_i(u_h2) standing in
    for the exact values: the run's ``je_surrogate`` in weighted mode."""
    return combined_error(c.values_h2, c.values_h, c.omegas)


class TestCombinedValue:
    def test_all_members_exact(self):
        c = CombinedFunctional([None, None], [1.5, -2.0], [1.5, -2.0])
        assert surrogate(c) == 0.0

    def test_arithmetic_example(self):
        c = CombinedFunctional([None, None], [1.0, 2.0], [1.1, 2.0])
        assert surrogate(c) == pytest.approx(0.1)

    def test_one_formula_for_reference_and_surrogate(self, rng):
        # the reference-value J_E of a run and the surrogate of the frozen
        # combination are one function, and it adds its terms in order
        for n in range(1, 8):
            at = rng.normal(size=n) * 10.0 ** rng.integers(-6, 6, size=n)
            ref = at * (1.0 + 1e-3 * rng.normal(size=n))
            for omegas in (None, tuple(rng.uniform(0.0, 3.0, size=n))):
                c = CombinedFunctional([None] * n, at, ref, omegas)
                assert combined_error(ref, at, omegas) \
                    == surrogate(c)
                om = omegas or (1.0,) * n
                assert combined_error(ref, at, omegas) == sum(
                    w * abs(r - v) / abs(v) for w, v, r in zip(om, at, ref))

    def test_combined_error_equals_weighted_gap_example1c(self, rng):
        # J_c(u_h2) - J_c(u_h) equals the combined error value exactly
        fns = catalog("example1c")
        space = build_space(build_cheese().refine_uniform(1), 1)
        for _ in range(5):
            u_h = space.function(0.5 + 0.2 * rng.normal(size=space.n_dofs))
            u_h2 = space.function(u_h.coeffs + 0.01 * rng.normal(size=space.n_dofs))
            c = frozen(fns, u_h, u_h2)
            lhs = c.value(u_h2) - c.value(u_h)
            rhs = surrogate(c)
            assert lhs == pytest.approx(rhs, rel=1e-14)

    def test_combined_error_equals_weighted_gap_example2(self, rng):
        fns = catalog("example2")
        space = build_space(build_slit().refine_uniform(2), 1, 3)
        for _ in range(5):
            u_h = space.function(0.5 + 0.2 * rng.normal(size=space.n_dofs))
            u_h2 = space.function(u_h.coeffs + 0.01 * rng.normal(size=space.n_dofs))
            c = frozen(fns, u_h, u_h2)
            lhs = c.value(u_h2) - c.value(u_h)
            assert lhs == pytest.approx(surrogate(c), rel=1e-14)

    def test_dominates_each_member(self, rng):
        fns = catalog("example1c")
        space = build_space(build_cheese().refine_uniform(1), 1)
        u_h = space.function(0.5 + 0.2 * rng.normal(size=space.n_dofs))
        u_h2 = space.function(u_h.coeffs + 0.01 * rng.normal(size=space.n_dofs))
        c = frozen(fns, u_h, u_h2)
        total = surrogate(c)
        for i in range(len(fns)):
            member = abs(c.values_h2[i] - c.values_h[i]) / abs(c.values_h[i])
            assert total >= member - 1e-15


class TestDerivativeRhs:
    def test_single_linear_scaled_gradient(self):
        problem, _, space, cons, u, _ = poisson_setup(n=2, degree=1)
        J = RegionIntegral()
        u2 = space.function(u.coeffs * 1.1)
        c = frozen([J], u, u2)
        rhs = c.gradient(cons, u)
        base = J.gradient(cons, u)
        assert np.allclose(rhs, c.weights[0] * base, atol=1e-15)

    def test_zero_weights_zero_vector(self):
        problem, _, space, cons, u, _ = poisson_setup(n=2, degree=1)
        J = RegionIntegral()
        c = frozen([J], u, u)   # identical values -> sign 0
        rhs = c.gradient(cons, u)
        assert np.all(rhs == 0.0)

    def test_gradient_is_weighted_member_sum_example1c(self, rng):
        fns = catalog("example1c")
        space = build_space(build_cheese().refine_uniform(1), 1)
        cons = build_constraints(space)
        u_h = space.function(0.5 + 0.2 * rng.normal(size=space.n_dofs))
        u_h2 = space.function(u_h.coeffs + 0.01 * rng.normal(size=space.n_dofs))
        c = frozen(fns, u_h, u_h2)
        rhs = c.gradient(cons, u_h)
        expected = sum(w * J.gradient(cons, u_h)
                       for w, J in zip(c.weights, fns))
        assert np.max(np.abs(rhs - expected)) \
            <= 1e-14 * np.max(np.abs(expected))

    def test_fd_of_weighted_sum(self, rng):
        problem, _, space, cons, u, _ = poisson_setup(n=3, degree=1)
        fns = [RegionIntegral(), PointValue((0.4, 0.4))]
        u2 = space.function(u.coeffs + 0.05 * rng.normal(size=space.n_dofs))
        c = frozen(fns, u, u2)
        rhs = c.gradient(cons, u)
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
        c1 = frozen(fns, u_h, u_h2)
        c3 = frozen(fns, u_h, u_h2, omegas=[3.0] * 4)
        assert surrogate(c3) == pytest.approx(
            3.0 * surrogate(c1), rel=1e-14)
        r1 = c1.gradient(cons, u_h)
        r3 = c3.gradient(cons, u_h)
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
