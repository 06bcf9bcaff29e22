import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from goalfem.assembly import assemble_jacobian
from goalfem.errors import MeshMismatch, ZeroTrueError
from goalfem.estimator import (ADJOINT_CAP, EstimatorBreakdown,
                               adjoint_weighted_form, distribute_to_cells,
                               effectivity, estimate, fold_hanging,
                               primal_weighted_form, solve_enriched_adjoint,
                               transposed_jacobian)
from goalfem.fespace import (build_constraints, build_space, gauss,
                             interpolate_between)
from goalfem.goals import PointValue, RegionIntegral, Sum, catalog
from goalfem.linalg import factorize, max_norm
from goalfem.mesh import build_slit, build_unit_square
from goalfem.problems import PLaplaceParams, build_plaplace, build_quasilinear
from goalfem.solver import newton_solve

from conftest import linear_solve, mesh_marks, poisson_problem, refined_mesh


def dwr_poisson(mesh, r=1, r2=2, functional=None):
    """Solve primal/adjoint on both spaces and estimate."""
    problem = poisson_problem()
    J = functional or RegionIntegral()
    space, space2 = (build_space(mesh, degree, rule=gauss(r2 + 2))
                     for degree in (r, r2))
    cons = build_constraints(space, problem.dirichlet)
    cons2 = build_constraints(space2, problem.dirichlet)
    u, lu = linear_solve(problem, space, cons)
    u2, _ = linear_solve(problem, space2, cons2)
    z = space.function(cons.distribute(
        lu.solve(J.gradient(cons, u), transposed=True)))
    z2, _ = solve_enriched_adjoint(problem, J, cons2, u2)
    bd = estimate(problem, J, cons, u, z, u2, z2)
    return problem, J, u, u2, bd


class TestEnrichedAdjoint:
    def test_selfadjoint_matches_primal(self):
        # p=2 with J = int u: the adjoint problem is the primal problem
        problem = poisson_problem()
        mesh = build_unit_square(4)
        space2 = build_space(mesh, 2)
        cons2 = build_constraints(space2, problem.dirichlet)
        u2, _ = linear_solve(problem, space2, cons2)
        z2, _ = solve_enriched_adjoint(problem, RegionIntegral(), cons2, u2)
        assert np.allclose(z2.coeffs, u2.coeffs, atol=1e-12)

    def test_zero_functional_gradient(self):
        problem = poisson_problem()
        mesh = build_unit_square(2)
        space2 = build_space(mesh, 2)
        cons2 = build_constraints(space2, problem.dirichlet)
        u2, _ = linear_solve(problem, space2, cons2)
        z2, _ = solve_enriched_adjoint(problem, RegionIntegral(weight=0.0),
                                       cons2, u2)
        assert max_norm(z2.coeffs) <= 1e-14

    def test_adjoint_residual_replay(self):
        problem = poisson_problem()
        mesh = build_unit_square(3).refine([1])
        space2 = build_space(mesh, 2)
        cons2 = build_constraints(space2, problem.dirichlet)
        u2, _ = linear_solve(problem, space2, cons2)
        J = RegionIntegral()
        z2, _ = solve_enriched_adjoint(problem, J, cons2, u2)
        A = assemble_jacobian(problem, cons2, u2)
        rhs = J.gradient(cons2, u2)
        res = A.T @ z2.coeffs - rhs
        res[cons2.constrained] = 0.0
        assert max_norm(res) <= 1e-10 * (1 + max_norm(rhs))


def slit_q2(rng):
    """The slit system on a Q2 space with hanging nodes and Dirichlet
    rows, at a state one fresh Newton step from a perturbed solution:
    (problem, space, constraints, state, the Newton's last LU, stats)."""
    problem = build_quasilinear()
    mesh = build_slit().refine_uniform(1)
    mesh = mesh.refine(mesh.active_cells[:6])
    assert len(mesh.edges().hanging_face)
    space = build_space(mesh, 2, 3, gauss(4))
    cons = build_constraints(space, problem.dirichlet)
    u, _, _ = newton_solve(problem, cons,
                           space.function(np.ones(space.n_dofs)), 1e-8)
    start = u.coeffs + 1e-2 * rng.normal(size=space.n_dofs)
    u, lu, stats = newton_solve(problem, cons, space.function(start),
                                1e-2)
    return problem, space, cons, u, lu, stats


class TestMatrixFreeAdjoint:
    @pytest.mark.parametrize("system", ["slit", "plaplace"])
    def test_operator_is_the_transposed_jacobian(self, system, rng):
        if system == "slit":
            problem, space, cons, u, _, _ = slit_q2(rng)
        else:
            problem = build_plaplace(PLaplaceParams(
                4.0, 1e-2, rhs=lambda x, y: np.ones(np.shape(x))))
            mesh = build_unit_square(4).distort(0.2, seed=3)
            space = build_space(mesh.refine([0, 5]), 2, rule=gauss(4))
            cons = build_constraints(space, problem.dirichlet)
            u = space.function(cons.apply(rng.normal(size=space.n_dofs)))
        assert cons.constrained.any()
        A = assemble_jacobian(problem, cons, u).T
        apply = transposed_jacobian(problem, cons, u)
        for _ in range(3):
            y = rng.normal(size=space.n_dofs)
            want = A @ y
            assert max_norm(apply(y) - want) <= 1e-13 * max_norm(want)

    def test_newton_lu_gives_the_exact_adjoint(self, rng):
        problem, _, cons, u, lu, stats = slit_q2(rng)
        assert stats.rebuilds == [True]
        J = catalog("example2")[0]
        z, zstats = solve_enriched_adjoint(problem, J, cons, u, lu)
        exact, estats = solve_enriched_adjoint(problem, J, cons, u)
        assert not zstats.factorized and 0 < zstats.applications
        assert (estats.factorized, estats.applications) == (True, 0)
        assert max_norm(z.coeffs - exact.coeffs) \
            <= 1e-10 * max_norm(exact.coeffs)

    def test_stale_newton_lu_preconditions(self):
        # p = 4 on a Q2 space with hanging nodes: the Newton's last LU
        # was factorized two steps before u, and GMRES on it still meets
        # ADJOINT_ACCEPT within one capped cycle
        problem = build_plaplace(PLaplaceParams(
            4.0, 1.0, rhs=lambda x, y: np.ones(np.shape(x))))
        mesh = build_unit_square(2).refine([0])
        assert len(mesh.edges().hanging_face)
        space = build_space(mesh, 2, rule=gauss(4))
        cons = build_constraints(space, problem.dirichlet)
        u, lu, stats = newton_solve(
            problem, cons, space.function(np.ones(space.n_dofs)), 1e-3)
        assert stats.rebuilds[-2:] == [True, False]
        J = RegionIntegral()
        z, zstats = solve_enriched_adjoint(problem, J, cons, u, lu)
        exact, _ = solve_enriched_adjoint(problem, J, cons, u)
        assert not zstats.factorized
        assert zstats.applications <= ADJOINT_CAP + 2
        assert max_norm(z.coeffs - exact.coeffs) \
            <= 1e-9 * max_norm(exact.coeffs)

    def test_far_preconditioner_falls_back(self, rng):
        problem, space, cons, u, _, _ = slit_q2(rng)
        J = catalog("example2")[0]
        far = factorize(sp.identity(space.n_dofs))
        z, zstats = solve_enriched_adjoint(problem, J, cons, u, far)
        exact, _ = solve_enriched_adjoint(problem, J, cons, u)
        assert zstats.factorized
        # the capped GMRES, its own residual and the acceptance check
        assert zstats.applications == ADJOINT_CAP + 2
        assert np.array_equal(z.coeffs, exact.coeffs)

    def test_zero_functional_gradient_with_lu(self):
        problem = poisson_problem()
        space2 = build_space(build_unit_square(2), 2)
        cons2 = build_constraints(space2, problem.dirichlet)
        u2, lu = linear_solve(problem, space2, cons2)
        z2, zstats = solve_enriched_adjoint(
            problem, RegionIntegral(weight=0.0), cons2, u2, lu)
        assert not z2.coeffs.any()
        assert (zstats.applications, zstats.factorized) == (0, False)


def check_pu_sums(mesh, system, seed):
    """For random states and weights: the vertex shares of both weighted
    forms sum to their globals, and folding the hanging vertices zeroes
    them and keeps the sum."""
    if system:
        problem, n_comp = build_quasilinear(), 3
    else:
        problem, n_comp = build_plaplace(PLaplaceParams(
            4.0, 0.5, rhs=lambda x, y: np.cos(x - 2.0 * y))), 1
    space, space2 = (build_space(mesh, r, n_comp, gauss(4)) for r in (1, 2))
    rng = np.random.default_rng(seed)
    u, z = (space.function(0.5 * rng.normal(size=space.n_dofs))
            for _ in range(2))
    w = space2.function(rng.normal(size=space2.n_dofs))
    x0 = mesh.points[mesh.cell_verts[mesh.active_cells[0]]].mean(axis=0)
    J = Sum([RegionIntegral(), PointValue(x0, component=n_comp - 1)])
    for nodal, total in (primal_weighted_form(problem, u, w),
                         adjoint_weighted_form(problem, J, u, z, w)):
        scale = np.abs(nodal).sum()
        assert abs(nodal.sum() - total) <= 1e-12 * scale
        folded = fold_hanging(mesh, nodal)
        assert abs(folded.sum() - nodal.sum()) <= 1e-12 * scale
        assert np.all(folded[mesh.edges().hanging_mid] == 0.0)


class TestEstimate:
    @pytest.mark.parametrize("mesh_marks", [None, [0], [0, 3]])
    def test_linear_exactness(self, mesh_marks):
        mesh = build_unit_square(4)
        if mesh_marks:
            mesh = mesh.refine(mesh_marks)
        _, J, u, u2, bd = dwr_poisson(mesh)
        dJ = J.value(u2) - J.value(u)
        assert bd.eta_signed == pytest.approx(dJ, rel=1e-10)

    def test_rules_must_agree(self):
        # coarse and enriched functions meet under one integral
        problem = poisson_problem()
        mesh = build_unit_square(2)
        space, space2 = build_space(mesh, 1), build_space(mesh, 2)
        assert space.rule.n != space2.rule.n
        u, u2 = space.function(), space2.function()
        with pytest.raises(MeshMismatch, match="rule"):
            estimate(problem, RegionIntegral(), build_constraints(space),
                     u, u, u2, u2)

    def test_primal_equals_adjoint_for_selfadjoint_goal(self):
        _, _, _, _, bd = dwr_poisson(build_unit_square(4))
        assert bd.eta_primal_signed == pytest.approx(
            bd.eta_adjoint_signed, rel=1e-8)

    @given(case=mesh_marks, system=st.booleans(),
           seed=st.integers(0, 2 ** 16))
    @settings(max_examples=25, deadline=None)
    def test_pu_sum_matches_global(self, case, system, seed):
        check_pu_sums(refined_mesh(*case), system, seed)

    @pytest.mark.parametrize("system", [False, True])
    def test_pu_sum_matches_global_above_4096_cells(self, system):
        # the whole-mesh localization on 5,190 cells, hanging vertices
        # included
        mesh = build_unit_square(72).refine([0, 100])
        assert len(mesh.active_cells) > 4096
        assert mesh.edges().hanging_face.size
        check_pu_sums(mesh, system, seed=1)

    def test_cell_distribution_conserves(self):
        _, _, _, _, bd = dwr_poisson(build_unit_square(4).refine([5]))
        assert bd.cellwise.sum() == pytest.approx(
            np.abs(bd.nodal).sum(), rel=1e-12)

    def test_cubic_benchmark_level_one(self):
        # cubic space on the 4x4 start against the sixth-order enrichment
        mesh = build_unit_square(4)
        _, J, u, u2, bd = dwr_poisson(mesh, r=3, r2=6)
        ref = 0.03514425375
        err = abs(ref - J.value(u))
        assert err == pytest.approx(8.51e-7, rel=0.1)
        assert bd.eta_h == pytest.approx(8.47e-7, rel=0.2)
        ieff, _, _ = effectivity(err, bd)
        assert 0.8 <= ieff <= 1.2


class TestCoarseInterpolant:
    @pytest.mark.parametrize("kind, r, r2", [("slit", 1, 2),
                                             ("cheese", 1, 2),
                                             ("cheese", 2, 3)])
    def test_distribute_matches_hanging_only_projection(self, kind, r, r2,
                                                        rng):
        # estimate forms i_h z2 with the level's constraint set, whose
        # Dirichlet rows are empty; for z2 extended by the enriched
        # constraints that equals projecting onto the hanging constraints
        # alone, bit for bit
        if kind == "slit":
            problem, n_comp = build_quasilinear(), 3
        else:
            problem, n_comp = build_plaplace(PLaplaceParams(4.0, 1e-2)), 1
        mesh = refined_mesh(kind, [[0.1, 0.5, 0.9], [0.3, 0.7], [0.2, 0.6]])
        assert mesh.edges().hanging_face.size
        space, space2 = build_space(mesh, r, n_comp), build_space(mesh, r2,
                                                                  n_comp)
        cons = build_constraints(space, problem.dirichlet)
        cons2 = build_constraints(space2, problem.dirichlet)
        hanging_only = build_constraints(space)
        for _ in range(3):
            z2 = space2.function(cons2.distribute(
                rng.normal(size=space2.n_dofs)))
            nodal = interpolate_between(z2, space).coeffs
            assert np.array_equal(cons.distribute(nodal),
                                  hanging_only.apply(nodal))


class TestDistribution:
    def test_interior_vertex_quarters(self):
        mesh = build_unit_square(2)
        nodal = np.zeros(mesh.n_points)
        # the single interior vertex of the 2x2 mesh touches 4 cells
        counts = np.zeros(mesh.n_points)
        np.add.at(counts, mesh.cell_verts[mesh.active_cells], 1)
        center = int(np.flatnonzero(counts == 4)[0])
        nodal[center] = 2.0
        cellwise = distribute_to_cells(nodal, mesh)
        assert np.allclose(cellwise, 0.5)

    def test_corner_vertex_full(self):
        mesh = build_unit_square(1)
        nodal = np.zeros(mesh.n_points)
        nodal[mesh.cell_verts[0][0]] = -3.0
        cellwise = distribute_to_cells(nodal, mesh)
        assert cellwise[0] == pytest.approx(3.0)

    def test_fold_hanging_preserves_sum(self, rng):
        mesh = build_unit_square(2).refine([0])
        nodal = rng.normal(size=mesh.n_points)
        folded = fold_hanging(mesh, nodal)
        assert folded.sum() == pytest.approx(nodal.sum(), rel=1e-14)
        assert np.all(folded[mesh.edges().hanging_mid] == 0.0)


class TestEffectivity:
    def test_surrogate_truth_is_exact(self):
        _, J, u, u2, bd = dwr_poisson(build_unit_square(4))
        ieff, _, _ = effectivity(J.value(u2) - J.value(u), bd)
        assert ieff == pytest.approx(1.0, rel=1e-9)

    def test_triangle_inequality(self):
        _, _, _, _, bd = dwr_poisson(build_unit_square(3).refine([1]),
                                     functional=PointValue((0.3, 0.8)))
        ieff, ieffp, ieffa = effectivity(1e-4, bd)
        assert ieff <= 0.5 * (ieffp + ieffa) + 1e-12

    def test_zero_error_raises(self):
        bd = EstimatorBreakdown(0.5, 0.5, np.zeros(1), np.zeros(1))
        with pytest.raises(ZeroTrueError):
            effectivity(0.0, bd)

    def test_parts_drop_the_halves(self):
        bd = EstimatorBreakdown(0.1, 0.2, np.zeros(1), np.zeros(1))
        ieff, ieffp, ieffa = effectivity(0.3, bd)
        assert ieff == pytest.approx(1.0)
        assert ieffp == pytest.approx(0.2 / 0.3)
        assert ieffa == pytest.approx(0.4 / 0.3)


class TestNonlinearEstimate:
    def test_p4_surrogate_gap_moderate(self):
        # enriched-surrogate truth: the signed estimator tracks
        # J(u2) - J(u_h) within 50% once the mesh resolves the problem
        from goalfem.solver import newton_solve

        problem = build_plaplace(PLaplaceParams(
            4.0, 1.0, rhs=lambda x, y: np.ones(np.shape(x))))
        J = RegionIntegral()
        mesh = build_unit_square(8)
        space, space2 = (build_space(mesh, r, rule=gauss(4)) for r in (1, 2))
        cons = build_constraints(space, problem.dirichlet)
        cons2 = build_constraints(space2, problem.dirichlet)
        u, _, _ = newton_solve(problem, cons,
                               space.function(np.ones(space.n_dofs)), 1e-10)
        u2, _, _ = newton_solve(problem, cons2,
                                space2.function(np.ones(space2.n_dofs)),
                                1e-10)
        A = assemble_jacobian(problem, cons, u)
        z = space.function(cons.distribute(factorize(A).solve(
            J.gradient(cons, u), transposed=True)))
        z2, _ = solve_enriched_adjoint(problem, J, cons2, u2)
        bd = estimate(problem, J, cons, u, z, u2, z2)
        gap = J.value(u2) - J.value(u)
        assert abs(bd.eta_signed - gap) / abs(gap) <= 0.5
