import weakref

import numpy as np
import pytest

import goalfem.solver as sv
from goalfem.assembly import assemble_residual
from goalfem.errors import IterationCap, LineSearchExhausted
from goalfem.fespace import build_constraints, build_space
from goalfem.goals import RegionIntegral
from goalfem.linalg import max_norm
from goalfem.mesh import build_unit_square
from goalfem.problems import PLaplaceParams, build_plaplace
from goalfem.solver import (acceptance_factor, adaptive_newton_multigoal,
                            line_search, nested_tolerance, newton_solve)

from conftest import linear_solve, poisson_problem


def ones(space):
    """The all-ones cold start; the Newton drivers project it."""
    return space.function(np.ones(space.n_dofs))


def _recording_factorize(monkeypatch):
    """The list of every LU the solver makes from now on, in order."""
    made = []

    def factorize(A, real=sv.factorize):
        made.append(real(A))
        return made[-1]

    monkeypatch.setattr(sv, "factorize", factorize)
    return made


def p4_problem():
    return build_plaplace(PLaplaceParams(
        4.0, 1.0, rhs=lambda x, y: np.ones(np.shape(x))))


class TestAcceptanceSchedule:
    def test_pinned_values(self):
        assert acceptance_factor(0) == 0.8
        assert acceptance_factor(1) == 0.888
        assert sv.L_MAX == 200
        assert acceptance_factor(5) == pytest.approx(
            0.888 + 0.112 * np.sqrt(6 / 200))

    def test_below_one_until_cap(self):
        for L in range(sv.L_MAX - 1):
            assert acceptance_factor(L) < 1.0


class TestNestedTolerance:
    def test_level_one(self):
        assert nested_tolerance(1) == 1e-8

    def test_later_levels(self):
        assert nested_tolerance(3) == 1e-2

    def test_zero_incoming(self, monkeypatch):
        # a start with a zero residual meets any relative tolerance; the
        # LU handed back is the one factorization, made at the start
        made = _recording_factorize(monkeypatch)
        problem = build_plaplace(PLaplaceParams(3.0, 1.0))
        space = build_space(build_unit_square(2), 1)
        cons = build_constraints(space, problem.dirichlet)
        u0 = space.function(np.zeros(space.n_dofs))
        u, lu, stats = newton_solve(problem, cons, u0,
                                    nested_tolerance(2))
        assert len(made) == 1
        assert lu is made[0]
        assert stats.residual_norms == [0.0]
        assert (stats.iterations, stats.termination) == (0, "tolerance")
        assert np.array_equal(u.coeffs, u0.coeffs)

    def test_invalid_level(self):
        with pytest.raises(ValueError):
            nested_tolerance(0)


class TestNewton:
    def test_linear_problem_single_iteration(self):
        problem = poisson_problem()
        space = build_space(build_unit_square(3), 1)
        cons = build_constraints(space, problem.dirichlet)
        u0 = ones(space)
        u, _, stats = newton_solve(problem, cons, u0, 1e-8)
        assert stats.iterations == 1
        assert stats.alphas == [1.0]

    @pytest.mark.parametrize("p, n, rtol, last_rebuilt", [
        (2.0, 3, 1e-8, True),      # the linear problem: one fresh step
        (4.0, 4, 1e-4, True),      # a late rebuild makes the last step
        (4.0, 2, 1e-8, False)])    # fast contraction reuses to the end
    def test_last_factorization_handed_back(self, monkeypatch, p, n, rtol,
                                            last_rebuilt):
        # the loop's last LU comes back whatever its age
        made = _recording_factorize(monkeypatch)
        problem = build_plaplace(PLaplaceParams(
            p, 1.0, rhs=lambda x, y: np.ones(np.shape(x))))
        space = build_space(build_unit_square(n), 1)
        cons = build_constraints(space, problem.dirichlet)
        _, lu, stats = newton_solve(problem, cons, ones(space), rtol)
        assert stats.rebuilds[-1] == last_rebuilt
        assert len(made) == sum(stats.rebuilds)
        assert lu is made[-1]

    @pytest.mark.parametrize("p, n, eta_prev", [
        (2.0, 3, 1e-8),            # the linear problem: one fresh step
        (4.0, 4, 1e-6)])           # stale steps and late rebuilds
    def test_balanced_rebuilds_count_every_factorization(
            self, monkeypatch, p, n, eta_prev):
        # the start's factorization is step 0's LU, fresh at its iterate
        made = _recording_factorize(monkeypatch)
        problem = build_plaplace(PLaplaceParams(
            p, 1.0, rhs=lambda x, y: np.ones(np.shape(x))))
        space = build_space(build_unit_square(n), 1)
        cons = build_constraints(space, problem.dirichlet)
        J = RegionIntegral()
        lines = []
        _, _, stats = adaptive_newton_multigoal(
            problem, cons, ones(space), eta_prev,
            lambda u_k: J.gradient(cons, u_k), log=lines.append)
        assert len(made) == sum(stats.rebuilds)
        assert stats.iterations == len(lines) >= 1
        assert stats.rebuilds[0] is True
        assert lines[0].startswith("  newton k=1 ")
        assert " rebuilt=True eta_m=" in lines[0]

    def test_tolerance_postcondition(self):
        problem = p4_problem()
        space = build_space(build_unit_square(2), 1)
        cons = build_constraints(space, problem.dirichlet)
        u0 = space.function(cons.apply(np.ones(space.n_dofs)))
        u, _, stats = newton_solve(problem, cons, u0, 1e-8)
        # the tolerance is relative to the start's residual, which the
        # loop assembles itself
        n0 = max_norm(assemble_residual(problem, cons, u0))
        assert stats.residual_norms[0] == n0
        replay = assemble_residual(problem, cons, u)
        assert max_norm(replay) <= 1e-8 * n0

    def test_p4_iteration_count(self):
        # with the 0.85 reuse heuristic the frozen Jacobian contracts
        # linearly (~0.43/step) on this configuration; the measured count
        # is stable at 25 (see the Newton stats rebuild trail)
        problem = p4_problem()
        space = build_space(build_unit_square(2), 1)
        cons = build_constraints(space, problem.dirichlet)
        u0 = ones(space)
        u, _, stats = newton_solve(problem, cons, u0, 1e-8)
        assert stats.iterations <= 30
        assert sum(stats.rebuilds) < stats.iterations  # reuse happened

    def test_accepted_steps_contract(self):
        problem = p4_problem()
        space = build_space(build_unit_square(2), 1)
        cons = build_constraints(space, problem.dirichlet)
        u0 = ones(space)
        _, _, stats = newton_solve(problem, cons, u0, 1e-6)
        norms = stats.residual_norms
        assert all(b < a for a, b in zip(norms, norms[1:]))

    def test_quadratic_convergence_with_fresh_jacobians(self):
        # near the solution, |A^{k+1}| / |A^k|^2 stays bounded when the
        # Jacobian is rebuilt (gamma close to one keeps full steps)
        problem = p4_problem()
        space = build_space(build_unit_square(4), 1)
        cons = build_constraints(space, problem.dirichlet)
        old = sv.REBUILD_RATIO
        sv.REBUILD_RATIO = -1.0    # rebuild every step
        try:
            u0 = ones(space)
            _, _, stats = newton_solve(problem, cons, u0, 1e-12)
        finally:
            sv.REBUILD_RATIO = old
        # ignore iterates at the roundoff floor
        n0 = stats.residual_norms[0]
        norms = [n for n in stats.residual_norms if n > 1e-13 * n0]
        tail = norms[-4:]
        assert len(tail) >= 3
        for a, b in zip(tail, tail[1:]):
            assert b / a ** 2 <= 1e3

    def test_determinism(self):
        problem = p4_problem()
        space = build_space(build_unit_square(2), 1)
        cons = build_constraints(space, problem.dirichlet)
        u0 = ones(space)
        u1, _, s1 = newton_solve(problem, cons, u0, 1e-8)
        u2, _, s2 = newton_solve(problem, cons, u0, 1e-8)
        assert np.array_equal(u1.coeffs, u2.coeffs)
        assert s1.residual_norms == s2.residual_norms
        assert s1.alphas == s2.alphas


    def test_iterates_freed_after_the_next_step(self, monkeypatch):
        # trials on the ray keep no reference to the iterate they start
        # from, so the iterates do not chain up in memory
        problem = p4_problem()
        space = build_space(build_unit_square(4), 1)
        cons = build_constraints(space, problem.dirichlet)
        u0 = ones(space)
        starts, accepted, dead = [], [], []
        original = sv.line_search

        def recording(*args, **kwargs):
            starts.append(weakref.ref(args[2]))
            out = original(*args, **kwargs)
            accepted.append(weakref.ref(out[2]))
            return out

        def log(line):
            if len(accepted) == 2:
                dead.append([ref() is None for ref in starts[:1]
                             + accepted[:1]])

        monkeypatch.setattr(sv, "line_search", recording)
        _, _, stats = newton_solve(problem, cons, u0, 1e-8, log=log)
        assert stats.iterations > 2
        # the start and the first accepted iterate, after the second step
        assert dead == [[True, True]]


class TestLineSearch:
    def test_linear_accepts_full_step(self):
        problem = poisson_problem()
        space = build_space(build_unit_square(2), 1)
        cons = build_constraints(space, problem.dirichlet)
        from goalfem.assembly import assemble_jacobian
        from goalfem.linalg import factorize
        u = space.function(cons.apply(np.ones(space.n_dofs)))
        res = assemble_residual(problem, cons, u)
        lu = factorize(assemble_jacobian(problem, cons, u))
        delta = cons.distribute(lu.solve(-res))
        alpha, L, _, _, _ = line_search(problem, cons, u, delta,
                                        0.9,
                                        res_norm=max_norm(res))
        assert (alpha, L) == (1.0, 0)

    def test_zero_residual_precondition(self):
        problem = poisson_problem()
        space = build_space(build_unit_square(2), 1)
        cons = build_constraints(space, problem.dirichlet)
        u = ones(space)
        with pytest.raises(ValueError):
            line_search(problem, cons, u,
                        np.zeros(space.n_dofs), 0.9,
                        res_norm=0.0)


class TestAdaptiveNewton:
    def _setup(self, problem, n=3):
        space = build_space(build_unit_square(n), 1)
        cons = build_constraints(space, problem.dirichlet)
        J = RegionIntegral()

        def rhs(u_k):
            return J.gradient(cons, u_k)

        return space, cons, rhs

    def test_linear_problem_one_update(self):
        problem = poisson_problem()
        space, cons, rhs = self._setup(problem)
        u0 = ones(space)
        u, z, stats = adaptive_newton_multigoal(
            problem, cons, u0, eta_prev=1e-8, adjoint_rhs=rhs)
        assert stats.iterations == 1
        assert stats.termination == "balanced"
        assert stats.eta_m[-1] <= 1e-10

    def test_balance_threshold_respected(self):
        problem = p4_problem()
        space, cons, rhs = self._setup(problem, n=2)
        u0 = ones(space)
        eta_prev = 1e-3
        u, z, stats = adaptive_newton_multigoal(
            problem, cons, u0, eta_prev=eta_prev, adjoint_rhs=rhs)
        assert stats.eta_m[-1] <= 1e-2 * eta_prev
        # looser target -> fewer Newton steps than a tight solve
        _, _, tight = adaptive_newton_multigoal(
            problem, cons, u0, eta_prev=1e-8, adjoint_rhs=rhs)
        assert stats.iterations < tight.iterations

    def test_fixed_mode_hits_absolute_tolerance(self):
        assert sv.FIXED_TOL == 1e-8
        problem = p4_problem()
        space, cons, rhs = self._setup(problem, n=2)
        u0 = ones(space)
        u, z, stats = adaptive_newton_multigoal(
            problem, cons, u0, eta_prev=1.0, adjoint_rhs=rhs,
            mode="fixed")
        assert stats.termination == "tolerance"
        assert stats.residual_norms[-1] <= 1e-8

    def test_residual_floor_ends_fixed_mode(self, monkeypatch):
        # FIXED_TOL = 0 is out of reach; the linear solve lands on roundoff
        monkeypatch.setattr(sv, "FIXED_TOL", 0.0)
        problem = poisson_problem()
        space, cons, rhs = self._setup(problem)
        u0 = ones(space)
        _, _, stats = adaptive_newton_multigoal(
            problem, cons, u0, eta_prev=1.0, adjoint_rhs=rhs,
            mode="fixed")
        assert stats.termination == "residual_floor"
        norms = stats.residual_norms
        assert norms[-1] <= 1e-14 * (1.0 + norms[0])

    def test_iteration_cap_carries_stats(self, monkeypatch):
        monkeypatch.setattr(sv, "ITERATION_CAP", 2)
        problem = p4_problem()
        space, cons, rhs = self._setup(problem, n=2)
        u0 = ones(space)
        lines = []
        with pytest.raises(IterationCap) as err:
            adaptive_newton_multigoal(problem, cons, u0, eta_prev=1e-8,
                                      adjoint_rhs=rhs, log=lines.append)
        stats = err.value.stats
        assert stats.iterations == 2
        # the capped step is logged before the loop raises
        assert [line.split()[1] for line in lines] == ["k=1", "k=2"]
        assert len(stats.eta_m) == len(stats.residual_norms) == 3
        assert stats.eta_m[-1] > 1e-10


class TestSharedNewtonLoop:
    def test_stale_direction_retried_with_fresh_jacobian(self, monkeypatch):
        # with a single damping trial some stale directions fail; the
        # retry rebuilds although the last step contracted well
        monkeypatch.setattr(sv, "L_MAX", 1)
        problem = p4_problem()
        space = build_space(build_unit_square(2), 1)
        cons = build_constraints(space, problem.dirichlet)
        u0 = ones(space)
        u, _, stats = newton_solve(problem, cons, u0, 1e-8)
        norms = stats.residual_norms
        tol = 1e-8 * norms[0]
        retried = [k for k in range(1, stats.iterations)
                   if stats.rebuilds[k]
                   and norms[k] / norms[k - 1] <= sv.REBUILD_RATIO]
        assert retried
        assert stats.termination == "tolerance"
        assert max_norm(assemble_residual(problem, cons, u)) <= tol

    def test_newton_cap_raises_iteration_cap(self, monkeypatch):
        # the tolerance stop hits the same cap, with the same error and
        # stats type as the balanced stop
        monkeypatch.setattr(sv, "ITERATION_CAP", 2)
        problem = p4_problem()
        space = build_space(build_unit_square(2), 1)
        cons = build_constraints(space, problem.dirichlet)
        u0 = ones(space)
        with pytest.raises(IterationCap) as err:
            newton_solve(problem, cons, u0, 1e-8)
        stats = err.value.stats
        assert isinstance(stats, sv.NewtonStats)
        assert stats.iterations == 2
        assert len(stats.residual_norms) == 3
        assert stats.eta_m == []

    def _near_solution(self, rng):
        """A Poisson iterate whose residual (~1e-12) sits between the
        residual floor and the stagnation threshold."""
        problem = poisson_problem()
        space = build_space(build_unit_square(3), 1)
        cons = build_constraints(space, problem.dirichlet)
        u, _ = linear_solve(problem, space, cons)
        kick = cons.distribute(1e-12 * rng.normal(size=space.n_dofs))
        return problem, space, cons, space.function(u.coeffs + kick)

    def _exhausted(self, monkeypatch):
        calls = []

        def never_accepts(*args, **kwargs):
            calls.append(1)
            raise LineSearchExhausted("no damping")

        monkeypatch.setattr(sv, "line_search", never_accepts)
        return calls

    def test_exhausted_search_near_solution_is_stagnation(self, rng,
                                                          monkeypatch):
        monkeypatch.setattr(sv, "FIXED_TOL", 0.0)
        problem, _, cons, u0 = self._near_solution(rng)
        calls = self._exhausted(monkeypatch)
        J = RegionIntegral()
        u, _, stats = adaptive_newton_multigoal(
            problem, cons, u0, eta_prev=1.0,
            adjoint_rhs=lambda u_k: J.gradient(cons, u_k), mode="fixed")
        assert stats.termination == "stagnation"
        assert stats.iterations == 0
        assert len(calls) == 1          # factorized at the start: no retry
        assert np.array_equal(u.coeffs, u0.coeffs)

    def test_exhausted_search_near_solution_is_stagnation_in_plain_newton(
            self, rng, monkeypatch):
        # the stagnation rule belongs to the shared loop, so the plain
        # driver ends there too instead of raising
        problem, _, cons, u0 = self._near_solution(rng)
        calls = self._exhausted(monkeypatch)
        u, _, stats = newton_solve(problem, cons, u0, 0.0)
        assert stats.termination == "stagnation"
        assert stats.iterations == 0
        assert len(calls) == 1          # the first step is already fresh
        assert np.array_equal(u.coeffs, u0.coeffs)

    def test_exhausted_search_far_from_solution_raises(self, monkeypatch):
        problem = p4_problem()
        space = build_space(build_unit_square(2), 1)
        cons = build_constraints(space, problem.dirichlet)
        J = RegionIntegral()
        calls = self._exhausted(monkeypatch)
        with pytest.raises(LineSearchExhausted):
            newton_solve(problem, cons, ones(space), 1e-8)
        assert len(calls) == 1          # the first step is already fresh
        calls.clear()
        with pytest.raises(LineSearchExhausted):
            adaptive_newton_multigoal(
                problem, cons, ones(space), eta_prev=1e-8,
                adjoint_rhs=lambda u_k: J.gradient(cons, u_k))
        assert len(calls) == 1          # factorized at the start: no retry

    def test_converged_start_ends_at_residual_floor(self, monkeypatch):
        # a start that is already a solution to roundoff cannot be cut
        # by any relative tolerance; the floor ends it with no step and
        # only the start's factorization
        problem = poisson_problem()
        space = build_space(build_unit_square(3), 1)
        cons = build_constraints(space, problem.dirichlet)
        u0, _ = linear_solve(problem, space, cons)
        n0 = max_norm(assemble_residual(problem, cons, u0))
        assert 0.0 < n0 <= sv.RESIDUAL_FLOOR
        made = _recording_factorize(monkeypatch)
        u, lu, stats = newton_solve(problem, cons, u0, 1e-2)
        assert len(made) == 1
        assert lu is made[0]
        assert stats.rebuilds == []
        assert (stats.iterations, stats.termination) == (0, "residual_floor")
        assert stats.residual_norms == [n0]
        assert np.array_equal(u.coeffs, u0.coeffs)

    def test_unprojected_start_gives_the_projected_result(self, rng):
        # the loop projects the start itself: a start off the constraints
        # (Dirichlet and hanging values) solves bitwise as its projection
        problem = p4_problem()
        mesh = build_unit_square(2)
        mesh = mesh.refine(mesh.active_cells[:1])
        space = build_space(mesh, 1)
        cons = build_constraints(space, problem.dirichlet)
        J = RegionIntegral()
        raw = 1.0 + 0.1 * rng.normal(size=space.n_dofs)
        projected = cons.apply(raw)
        assert not np.array_equal(raw, projected)
        starts = [space.function(raw), space.function(projected)]
        plain = [newton_solve(problem, cons, u0, 1e-8)[::2]
                 for u0 in starts]
        balanced = [adaptive_newton_multigoal(
            problem, cons, u0, eta_prev=1e-6,
            adjoint_rhs=lambda u_k: J.gradient(cons, u_k))
            for u0 in starts]
        for (a, sa), (b, sb) in (plain, [r[::2] for r in balanced]):
            assert np.array_equal(a.coeffs, b.coeffs)
            assert sa == sb
        assert np.array_equal(balanced[0][1].coeffs, balanced[1][1].coeffs)
