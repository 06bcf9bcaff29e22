"""Acceptance suite: one test per criterion, each printing a pass line.

Expensive experiment runs are cached at module scope and shared between
criteria (the PU-consistency check inspects every estimator call made by
the quantitative runs).  Stated runtime budgets are asserted as well.
"""

import dataclasses
import math
import time

import numpy as np
import pytest

from goalfem.adaptivity import (fit_rate, run_adaptive, run_uniform,
                                uniform_reference)
from goalfem.assembly import gauss, assemble_jacobian, assemble_residual
from goalfem.estimator import effectivity, estimate, solve_enriched_adjoint
from goalfem.fespace import build_constraints, build_space
from goalfem.goals import RegionIntegral, catalog
from goalfem.linalg import factorize
from goalfem.mesh import build_cheese, build_slit, build_unit_square
from goalfem.multigoal import CombinedFunctional, member_values
from goalfem.presets import get_preset
from goalfem.problems import PLaplaceParams, build_plaplace, build_quasilinear

from conftest import linear_solve, poisson_problem

_cache = {}
_pu_observations = []       # (eta_signed, pu_sum, nodal_abs_sum, cell_sum)


def _observe(level, mesh, u_h, breakdown):
    _pu_observations.append((breakdown.eta_signed, breakdown.pu_sum,
                             float(np.abs(breakdown.nodal).sum()),
                             float(breakdown.cellwise.sum())))


def _cached(key, maker):
    if key not in _cache:
        t0 = time.perf_counter()
        _cache[key] = maker()
        _cache[key + "_wall"] = time.perf_counter() - t0
    return _cache[key]


def run_c2():
    cfg = dataclasses.replace(get_preset("example1a_case1"), max_levels=4)
    return run_adaptive(cfg, on_level=_observe)


def run_c3():
    cfg = dataclasses.replace(get_preset("example1a_case2"), max_levels=5)
    records = run_adaptive(cfg, on_level=_observe)
    reference = uniform_reference(cfg, 7)
    return records, reference


def run_c7():
    cfg = dataclasses.replace(get_preset("example2"),
                              max_levels=26, max_dofs=60_000)
    adaptive = run_adaptive(cfg, on_level=_observe)
    uniform = run_uniform(dataclasses.replace(cfg, max_levels=8),
                          on_level=_observe)
    return adaptive, uniform


def run_c8():
    cfg = get_preset("example1c_case1")   # 8 levels
    adaptive = run_adaptive(cfg)
    fixed = run_adaptive(dataclasses.replace(cfg, newton_mode="fixed"))
    return adaptive, fixed


def run_c9(case):
    cfg = dataclasses.replace(get_preset(f"example1b_{case}"),
                              max_levels=11, max_dofs=25_000)
    adaptive = run_adaptive(cfg)
    uniform = run_uniform(dataclasses.replace(cfg, max_levels=6,
                                              max_dofs=70_000))
    return adaptive, uniform


def test_criterion_1_poisson_exactness():
    """p=2, J = int u: signed estimator equals J(u2) - J(uh) to 1e-10
    relative; primal part equals adjoint part to 1e-8 relative."""
    problem = poisson_problem()
    J = RegionIntegral()
    # configurations keep J(u2) - J(uh) well above the float floor so the
    # 1e-10 relative budget is meaningful (the identity holds to ~1 ulp)
    setups = [
        (build_unit_square(4), 1, 2),
        (build_unit_square(4).refine([0, 5]), 1, 2),          # hanging nodes
        (build_unit_square(2), 2, 3),
        (build_unit_square(4).refine([1]).refine([3]), 1, 2),  # two levels
    ]
    for mesh, r, r2 in setups:
        quad = gauss(r2 + 2)
        space, space2 = build_space(mesh, r), build_space(mesh, r2)
        cons = build_constraints(space, problem.dirichlet)
        cons2 = build_constraints(space2, problem.dirichlet)
        u, lu = linear_solve(problem, space, cons, quad)
        u2, _ = linear_solve(problem, space2, cons2, quad)
        z = space.function(cons.distribute(lu.solve(
            J.gradient(space, cons, u, quad), transposed=True)))
        z2 = solve_enriched_adjoint(problem, J, space2, cons2, u2, quad)
        bd = estimate(problem, J, u, z, u2, z2, quad)
        gap = J.value(u2) - J.value(u)
        assert abs(bd.eta_signed - gap) <= 1e-10 * abs(gap)
        assert abs(bd.eta_primal_signed - bd.eta_adjoint_signed) \
            <= 1e-8 * abs(bd.eta_signed)
    print("\n[PASS] criterion 1: Poisson exactness and primal/adjoint "
          "symmetry on 4 meshes")


def test_criterion_2_cubic_benchmark():
    """Q3/Q6 on the 4x4 start: level-1 DOFs 169, error within 10% of
    8.51e-7, I_eff in [0.9, 1.1]; next 3 levels I_eff in [0.6, 1.6]."""
    records = _cached("c2", run_c2)
    wall = _cache["c2_wall"]
    ref = 0.03514425375
    first = records[0]
    assert first.n_dofs == 169
    err1 = abs(ref - first.values[0])
    assert abs(err1 - 8.51e-7) <= 0.1 * 8.51e-7
    assert 0.9 <= first.eta_h / err1 <= 1.1
    for rec in records[1:4]:
        err = abs(ref - rec.values[0])
        assert 0.6 <= rec.eta_h / err <= 1.6
    assert wall < 120.0
    print(f"\n[PASS] criterion 2: cubic benchmark level 1 (169 DOFs, "
          f"err {err1:.3e}, I_eff {first.eta_h / err1:.3f}) "
          f"+ 3 levels in bands ({wall:.0f}s)")


def test_criterion_3_p4_band():
    """p=4, eps=1, Q1/Q2: DOF sequence 9..1089, effectivity bands on
    levels 1-5, in-run uniform reference within 1e-4 of the published
    value."""
    from goalfem.estimator import EstimatorBreakdown

    records, reference = _cached("c3", run_c3)
    wall = _cache["c3_wall"]
    assert [r.n_dofs for r in records[:5]] == [9, 25, 81, 289, 1089]
    assert abs(reference[0] - 0.033553988572) <= 1e-4
    for rec in records[:5]:
        err = abs(reference[0] - rec.values[0])
        bd = EstimatorBreakdown(rec.eta_primal + rec.eta_adjoint,
                                rec.eta_primal, rec.eta_adjoint,
                                np.zeros(1), np.zeros(1))
        i_eff, i_effp, i_effa = effectivity(err, bd)
        assert 0.9 <= i_eff <= 1.2
        assert 0.85 <= i_effp <= 1.1
        assert 0.95 <= i_effa <= 1.25
    assert wall < 300.0
    print(f"\n[PASS] criterion 3: DOF sequence {[r.n_dofs for r in records[:5]]}, "
          f"reference {reference[0]:.9f}, bands hold ({wall:.0f}s)")


def test_criterion_4_weighted_gap_identity():
    """Combined error value equals sum(w_i (J_i(u2) - J_i(uh))) to 1e-14
    relative for random states, Example 1c and 2 catalogs."""
    rng = np.random.default_rng(7)
    cases = [
        ("example1c", build_space(build_cheese().refine_uniform(1), 1)),
        ("example2", build_space(build_slit().refine_uniform(2), 1, 3)),
    ]
    checked = 0
    for name, space in cases:
        fns = catalog(name)
        for _ in range(5):
            u_h = space.function(0.5 + 0.2 * rng.normal(size=space.n_dofs))
            u_h2 = space.function(
                u_h.coeffs + 0.01 * rng.normal(size=space.n_dofs))
            c = CombinedFunctional(fns, member_values(fns, u_h),
                                   member_values(fns, u_h2))
            lhs = c.combined_error_value()
            rhs = float(np.sum(c.weights * (c.values_h2 - c.values_h)))
            assert abs(lhs - rhs) <= 1e-14 * abs(lhs)
            checked += 1
    print(f"\n[PASS] criterion 4: weighted-gap identity to 1e-14 on "
          f"{checked} random states")


def test_criterion_5_pu_consistency():
    """Sum(eta_i) matches the global signed estimator to 1e-12 relative,
    and sum(eta_K) = sum|eta_i| to 1e-12 relative, on every estimator
    call made by criteria 2, 3 and 7."""
    _cached("c2", run_c2)
    _cached("c3", run_c3)
    _cached("c7", run_c7)
    assert len(_pu_observations) >= 10
    for eta_signed, pu_sum, nodal_abs, cell_sum in _pu_observations:
        assert abs(pu_sum - eta_signed) <= 1e-12 * abs(eta_signed)
        assert abs(cell_sum - nodal_abs) <= 1e-12 * abs(nodal_abs)
    print(f"\n[PASS] criterion 5: PU consistency on "
          f"{len(_pu_observations)} estimator calls")


def test_criterion_6_jacobian_and_derivative_fd():
    """Assembled Jacobian action and every catalog functional derivative
    match central finite differences to 1e-6 relative at 5 random
    states, p in {1.5, 4, 5} and the quasilinear system."""
    rng = np.random.default_rng(11)

    def check_problem(problem, space, scale=1.0):
        cons = build_constraints(space, problem.dirichlet)
        quad = gauss(space.degree + 2)
        free = ~cons.constrained
        for _ in range(5):
            u = space.function(cons.apply(scale * rng.normal(size=space.n_dofs)))
            d = cons.distribute(rng.normal(size=space.n_dofs))
            A = assemble_jacobian(problem, space, cons, u, quad)
            h = 1e-6 * (1 + np.abs(u.coeffs).max())
            fd = (assemble_residual(problem, space, cons,
                                    space.function(u.coeffs + h * d), quad)
                  - assemble_residual(problem, space, cons,
                                      space.function(u.coeffs - h * d),
                                      quad)) / (2 * h)
            err = np.max(np.abs((A @ d - fd)[free]))
            assert err <= 1e-6 * (1 + np.abs(fd).max())

    mesh = build_unit_square(3).refine([0])
    for p in (1.5, 4.0, 5.0):
        problem = build_plaplace(PLaplaceParams(
            p, 0.8, rhs=lambda x, y: np.ones(np.shape(x))))
        check_problem(problem, build_space(mesh, 1))
    qmesh = build_slit().refine_uniform(1)
    check_problem(build_quasilinear(), build_space(qmesh, 1, 3), scale=0.4)

    checked = 0
    for name, space in (
            ("example1a", build_space(build_unit_square(3), 1)),
            ("example1b", build_space(build_unit_square(3), 1)),
            ("example1c", build_space(build_cheese().refine_uniform(1), 1)),
            ("example2", build_space(build_slit().refine_uniform(2), 1, 3))):
        cons = build_constraints(space)
        for J in catalog(name):
            for _ in range(5):
                u = space.function(0.6 + 0.2 * rng.normal(size=space.n_dofs))
                v = rng.normal(size=space.n_dofs)
                h = 1e-6
                fd = (J.value(space.function(u.coeffs + h * v))
                      - J.value(space.function(u.coeffs - h * v))) / (2 * h)
                an = J.directional(u, space.function(v))
                assert abs(an - fd) <= 1e-6 * (1 + abs(J.value(u)))
                checked += 1
    print(f"\n[PASS] criterion 6: FD consistency (4 kernels, "
          f"{checked} functional-derivative checks)")


def test_criterion_7_example2_adaptive_vs_uniform():
    """Slit system to <= 60k DOFs: adaptive J_1 relative error <= 2e-2 at
    the first level with >= 2.5k DOFs; adaptive slope <= -0.8; uniform
    slope in [-0.65, -0.35]."""
    adaptive, uniform = _cached("c7", run_c7)
    wall = _cache["c7_wall"]
    first_big = next(r for r in adaptive if r.n_dofs >= 2500)
    assert first_big.rel_errors[0] <= 2e-2
    slope_a = fit_rate([r.n_dofs for r in adaptive],
                       [r.rel_errors[0] for r in adaptive])
    slope_u = fit_rate([r.n_dofs for r in uniform],
                       [r.rel_errors[0] for r in uniform])
    assert slope_a <= -0.8
    assert -0.65 <= slope_u <= -0.35
    assert wall < 900.0
    print(f"\n[PASS] criterion 7: J_1 rel err {first_big.rel_errors[0]:.3e} "
          f"at {first_big.n_dofs} DOFs; slopes adaptive {slope_a:.2f} / "
          f"uniform {slope_u:.2f} ({wall:.0f}s)")


def test_criterion_8_adaptive_newton_balance():
    """Cheese p=4, eps=1e-10 through level 8: balanced Newton needs
    <= 0.9x the steps of the fixed 1e-8 variant; every level ends with
    eta_m <= 1e-2 eta_h^{l-1}; I_eff in [0.3, 4.0]."""
    adaptive, fixed = _cached("c8", run_c8)
    wall = _cache["c8_wall"]
    total_adaptive = sum(r.newton_steps for r in adaptive)
    total_fixed = sum(r.newton_steps for r in fixed)
    assert total_adaptive <= 0.9 * total_fixed
    eta_prev = 1e-8
    for rec in adaptive:
        assert rec.eta_m <= 1e-2 * eta_prev
        assert 0.3 <= rec.i_eff <= 4.0
        eta_prev = rec.eta_h
    assert wall < 900.0
    print(f"\n[PASS] criterion 8: Newton steps {total_adaptive} (balanced) "
          f"vs {total_fixed} (fixed), balance and I_eff bands hold "
          f"({wall:.0f}s)")


@pytest.mark.parametrize("case", ["case1", "case2"])
def test_criterion_9_semiregular(case):
    """Distorted-mesh manufactured runs (p=5 and p=1.5): adaptive and
    uniform point-error slopes <= -0.8; adaptive needs fewer DOFs at
    equal error on >= 70% of comparable levels."""
    adaptive, uniform = _cached(f"c9_{case}", lambda: run_c9(case))
    wall = _cache[f"c9_{case}_wall"]
    slope_a = fit_rate([r.n_dofs for r in adaptive],
                       [r.je_error for r in adaptive],
                       min_levels=len(adaptive))
    slope_u = fit_rate([r.n_dofs for r in uniform],
                       [r.je_error for r in uniform],
                       min_levels=len(uniform))
    assert slope_a <= -0.8
    assert slope_u <= -0.8

    # envelope comparison: uniform DOFs needed to reach each adaptive error
    run_min = np.minimum.accumulate([r.je_error for r in uniform])
    wins = comparable = 0
    for rec in adaptive:
        needed = None
        for dofs, err in zip([r.n_dofs for r in uniform], run_min):
            if err <= rec.je_error:
                needed = dofs
                break
        if needed is None:
            continue
        comparable += 1
        if rec.n_dofs <= needed:
            wins += 1
    assert comparable >= 3
    assert wins >= 0.7 * comparable
    assert wall < 600.0
    print(f"\n[PASS] criterion 9 ({case}): slopes adaptive {slope_a:.2f} / "
          f"uniform {slope_u:.2f}; adaptive cheaper on {wins}/{comparable} "
          f"levels ({wall:.0f}s)")
