import dataclasses
import math
import weakref

import numpy as np
import pytest

from goalfem import adaptivity
from goalfem.adaptivity import (RunConfig, build_geometry, fit_rate,
                                mark_average, read_csv, run_adaptive,
                                run_uniform, uniform_reference, write_csv,
                                write_gnuplot)
from goalfem.errors import MalformedCsv
from goalfem.presets import get_preset


def tiny_p2_config(**over):
    base = dict(
        experiment="example1a", geometry="unit_square", n_initial=4,
        system="plaplace", p=2.0, epsilon=1.0, degree=1,
        combine="raw", tol_dis=1e-30, max_levels=3, max_dofs=5000,
        reference_values=(0.03514425375,), je_truth="reference")
    base.update(over)
    return RunConfig(**base)


class TestMarkAverage:
    def test_uniform_all_marked(self):
        assert len(mark_average(np.full(7, 0.3))) == 7

    def test_single_dominant(self):
        marks = mark_average(np.array([1.0, 0.0, 0.0, 0.0]))
        assert list(marks) == [0]

    def test_ties_at_mean_marked(self):
        marks = mark_average(np.array([2.0, 2.0, 2.0, 2.0]), threshold=1.0)
        assert len(marks) == 4

    def test_near_uniform_tie_band(self):
        # spreads within the tie tolerance mark everything
        eta = np.array([1.0, 0.97, 1.02, 0.95])
        assert len(mark_average(eta)) == 4


class TestRunAdaptive:
    def test_q3_q6_level_one_matches_reference_run(self):
        cfg = dataclasses.replace(get_preset("example1a_case1"), max_levels=1)
        rec = run_adaptive(cfg)[0]
        assert rec.n_dofs == 169
        assert rec.eta_h == pytest.approx(8.47e-7, rel=0.2)
        assert rec.je_error == pytest.approx(8.51e-7, rel=0.1)

    def test_one_rule_per_run(self):
        # every integral of the run, goal values included, uses the
        # enriched space's rule: the final mesh holds one geometry
        cfg = dataclasses.replace(get_preset("example2"), max_levels=2)
        meshes = []
        run_adaptive(cfg, on_level=lambda lvl, mesh, u, bd:
                     meshes.append(mesh))
        orders = {key[1] for key in meshes[-1]._caches if key[0] == "geom"}
        assert orders == {cfg.r2 + 2}

    def test_tolerance_stops_immediately(self):
        cfg = tiny_p2_config(tol_dis=1.0, max_levels=6)
        records = run_adaptive(cfg)
        assert len(records) == 1

    def test_uniform_dof_sequence(self):
        cfg = tiny_p2_config(n_initial=2, max_levels=4)
        records = run_uniform(cfg)
        assert [r.n_dofs for r in records] == [9, 25, 81, 289]

    def test_records_reproducible(self):
        cfg = tiny_p2_config()
        a = run_adaptive(cfg)
        b = run_adaptive(cfg)
        for ra, rb in zip(a, b):
            assert ra.values == rb.values
            assert ra.eta_h == rb.eta_h
            assert ra.n_dofs == rb.n_dofs
            assert ra.newton_steps == rb.newton_steps

    def test_previous_level_freed_before_the_solves(self, monkeypatch):
        # once both warm starts are transferred, nothing holds the
        # previous level's mesh (with its cached bases and goal samples)
        meshes, alive = [], []
        original = adaptivity.solve_enriched_adjoint

        def checking(*args, **kwargs):
            alive.append([ref() is not None for ref in meshes])
            return original(*args, **kwargs)

        monkeypatch.setattr(adaptivity, "solve_enriched_adjoint", checking)
        run_adaptive(tiny_p2_config(max_levels=4),
                     on_level=lambda level, mesh, u, b:
                     meshes.append(weakref.ref(mesh)))
        assert alive == [[], [False], [False, False], [False, False, False]]

    def test_dofs_strictly_increase(self):
        records = run_adaptive(tiny_p2_config(max_levels=4))
        dofs = [r.n_dofs for r in records]
        assert all(b > a for a, b in zip(dofs, dofs[1:]))

    def test_homotopy_cold_start_at_p2(self):
        # at p = 2 the continuation path is [2, 2, 2, 2]: the first solve
        # takes the one step of the linear problem, and every later one
        # starts converged, which the residual floor ends with no step
        cfg = tiny_p2_config(n_initial=2, manufactured=True,
                             cold_start="homotopy", max_levels=2,
                             reference_values=None)
        records = run_adaptive(cfg)
        assert [r.level for r in records] == [1, 2]
        first = records[0]
        assert (first.newton_steps, first.enriched_newton_steps) == (1, 1)

    def test_distorted_geometry_reused(self):
        cfg = dataclasses.replace(get_preset("example1b_case1"))
        a = build_geometry(cfg)
        b = build_geometry(cfg)
        assert np.array_equal(a.points, b.points)

    def test_nested_iteration_beats_cold_start(self):
        # warm-started enriched solves need no more iterations than a
        # cold start on the same mesh, on at least 80% of levels
        from goalfem.adaptivity import build_problem
        from goalfem.fespace import build_constraints, build_space
        from goalfem.solver import nested_tolerance, newton_solve

        cfg = RunConfig(
            experiment="example1a", geometry="unit_square", n_initial=2,
            system="plaplace", p=4.0, epsilon=1.0, degree=1,
            combine="raw", tol_dis=1e-30, max_levels=4, max_dofs=5000,
            reference_values=(0.033553988572,), je_truth="reference")
        captured = []
        records = run_adaptive(cfg, on_level=lambda lvl, mesh, u, bd:
                               captured.append(mesh))
        problem = build_problem(cfg)
        wins = 0
        comparisons = 0
        for level, (mesh, rec) in enumerate(zip(captured, records), start=1):
            if level == 1:
                continue
            space2 = build_space(mesh, cfg.r2)
            cons2 = build_constraints(space2, problem.dirichlet)
            u0 = space2.function(np.ones(space2.n_dofs))
            _, stats = newton_solve(problem, space2, cons2, u0,
                                    nested_tolerance(level))
            comparisons += 1
            if rec.enriched_newton_steps <= stats.iterations:
                wins += 1
        assert comparisons >= 2
        assert wins >= 0.8 * comparisons


class TestUniformReference:
    def test_converges_to_known_value(self):
        # Q1 integral converges at O(h^2); 5 refinements of the 4x4 start
        # land within ~3e-6 of the published value (measured 3.20e-6)
        cfg = tiny_p2_config()
        vals = uniform_reference(cfg, 5)
        assert vals[0] == pytest.approx(0.03514425375, abs=5e-6)


class TestCsv:
    def test_roundtrip_and_schema(self, tmp_path):
        records = run_adaptive(tiny_p2_config(max_levels=2))
        path = tmp_path / "out.csv"
        write_csv(records, path)
        header, rows = read_csv(path)
        assert header[:2] == ["level", "dofs"]
        assert header[2:4] == ["J_1", "J_1_rel_error"]
        assert header[4:] == ["J_E_error", "eta_h", "eta_primal",
                              "eta_adjoint", "I_eff", "I_effp", "I_effa",
                              "newton_steps", "wall_ms"]
        assert len(rows) == len(records)
        assert rows[0]["dofs"] == records[0].n_dofs
        assert rows[1]["eta_h"] == pytest.approx(records[1].eta_h, rel=1e-11)

    def test_gnuplot_table(self, tmp_path):
        records = run_adaptive(tiny_p2_config(max_levels=2))
        path = tmp_path / "out.dat"
        write_gnuplot(records, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0].startswith("# level dofs")
        assert len(lines) == 1 + len(records)

    def test_malformed_csv(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("level,dofs\n1\n")
        with pytest.raises(MalformedCsv):
            read_csv(path)


class TestFitRate:
    def test_exact_power_law(self):
        dofs = [100, 400, 1600, 6400, 25600]
        errors = [3.0 / d for d in dofs]
        assert fit_rate(dofs, errors) == pytest.approx(-1.0, abs=0.01)

    def test_single_level_unavailable(self):
        assert math.isnan(fit_rate([100], [1.0]))

    def test_ignores_nonpositive(self):
        dofs = [100, 400, 1600, 6400]
        errors = [1e-2, 0.0, 1e-3, 2.5e-4]
        assert math.isfinite(fit_rate(dofs, errors, min_levels=2))
