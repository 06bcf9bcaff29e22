import dataclasses
import math
import time
import weakref

import numpy as np
import pytest

from goalfem import adaptivity, estimator
from goalfem.adaptivity import (RunConfig, build_geometry, fit_rate,
                                mark_average, read_csv, run_adaptive,
                                run_uniform, write_csv, write_gnuplot)
from goalfem.errors import IterationCap, MalformedCsv
from goalfem.mesh import Mesh
from goalfem.presets import get_preset

from conftest import uniform_reference


def tiny_p2_config(**over):
    base = dict(
        experiment="example1a", geometry="unit_square", n_initial=4,
        system="plaplace", p=2.0, epsilon=1.0, degree=1,
        combine="raw", tol_dis=1e-30, max_levels=3, max_dofs=5000,
        reference_values=(0.03514425375,), je_truth="reference")
    base.update(over)
    return RunConfig(**base)


def enriched_last_rebuilt(lines):
    """Per level of a run's log, the rebuilt flag of the enriched
    Newton's last step: its step lines are the ones without the coarse
    adjoint's eta_m note, and a level ends with its summary line."""
    flags, last = [], None
    for line in lines:
        if line.startswith("  newton") and "eta_m" not in line:
            last = line.endswith("rebuilt=True")
        elif line.startswith("level "):
            flags.append(last)
    return flags


class TestMarkAverage:
    def test_uniform_all_marked(self):
        assert len(mark_average(np.full(7, 0.3))) == 7

    def test_single_dominant(self):
        marks = mark_average(np.array([1.0, 0.0, 0.0, 0.0]))
        assert list(marks) == [0]

    def test_ties_at_mean_marked(self, monkeypatch):
        assert len(mark_average(np.array([2.0, 2.0, 2.0, 2.0]))) == 4
        # without the tie band, values exactly at the mean still count
        monkeypatch.setattr(adaptivity, "MARK_THRESHOLD", 1.0)
        assert len(mark_average(np.array([2.0, 2.0, 2.0, 2.0]))) == 4

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

    def test_load_evaluated_once_per_level(self, monkeypatch):
        # the homotopy cold start's p-steps, both spaces, every Newton
        # residual and the estimate of a level read one evaluation of
        # the manufactured load, on that level's mesh
        calls = []
        build = adaptivity.build_problem

        def counted(config):
            problem = build(config)

            def load(x, y):
                calls.append(np.shape(x))
                return problem.load(x, y)

            return dataclasses.replace(problem, load=load)

        monkeypatch.setattr(adaptivity, "build_problem", counted)
        cfg = dataclasses.replace(get_preset("example1b_case1"),
                                  max_levels=3)
        records = run_adaptive(cfg)
        assert len(records) == 3
        assert [shape[0] for shape in calls] == [r.n_cells for r in records]

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

    def test_enriched_lu_freed_before_the_estimate(self, monkeypatch):
        # the enriched Newton's LU preconditions the enriched adjoint and
        # is unreachable once the estimate runs
        lus, alive = [], []
        adjoint, estimate = adaptivity.solve_enriched_adjoint, \
            adaptivity.estimate

        def keeping(*args, **kwargs):
            lus.append(weakref.ref(args[4]))
            return adjoint(*args, **kwargs)

        def checking(*args, **kwargs):
            alive.append(lus[-1]() is not None)
            return estimate(*args, **kwargs)

        monkeypatch.setattr(adaptivity, "solve_enriched_adjoint", keeping)
        monkeypatch.setattr(adaptivity, "estimate", checking)
        run_adaptive(tiny_p2_config())
        assert alive == [False, False, False]

    def test_level_clock(self, monkeypatch):
        # a level's wall_ms spans its own two space builds and starts
        # after the refinement that made its mesh; each build and refine
        # sleeps ``pause``, far longer than the few statements between a
        # level's clock stop and its on_level call
        build, refine = adaptivity.build_space, Mesh.refine
        pause = 0.05
        builds, refined, ends = [], [], []

        def slow_build(*args, **kwargs):
            builds.append(time.perf_counter())
            time.sleep(pause)
            return build(*args, **kwargs)

        def slow_refine(*args, **kwargs):
            time.sleep(pause)
            mesh = refine(*args, **kwargs)
            refined.append(time.perf_counter())
            return mesh

        monkeypatch.setattr(adaptivity, "build_space", slow_build)
        monkeypatch.setattr(Mesh, "refine", slow_refine)
        records = run_adaptive(tiny_p2_config(), on_level=lambda *_:
                               ends.append(time.perf_counter()))
        assert (len(records), len(builds), len(refined)) == (3, 6, 2)
        # end - wall_ms is the level's clock start plus that slack
        starts = [end - rec.wall_ms / 1e3 for rec, end in zip(records, ends)]
        for rec, start, first_build in zip(records, starts, builds[::2]):
            assert rec.wall_ms >= 2e3 * pause
            assert start < first_build + pause
        for start, made in zip(starts[1:], refined):
            assert start >= made

    def test_adjoint_path_recorded(self, monkeypatch):
        # each level's adjoint runs matrix-free on the enriched Newton's
        # last LU, fresh or stale; an unmeetable acceptance bound sends
        # every level to the assembled and factored J(u2)
        runs = [
            # p = 2: every enriched Newton step factorizes afresh
            (tiny_p2_config(), [True] * 3),
            # p = 4, epsilon = 1e-2: each level's last enriched step
            # reuses an LU factorized steps before u2
            (tiny_p2_config(p=4.0, epsilon=1e-2, n_initial=2), [False] * 3)]
        matrix_free = []
        for cfg, last_rebuilt in runs:
            lines = []
            matrix_free.append(run_adaptive(cfg, log=lines.append))
            assert enriched_last_rebuilt(lines) == last_rebuilt
            assert [r.adjoint_factorized for r in matrix_free[-1]] \
                == [0, 0, 0]
            assert all(r.adjoint_applications >= 2 for r in matrix_free[-1])
        monkeypatch.setattr(estimator, "ADJOINT_ACCEPT", 0.0)
        for (cfg, _), krylov in zip(runs, matrix_free):
            fallen = run_adaptive(cfg)
            assert [r.adjoint_factorized for r in fallen] == [1, 1, 1]
            assert [r.adjoint_applications for r in fallen] \
                == [r.adjoint_applications for r in krylov]
            for a, b in zip(krylov, fallen):
                assert b.eta_h == pytest.approx(a.eta_h, rel=1e-10)

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

    def test_capped_cold_start_names_homotopy(self):
        # from all ones the level-1 Newton of this p = 4 run hits the
        # cap; the homotopy cold start the message names runs every level
        cfg = tiny_p2_config(p=4.0, epsilon=1e-2)
        with pytest.raises(IterationCap, match="cold_start = homotopy") \
                as err:
            run_adaptive(cfg)
        assert err.value.records == []
        assert err.value.stats.iterations == 100
        records = run_adaptive(dataclasses.replace(cfg, cold_start="homotopy"))
        assert [r.n_dofs for r in records] == [25, 81, 225]

    def test_capped_homotopy_names_no_remedy(self, monkeypatch):
        from goalfem import solver
        monkeypatch.setattr(solver, "ITERATION_CAP", 1)
        cfg = tiny_p2_config(p=4.0, epsilon=1e-2, cold_start="homotopy")
        with pytest.raises(IterationCap) as err:
            run_adaptive(cfg)
        assert str(err.value) == "|A| = %.3e after 1 iterations" \
            % err.value.stats.residual_norms[-1]

    def test_level_log_line_reads_the_record(self):
        # the homotopy's Newton steps count in the record, so the log
        # line, formatted from the record, shows them too
        cfg = tiny_p2_config(n_initial=2, manufactured=True,
                             cold_start="homotopy", max_levels=2,
                             reference_values=None)
        lines = []
        records = run_adaptive(cfg, log=lines.append)
        level_lines = [line for line in lines if line.startswith("level ")]
        assert len(level_lines) == len(records)
        for line, rec in zip(level_lines, records):
            assert line == (
                f"level {rec.level}: dofs={rec.n_dofs} "
                f"eta_h={rec.eta_h:.3e} J_E_err=nan "
                f"newton={rec.newton_steps} "
                f"(enriched {rec.enriched_newton_steps})")

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
            _, _, stats = newton_solve(problem, cons2, u0,
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


def hand_made_records():
    """Two records of a two-goal run, with nan, negative, zero and
    rounded values in the formatted columns."""
    common = dict(je_surrogate=2.5e-4, eta_primal=-1e-3, eta_adjoint=2e-3,
                  i_eff=1.25, i_effp=-0.5, i_effa=math.nan)
    return [
        adaptivity.ConvergenceRecord(
            level=1, n_dofs=9, n_cells=4, values=(0.5, -1.0 / 3.0),
            rel_errors=(1e-2, math.nan), je_error=3e-3, eta_h=1e-3,
            newton_steps=2, enriched_newton_steps=3, eta_m=math.nan,
            adjoint_applications=0, adjoint_factorized=1,
            wall_ms=12.3456, **common),
        adaptivity.ConvergenceRecord(
            level=2, n_dofs=25, n_cells=10, values=(0.25, 2.0),
            rel_errors=(5e-3, 0.0), je_error=math.nan, eta_h=123.0,
            newton_steps=0, enriched_newton_steps=1, eta_m=7e-9,
            adjoint_applications=7, adjoint_factorized=0,
            wall_ms=0.0004, **common),
    ]


# what write_csv and write_gnuplot make of hand_made_records()
HAND_MADE_CSV = (
    "level,dofs,J_1,J_1_rel_error,J_2,J_2_rel_error,J_E_error,eta_h,"
    "eta_primal,eta_adjoint,I_eff,I_effp,I_effa,newton_steps,wall_ms,"
    "n_cells,enriched_newton_steps,eta_m,je_surrogate,"
    "adjoint_applications,adjoint_factorized\r\n"
    "1,9,5.000000000000e-01,1.000000000000e-02,-3.333333333333e-01,nan,"
    "3.000000000000e-03,1.000000000000e-03,-1.000000000000e-03,"
    "2.000000000000e-03,1.250000000000e+00,-5.000000000000e-01,nan,"
    "2,12.346,4,3,nan,2.500000000000e-04,0,1\r\n"
    "2,25,2.500000000000e-01,5.000000000000e-03,2.000000000000e+00,"
    "0.000000000000e+00,nan,1.230000000000e+02,-1.000000000000e-03,"
    "2.000000000000e-03,1.250000000000e+00,-5.000000000000e-01,nan,"
    "0,0.000,10,1,7.000000000000e-09,2.500000000000e-04,7,0\r\n")
HAND_MADE_DAT = (
    "# level dofs J_1 J_1_rel_error J_2 J_2_rel_error J_E_error eta_h "
    "eta_primal eta_adjoint I_eff I_effp I_effa newton_steps wall_ms "
    "n_cells enriched_newton_steps eta_m je_surrogate "
    "adjoint_applications adjoint_factorized\n"
    "1 9 5.000000000000e-01 1.000000000000e-02 -3.333333333333e-01 nan "
    "3.000000000000e-03 1.000000000000e-03 -1.000000000000e-03 "
    "2.000000000000e-03 1.250000000000e+00 -5.000000000000e-01 nan "
    "2 12.346 4 3 nan 2.500000000000e-04 0 1\n"
    "2 25 2.500000000000e-01 5.000000000000e-03 2.000000000000e+00 "
    "0.000000000000e+00 nan 1.230000000000e+02 -1.000000000000e-03 "
    "2.000000000000e-03 1.250000000000e+00 -5.000000000000e-01 nan "
    "0 0.000 10 1 7.000000000000e-09 2.500000000000e-04 7 0\n")


class TestCsv:
    def test_roundtrip_and_schema(self, tmp_path):
        records = run_adaptive(tiny_p2_config(max_levels=2))
        path = tmp_path / "out.csv"
        write_csv(records, path)
        header, rows = read_csv(path)
        assert header[:2] == ["level", "dofs"]
        assert header[2:4] == ["J_1", "J_1_rel_error"]
        assert header[4:13] == ["J_E_error", "eta_h", "eta_primal",
                                "eta_adjoint", "I_eff", "I_effp", "I_effa",
                                "newton_steps", "wall_ms"]
        assert header[13:] == ["n_cells", "enriched_newton_steps", "eta_m",
                               "je_surrogate", "adjoint_applications",
                               "adjoint_factorized"]
        assert len(rows) == len(records)
        assert rows[0]["dofs"] == records[0].n_dofs
        assert rows[1]["eta_h"] == pytest.approx(records[1].eta_h, rel=1e-11)
        for row, rec in zip(rows, records):
            assert row["n_cells"] == rec.n_cells
            assert row["enriched_newton_steps"] == rec.enriched_newton_steps
            assert row["eta_m"] == pytest.approx(rec.eta_m, rel=1e-11)
            assert row["je_surrogate"] == pytest.approx(rec.je_surrogate,
                                                        rel=1e-11)
            assert row["adjoint_applications"] == rec.adjoint_applications
            assert row["adjoint_factorized"] == rec.adjoint_factorized

    def test_gnuplot_table(self, tmp_path):
        records = run_adaptive(tiny_p2_config(max_levels=2))
        path = tmp_path / "out.dat"
        write_gnuplot(records, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0].startswith("# level dofs")
        assert len(lines) == 1 + len(records)

    def test_exact_text(self, tmp_path):
        records = hand_made_records()
        write_csv(records, tmp_path / "out.csv")
        write_gnuplot(records, tmp_path / "out.dat")
        assert (tmp_path / "out.csv").read_bytes().decode() == HAND_MADE_CSV
        assert (tmp_path / "out.dat").read_text() == HAND_MADE_DAT

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
