"""The record comparison of tools/compare_records.py on synthetic records,
and its control perturbation of the residual and the goal gradients in
process."""

import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "compare_records.py"
_spec = importlib.util.spec_from_file_location("compare_records", _PATH)
compare_records = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_records)


def records():
    return [{"level": k, "n_dofs": 10 * k, "n_cells": 4 * k,
             "values": (1.0 / k, 2.0), "rel_errors": (math.nan, 0.5),
             "je_error": 0.1 / k, "eta_h": 0.1 / k, "i_eff": math.nan,
             "newton_steps": 2, "enriched_newton_steps": 3,
             "adjoint_applications": 4, "adjoint_factorized": 0,
             "wall_ms": 5.0 * k}
            for k in (1, 2, 3)]


def test_identical():
    identical, rel_diff = compare_records.compare(records(), records())
    assert all(identical.values())
    # the counts are the fields holding ints
    assert set(identical) == {f for f, v in records()[0].items()
                              if isinstance(v, int)}
    assert "wall_ms" not in rel_diff
    assert "level" in identical and "level" not in rel_diff
    # NaN against NaN (rel_errors, i_eff) counts as equal
    assert all(d == (0.0, None) for d in rel_diff.values())


def test_one_dof_changed():
    change = records()
    change[1]["n_dofs"] += 1
    identical, rel_diff = compare_records.compare(records(), change)
    assert identical == {"level": True, "n_dofs": False, "n_cells": True,
                         "newton_steps": True, "enriched_newton_steps": True,
                         "adjoint_applications": True,
                         "adjoint_factorized": True}
    change.pop()
    identical, _ = compare_records.compare(records(), change + records()[:1])
    assert not identical["level"]


def test_adjoint_path_flip_differs():
    # one level factors its enriched adjoint instead of going matrix-free
    change = records()
    change[1]["adjoint_applications"] = 0
    change[1]["adjoint_factorized"] = 1
    identical, rel_diff = compare_records.compare(records(), change)
    assert not identical["adjoint_factorized"]
    assert not identical["adjoint_applications"]
    assert "adjoint_factorized" not in rel_diff
    lines, ok = compare_records.report("w/1", records(), change)
    assert not ok and "adjoint_factorized NO @ 2" in lines[1]
    assert "adjoint_applications NO @ 2," in lines[1]


def test_any_int_field_is_a_count():
    # a count column no list names is compared exactly all the same
    parent, change = records(), records()
    for k, (p, c) in enumerate(zip(parent, change)):
        p["linear_iterations"] = c["linear_iterations"] = 7 + k
    change[2]["linear_iterations"] += 1
    identical, rel_diff = compare_records.compare(parent, change)
    assert identical["linear_iterations"] is False
    assert "linear_iterations" not in rel_diff
    lines, ok = compare_records.report("w/1", parent, change)
    assert not ok and "linear_iterations NO @ 3" in lines[1]


def test_count_levels_name_a_level_one_side_lacks():
    extra = dict(records()[-1], level=4, n_dofs=40)
    lines, ok = compare_records.report("w/1", records(), records() + [extra])
    assert not ok
    assert "level NO @ 4, n_dofs NO @ 4, n_cells NO @ 4," in lines[1]


def test_value_drift_and_nan_mismatch():
    change = records()
    change[2]["values"] = (1.0 / 3 * (1 + 1e-12), 2.0)
    change[0]["i_eff"] = 1.0
    change[0]["wall_ms"] = 1e6
    identical, rel_diff = compare_records.compare(records(), change)
    assert all(identical.values())
    # each largest difference comes with the level it occurs at
    assert rel_diff["values"][0] == pytest.approx(1e-12, rel=1e-3)
    assert rel_diff["values"][1] == 3
    assert rel_diff["i_eff"] == (math.inf, 1)
    assert rel_diff["eta_h"] == (0.0, None)


def test_report_prints_control_drift_next_to_change_drift():
    change, control = records(), records()
    change[2]["eta_h"] *= 1 + 1e-9
    control[2]["eta_h"] *= 1 + 1e-3
    control[1]["newton_steps"] += 1
    lines, ok = compare_records.report("w/1", records(), change, control)
    assert ok                 # the control does not enter the status
    assert lines[0] == "w/1: 3 levels, final DOFs 30"
    assert "newton_steps NO @ 2," in lines[2]
    assert "eta_h 1e-09 @ 3 / 0.000999 @ 3" in lines[3]
    assert "values 0 / 0" in lines[3]
    plain, _ = compare_records.report("w/1", records(), change)
    assert len(plain) == 3 and "/" not in plain[2]
    assert "eta_h 1e-09 @ 3," in plain[2]


def test_main_runs_the_control_on_the_parent(monkeypatch, capsys):
    calls = []

    def fake_run_side(checkout, runs=compare_records.RUNS, control=False):
        calls.append((checkout, control))
        out = records()
        if control:
            out[0]["eta_h"] *= 1 + 2.0 ** -52
        return {"w/1": out}

    monkeypatch.setattr(compare_records, "run_side", fake_run_side)
    assert compare_records.main(["--control", "P", "C"]) == 0
    assert calls == [("P", False), ("C", False), ("P", True)]
    out = capsys.readouterr().out
    assert "(change / control)" in out and "records agree" in out
    assert compare_records.main(["--control", "P"]) == 2


def test_failed_side_prints_its_error(tmp_path, capsys):
    # a checkout without goalfem fails in its child: the child's error
    # is printed, and the status is not the "records DIFFER" 1
    assert compare_records.main([str(tmp_path), str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert "ModuleNotFoundError" in captured.err
    assert "records" not in captured.out


def test_perturb_residual_scales_every_binding():
    # the residual at every binding, and the gradient of every goal (the
    # adjoint right-hand sides), leaves and composites alike
    from goalfem import adaptivity, assembly, goals, solver
    from goalfem.multigoal import CombinedFunctional
    from conftest import poisson_setup

    problem, _, space, cons, u, _ = poisson_setup(3)
    u = space.function(u.coeffs + 0.1)
    original = assembly.assemble_residual
    gradient = goals.Functional.gradient
    exact = original(problem, cons, u)
    leaf = goals.PointValue((0.3, 0.6))
    fns = [leaf, goals.Power(goals.RegionIntegral(), 2)]
    combined = CombinedFunctional(fns, [1.0, 2.0], [1.5, 1.0])
    exact_gradients = [J.gradient(cons, u) for J in fns + [combined]]
    restore = compare_records.perturb()
    try:
        for module in (assembly, solver, adaptivity):
            assert module.assemble_residual is not original
        got = solver.assemble_residual(problem, cons, u)
        assert np.array_equal(got, exact * compare_records.CONTROL_SCALE)
        assert not np.array_equal(got, exact)
        for J, want in zip(fns + [combined], exact_gradients):
            got = J.gradient(cons, u)
            assert np.array_equal(got, want * compare_records.CONTROL_SCALE)
            assert not np.array_equal(got, want)
    finally:
        restore()
    for module in (assembly, solver, adaptivity):
        assert module.assemble_residual is original
    assert goals.Functional.gradient is gradient
    assert np.array_equal(leaf.gradient(cons, u), exact_gradients[0])
    # the one method perturb scales is every goal's gradient: a class
    # that defined its own would leave its goals unperturbed
    classes, todo = [], [goals.Functional]
    while todo:
        classes.append(todo.pop())
        todo.extend(classes[-1].__subclasses__())
    assert CombinedFunctional in classes
    assert [cls for cls in classes if "gradient" in vars(cls)] \
        == [goals.Functional]
