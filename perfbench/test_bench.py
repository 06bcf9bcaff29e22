"""Checks of the benchmark itself: tracer coverage and correctness gates.

    python3 -m pytest perfbench/test_bench.py -q

Each workload runs once traced, in this process (about 15 s in all).
"""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import child
from spans import SPANS, Installation, Tracer
from workloads import WORKLOADS, check

HERE = Path(__file__).resolve().parent

# the spans each workload is meant to stress
STRESSED = {
    "slit_quasilinear": ("assembly.jacobian", "linalg.factorize"),
    "cheese_plaplace": ("assembly.residual",),
    "square_q3q6": ("fespace.build_space", "fespace.build_constraints"),
}


def test_every_binding_is_wrapped_and_restored():
    from goalfem import adaptivity, assembly, solver

    original = assembly.assemble_residual
    installation = Installation(Tracer())
    try:
        assert installation.stale_bindings() == []
        # bound by ``from .assembly import`` in solver and adaptivity
        for module in (assembly, solver, adaptivity):
            assert module.assemble_residual is not original
    finally:
        installation.restore()
    for module in (assembly, solver, adaptivity):
        assert module.assemble_residual is original


@pytest.fixture(scope="module")
def traced_runs():
    return {name: child.run(w, 1, traced=True)
            for name, w in WORKLOADS.items()}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_run_covers_every_layer(traced_runs, name):
    out = traced_runs[name]
    layers = out["layers"]
    assert out["failures"] == []
    for span in SPANS:
        assert layers[f"{span}.calls"] > 0, span
    for span in STRESSED[name]:
        assert layers[f"{span}.self_s"] > 0.1 * out["solve_s"], span
    assert layers["assembly.jacobian.nnz"] > 0
    assert layers["linalg.factorize.fill_nnz"] > 0
    assert layers["solver.line_search.trials"] \
        >= layers["solver.line_search.calls"] > 0
    # time outside every span: a renamed or unwrapped function would
    # move its time here
    assert layers["adaptivity.self_s"] < 0.05 * out["solve_s"]


def test_check_rejects_missed_target():
    w = WORKLOADS["cheese_plaplace"]
    levels = [{"level": k, "dofs": 10 * k, "je_error": 1.0, "i_eff": 1.0,
               "eta_h": 1e-12, "eta_m": 0.0, "rel_errors": [0.0]}
              for k in range(1, w.max_levels + 1)]
    failures, _ = check(w, w.config(1), levels)
    assert any("above target" in f for f in failures)


def test_exits_without_result_when_sources_are_missing(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload",
         "cheese_plaplace", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
