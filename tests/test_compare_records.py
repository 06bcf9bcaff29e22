"""The record comparison of tools/compare_records.py, on synthetic records."""

import importlib.util
import math
from pathlib import Path

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
             "wall_ms": 5.0 * k}
            for k in (1, 2, 3)]


def test_identical():
    identical, rel_diff = compare_records.compare(records(), records())
    assert all(identical.values())
    assert set(identical) == set(compare_records.EXACT)
    assert "wall_ms" not in rel_diff
    # NaN against NaN (rel_errors, i_eff) counts as equal
    assert all(d == 0.0 for d in rel_diff.values())


def test_one_dof_changed():
    change = records()
    change[1]["n_dofs"] += 1
    identical, rel_diff = compare_records.compare(records(), change)
    assert identical == {"n_dofs": False, "n_cells": True,
                         "newton_steps": True, "enriched_newton_steps": True}


def test_value_drift_and_nan_mismatch():
    change = records()
    change[2]["values"] = (1.0 / 3 * (1 + 1e-12), 2.0)
    change[0]["i_eff"] = 1.0
    change[0]["wall_ms"] = 1e6
    identical, rel_diff = compare_records.compare(records(), change)
    assert all(identical.values())
    assert rel_diff["values"] == pytest.approx(1e-12, rel=1e-3)
    assert rel_diff["i_eff"] == math.inf
    assert rel_diff["eta_h"] == 0.0
